import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from glasnerlab.errors import DimensionMismatch, NonIntegerValue
from glasnerlab.polymat import (
    IntPoly,
    MPoly,
    MPolyMat,
    PolyMat,
    bilinear_poly,
    coeff_matrices,
    coeff_norm,
    poly_mat_eval,
    substitute,
)

from conftest import X, ZERO, is_integer_valued, poly, random_poly_matrix, scalar_matrix


def test_poly_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly().is_zero()
    assert IntPoly([0]).degree == -1
    assert X.degree == 1


def test_poly_arithmetic():
    p = poly(1, 2)  # 1 + 2x
    q = poly(0, 0, 3)  # 3x^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).is_zero()
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p * 2).coeffs == (2, 4)


@given(st.lists(st.integers(-9, 9), max_size=5), st.integers(-20, 20))
def test_poly_eval_matches_horner_free_form(coeffs, n):
    p = IntPoly(coeffs)
    assert p(n) == sum(c * n**k for k, c in enumerate(coeffs))


def test_integer_valued_binomial():
    # x(x-1)/2 has rational coefficients but integer values everywhere
    b = IntPoly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert not b.has_integer_coeffs()
    assert is_integer_valued(b)
    assert b.eval_int(5) == 10
    assert b.eval_int(-3) == 6


def test_non_integer_valued_detected():
    h = IntPoly([0, Fraction(1, 2)])
    assert not is_integer_valued(h)
    with pytest.raises(NonIntegerValue):
        h.eval_int(1)


@pytest.mark.parametrize(
    "n,expected",
    [(3, [[3, 0], [0, 3]]), (0, [[0, 0], [0, 0]]), (-2, [[-2, 0], [0, -2]])],
)
def test_poly_mat_eval_scalar(scalar_x, n, expected):
    assert poly_mat_eval(scalar_x, n).entries == expected


def test_poly_mat_eval_powers(power_matrix):
    assert poly_mat_eval(power_matrix, 2).entries == [[2, 4], [8, 16]]


def test_poly_mat_eval_binomial_entry():
    A = PolyMat(
        [
            [poly(1), IntPoly([0, Fraction(-1, 2), Fraction(1, 2)])],
            [ZERO, poly(1)],
        ]
    )
    assert poly_mat_eval(A, 5).entries == [[1, 10], [0, 1]]


def test_polymat_must_be_square():
    with pytest.raises(DimensionMismatch):
        PolyMat([[X, X]])


def test_coeff_matrices_roundtrip(power_matrix):
    bs = coeff_matrices(power_matrix)
    assert len(bs) == 5
    d = power_matrix.dim
    rebuilt = PolyMat(
        [
            [IntPoly([bs[k][i][j] for k in range(len(bs))]) for j in range(d)]
            for i in range(d)
        ]
    )
    assert rebuilt == power_matrix


def test_coeff_matrices_scalar(scalar_x):
    bs = coeff_matrices(scalar_x)
    assert bs[0] == [[0, 0], [0, 0]]
    assert bs[1] == [[1, 0], [0, 1]]


def test_coeff_matrices_constant():
    A = PolyMat([[poly(7)]])
    assert coeff_matrices(A) == [[[7]]]


def test_bilinear_poly_orthogonal_pair_on_scalar(scalar_x):
    assert bilinear_poly(scalar_x, (1, 0), (0, 1)).is_zero()


@pytest.mark.parametrize(
    "v,w,expected",
    [
        ((1, 0), (1, 0), X),
        ((1, 1), (1, 1), poly(0, 1, 1, 1, 1)),
    ],
)
def test_bilinear_poly_powers(power_matrix, v, w, expected):
    assert bilinear_poly(power_matrix, v, w) == expected


def test_bilinear_cancellation(symmetric_mix):
    assert bilinear_poly(symmetric_mix, (1, 1), (1, -1)).is_zero()


def test_coeff_norm():
    assert coeff_norm(scalar_matrix(2, X)) == 1
    assert coeff_norm(PolyMat([[poly(-5, 0, 3)]])) == 5
    assert coeff_norm(PolyMat([[ZERO]])) == 0
    assert coeff_norm(PolyMat([[poly(-5, 0, 3)]]), include_constant=False) == 3


def test_evaluation_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 3)
        A = random_poly_matrix(rng, d, rng.randint(0, 3), 4)
        B = random_poly_matrix(rng, d, rng.randint(0, 3), 4)
        n = rng.randint(-6, 6)
        assert poly_mat_eval(A @ B, n) == poly_mat_eval(A, n) @ poly_mat_eval(B, n)


def test_mpoly_basics():
    n1 = MPoly.var(2, 0)
    n2 = MPoly.var(2, 1)
    p = n1 * n2 + MPoly.const(2, 3)
    assert p((2, 5)) == 13
    assert (p + p * -1).is_zero()


def test_substitute_powers():
    n1 = MPoly.var(2, 0)
    n2 = MPoly.var(2, 1)
    p = n1 * n2
    assert p.substitute_powers([1, 2]) == IntPoly([0, 0, 0, 1])  # x * x^2 = x^3


def test_substitute_matrix_constant():
    M = MPolyMat(2, [[MPoly.const(2, 4)]])
    assert substitute(M, [1, 2]) == PolyMat([[poly(4)]])


def test_substitute_commutes_with_evaluation():
    rng = random.Random(5)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randint(-4, 4)
            for _ in range(4)
        }
        p = MPoly(nvars, terms)
        M = MPolyMat(nvars, [[p]])
        exps = [rng.randint(1, 4) for _ in range(nvars)]
        A = substitute(M, exps)
        for n in range(-3, 4):
            point = [n**e for e in exps]
            assert A.entries[0][0](n) == p(point)


def test_substitute_rejects_nonpositive_exponents():
    M = MPolyMat(1, [[MPoly.var(1, 0)]])
    with pytest.raises(ValueError):
        substitute(M, [0])
