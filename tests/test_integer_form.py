"""PolyMat.integer_form and the integer code built on it, against the
Fraction code it replaced (kept in conftest as oracles)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glasnerlab.checker import _FleeingScan, _primitive_vectors, find_violation, fleeing_matrix
from glasnerlab.errors import NonIntegerValue
from glasnerlab.polymat import IntPoly, PolyMat, coeff_matrices, coeff_norm

from conftest import (
    FractionFleeingScan,
    fraction_find_violation,
    fraction_fleeing_matrix,
    fraction_poly_integer_form,
    plant,
)

DENS = (1, 2, 3, 6)
COEFF = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENS))
SCAN_HEIGHT = {2: 3, 3: 3, 4: 2}


def from_coeffs(cs) -> PolyMat:
    """A(x) = sum_k cs[k] x^k."""
    d = len(cs[0])
    return PolyMat([[IntPoly([C[i][j] for C in cs]) for j in range(d)] for i in range(d)])


@st.composite
def rational_matrices(draw, dims=st.integers(2, 4), degrees=st.integers(1, 4)):
    """(A, H): coefficients with denominators in {1, 2, 3, 6}, each B_k
    (k >= 1) zero one time in four, and one time in two a planted rank-one
    violation at a w of height <= H."""
    d = draw(dims)
    D = draw(degrees)
    cs = [[[draw(COEFF) for _ in range(d)] for _ in range(d)] for _ in range(D + 1)]
    for k in range(1, D + 1):
        if draw(st.integers(0, 3)) == 0:
            cs[k] = [[0] * d for _ in range(d)]
    height = draw(st.integers(1, SCAN_HEIGHT.get(d, 3)))
    if D >= 1 and draw(st.booleans()):
        w0 = draw(st.sampled_from(list(_primitive_vectors(d, height))))
        v0 = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
        cs = plant(cs, v0, w0)
    return from_coeffs(cs), height


@settings(max_examples=60, deadline=None)
@given(rational_matrices(dims=st.integers(1, 4), degrees=st.integers(0, 4)), st.booleans())
def test_integer_form_is_the_least_common_denominator_form(case, include_constant):
    A, _ = case
    L, Cs = A.integer_form()
    bs = coeff_matrices(A)
    assert L == math.lcm(*(c.denominator for B in bs for row in B for c in row))
    assert len(Cs) == len(bs)
    for B, C in zip(bs, Cs):
        assert all(type(c) is int for row in C for c in row)
        assert [[L * c for c in row] for row in B] == [list(row) for row in C]
    assert A.integer_form() is A.integer_form()
    # coeff_norm against its definition on the Fraction coefficients
    cs = [c for B in bs[0 if include_constant else 1 :] for row in B for c in row]
    if any(c.denominator != 1 for c in cs):
        with pytest.raises(NonIntegerValue, match="coefficient norm needs integer coefficients"):
            coeff_norm(A, include_constant)
    else:
        assert coeff_norm(A, include_constant) == max(map(abs, cs), default=0)


def test_integer_form_of_zero_and_constant_matrices():
    zero = IntPoly()
    assert zero.integer_form() == fraction_poly_integer_form(zero) == ((), 1)
    assert PolyMat([[zero, zero], [zero, zero]]).integer_form() == (1, (((0, 0), (0, 0)),))
    A = PolyMat([[IntPoly([Fraction(1, 2)]), zero], [zero, IntPoly([3])]])
    assert A.integer_form() == (2, (((1, 0), (0, 6)),))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        COEFF | st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**6)),
        max_size=8,
    )
)
def test_poly_integer_form_matches_fraction_loop(coeffs):
    p = IntPoly(coeffs)
    assert p.integer_form() == fraction_poly_integer_form(p)


@settings(max_examples=60, deadline=None)
@given(
    rational_matrices(dims=st.integers(1, 4), degrees=st.integers(0, 4)),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
def test_fleeing_matrix_matches_fraction_clearing(case, w):
    A, _ = case
    w = w[: A.dim]
    got, want = fleeing_matrix(A, w), fraction_fleeing_matrix(A, w)
    if want is None:
        assert got is None
    else:
        assert got.entries == want.entries


@settings(max_examples=30, deadline=None)
@given(rational_matrices())
def test_scan_matches_fraction_scan(case):
    A, height = case
    scan, oracle = _FleeingScan(A), FractionFleeingScan(A)
    for w in _primitive_vectors(A.dim, height):
        assert scan.violating_v(w) == oracle.violating_v(w)
    assert find_violation(A, height) == fraction_find_violation(A, height)
