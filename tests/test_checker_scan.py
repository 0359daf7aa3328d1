"""The fleeing scan against the code it replaced.

`fraction_violating_v` is the scan's per-w decision before the integer
determinant filter: every column B_k w goes into an incremental Fraction
span, then the integer left kernel.  `product_primitive_vectors` is the
enumeration before the direct one: all of [-H, H]^d, filtered.  Both are
kept here, as test oracles only.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from glasnerlab import checker
from glasnerlab.checker import _FleeingScan, _primitive_vectors, check_pair, find_violation
from glasnerlab.intmat import IntMat, bareiss_det, gcd_vec, left_kernel_integer
from glasnerlab.polymat import IntPoly, PolyMat, coeff_matrices

from conftest import plant

SCAN = settings(max_examples=40, deadline=None)
MAX_HEIGHT = {1: 5, 2: 4, 3: 2, 4: 1}


def fraction_violating_v(A: PolyMat, w):
    """A primitive v with v^t (A(x) - A(0)) w = 0, or None at full rank."""
    d = A.dim
    bs = coeff_matrices(A)
    if len(bs) == 1:
        return tuple([1] + [0] * (d - 1))
    span_rows: list = []
    pivots: list = []
    cols = []
    for B in bs[1:]:
        col = [sum(B[i][j] * int(w[j]) for j in range(d)) for i in range(d)]
        cols.append(col)
        v = [Fraction(x) for x in col]
        for row, p in zip(span_rows, pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        for p, x in enumerate(v):
            if x:
                span_rows.append([a / x for a in v])
                pivots.append(p)
                break
        if len(span_rows) == d:
            return None
    den = math.lcm(*(Fraction(c).denominator for col in cols for c in col))
    M = IntMat([[int(c * den) for c in (col[i] for col in cols)] for i in range(d)])
    basis = left_kernel_integer(M)
    return min(basis) if basis else None


def product_primitive_vectors(d: int, height: int):
    for w in product(range(-height, height + 1), repeat=d):
        if not any(w):
            continue
        if next(x for x in w if x) < 0:
            continue
        if gcd_vec(w) != 1:
            continue
        yield w


def oracle_find_violation(A: PolyMat, height: int):
    for w in product_primitive_vectors(A.dim, height):
        v = fraction_violating_v(A, w)
        if v is not None:
            return v, w
    return None


def binomial(k: int) -> IntPoly:
    """C(x, k) = x (x - 1) ... (x - k + 1) / k!."""
    p = IntPoly([1])
    for j in range(k):
        p = p * IntPoly([-j, 1])
    return p * Fraction(1, math.factorial(k))


def matrix_from_coeffs(cs, binomial_basis: bool) -> PolyMat:
    """A(x) = sum_k cs[k] x^k, or sum_k cs[k] C(x, k) in the binomial basis."""
    d = len(cs[0])
    basis = [binomial(k) if binomial_basis else IntPoly([0] * k + [1]) for k in range(len(cs))]
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            p = IntPoly()
            for k, C in enumerate(cs):
                p = p + basis[k] * C[i][j]
            row.append(p)
        entries.append(row)
    return PolyMat(entries)


def int_matrices(draw, d, count, bound):
    entry = st.integers(-bound, bound)
    return [
        [[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(count)
    ]


@st.composite
def scan_cases(draw):
    """(A, H, planted w or None): d = 1..4, degree d - 1, d or d + 1,
    power or binomial basis, sometimes with a planted rank-one violation."""
    d = draw(st.integers(1, 4))
    degree = d + draw(st.integers(-1, 1))
    cs = int_matrices(draw, d, degree + 1, draw(st.sampled_from([1, 2, 9])))
    height = draw(st.integers(1, MAX_HEIGHT[d]))
    w0 = None
    if degree >= 1 and draw(st.booleans()):
        w0 = draw(st.sampled_from(list(product_primitive_vectors(d, height))))
        v0 = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
        cs = plant(cs, v0, w0)
    return matrix_from_coeffs(cs, draw(st.booleans())), height, w0


@SCAN
@given(scan_cases())
def test_find_violation_matches_fraction_scan(case):
    A, height, _ = case
    assert find_violation(A, height) == oracle_find_violation(A, height)


@SCAN
@given(scan_cases())
def test_violating_v_matches_fraction_path_for_every_w(case):
    A, height, _ = case
    scan = _FleeingScan(A)
    for w in product_primitive_vectors(A.dim, height):
        assert scan.violating_v(w) == fraction_violating_v(A, w)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_planted_rank_one_violation_found_at_its_position(data):
    d = data.draw(st.integers(2, 4))
    height = data.draw(st.integers(1, MAX_HEIGHT[d]))
    order = list(product_primitive_vectors(d, height))
    w0 = data.draw(st.sampled_from(order))
    v0 = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
    cs = plant(int_matrices(data.draw, d, d + 1, 9), v0, w0)
    A = matrix_from_coeffs(cs, data.draw(st.booleans()))
    assert not check_pair(A, v0, w0)
    v, w = find_violation(A, height)
    # the first violating w in scan order, which is w0 unless an earlier w
    # violates as well
    first = next(i for i, u in enumerate(order) if fraction_violating_v(A, u) is not None)
    assert order.index(w) == first <= order.index(w0)
    assert not check_pair(A, v, w)


X = IntPoly([0, 1])


def test_later_coefficient_restores_rank_after_zero_determinant():
    """B_1 = I, B_2 = swap, B_3 = diag(1, -1): B_1 w and B_2 w are dependent
    for w = (1, 1) and (1, -1), and B_3 w restores full rank."""
    x2, x3 = X * X, X * X * X
    A = PolyMat([[X + x3, x2], [x2, X - x3]])
    scan = _FleeingScan(A)
    for w in [(1, 1), (1, -1)]:
        cols = [[sum(b * x for b, x in zip(row, w)) for row in B] for B in scan.det_bs]
        assert bareiss_det(cols) == 0
        assert scan.violating_v(w) is None
        assert fraction_violating_v(A, w) is None
    assert find_violation(A, 4) is None


def test_zero_coefficient_matrices_are_skipped_by_the_filter():
    """B_2 = 0: the filter takes B_1 and B_3, so only w on an axis falls
    back."""
    x3 = X * X * X
    A = PolyMat([[X, IntPoly()], [IntPoly(), x3]])
    scan = _FleeingScan(A)
    assert len(scan.det_bs) == 2
    assert find_violation(A, 3) == oracle_find_violation(A, 3)


def test_fewer_than_d_nonzero_coefficients_use_the_fallback():
    A = PolyMat([[X, X], [X * X * X * X, X]])  # B_1 and B_4 nonzero, d = 2
    assert _FleeingScan(A).det_bs is not None
    A = PolyMat([[X, X], [X, X * 3]])  # only B_1
    scan = _FleeingScan(A)
    assert scan.det_bs is None
    assert scan.violating_v((1, 0)) == fraction_violating_v(A, (1, 0))


def test_filter_copies_are_integers():
    cs = [[[0, 0], [0, 0]], [[1, 0], [2, 1]], [[0, 3], [1, 0]], [[1, 1], [0, 5]]]
    A = matrix_from_coeffs(cs, binomial_basis=True)
    assert any(c.denominator > 1 for B in coeff_matrices(A) for row in B for c in row)
    scan = _FleeingScan(A)
    assert all(type(c) is int for B in scan.det_bs for row in B for c in row)
    assert find_violation(A, 4) == oracle_find_violation(A, 4)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_primitive_vectors_match_product_oracle(d):
    for height in range(1, 7):
        assert list(_primitive_vectors(d, height)) == list(
            product_primitive_vectors(d, height)
        )


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3) | st.integers(-10**30, 10**30), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_det_matches_leibniz(rows):
    want = leibniz_det(rows)
    assert bareiss_det([r[:] for r in rows]) == want
    assert IntMat(rows).det() == want


def test_entries_independent_uses_the_scan(monkeypatch):
    calls = []
    real = checker._FleeingScan.violating_v

    def spy(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(checker._FleeingScan, "violating_v", spy)
    A = PolyMat([[X, X * X], [X * X * X, X * X * X * X]])
    assert checker.entries_independent(A, (1, 0)) is True
    assert calls == [(1, 0)]
