import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glasnerlab.errors import BadGcd, DependentVectors
from glasnerlab.intmat import (
    IntMat,
    IntSpan,
    gcd_vec,
    left_kernel_integer,
    rank_rational,
    smith_normal_form,
    verify_gcd_bound,
)

from conftest import determinantal_divisors, random_int_matrix


class FractionSpan:
    """The incremental rational span before IntSpan: exact Gaussian
    elimination on Fraction rows normalized to pivot 1.  A test oracle."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        for p, x in enumerate(v):
            if x:
                self.rows.append([a / x for a in v])
                self.pivots.append(p)
                return True
        return False

    def contains(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)


def fraction_rank(M: IntMat) -> int:
    """rank_rational before IntSpan: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in M.entries]
    rank = 0
    col = 0
    while rank < M.rows and col < M.cols:
        piv = None
        for i in range(rank, M.rows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        inv = 1 / pr[col]
        a[rank] = pr = [x * inv for x in pr]
        for i in range(rank + 1, M.rows):
            f = a[i][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
        col += 1
    return rank


@st.composite
def vector_lists(draw):
    """Integer vectors of one length 1..9, entries in +-3 or +-10^30, with
    zero vectors, repeats and multiples of earlier vectors mixed in."""
    n = draw(st.integers(1, 9))
    entry = st.integers(-3, 3) | st.integers(-10**30, 10**30)
    vecs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if kind == "zero":
            vecs.append([0] * n)
        elif kind == "repeat" and vecs:
            vecs.append([draw(st.integers(-5, 5)) * x for x in draw(st.sampled_from(vecs))])
        else:
            vecs.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return vecs


@settings(max_examples=200, deadline=None)
@given(vector_lists(), st.data())
def test_int_span_matches_fraction_span(vecs, data):
    span, oracle = IntSpan(), FractionSpan()
    for v in vecs:
        assert span.add(v) == oracle.add(v)
        assert span.dim == oracle.dim
        assert span.pivots == oracle.pivots
    for row, p in zip(span.rows, span.pivots):
        assert gcd_vec(row) == 1 and row[p] > 0
        assert all(type(x) is int for x in row)
        assert oracle.contains(row)
    for row in oracle.rows:
        den = math.lcm(*(x.denominator for x in row))
        assert span.contains([int(x * den) for x in row])
    n = len(vecs[0])
    probes = vecs + [[a - 2 * b for a, b in zip(vecs[0], vecs[-1])]]
    probes += [[int(i == j) for j in range(n)] for i in range(n)]
    probes.append(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    for v in probes:
        assert span.contains(v) == oracle.contains(v)
    M = IntMat(vecs)
    assert rank_rational(M) == fraction_rank(M) == oracle.dim


@pytest.mark.parametrize(
    "vec,expected",
    [
        ((6, 10, 15), 1),
        ((0, 0), 0),
        ((4, 6), 2),
        ((), 0),
        ((-4, 6), 2),
        ((7,), 7),
    ],
)
def test_gcd_vec(vec, expected):
    assert gcd_vec(vec) == expected


@given(st.lists(st.integers(-1000, 1000), max_size=8))
def test_gcd_vec_divides_all_entries(vec):
    g = gcd_vec(vec)
    if g == 0:
        assert all(x == 0 for x in vec)
    else:
        assert all(x % g == 0 for x in vec)


def _check_snf(M: IntMat):
    s = smith_normal_form(M)
    assert s.left @ s.diag @ s.right == M
    assert abs(s.left.det()) == 1
    assert abs(s.right.det()) == 1
    diag = [s.diag.entries[i][i] for i in range(min(M.rows, M.cols))]
    assert all(x >= 0 for x in diag)
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert s.diag.entries[i][j] == 0
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_identity():
    assert _check_snf(IntMat.identity(3)) == [1, 1, 1]


def test_snf_diag_2_3():
    # determinantal divisors: d_1 = gcd(2,3) = 1, d_2 = 6
    assert _check_snf(IntMat([[2, 0], [0, 3]])) == [1, 6]


def test_snf_2468():
    # d_1 = 2, d_2 = |det| = 8, entries 2 and 8/2 = 4
    assert _check_snf(IntMat([[2, 4], [6, 8]])) == [2, 4]


def test_snf_rectangular():
    assert _check_snf(IntMat([[0, 0]])) == [0]
    assert _check_snf(IntMat([[2], [4]])) == [2]


def test_snf_random_with_divisor_oracle():
    rng = random.Random(17)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = random_int_matrix(rng, rows, cols, 20)
        diag = _check_snf(M)
        if max(rows, cols) <= 4:
            dd = determinantal_divisors(M)
            prev = 1
            for k, dk in enumerate(dd):
                expected = dk // prev if dk and prev else 0
                assert diag[k] == expected
                prev = dk


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
        ([[1, 2, 3]], 1),
    ],
)
def test_rank_rational(entries, expected):
    assert rank_rational(IntMat(entries)) == expected


def test_left_kernel_trivial():
    assert left_kernel_integer(IntMat([[1, 0], [0, 1]])) == []


def test_left_kernel_proportional_rows():
    basis = left_kernel_integer(IntMat([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert gcd_vec(v) == 1
    assert v in ((2, -1), (-2, 1))


def test_left_kernel_zero_row():
    assert left_kernel_integer(IntMat([[0, 0]])) == [(1,)]


def test_left_kernel_properties_random():
    rng = random.Random(3)
    for _ in range(100):
        M = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
        basis = left_kernel_integer(M)
        assert len(basis) == M.rows - rank_rational(M)
        for v in basis:
            assert gcd_vec(v) == 1
            for j in range(M.cols):
                assert sum(v[i] * M.entries[i][j] for i in range(M.rows)) == 0


@pytest.mark.parametrize(
    "vectors,a,q,lhs,rhs",
    [
        ([(1, 0), (0, 1)], (3, 5), 7, 1, 2),
        ([(2, 0), (0, 2)], (1, 1), 4, 2, 8),
        ([(1, 1), (1, -1)], (1, 0), 2, 1, 2),
    ],
)
def test_verify_gcd_bound_examples(vectors, a, q, lhs, rhs):
    res = verify_gcd_bound(vectors, a, q)
    assert res.lhs == lhs
    assert res.rhs == rhs
    assert res.ok


def test_verify_gcd_bound_dependent_rejected():
    with pytest.raises(DependentVectors):
        verify_gcd_bound([(1, 2), (2, 4)], (1, 1), 5)


def test_verify_gcd_bound_bad_gcd_rejected():
    with pytest.raises(BadGcd):
        verify_gcd_bound([(1, 0), (0, 1)], (2, 4), 6)


def test_gcd_bound_property_random():
    rng = random.Random(99)
    checked = 0
    while checked < 300:
        d = rng.randint(1, 4)
        r = rng.randint(d, 6)
        vectors = [tuple(rng.randint(-10, 10) for _ in range(r)) for _ in range(d)]
        if rank_rational(IntMat([list(v) for v in vectors])) < d:
            continue
        q = rng.randint(1, 10**4)
        a = tuple(rng.randint(-50, 50) for _ in range(d))
        if math.gcd(gcd_vec(a), q) != 1:
            continue
        assert verify_gcd_bound(vectors, a, q).ok
        checked += 1

