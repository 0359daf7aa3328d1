import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from glasnerlab.checker import _primitive_vectors
from glasnerlab.intmat import IntMat, IntSpan, bareiss_det, left_kernel_integer
from glasnerlab.polymat import IntPoly, PolyMat, coeff_matrices
from glasnerlab.torus import EXACT, TorusPointSet


X = IntPoly([0, 1])
ZERO = IntPoly()

# One line per acceptance criterion, echoed at the end of the run so the
# pass/fail record is visible even with output capture on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def poly(*coeffs) -> IntPoly:
    return IntPoly(coeffs)


@pytest.fixture
def scalar_x() -> PolyMat:
    """xI in dimension 2: violates the condition for every orthogonal pair."""
    return PolyMat([[X, ZERO], [ZERO, X]])


@pytest.fixture
def symmetric_mix() -> PolyMat:
    """[[x, x^2], [x^2, x]]: violated exactly by v=(1,1), w=(1,-1)."""
    return PolyMat([[X, X * X], [X * X, X]])


@pytest.fixture
def power_matrix() -> PolyMat:
    """[[x, x^2], [x^3, x^4]]: fleeing matrix has full rank for every w != 0."""
    return PolyMat([[X, X * X], [X * X * X, X * X * X * X]])


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMat:
    return IntMat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def random_poly_matrix(rng: random.Random, d: int, degree: int, bound: int) -> PolyMat:
    return PolyMat(
        [
            [IntPoly([rng.randint(-bound, bound) for _ in range(degree + 1)]) for _ in range(d)]
            for _ in range(d)
        ]
    )


def plant(cs, v0, w0):
    """Scale and correct each coefficient matrix so that v0^t C w0 = 0."""
    i = next(k for k, x in enumerate(v0) if x)
    j = next(k for k, x in enumerate(w0) if x)
    out = [cs[0]]
    for C in cs[1:]:
        s = sum(v0[a] * C[a][b] * w0[b] for a in range(len(v0)) for b in range(len(w0)))
        C = [[v0[i] * w0[j] * x for x in row] for row in C]
        C[i][j] -= s
        out.append(C)
    return out


def determinantal_divisors(M: IntMat):
    """gcd of all k x k minors for k = 1..min(rows, cols); brute force.

    A small-dimension oracle for the Smith form.
    """
    out = []
    n = min(M.rows, M.cols)
    for k in range(1, n + 1):
        g = 0
        for rset in combinations(range(M.rows), k):
            for cset in combinations(range(M.cols), k):
                sub = IntMat([[M.entries[i][j] for j in cset] for i in rset])
                g = math.gcd(g, abs(sub.det()))
        out.append(g)
    return out


def adjugate_inverse(M: IntMat) -> IntMat:
    """Exact inverse of a matrix with determinant +-1 (adjugate method);
    an oracle for the closed-form inverses."""
    det = M.det()
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    n = M.rows
    if n == 1:
        return IntMat([[det]])
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = IntMat(
                [
                    [M.entries[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
            )
            adj[j][i] = (-1) ** (i + j) * minor.det()
    if det == -1:
        adj = [[-x for x in row] for row in adj]
    return IntMat(adj)


def scalar_matrix(d: int, p: IntPoly) -> PolyMat:
    """p(x) times the d x d identity."""
    zero = IntPoly()
    return PolyMat([[p if i == j else zero for j in range(d)] for i in range(d)])


def is_integer_valued(p: IntPoly) -> bool:
    """True iff values at all integers are integers.

    A degree-D polynomial is integer-valued iff its values at 0..D are
    integers (it is then an integer combination of binomial coefficients).
    """
    return all(Fraction(p(n)).denominator == 1 for n in range(p.degree + 2))


def random_rationals(k: int, dim: int, rng, max_den: int = 10**6) -> TorusPointSet:
    """k distinct exact points with coordinates in (1/max_den) Z, sorted."""
    pts = set()
    while len(pts) < k:
        pts.add(tuple(Fraction(rng.randrange(max_den), max_den) for _ in range(dim)))
    return TorusPointSet(dim, sorted(pts), EXACT)


def in_arc(value, arc) -> bool:
    """Exact membership of a circle point in an open arc (lo, hi) mod 1."""
    lo, hi = Fraction(arc[0]) % 1, Fraction(arc[1]) % 1
    v = Fraction(value) % 1
    if lo < hi:
        return lo < v < hi
    return v > lo or v < hi


def cumulative(spectrum, m: int) -> int:
    """H_m = sum of h_q for 2 <= q <= m over a PairSpectrum."""
    return sum(c for q, c in spectrum.counts.items() if 2 <= q <= m)


# ------------------------------------------------------------------
# The Fraction code that PolyMat.integer_form replaced, kept as oracles.


def fraction_poly_integer_form(p: IntPoly):
    """IntPoly.integer_form by a running lcm of Fraction denominators."""
    L = 1
    for c in p.coeffs:
        # Fraction(L, d) is reduced by gcd(L, d), so this is lcm(L, d)
        L *= Fraction(L, c.denominator).denominator
    return tuple(c.numerator * (L // c.denominator) for c in p.coeffs), L


def fraction_fleeing_matrix(A: PolyMat, w):
    """fleeing_matrix from the Fraction coefficient matrices, each column
    B_k w cleared by the lcm of its own denominators."""
    cols = []
    for B in coeff_matrices(A)[1:]:
        col = [sum(c * int(x) for c, x in zip(row, w)) for row in B]
        den = math.lcm(*(c.denominator for c in col))
        cols.append([int(c * den) for c in col])
    if not cols:
        return None
    return IntMat([list(r) for r in zip(*cols)])


def _integer_scaled(B):
    """B times the lcm of its denominators, as integer row tuples."""
    den = math.lcm(*(c.denominator for row in B for c in row))
    return [tuple(c.numerator * (den // c.denominator) for c in row) for row in B]


class FractionFleeingScan:
    """The fleeing scan on the Fraction coefficient matrices: each nonzero
    B_k scaled by the lcm of its own denominators, and the kernel matrix of
    a violating w built from all B_k w over one common denominator."""

    def __init__(self, A: PolyMat):
        self.A = A
        self.d = A.dim
        self.int_bs = [
            _integer_scaled(B)
            for B in coeff_matrices(A)[1:]
            if any(any(row) for row in B)
        ]
        self.det_bs = self.int_bs[: self.d] if len(self.int_bs) >= self.d else None

    def violating_v(self, w):
        d = self.d
        if not self.int_bs:
            return tuple([1] + [0] * (d - 1))
        if self.det_bs is not None:
            if bareiss_det([[sum(map(mul, row, w)) for row in B] for B in self.det_bs]):
                return None
        span = IntSpan()
        for B in self.int_bs:
            if span.add([sum(map(mul, row, w)) for row in B]) and span.dim == d:
                return None
        cols = [[sum(map(mul, row, w)) for row in B] for B in coeff_matrices(self.A)[1:]]
        den = math.lcm(*(c.denominator for col in cols for c in col))
        M = IntMat(
            [[c.numerator * (den // c.denominator) for c in r] for r in zip(*cols)]
        )
        basis = left_kernel_integer(M)
        return min(basis) if basis else None


def fraction_find_violation(A: PolyMat, height: int):
    """find_violation on FractionFleeingScan, without the re-check."""
    scan = FractionFleeingScan(A)
    for w in _primitive_vectors(A.dim, height):
        v = scan.violating_v(w)
        if v is not None:
            return v, w
    return None
