import math
import random
from itertools import combinations

import pytest

from glasnerlab.intmat import IntMat
from glasnerlab.polymat import IntPoly, PolyMat


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
