"""Independent arithmetic for checking `glasner` outputs.

Nothing here imports glasnerlab.  Polynomials are dicts or lists of Python
integers, matrices are lists of lists, and every routine uses a method other
than the program's where one exists (powers by repeated squaring instead of
binomial series, histogram sums instead of term-by-term sums, vectorised
grid scans, integer numerators instead of Fractions).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- matrices


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(m, v):
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def mat_pow(m, k: int):
    """m**k for k >= 0 by repeated squaring."""
    acc = identity(len(m))
    base = m
    while k:
        if k & 1:
            acc = mat_mul(acc, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return acc


def det(m) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def inverse_integer(m):
    """Inverse of a determinant-one integer matrix by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = [row[n:] for row in a]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def matrix_power(m, k: int):
    """m**k for any integer k (m unimodular when k < 0)."""
    return mat_pow(m, k) if k >= 0 else mat_pow(inverse_integer(m), -k)


# ----------------------------------------------------- polynomial matrices


def horner(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def eval_poly_matrix(entries, n: int):
    return [[horner(e, n) for e in row] for row in entries]


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def nilpotency_index(u) -> int:
    """Least j with (u - I)^j = 0."""
    d = len(u)
    nil = [[u[i][j] - int(i == j) for j in range(d)] for i in range(d)]
    p, j = identity(d), 0
    while any(any(row) for row in p):
        p = mat_mul(p, nil)
        j += 1
    return j


def unipotent_power_poly(u, e: int):
    """u^(x^e) as a matrix of sparse polynomials {exponent: coefficient}.

    u^t = sum_j binom(t, j) (u - I)^j; binom(t, j) is expanded in t with
    rational coefficients and t is replaced by x^e.
    """
    d = len(u)
    nil = [[u[i][j] - int(i == j) for j in range(d)] for i in range(d)]
    out = [[{0: Fraction(int(i == j))} for j in range(d)] for i in range(d)]
    binom = {0: Fraction(1)}
    npow = identity(d)
    for j in range(1, nilpotency_index(u)):
        binom = {k: c / j for k, c in _poly_mul(binom, {1: Fraction(1), 0: Fraction(1 - j)}).items()}
        npow = mat_mul(npow, nil)
        for a in range(d):
            for b in range(d):
                if npow[a][b]:
                    term = {k * e: c * npow[a][b] for k, c in binom.items()}
                    out[a][b] = _poly_add(out[a][b], term)
    return out


def cyclic_word_matrix(gens):
    """prod_{i < d*m} g_{i mod m}^(x^(R^i)) with R the largest nilpotency
    index: the univariate matrix the unipotent construction produces.
    Returns dense ascending integer coefficient lists."""
    d, m = len(gens[0]), len(gens)
    R = max(nilpotency_index(g) for g in gens)
    acc = None
    for i in range(d * m):
        f = unipotent_power_poly(gens[i % m], R ** i)
        if acc is None:
            acc = f
        else:
            acc = [[_sum_polys(_poly_mul(acc[a][k], f[k][b]) for k in range(d))
                    for b in range(d)] for a in range(d)]
    out = []
    for row in acc:
        out_row = []
        for p in row:
            if any(c.denominator != 1 for c in p.values()):
                raise ValueError("construction has non-integer coefficients")
            size = max(p, default=-1) + 1
            coeffs = [0] * size
            for k, c in p.items():
                coeffs[k] = int(c)
            out_row.append(coeffs)
        out.append(out_row)
    return out, R


def _sum_polys(polys):
    acc = {}
    for p in polys:
        acc = _poly_add(acc, p)
    return acc


def word_value(gens, R: int, n: int):
    """A(n) = prod_{i < d*m} g_{i mod m}^(n^(R^i)) from integer powers of the
    generators."""
    d, m = len(gens[0]), len(gens)
    acc = identity(d)
    for i in range(d * m):
        acc = mat_mul(acc, matrix_power(gens[i % m], n ** (R ** i)))
    return acc


def sl2_pair(level: int):
    return [[[1, level], [0, 1]], [[1, 0], [level, 1]]]


def adjoint(g):
    """Conjugation action of g in SL_2(Z) on trace-zero matrices, in the
    basis x = [[0,0],[1,0]], y = [[0,-1],[0,0]], z = [[1,0],[0,-1]]."""
    (a, b), (c, e) = g
    ginv = [[e, -b], [-c, a]]
    basis = ([[0, 0], [1, 0]], [[0, -1], [0, 0]], [[1, 0], [0, -1]])
    cols = []
    for bm in basis:
        img = mat_mul(mat_mul(g, bm), ginv)
        cols.append((img[1][0], -img[0][1], img[0][0]))
    return [list(r) for r in zip(*cols)]


def coefficient_matrices(entries):
    """[B_0, ..., B_D] of a polynomial matrix given as coefficient lists."""
    d = len(entries)
    D = max(len(e) for row in entries for e in row) - 1
    return [[[entries[i][j][k] if k < len(entries[i][j]) else 0 for j in range(d)]
             for i in range(d)] for k in range(max(D, 0) + 1)]


def bilinear_cancels(entries, v, w) -> bool:
    """True iff v^t (A(x) - A(0)) w is the zero polynomial."""
    for B in coefficient_matrices(entries)[1:]:
        if sum(vi * x for vi, x in zip(v, mat_vec(B, w))):
            return False
    return True


def fleeing_columns(entries, w):
    """Nonzero columns B_k w, k >= 1."""
    cols = (mat_vec(B, w) for B in coefficient_matrices(entries)[1:])
    return [c for c in cols if any(c)]


def primitive_vectors(d: int, height: int):
    """Primitive w with ||w||_inf <= height and first nonzero coordinate
    positive, in lexicographic order (the checker's documented scan order)."""
    for w in product(range(-height, height + 1), repeat=d):
        first = next((x for x in w if x), 0)
        if first > 0 and math.gcd(*w) == 1:
            yield w


def count_primitive(d: int, height: int) -> int:
    return sum(1 for _ in primitive_vectors(d, height))


# --------------------------------------------------------------- the torus


def exact_image(m, points):
    """A . p mod 1 for exact points (Fractions), as a set of tuples."""
    return {tuple(x % 1 for x in mat_vec(m, p)) for p in points}


def circle(a: float, b: float) -> float:
    t = abs(a - b) % 1.0
    return min(t, 1.0 - t)


def grid_covering_radius(points, epsilon: float, mesh: float) -> float:
    """max over the grid {i/g}^d, g = ceil(1/mesh), of the l-inf circle
    distance to the nearest point, by vectorised brute force.  numpy is
    imported here, after the timed part of a run, so that it stays out of
    the measured peak memory."""
    import numpy as np

    d = len(points[0])
    g = math.ceil(1.0 / mesh)
    pts = np.array(points, dtype=float)
    axis = np.arange(g) / g
    grid = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    worst = 0.0
    for lo in range(0, len(grid), 2048):
        diff = np.abs(grid[lo:lo + 2048, None, :] - pts[None, :, :])
        dist = np.minimum(diff, 1.0 - diff).max(axis=2).min(axis=1)
        worst = max(worst, float(dist.max()))
    return worst


def spectrum_counts(points):
    """h_q over ordered pairs i != j, from integer numerators over the
    common denominator of all coordinates."""
    L = math.lcm(*(x.denominator for p in points for x in p))
    nums = [[int(x * L) for x in p] for p in points]
    counts = {}
    for i, a in enumerate(nums):
        for j, b in enumerate(nums):
            if i != j:
                q = math.lcm(*(L // math.gcd((x - y) % L, L) for x, y in zip(a, b)))
                counts[q] = counts.get(q, 0) + 1
    return counts


# ------------------------------------------------------ exponential sums


def complete_sum(coeffs, q: int) -> complex:
    """(1/q) sum_{n=1}^{q} e(f(n)/q) via a histogram of f(n) mod q."""
    hist = {}
    for n in range(1, q + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * n + c) % q
        hist[acc] = hist.get(acc, 0) + 1
    total = sum(cnt * cmath.exp(2j * math.pi * r / q) for r, cnt in hist.items())
    return total / q
