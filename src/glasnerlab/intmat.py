"""Exact integer/rational linear algebra.

Everything here runs on Python's arbitrary-precision integers.  Rank and
span over Q go through the fraction-free IntSpan.  The central routine is
the Smith normal form with unimodular transforms on both sides, which also
powers integer left-kernel extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadGcd, DependentVectors, DimensionMismatch


def gcd_vec(v) -> int:
    """gcd of the absolute values of the entries; 0 for an empty or zero vector."""
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    return g


def bareiss_det(a) -> int:
    """Determinant of a square integer matrix given as a list of row lists,
    by fraction-free Bareiss elimination; a is overwritten.

    Every division is exact, so only integers are ever formed.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        ak = a[k]
        pivot = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - f * ak[j]) // prev
            ai[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


class IntSpan:
    """Incremental span over Q of integer vectors, fraction-free.

    Each row is a primitive integer vector whose pivot (its first nonzero
    entry) is positive; every row is zero at the pivots of the rows before
    it.  A vector is reduced by cross-multiplying it with each row's pivot
    and subtracting, then dividing out its content, so only integers are
    ever formed.  Vectors must have integer entries.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows = []
        self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                a = row[p]
                v = [a * x - f * y for x, y in zip(v, row)]
                g = math.gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        return v

    def add(self, vec) -> bool:
        """Reduce vec against the rows; True if the span grew."""
        v = self._reduce(vec)
        for p, x in enumerate(v):
            if x:
                g = math.gcd(*v) if x > 0 else -math.gcd(*v)
                self.rows.append(tuple(y // g for y in v))
                self.pivots.append(p)
                return True
        return False

    def contains(self, vec) -> bool:
        """True iff vec lies in the span."""
        return not any(self._reduce(vec))


class IntMat:
    """Dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(map(int, row)) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("empty matrix")
        ncols = len(entries[0])
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        self.rows = len(entries)
        self.cols = ncols
        self.entries = entries

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMat":
        return cls([[0] * cols for _ in range(rows)])

    def copy(self) -> "IntMat":
        return IntMat([row[:] for row in self.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    def __repr__(self):
        return f"IntMat({self.entries!r})"

    def __add__(self, other: "IntMat") -> "IntMat":
        self._same_shape(other)
        return IntMat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMat") -> "IntMat":
        self._same_shape(other)
        return IntMat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "IntMat":
        return IntMat([[-a for a in row] for row in self.entries])

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        ot = list(zip(*other.entries))
        return IntMat(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    __mul__ = __matmul__

    def mul_vec(self, v):
        """Matrix times column vector; entries may be int, Fraction or float."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != {self.cols}")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMat":
        return IntMat([list(col) for col in zip(*self.entries)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if not self.is_square():
            raise DimensionMismatch("determinant of non-square matrix")
        return bareiss_det([row[:] for row in self.entries])

    def _same_shape(self, other: "IntMat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")


@dataclass
class SNFResult:
    """Factorization input = left @ diag @ right with unimodular left/right."""

    left: IntMat
    diag: IntMat
    right: IntMat


@dataclass
class _SNFFull(SNFResult):
    # left_inv @ input @ right_inv = diag
    left_inv: IntMat = None
    right_inv: IntMat = None


def _snf_full(M: IntMat) -> _SNFFull:
    r, c = M.rows, M.cols
    a = [row[:] for row in M.entries]
    L = IntMat.identity(r).entries
    Li = IntMat.identity(r).entries
    R = IntMat.identity(c).entries
    Ri = IntMat.identity(c).entries

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        Li[i], Li[j] = Li[j], Li[i]
        for row in L:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, t):
        # row_dst += t * row_src on the working matrix
        ar = a[src]
        ad = a[dst]
        for k in range(c):
            ad[k] += t * ar[k]
        lr = Li[src]
        ld = Li[dst]
        for k in range(r):
            ld[k] += t * lr[k]
        for row in L:
            row[src] -= t * row[dst]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        Li[i] = [-x for x in Li[i]]
        for row in L:
            row[i] = -row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in Ri:
            row[i], row[j] = row[j], row[i]
        R[i], R[j] = R[j], R[i]

    def add_col(src, dst, t):
        # col_dst += t * col_src
        for row in a:
            row[dst] += t * row[src]
        for row in Ri:
            row[dst] += t * row[src]
        Rs = R[src]
        Rd = R[dst]
        for k in range(c):
            Rs[k] -= t * Rd[k]

    n = min(r, c)
    for t in range(n):
        # smallest-magnitude nonzero pivot in the trailing block keeps growth down
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        while True:
            # clear column t
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
            if any(a[i][t] for i in range(t + 1, r)):
                continue
            # clear row t
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[t][j] for j in range(t + 1, c)):
                continue
            if any(a[i][t] for i in range(t + 1, r)):
                continue
            # enforce divisibility of the trailing block by the pivot
            bad = None
            p = a[t][t]
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)

        if a[t][t] < 0:
            negate_row(t)

    return _SNFFull(
        left=IntMat(L),
        diag=IntMat(a),
        right=IntMat(R),
        left_inv=IntMat(Li),
        right_inv=IntMat(Ri),
    )


def smith_normal_form(M: IntMat) -> SNFResult:
    """Smith normal form M = left @ diag @ right.

    left and right are unimodular; diag is (rectangular-)diagonal with
    nonnegative entries satisfying the divisibility chain d1 | d2 | ...
    """
    full = _snf_full(M)
    return SNFResult(left=full.left, diag=full.diag, right=full.right)


def rank_rational(M: IntMat) -> int:
    """Rank over the rationals, by fraction-free elimination (IntSpan)."""
    span = IntSpan()
    for row in M.entries:
        span.add(row)
    return span.dim


def left_kernel_integer(M: IntMat):
    """Basis of the lattice {v in Z^rows : v^t M = 0}; vectors primitive."""
    full = _snf_full(M)
    nz = sum(
        1
        for i in range(min(M.rows, M.cols))
        if full.diag.entries[i][i] != 0
    )
    basis = []
    for i in range(nz, M.rows):
        v = tuple(full.left_inv.entries[i])
        # rows of a unimodular matrix are primitive already; normalize sign
        for x in v:
            if x:
                if x < 0:
                    v = tuple(-y for y in v)
                break
        basis.append(v)
    return basis


@dataclass
class GcdBoundCheck:
    lhs: int
    rhs: int
    ok: bool


def verify_gcd_bound(vectors, a, q: int) -> GcdBoundCheck:
    """Check gcd(a_1 v_1 + ... + a_d v_d, q) <= d! * max_i ||v_i||_inf^d.

    The v_i must be linearly independent over Q and gcd(a, q) must be 1.
    """
    d = len(vectors)
    if len(a) != d:
        raise DimensionMismatch("len(a) must match the number of vectors")
    if q < 1:
        raise BadGcd("q must be a positive integer")
    if rank_rational(IntMat([list(v) for v in vectors])) < d:
        raise DependentVectors("the v_i are linearly dependent over Q")
    if math.gcd(gcd_vec(a), q) != 1:
        raise BadGcd("gcd(a_1, ..., a_d, q) != 1")
    r = len(vectors[0])
    comb = [sum(int(ai) * int(v[k]) for ai, v in zip(a, vectors)) for k in range(r)]
    lhs = math.gcd(gcd_vec(comb), q)
    rhs = math.factorial(d) * max(max(abs(int(x)) for x in v) for v in vectors) ** d
    return GcdBoundCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs)
