"""Integer and integer-valued polynomial matrices, univariate and multivariate.

Coefficients are stored as exact rationals.  Rational coefficients are only
admitted for integer-valued polynomials (values at every integer are
integers), which is exactly what symbolic powers of unipotent matrices
produce.  A univariate polynomial also has an integer form P / L (integer
numerators over one positive denominator), on which integer evaluation
runs; a polynomial matrix has one integer form (1/L) sum_k C_k x^k over the
common denominator of all its entries, on which the fleeing scan runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, NonIntegerValue
from .intmat import IntMat


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"coefficient must be int or Fraction, got {type(x).__name__}")


class IntPoly:
    """Univariate polynomial, ascending coefficient order, trailing zeros trimmed."""

    # _int caches integer_form(); it stays unset until first use, so building
    # an IntPoly costs nothing extra.
    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "IntPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "IntPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def integer_form(self):
        """(P, L) with self = P / L: L > 0 is the lcm of the coefficient
        denominators and P the tuple of integer numerators."""
        try:
            return self._int
        except AttributeError:
            pass
        L = math.lcm(*(c.denominator for c in self.coeffs))
        self._int = (tuple(c.numerator * (L // c.denominator) for c in self.coeffs), L)
        return self._int

    def __call__(self, n):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def eval_int(self, n: int) -> int:
        """Evaluate at an integer, insisting the value is an integer: integer
        Horner on the numerators P, then one division by L."""
        P, L = self.integer_form()
        acc = 0
        for c in reversed(P):
            acc = acc * n + c
        if L == 1:
            return acc
        v, r = divmod(acc, L)
        if r:
            raise NonIntegerValue(f"value at {n} is {Fraction(acc, L)}")
        return v

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({[str(c) for c in self.coeffs]})"


class PolyMat:
    """Square matrix of integer-valued univariate polynomials."""

    # _int caches integer_form(), as IntPoly does.
    __slots__ = ("dim", "entries", "_int")

    def __init__(self, entries):
        d = len(entries)
        if any(len(row) != d for row in entries):
            raise DimensionMismatch("matrix must be square")
        self.dim = d
        self.entries = tuple(
            tuple(e if isinstance(e, IntPoly) else IntPoly(e) for e in row)
            for row in entries
        )

    @property
    def degree(self) -> int:
        return max((e.degree for row in self.entries for e in row), default=-1)

    def integer_form(self):
        """(L, Cs) with A(x) = (1/L) sum_k C_k x^k: L > 0 is the lcm of the
        coefficient denominators of all entries, and Cs = (C_0, ..., C_D),
        D = max(degree, 0), are d x d integer matrices as row tuples."""
        try:
            return self._int
        except AttributeError:
            pass
        forms = [[e.integer_form() for e in row] for row in self.entries]
        L = math.lcm(*(m for row in forms for _, m in row))
        size = max(self.degree, 0) + 1

        def padded(P, m):
            f = L // m
            if f > 1:
                P = tuple([c * f for c in P])
            return P + (0,) * (size - len(P))

        # entry (i, j) as its coefficient list over k; zip twice to index [k][i][j]
        self._int = (
            L,
            tuple(zip(*(zip(*(padded(P, m) for P, m in row)) for row in forms))),
        )
        return self._int

    def __eq__(self, other):
        return isinstance(other, PolyMat) and self.entries == other.entries

    def __repr__(self):
        return f"PolyMat(dim={self.dim}, degree={self.degree})"

    def __matmul__(self, other: "PolyMat") -> "PolyMat":
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        d = self.dim
        return PolyMat(
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(d)),
                        IntPoly(),
                    )
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )

    def transpose(self) -> "PolyMat":
        return PolyMat([list(col) for col in zip(*self.entries)])

    def has_integer_coeffs(self) -> bool:
        return all(e.has_integer_coeffs() for row in self.entries for e in row)


def poly_mat_eval(A: PolyMat, n: int) -> IntMat:
    """Exact A(n) as an integer matrix."""
    return IntMat([[e.eval_int(n) for e in row] for row in A.entries])


def coeff_matrices(A: PolyMat):
    """[B_0, ..., B_D] with A(x) = sum B_k x^k; entries are Fractions."""
    D = max(A.degree, 0)
    return [
        [[A.entries[i][j].coeff(k) for j in range(A.dim)] for i in range(A.dim)]
        for k in range(D + 1)
    ]


def bilinear_poly(A: PolyMat, v, w) -> IntPoly:
    """The polynomial v^t A(x) w."""
    if len(v) != A.dim or len(w) != A.dim:
        raise DimensionMismatch("v and w must have length d")
    acc = IntPoly()
    for i, vi in enumerate(v):
        if not vi:
            continue
        for j, wj in enumerate(w):
            if wj:
                acc = acc + A.entries[i][j] * (int(vi) * int(wj))
    return acc


def coeff_norm(A: PolyMat, include_constant: bool = True) -> int:
    """Largest absolute value of a coefficient of A(x).

    With include_constant=False this is the norm of A(x) - A(0).
    Requires integer coefficients.
    """
    L, Cs = A.integer_form()
    cs = [c for C in Cs[0 if include_constant else 1 :] for row in C for c in row]
    if L > 1 and any(c % L for c in cs):
        raise NonIntegerValue("coefficient norm needs integer coefficients")
    return max(map(abs, cs), default=0) // L


class MPoly:
    """Sparse multivariate polynomial: exponent tuple -> rational coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatch("exponent vector length mismatch")
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __call__(self, point):
        if len(point) != self.nvars:
            raise DimensionMismatch("point length mismatch")
        acc = Fraction(0)
        for exps, c in self.terms.items():
            t = c
            for x, e in zip(point, exps):
                if e:
                    t *= Fraction(x) ** e
            acc += t
        return acc

    def substitute_powers(self, exponents) -> IntPoly:
        """Replace variable i by x^{exponents[i]}."""
        if len(exponents) != self.nvars:
            raise DimensionMismatch("one exponent per variable required")
        out = {}
        for exps, c in self.terms.items():
            deg = sum(e * p for e, p in zip(exps, exponents))
            out[deg] = out.get(deg, Fraction(0)) + c
        size = max(out, default=-1) + 1
        coeffs = [Fraction(0)] * size
        for k, c in out.items():
            coeffs[k] = c
        return IntPoly(coeffs)

    def __repr__(self):
        return f"MPoly(nvars={self.nvars}, terms={len(self.terms)})"


class MPolyMat:
    """Square matrix of sparse multivariate polynomials."""

    __slots__ = ("dim", "nvars", "entries")

    def __init__(self, nvars: int, entries):
        d = len(entries)
        if any(len(row) != d for row in entries):
            raise DimensionMismatch("matrix must be square")
        for row in entries:
            for e in row:
                if e.nvars != nvars:
                    raise DimensionMismatch("inconsistent variable count")
        self.dim = d
        self.nvars = nvars
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def from_int_matrix(cls, nvars: int, M: IntMat) -> "MPolyMat":
        return cls(
            nvars,
            [[MPoly.const(nvars, x) for x in row] for row in M.entries],
        )

    def __matmul__(self, other: "MPolyMat") -> "MPolyMat":
        if self.dim != other.dim or self.nvars != other.nvars:
            raise DimensionMismatch("dimension mismatch")
        d = self.dim
        zero = MPoly(self.nvars)
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = zero
                for k in range(d):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return MPolyMat(self.nvars, out)

    def eval_int(self, point) -> IntMat:
        vals = [[e(point) for e in row] for row in self.entries]
        for row in vals:
            for v in row:
                if v.denominator != 1:
                    raise NonIntegerValue("non-integer value at integer point")
        return IntMat([[v.numerator for v in row] for row in vals])

    def monomials(self):
        """Union of exponent vectors occurring in any entry."""
        out = set()
        for row in self.entries:
            for e in row:
                out.update(e.terms)
        return out

    def __repr__(self):
        return f"MPolyMat(dim={self.dim}, nvars={self.nvars})"


def substitute(P: MPolyMat, exponents) -> PolyMat:
    """Monomial substitution n_i -> x^{e_i}, producing a univariate matrix."""
    if any(int(e) < 1 for e in exponents):
        raise ValueError("exponents must be positive")
    return PolyMat(
        [[e.substitute_powers(list(map(int, exponents))) for e in row] for row in P.entries]
    )
