"""Deciding and certifying the hyperplane-fleeing condition.

The condition -- v^t (A(x) - A(0)) w is a nonzero polynomial for every pair
of nonzero integer vectors v, w -- is universal over all integer w, and no
decision procedure is known.  The checker therefore reports one of three
tiers: an exact violation witness, exhaustive clearance up to a height
bound on w, or randomized generic certification (evidence, never proof).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import mul
from typing import Optional, Sequence, Tuple

from .errors import BadGcd, HypothesisFailed, ZeroVector
from .intmat import IntMat, IntSpan, bareiss_det, gcd_vec, left_kernel_integer
from .polymat import IntPoly, PolyMat, bilinear_poly, coeff_norm

# Unused here since the scan reads PolyMat.integer_form; the benchmark's
# tracer (perfbench/tracing.py) wraps coeff_matrices under this name.
from .polymat import coeff_matrices  # noqa: F401


class VerdictStatus(Enum):
    VIOLATION_FOUND = "ViolationFound"
    CLEARED_TO_HEIGHT = "ClearedToHeight"
    CERTIFIED_GENERIC_RANK = "CertifiedGenericRank"


@dataclass
class GlasnerVerdict:
    status: VerdictStatus
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    height: Optional[int] = None
    trials: Optional[int] = None

    def to_dict(self):
        return {
            "status": self.status.value,
            "witness": None
            if self.witness is None
            else {"v": list(self.witness[0]), "w": list(self.witness[1])},
            "height": self.height,
            "trials": self.trials,
        }


@dataclass
class ComplexityBound:
    Q: int
    d: int
    coeff_norm: int
    w_norm: int


def _require_nonzero(vec, name):
    if not any(vec):
        raise ZeroVector(f"{name} must be nonzero")


def check_pair(A: PolyMat, v: Sequence[int], w: Sequence[int]) -> bool:
    """True iff v^t (A(x) - A(0)) w is not identically zero."""
    _require_nonzero(v, "v")
    _require_nonzero(w, "w")
    p = bilinear_poly(A, v, w)
    return (p - IntPoly.const(p.constant_term())).degree >= 1


def fleeing_matrix(A: PolyMat, w: Sequence[int]) -> Optional[IntMat]:
    """The d x D matrix with column k equal to B_k w (k = 1..D).

    Returns None for a constant A (no columns).  Column k is C_k w from
    `PolyMat.integer_form` divided by gcd(L, C_k w): B_k w cleared of its
    own denominators, which changes neither the rank nor the left kernel.
    """
    if len(w) != A.dim:
        raise ValueError("w must have length d")
    w = [int(x) for x in w]
    L, Cs = A.integer_form()
    cols = []
    for C in Cs[1:]:
        col = [sum(map(mul, row, w)) for row in C]
        g = math.gcd(L, *col)
        cols.append([c // g for c in col])
    if not cols:
        return None
    return IntMat([list(r) for r in zip(*cols)])


class _FleeingScan:
    """Cached per-matrix state for scanning many candidate w.

    The nonzero C_k (k >= 1) of `PolyMat.integer_form` are kept: B_k scaled
    by the one common denominator L, and scaling every column by L changes
    neither the rank nor the integer left kernel.  For each w an integer
    determinant filter runs first: the d columns of the first d of them
    times w have a nonzero Bareiss determinant iff they are independent,
    and then the fleeing matrix has full rank and w cannot violate.  Only a
    zero determinant, or fewer than d nonzero C_k, sends w to the exact
    fallback: all columns C_k w fed into an IntSpan, with early exit at
    full rank.  Below full rank, w violates, and v comes from the integer
    left kernel of those same columns.
    """

    def __init__(self, A: PolyMat):
        self.d = A.dim
        _, Cs = A.integer_form()
        self.int_bs = [C for C in Cs[1:] if any(any(row) for row in C)]
        self.det_bs = self.int_bs[: self.d] if len(self.int_bs) >= self.d else None

    def violating_v(self, w) -> Optional[Tuple[int, ...]]:
        """A primitive v with v^t (A(x) - A(0)) w = 0, or None at full rank.

        The entries of w must be ints.
        """
        d = self.d
        if not self.int_bs:
            return tuple([1] + [0] * (d - 1))
        if self.det_bs is not None:
            # the columns as rows: the transpose has the same determinant
            if bareiss_det([[sum(map(mul, row, w)) for row in B] for B in self.det_bs]):
                return None
        span = IntSpan()
        cols = []
        for B in self.int_bs:
            col = [sum(map(mul, row, w)) for row in B]
            if span.add(col) and span.dim == d:
                return None
            cols.append(col)
        basis = left_kernel_integer(IntMat([list(r) for r in zip(*cols)]))
        return min(basis) if basis else None


def entries_independent(A: PolyMat, w: Sequence[int]) -> bool:
    """True iff the entries of (A(x) - A(0)) w are Z-linearly independent."""
    _require_nonzero(w, "w")
    if len(w) != A.dim:
        raise ValueError("w must have length d")
    return _FleeingScan(A).violating_v(tuple(int(x) for x in w)) is None


def _primitive_vectors(d: int, height: int):
    """Primitive integer vectors of height <= H, first nonzero coordinate
    positive, in lexicographic order.

    Vectors whose first nonzero coordinate sits at a later position come
    first in that order, so the position runs from last to first, then the
    value of that coordinate, then the trailing coordinates.
    """
    span = range(-height, height + 1)
    for p in range(d - 1, -1, -1):
        zeros = (0,) * p
        for first in range(1, height + 1):
            for tail in product(span, repeat=d - 1 - p):
                if math.gcd(first, *tail) == 1:
                    yield zeros + (first,) + tail


def _verified(A: PolyMat, v, w):
    """The witness (v, w) after its exact re-check by polynomial
    cancellation; a failure is an internal soundness error."""
    if check_pair(A, v, w):
        raise RuntimeError(f"witness v={v}, w={w} failed exact re-verification")
    return v, w


def find_violation(A: PolyMat, height: int):
    """Exhaustive search for a violating pair over primitive w of height <= H.

    Returns (v, w) for the lexicographically first violating w, or None.
    Every returned witness is re-verified by exact polynomial cancellation.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    scan = _FleeingScan(A)
    for w in _primitive_vectors(A.dim, height):
        v = scan.violating_v(w)
        if v is not None:
            return _verified(A, v, w)
    return None


def clear_to_height(A: PolyMat, height: int) -> GlasnerVerdict:
    """Exhaustive stage only: ViolationFound, or ClearedToHeight meaning no
    violating pair with ||w||_inf <= height exists."""
    hit = find_violation(A, height)
    if hit is not None:
        return GlasnerVerdict(VerdictStatus.VIOLATION_FOUND, witness=hit, height=height)
    return GlasnerVerdict(VerdictStatus.CLEARED_TO_HEIGHT, height=height)


def certify_generic(
    A: PolyMat,
    trials: int = 100,
    coord_bound: int = 10**6,
    rng: Optional[random.Random] = None,
) -> GlasnerVerdict:
    """Randomized evidence that every w gives a full-rank fleeing matrix.

    A rank-deficient sample is escalated to an exact ViolationFound.  The
    degree shortcut is applied first: with fewer than d nonconstant
    coefficient matrices, every w violates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng or random.Random()
    scan = _FleeingScan(A)
    if A.degree < A.dim:
        w = tuple([1] + [0] * (A.dim - 1))
        return GlasnerVerdict(
            VerdictStatus.VIOLATION_FOUND, witness=_verified(A, scan.violating_v(w), w)
        )
    for _ in range(trials):
        while True:
            w = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(A.dim))
            if any(w):
                break
        if scan.violating_v(w) is not None:
            g = gcd_vec(w)
            w = tuple(x // g for x in w)
            return GlasnerVerdict(
                VerdictStatus.VIOLATION_FOUND,
                witness=_verified(A, scan.violating_v(w), w),
            )
    return GlasnerVerdict(VerdictStatus.CERTIFIED_GENERIC_RANK, trials=trials)


def full_check(
    A: PolyMat,
    height: int = 5,
    trials: int = 100,
    coord_bound: int = 10**6,
    rng: Optional[random.Random] = None,
) -> GlasnerVerdict:
    """Height search followed by randomized certification.

    A clearing verdict carries both the cleared height and the trial count.
    With trials = 0 the randomized stage is skipped and the exhaustive
    ClearedToHeight verdict is returned as-is.  Both parameters are
    validated before the height scan, so a bad value fails the same way
    whatever the matrix.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    cleared = clear_to_height(A, height)
    if cleared.status is VerdictStatus.VIOLATION_FOUND or trials == 0:
        return cleared
    verdict = certify_generic(A, trials=trials, coord_bound=coord_bound, rng=rng)
    if verdict.status is VerdictStatus.VIOLATION_FOUND:
        return verdict
    verdict.height = height
    return verdict


def complexity_bound(A: PolyMat, w: Sequence[int]) -> ComplexityBound:
    """Q = d! * (d * ||A(x) - A(0)|| * ||w||_inf)^d.

    Hypothesis: the entries of the row vector w^t (A(x) - A(0)) are
    Z-linearly independent, i.e. the column condition on the transpose.
    """
    _require_nonzero(w, "w")
    if not entries_independent(A.transpose(), w):
        raise HypothesisFailed("entries of w^t (A(x) - A(0)) are dependent")
    d = A.dim
    nrm = coeff_norm(A, include_constant=False)
    wn = max(abs(int(x)) for x in w)
    return ComplexityBound(
        Q=math.factorial(d) * (d * nrm * wn) ** d, d=d, coeff_norm=nrm, w_norm=wn
    )


@dataclass
class MultComplexityCheck:
    g: int
    ok: bool


def verify_multiplicative_complexity(
    P: Sequence[IntPoly], a: Sequence[int], q: int, Q: int
) -> MultComplexityCheck:
    """gcd of the nonconstant coefficients of (P(x) - P(0)) . a with q,
    compared against the claimed complexity Q."""
    if len(P) != len(a):
        raise ValueError("P and a must have the same length")
    if q < 1 or math.gcd(gcd_vec(a), q) != 1:
        raise BadGcd("need q >= 1 and gcd(a_1, ..., a_r, q) = 1")
    acc = IntPoly()
    for p, ai in zip(P, a):
        acc = acc + p * int(ai)
    coeffs = []
    for k in range(1, acc.degree + 1):
        c = acc.coeff(k)
        if c.denominator != 1:
            raise ValueError("nonconstant coefficients must be integers")
        coeffs.append(c.numerator)
    g = math.gcd(gcd_vec(coeffs), q)
    return MultComplexityCheck(g=g, ok=g <= Q)
