"""From unipotent generators to a qualifying polynomial matrix.

The pipeline: symbolic powers u^n (truncated binomial series), the cyclic
multivariate word product, a base-R monomial-separating substitution, and a
post-construction run of the condition checker.  Span computations over the
symmetrized generating set realize the Cayley-ball lemmas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .checker import GlasnerVerdict, full_check
from .errors import (
    BadDeterminant,
    NotCertifiedIrreducible,
    NotUnipotent,
    ZeroVector,
)
from .intmat import IntMat, IntSpan
from .polymat import MPoly, MPolyMat, PolyMat, substitute


def is_unipotent(u: IntMat) -> bool:
    """True iff (u - I)^d = 0 exactly."""
    if not u.is_square():
        raise ValueError("matrix must be square")
    n = u - IntMat.identity(u.rows)
    p = n
    for _ in range(u.rows - 1):
        if all(x == 0 for row in p.entries for x in row):
            return True
        p = p @ n
    return all(x == 0 for row in p.entries for x in row)


def _unipotent_inverse(u: IntMat) -> IntMat:
    """u^{-1} = sum_{j<d} (-N)^j with N = u - I, valid since N^d = 0."""
    neg = IntMat.identity(u.rows) - u
    acc = term = IntMat.identity(u.rows)
    for _ in range(u.rows - 1):
        term = term @ neg
        acc = acc + term
    return acc


class UnipotentSystem:
    """Finitely many unipotent generators of a subgroup of SL_d(Z)."""

    __slots__ = ("d", "generators", "inverses")

    def __init__(self, generators: Sequence[IntMat]):
        if not generators:
            raise ValueError("need at least one generator")
        d = generators[0].rows
        for u in generators:
            if u.rows != d or u.cols != d:
                raise ValueError("generators must share one dimension")
            if u.det() != 1:
                raise BadDeterminant("generators must have determinant 1")
            if not is_unipotent(u):
                raise NotUnipotent(f"{u!r} is not unipotent")
        self.d = d
        self.generators = list(generators)
        self.inverses = [_unipotent_inverse(u) for u in generators]

    @property
    def m(self) -> int:
        return len(self.generators)

    def symmetrized(self) -> List[IntMat]:
        return self.generators + self.inverses


def _binomial_poly(nvars: int, var: int, j: int) -> MPoly:
    """binom(n_var, j) = n(n-1)...(n-j+1)/j! as a polynomial in n_var."""
    acc = MPoly.const(nvars, 1)
    x = MPoly.var(nvars, var)
    for t in range(j):
        acc = acc * (x + MPoly.const(nvars, -t))
    return acc * Fraction(1, math.factorial(j))


def symbolic_power(u: IntMat, nvars: int, var: int) -> MPolyMat:
    """The matrix u^n as polynomials in variable n_var.

    Equals sum_{j < d} binom(n, j) (u - I)^j, valid for every integer n
    (negative included) because u - I is nilpotent.
    """
    if not is_unipotent(u):
        raise NotUnipotent("symbolic power needs a unipotent matrix")
    d = u.rows
    n = u - IntMat.identity(d)
    acc = MPolyMat.from_int_matrix(nvars, IntMat.identity(d))
    npow = IntMat.identity(d)
    for j in range(1, d):
        npow = npow @ n
        if all(x == 0 for row in npow.entries for x in row):
            break
        b = _binomial_poly(nvars, var, j)
        acc = MPolyMat(
            nvars,
            [
                [
                    acc.entries[i][k] + b * npow.entries[i][k]
                    for k in range(d)
                ]
                for i in range(d)
            ],
        )
    return acc


def word_product(sys: UnipotentSystem, length: int) -> MPolyMat:
    """prod_{i=1}^{N} u_i^{n_i} with cyclic generator indexing."""
    if length < 1:
        raise ValueError("length must be >= 1")
    acc = None
    for i in range(length):
        factor = symbolic_power(sys.generators[i % sys.m], length, i)
        acc = factor if acc is None else acc @ factor
    return acc


def _cleared(v) -> List[int]:
    """The rational vector v times the lcm of its denominators."""
    ratios = [x.as_integer_ratio() for x in v]
    den = math.lcm(*(b for _, b in ratios))
    return [a * (den // b) for a, b in ratios]


def cayley_span_dim(sys: UnipotentSystem, v: Sequence, r: int) -> int:
    """Dimension of the rational span of the radius-r Cayley ball applied
    to v, over the symmetrized generating set."""
    if not any(v):
        raise ZeroVector("v must be nonzero")
    span = IntSpan()
    span.add(_cleared(v))
    gens = sys.symmetrized()
    for _ in range(r):
        grew = False
        for basis_row in list(span.rows):
            for g in gens:
                if span.add(g.mul_vec(basis_row)):
                    grew = True
        if not grew or span.dim == sys.d:
            break
    return span.dim


def cayley_affine_span_dim(sys: UnipotentSystem, v: Sequence, r: int) -> int:
    """Dimension of the affine hull of the radius-r Cayley ball applied to v.

    Maintained as a base point v plus a linear part: applying s maps
    v + W into (s v - v) + s W + v.
    """
    if not any(v):
        raise ZeroVector("v must be nonzero")
    v = _cleared(v)
    gens = sys.symmetrized()
    W = IntSpan()
    for _ in range(r):
        grew = False
        for g in gens:
            gv = g.mul_vec(v)
            if W.add([a - b for a, b in zip(gv, v)]):
                grew = True
            for row in list(W.rows):
                if W.add(g.mul_vec(row)):
                    grew = True
        if not grew or W.dim == sys.d:
            break
    return W.dim


class IrreducibilityStatus(Enum):
    CERTIFIED_ABSOLUTELY_IRREDUCIBLE = "CertifiedAbsolutelyIrreducible"
    REDUCIBLE_WITH_WITNESS = "ReducibleWithWitness"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class IrreducibilityVerdict:
    status: IrreducibilityStatus
    algebra_dim: int
    witness: Optional[List[Tuple[int, ...]]] = None


def _algebra_basis(sys: UnipotentSystem) -> List[IntMat]:
    """Basis of the span of all words in the symmetrized generators;
    closure under left multiplication starting from I."""
    d = sys.d
    span = IntSpan()
    basis_mats: List[IntMat] = []

    def try_add(mat: IntMat) -> bool:
        flat = [x for row in mat.entries for x in row]
        if span.add(flat):
            basis_mats.append(mat)
            return True
        return False

    try_add(IntMat.identity(d))
    gens = sys.symmetrized()
    for _ in range(d * d):
        grew = False
        for b in list(basis_mats):
            for g in gens:
                if try_add(g @ b):
                    grew = True
        if not grew or span.dim == d * d:
            break
    return basis_mats


def _invariant_subspace_witness(sys: UnipotentSystem, basis_mats: List[IntMat]):
    """Search for a proper nonzero subspace invariant under all generators
    and inverses, via algebra orbits of seed vectors."""
    d = sys.d
    rng = random.Random(2024)
    seeds = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    seeds += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(5)]
    for seed in seeds:
        if not any(seed):
            continue
        orbit = IntSpan()
        for b in basis_mats:
            orbit.add(b.mul_vec(seed))
        # verify invariance directly
        if 0 < orbit.dim < d and all(
            orbit.contains(g.mul_vec(row))
            for g in sys.symmetrized()
            for row in orbit.rows
        ):
            return list(orbit.rows)
    return None


def certify_irreducible(sys: UnipotentSystem) -> IrreducibilityVerdict:
    """Burnside certification of absolute irreducibility.

    The generated matrix algebra spanning all of d x d space certifies
    absolute irreducibility.  Otherwise an invariant subspace is searched
    for; systems irreducible over R but not over C come out Inconclusive,
    never falsely certified.
    """
    basis_mats = _algebra_basis(sys)
    dim = len(basis_mats)
    if dim == sys.d * sys.d:
        return IrreducibilityVerdict(
            status=IrreducibilityStatus.CERTIFIED_ABSOLUTELY_IRREDUCIBLE,
            algebra_dim=dim,
        )
    witness = _invariant_subspace_witness(sys, basis_mats)
    if witness is not None:
        return IrreducibilityVerdict(
            status=IrreducibilityStatus.REDUCIBLE_WITH_WITNESS,
            algebra_dim=dim,
            witness=witness,
        )
    return IrreducibilityVerdict(
        status=IrreducibilityStatus.INCONCLUSIVE, algebra_dim=dim
    )


# Ordered basis of trace-zero 2x2 matrices: coordinates (x, y, z) correspond
# to [[z, -y], [x, -z]].
_SL2_BASIS = (
    IntMat([[0, 0], [1, 0]]),   # x
    IntMat([[0, -1], [0, 0]]),  # y
    IntMat([[1, 0], [0, -1]]),  # z
)


def adjoint_rep(g: IntMat) -> IntMat:
    """Matrix of the conjugation action B -> g B g^{-1} on trace-zero 2x2
    matrices in the fixed (x, y, z) basis."""
    if g.rows != 2 or g.cols != 2:
        raise ValueError("adjoint_rep expects a 2x2 matrix")
    if g.det() != 1:
        raise BadDeterminant("determinant must be 1")
    (a, b), (c, d) = g.entries
    ginv = IntMat([[d, -b], [-c, a]])
    cols = []
    for b in _SL2_BASIS:
        img = g @ b @ ginv
        a11, a12 = img.entries[0]
        a21, _ = img.entries[1]
        cols.append((a21, -a12, a11))  # back to (x, y, z) coordinates
    return IntMat([list(r) for r in zip(*cols)])


@dataclass
class SubstitutionPlan:
    nvars: int
    base: int
    exponents: List[int]

    def to_dict(self):
        return {"nvars": self.nvars, "base": self.base, "exponents": self.exponents}


def substitution_plan(P: MPolyMat) -> SubstitutionPlan:
    """Exponents [1, R, R^2, ...] with R one more than the largest
    per-variable exponent, so the induced map on occurring monomials is
    injective (base-R positional encoding); injectivity is re-verified by
    hashing the substituted degrees."""
    monos = P.monomials()
    maxexp = max((e for exps in monos for e in exps), default=0)
    R = maxexp + 1
    exps = [R**i for i in range(P.nvars)]
    degrees = {sum(e * p for e, p in zip(m, exps)) for m in monos}
    if len(degrees) != len(monos):
        raise AssertionError("substitution plan failed monomial injectivity")
    return SubstitutionPlan(nvars=P.nvars, base=R, exponents=exps)


@dataclass
class ConstructionResult:
    matrix: PolyMat
    plan: SubstitutionPlan
    verdict: GlasnerVerdict
    word_length: int
    forced: bool = False


def construct_polynomial(
    sys: UnipotentSystem,
    force: bool = False,
    height: int = 5,
    trials: int = 100,
    rng: Optional[random.Random] = None,
) -> ConstructionResult:
    """Full construction: N = d*m cyclic word, separating substitution,
    then the condition checker on the resulting univariate matrix.

    A(n) lies in the generated group for every integer n by construction,
    each factor being an integer power of a generator.
    """
    forced = False
    irr = certify_irreducible(sys)
    if irr.status is not IrreducibilityStatus.CERTIFIED_ABSOLUTELY_IRREDUCIBLE:
        if not force:
            raise NotCertifiedIrreducible(
                f"irreducibility not certified (status {irr.status.value})"
            )
        forced = True
    N = sys.d * sys.m
    Q = word_product(sys, N)
    plan = substitution_plan(Q)
    A = substitute(Q, plan.exponents)
    check = full_check(A, height=height, trials=trials, rng=rng)
    return ConstructionResult(
        matrix=A, plan=plan, verdict=check, word_length=N, forced=forced
    )


# Built-in generator fixtures
SL2_PAIR = (IntMat([[1, 1], [0, 1]]), IntMat([[1, 0], [1, 1]]))
SL2_CONGRUENCE_PAIR = (IntMat([[1, 2], [0, 1]]), IntMat([[1, 0], [2, 1]]))


def adjoint_fixture() -> UnipotentSystem:
    """The 3-dimensional system of adjoint images of the level-2 pair."""
    return UnipotentSystem([adjoint_rep(g) for g in SL2_CONGRUENCE_PAIR])
