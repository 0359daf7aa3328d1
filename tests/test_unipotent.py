import random
from fractions import Fraction

import pytest

from glasnerlab.checker import VerdictStatus
from glasnerlab.errors import (
    BadDeterminant,
    NotCertifiedIrreducible,
    NotUnipotent,
    ZeroVector,
)
from glasnerlab.intmat import IntMat
from glasnerlab.polymat import MPoly, MPolyMat
from glasnerlab.unipotent import (
    SL2_CONGRUENCE_PAIR,
    SL2_PAIR,
    IrreducibilityStatus,
    UnipotentSystem,
    adjoint_fixture,
    adjoint_rep,
    cayley_affine_span_dim,
    cayley_span_dim,
    certify_irreducible,
    construct_polynomial,
    is_unipotent,
    substitution_plan,
    symbolic_power,
    word_product,
)

from conftest import adjugate_inverse


def int_power(u: IntMat, n: int) -> IntMat:
    base = u if n >= 0 else adjugate_inverse(u)
    acc = IntMat.identity(u.rows)
    for _ in range(abs(n)):
        acc = acc @ base
    return acc


def random_unipotent(rng: random.Random, d: int) -> IntMat:
    """Product of elementary shears: unipotent, determinant 1."""
    acc = IntMat.identity(d)
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        e = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        e[i][j] = rng.randint(-3, 3)
        acc = acc @ IntMat(e)
    # a product of upper/lower shears need not be unipotent in general;
    # conjugating a single strictly-triangular shear always is
    if not is_unipotent(acc):
        e = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        e[0][d - 1] = rng.randint(1, 3)
        acc = IntMat(e)
    return acc


def shear(d: int, i: int, j: int, k: int) -> IntMat:
    e = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
    e[i][j] = k
    return IntMat(e)


def conjugated_unitriangular(rng: random.Random, d: int) -> IntMat:
    """P U P^-1 for a random upper unitriangular U and a random product P of
    shears: unipotent, with (u - I)^(d-1) nonzero in general."""
    U = IntMat(
        [[rng.randint(-3, 3) if b > a else int(a == b) for b in range(d)] for a in range(d)]
    )
    P = Pinv = IntMat.identity(d)
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        k = rng.randint(-2, 2)
        P = P @ shear(d, i, j, k)
        Pinv = shear(d, i, j, -k) @ Pinv
    return P @ U @ Pinv


def test_unipotent_inverse_matches_the_adjugate():
    rng = random.Random(61)
    gens = list(SL2_PAIR) + list(SL2_CONGRUENCE_PAIR) + adjoint_fixture().generators
    for d in range(2, 6):
        gens += [conjugated_unitriangular(rng, d) for _ in range(8)]
        gens += [random_unipotent(rng, d) for _ in range(4)]
    for u in gens:
        inv = UnipotentSystem([u]).inverses[0]
        assert u @ inv == IntMat.identity(u.rows)
        assert inv == adjugate_inverse(u)


def adjugate_adjoint_rep(g: IntMat) -> IntMat:
    """adjoint_rep with g^-1 from the adjugate oracle."""
    ginv = adjugate_inverse(g)
    basis = (IntMat([[0, 0], [1, 0]]), IntMat([[0, -1], [0, 0]]), IntMat([[1, 0], [0, -1]]))
    cols = []
    for b in basis:
        img = g @ b @ ginv
        cols.append((img.entries[1][0], -img.entries[0][1], img.entries[0][0]))
    return IntMat([list(r) for r in zip(*cols)])


def test_adjoint_rep_matches_adjugate_conjugation():
    rng = random.Random(71)
    for _ in range(40):
        g = IntMat.identity(2)
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(2), 2)
            g = g @ shear(2, i, j, rng.randint(-4, 4))
        assert g.det() == 1
        assert adjoint_rep(g) == adjugate_adjoint_rep(g)


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([[1, 1], [0, 1]], True),
        ([[2, 0], [0, 1]], False),
        ([[1, 2], [0, 1]], True),
        ([[1, 0], [0, 1]], True),
    ],
)
def test_is_unipotent(entries, expected):
    assert is_unipotent(IntMat(entries)) is expected


def test_symbolic_power_shear():
    P = symbolic_power(IntMat([[1, 1], [0, 1]]), 1, 0)
    n = MPoly.var(1, 0)
    assert P.entries[0][1] == n
    assert P.entries[0][0] == MPoly.const(1, 1)
    assert P.entries[1][0].is_zero()


def test_symbolic_power_identity():
    P = symbolic_power(IntMat.identity(2), 1, 0)
    assert P.eval_int([17]) == IntMat.identity(2)


def test_symbolic_power_rejects_non_unipotent():
    with pytest.raises(NotUnipotent):
        symbolic_power(IntMat([[2, 0], [0, 1]]), 1, 0)


def test_symbolic_power_matches_iterated_multiplication():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(2, 4)
        u = random_unipotent(rng, d)
        P = symbolic_power(u, 1, 0)
        for n in range(-10, 11):
            assert P.eval_int([n]) == int_power(u, n)


def test_word_product_two_generators():
    sys = UnipotentSystem(list(SL2_PAIR))
    Q = word_product(sys, 2)
    n1, n2 = MPoly.var(2, 0), MPoly.var(2, 1)
    assert Q.entries[0][0] == MPoly.const(2, 1) + n1 * n2
    assert Q.entries[0][1] == n1
    assert Q.entries[1][0] == n2
    assert Q.entries[1][1] == MPoly.const(2, 1)


def test_word_product_evaluation_homomorphism():
    rng = random.Random(41)
    sys = UnipotentSystem(list(SL2_CONGRUENCE_PAIR))
    for _ in range(10):
        N = rng.randint(1, 4)
        Q = word_product(sys, N)
        point = [rng.randint(-4, 4) for _ in range(N)]
        direct = IntMat.identity(2)
        for i, n in enumerate(point):
            direct = direct @ int_power(sys.generators[i % sys.m], n)
        assert Q.eval_int(point) == direct


def test_cayley_span_growth():
    sys = UnipotentSystem(list(SL2_PAIR))
    assert cayley_span_dim(sys, (1, 0), 0) == 1
    assert cayley_span_dim(sys, (1, 0), 1) == 2


def test_cayley_span_fixed_vector():
    sys = UnipotentSystem([IntMat([[1, 1], [0, 1]])])
    assert cayley_span_dim(sys, (1, 0), 5) == 1


def test_cayley_span_rejects_zero():
    sys = UnipotentSystem(list(SL2_PAIR))
    with pytest.raises(ZeroVector):
        cayley_span_dim(sys, (0, 0), 1)


def test_cayley_affine_span():
    sys = UnipotentSystem(list(SL2_PAIR))
    assert cayley_affine_span_dim(sys, (1, 0), 2) == 2


def test_cayley_spans_of_a_rational_multiple():
    rng = random.Random(81)
    systems = [
        UnipotentSystem(list(SL2_PAIR)),
        UnipotentSystem([IntMat([[1, 1], [0, 1]])]),
        adjoint_fixture(),
    ]
    for sys in systems:
        for _ in range(6):
            v = [rng.randint(-3, 3) for _ in range(sys.d)]
            if not any(v):
                continue
            scaled = [Fraction(3, 7) * x for x in v]
            for r in range(4):
                assert cayley_span_dim(sys, scaled, r) == cayley_span_dim(sys, v, r)
                want = cayley_affine_span_dim(sys, v, r)
                assert cayley_affine_span_dim(sys, scaled, r) == want


def test_certify_irreducible_pair():
    verdict = certify_irreducible(UnipotentSystem(list(SL2_PAIR)))
    assert verdict.status is IrreducibilityStatus.CERTIFIED_ABSOLUTELY_IRREDUCIBLE
    assert verdict.algebra_dim == 4


def test_certify_reducible_single_shear():
    verdict = certify_irreducible(UnipotentSystem([IntMat([[1, 1], [0, 1]])]))
    assert verdict.status is IrreducibilityStatus.REDUCIBLE_WITH_WITNESS
    assert verdict.witness is not None
    # the invariant line of the shear, as a primitive integer row
    assert verdict.witness == [(1, 0)]


def test_certify_reducible_identity_system():
    verdict = certify_irreducible(UnipotentSystem([IntMat.identity(2)]))
    assert verdict.status is IrreducibilityStatus.REDUCIBLE_WITH_WITNESS


def test_adjoint_rep_identity():
    assert adjoint_rep(IntMat.identity(2)) == IntMat.identity(3)


def test_adjoint_rep_requires_det_one():
    with pytest.raises(BadDeterminant):
        adjoint_rep(IntMat([[2, 0], [0, 1]]))


def test_adjoint_rep_preserves_unipotency():
    for g in SL2_CONGRUENCE_PAIR:
        assert is_unipotent(adjoint_rep(g))


def test_adjoint_rep_is_homomorphism():
    rng = random.Random(51)
    gens = list(SL2_PAIR) + [adjugate_inverse(g) for g in SL2_PAIR]
    for _ in range(20):
        g = IntMat.identity(2)
        h = IntMat.identity(2)
        for _ in range(rng.randint(1, 4)):
            g = g @ rng.choice(gens)
            h = h @ rng.choice(gens)
        assert adjoint_rep(g @ h) == adjoint_rep(g) @ adjoint_rep(h)


def test_substitution_plan_multilinear():
    n = [MPoly.var(4, i) for i in range(4)]
    P = MPolyMat(4, [[n[0] * n[1] + n[2] * n[3]]])
    plan = substitution_plan(P)
    assert plan.base == 2
    assert plan.exponents == [1, 2, 4, 8]


def test_substitution_plan_univariate():
    P = MPolyMat(1, [[MPoly.var(1, 0) * MPoly.var(1, 0) * MPoly.var(1, 0)]])
    plan = substitution_plan(P)
    assert plan.base == 4
    assert plan.exponents == [1]


def test_substitution_plan_constant():
    P = MPolyMat(2, [[MPoly.const(2, 5)]])
    plan = substitution_plan(P)
    assert plan.base == 1


def test_construct_polynomial_sl2():
    res = construct_polynomial(UnipotentSystem(list(SL2_PAIR)), rng=random.Random(0))
    assert res.word_length == 4
    assert res.plan.base == 2
    assert res.matrix.degree <= 15
    assert res.matrix.has_integer_coeffs()
    assert not res.forced
    assert res.verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK


def test_construct_polynomial_requires_irreducibility():
    sys = UnipotentSystem([IntMat([[1, 1], [0, 1]])])
    with pytest.raises(NotCertifiedIrreducible):
        construct_polynomial(sys, rng=random.Random(0))
    res = construct_polynomial(sys, force=True, height=2, trials=5, rng=random.Random(0))
    assert res.forced


def test_adjoint_fixture_system():
    sys = adjoint_fixture()
    assert sys.d == 3
    assert sys.m == 2
    assert all(is_unipotent(g) for g in sys.generators)


def test_unipotent_system_validation():
    with pytest.raises(BadDeterminant):
        UnipotentSystem([IntMat([[2, 0], [0, 1]])])
    with pytest.raises(NotUnipotent):
        UnipotentSystem([IntMat([[0, -1], [1, 0]])])
