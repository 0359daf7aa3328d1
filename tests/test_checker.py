import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from glasnerlab import checker
from glasnerlab.checker import (
    VerdictStatus,
    certify_generic,
    check_pair,
    clear_to_height,
    complexity_bound,
    entries_independent,
    find_violation,
    fleeing_matrix,
    full_check,
    verify_multiplicative_complexity,
)
from glasnerlab.errors import BadGcd, HypothesisFailed, ZeroVector
from glasnerlab.intmat import gcd_vec
from glasnerlab.polymat import IntPoly, PolyMat, bilinear_poly

from conftest import X, poly, random_poly_matrix


def test_check_pair_scalar_orthogonal(scalar_x):
    assert check_pair(scalar_x, (1, 0), (0, 1)) is False


def test_check_pair_cancellation(symmetric_mix):
    assert check_pair(symmetric_mix, (1, 1), (1, -1)) is False


def test_check_pair_generic(power_matrix):
    assert check_pair(power_matrix, (1, 1), (1, 1)) is True


def test_check_pair_ignores_constant_part():
    A = PolyMat([[poly(7)]])  # nonzero constant, no x-dependence
    assert check_pair(A, (1,), (1,)) is False


def test_check_pair_rejects_zero_vectors(scalar_x):
    with pytest.raises(ZeroVector):
        check_pair(scalar_x, (0, 0), (1, 0))
    with pytest.raises(ZeroVector):
        check_pair(scalar_x, (1, 0), (0, 0))


def test_fleeing_matrix_powers(power_matrix):
    M = fleeing_matrix(power_matrix, (1, 0))
    assert M.entries == [[1, 0, 0, 0], [0, 0, 1, 0]]


def test_fleeing_matrix_scalar(scalar_x):
    M = fleeing_matrix(scalar_x, (1, 0))
    assert M.entries == [[1], [0]]


def test_fleeing_matrix_constant_is_empty():
    assert fleeing_matrix(PolyMat([[poly(3)]]), (1,)) is None


@pytest.mark.parametrize(
    "fixture,w,expected",
    [
        ("power_matrix", (1, 0), True),
        ("scalar_x", (1, 0), False),
        ("symmetric_mix", (1, -1), False),
    ],
)
def test_entries_independent(request, fixture, w, expected):
    A = request.getfixturevalue(fixture)
    assert entries_independent(A, w) is expected


def test_entries_independent_matches_pairwise_check():
    """Rank-d fleeing matrix <-> no nonzero v killing the bilinear form."""
    rng = random.Random(8)
    from itertools import product

    for _ in range(60):
        d = rng.randint(1, 2)
        A = random_poly_matrix(rng, d, rng.randint(1, 4), 3)
        w = [0] * d
        while not any(w):
            w = [rng.randint(-3, 3) for _ in range(d)]
        indep = entries_independent(A, w)
        killed = False
        # a rank-deficient column set here has a kernel vector with entries
        # bounded by the largest column entry: coeff_bound * ||w||_1 <= 18
        for v in product(range(-18, 19), repeat=d):
            if any(v) and not check_pair(A, v, w):
                killed = True
                break
        assert indep == (not killed)


def test_find_violation_scalar(scalar_x):
    hit = find_violation(scalar_x, 1)
    assert hit is not None
    v, w = hit
    assert not check_pair(scalar_x, v, w)


def test_find_violation_witness(symmetric_mix):
    v, w = find_violation(symmetric_mix, 1)
    assert w == (1, -1)
    assert tuple(map(abs, v)) == (1, 1)
    assert not check_pair(symmetric_mix, v, w)


def test_find_violation_clears(power_matrix):
    assert find_violation(power_matrix, 10) is None


def test_find_violation_witness_is_primitive(scalar_x):
    v, w = find_violation(scalar_x, 3)
    assert gcd_vec(v) == 1
    assert gcd_vec(w) == 1


FAKE_RECHECK = """
import sys
from glasnerlab import checker
from glasnerlab.polymat import IntPoly, PolyMat

assert sys.flags.optimize == 1
X, ZERO = IntPoly([0, 1]), IntPoly()
checker.check_pair = lambda A, v, w: True
try:
    checker.find_violation(PolyMat([[X, ZERO], [ZERO, X]]), 1)
except RuntimeError as exc:
    print("raised:", exc)
"""


def test_find_violation_recheck_survives_optimize():
    """A witness that fails its exact re-check is an internal soundness
    failure: RuntimeError, also under python -O (where asserts vanish)."""
    src = Path(checker.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAKE_RECHECK],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: witness")


def test_find_violation_recheck_raises(scalar_x, monkeypatch):
    monkeypatch.setattr(checker, "check_pair", lambda A, v, w: True)
    with pytest.raises(RuntimeError, match="re-verification"):
        find_violation(scalar_x, 1)


def test_certify_generic_random_stage_recheck_raises(monkeypatch):
    # equal rows: v = (1, -1) kills every w, and degree 2 = d skips the
    # degree shortcut, so the witness comes from the random stage
    X2 = X * X
    A = PolyMat([[X, X2], [X, X2]])
    monkeypatch.setattr(checker, "check_pair", lambda A, v, w: True)
    with pytest.raises(RuntimeError, match="re-verification"):
        certify_generic(A, trials=5, rng=random.Random(1))


def test_certify_generic_degree_shortcut_recheck_raises(scalar_x, monkeypatch):
    monkeypatch.setattr(checker, "check_pair", lambda A, v, w: True)
    with pytest.raises(RuntimeError, match="re-verification"):
        certify_generic(scalar_x, trials=5, rng=random.Random(1))


def test_certify_generic_full_rank(power_matrix):
    verdict = certify_generic(power_matrix, trials=50, rng=random.Random(1))
    assert verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK
    assert verdict.trials == 50


def test_certify_generic_degree_shortcut(scalar_x):
    # one coefficient matrix cannot span R^2: immediate violation
    verdict = certify_generic(scalar_x, trials=5, rng=random.Random(1))
    assert verdict.status is VerdictStatus.VIOLATION_FOUND
    v, w = verdict.witness
    assert not check_pair(scalar_x, v, w)


def test_certify_generic_constant_matrix():
    A = PolyMat([[poly(1), poly(0)], [poly(0), poly(1)]])
    verdict = certify_generic(A, trials=5, rng=random.Random(1))
    assert verdict.status is VerdictStatus.VIOLATION_FOUND


def test_clear_to_height_verdicts(power_matrix, symmetric_mix):
    verdict = clear_to_height(power_matrix, 4)
    assert verdict.status is VerdictStatus.CLEARED_TO_HEIGHT
    assert verdict.height == 4
    verdict = clear_to_height(symmetric_mix, 1)
    assert verdict.status is VerdictStatus.VIOLATION_FOUND


def test_full_check_exhaustive_only(power_matrix):
    verdict = full_check(power_matrix, height=2, trials=0)
    assert verdict.status is VerdictStatus.CLEARED_TO_HEIGHT
    assert verdict.height == 2


@pytest.mark.parametrize(
    "height,trials,message",
    [(1, -1, "trials must be >= 0"), (0, 5, "height must be >= 1")],
)
def test_full_check_validates_before_scanning(
    power_matrix, symmetric_mix, height, trials, message
):
    for A in (power_matrix, symmetric_mix):
        with pytest.raises(ValueError, match=message):
            full_check(A, height=height, trials=trials, rng=random.Random(2))


def test_entries_independent_rejects_bad_w(power_matrix):
    with pytest.raises(ZeroVector):
        entries_independent(power_matrix, (0, 0))
    with pytest.raises(ValueError, match="length d"):
        entries_independent(power_matrix, (1, 0, 0))


def test_full_check_reports_height(power_matrix):
    verdict = full_check(power_matrix, height=3, trials=20, rng=random.Random(2))
    assert verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK
    assert verdict.height == 3
    assert verdict.trials == 20


def test_full_check_violation(symmetric_mix):
    verdict = full_check(symmetric_mix, height=2, rng=random.Random(2))
    assert verdict.status is VerdictStatus.VIOLATION_FOUND
    assert verdict.witness is not None


def test_verdict_to_dict(symmetric_mix):
    d = full_check(symmetric_mix, height=2, rng=random.Random(2)).to_dict()
    assert d["status"] == "ViolationFound"
    assert d["witness"] == {"v": [1, 1], "w": [1, -1]}


@pytest.mark.parametrize(
    "entries,w,Q",
    [
        ([[poly(0, 1), poly(0, 0, 1)], [poly(0, 0, 0, 1), poly(0, 0, 0, 0, 1)]], (1, 0), 8),
        ([[poly(0, 1)]], (1,), 1),
    ],
)
def test_complexity_bound_values(entries, w, Q):
    assert complexity_bound(PolyMat(entries), w).Q == Q


def test_complexity_bound_formula():
    # d=2, coefficient norm 3, ||w|| = 2 -> 2! * (2*3*2)^2 = 288
    A = PolyMat([[poly(0, 3), poly(0, 0, 1)], [poly(0, 0, 0, 1), poly(0, 0, 0, 0, 1)]])
    assert complexity_bound(A, (2, 0)).Q == 288


def test_complexity_bound_hypothesis_checked(scalar_x):
    with pytest.raises(HypothesisFailed):
        complexity_bound(scalar_x, (1, 0))


@pytest.mark.parametrize(
    "P,a,q,g",
    [
        ([IntPoly([0, 1])], (5,), 7, 1),
        ([IntPoly([0, 1]), IntPoly([0, 0, 1])], (2, 3), 5, 1),
        ([IntPoly([0, 2]), IntPoly([0, 0, 2])], (1, 1), 4, 2),
    ],
)
def test_verify_multiplicative_complexity(P, a, q, g):
    res = verify_multiplicative_complexity(P, a, q, Q=8)
    assert res.g == g
    assert res.ok


def test_verify_multiplicative_complexity_bad_gcd():
    with pytest.raises(BadGcd):
        verify_multiplicative_complexity([IntPoly([0, 1])], (2,), 4, Q=8)


def test_violation_vs_exhaustive_rank_scan():
    """find_violation agrees with a direct per-w polynomial dependency scan."""
    rng = random.Random(21)
    from itertools import product

    for _ in range(40):
        A = random_poly_matrix(rng, 2, rng.randint(1, 3), 2)
        hit = find_violation(A, 2)
        exhaustive = None
        for w in product(range(-2, 3), repeat=2):
            if not any(w) or next(x for x in w if x) < 0 or gcd_vec(w) != 1:
                continue
            found_v = None
            # any rank-deficient column set here has a kernel vector of
            # height <= 2 * coeff_bound * ||w||_1 = 8
            for v in product(range(-8, 9), repeat=2):
                if any(v) and not check_pair(A, v, w):
                    found_v = v
                    break
            if found_v is not None:
                exhaustive = (found_v, w)
                break
        if exhaustive is None:
            assert hit is None
        else:
            assert hit is not None
            assert hit[1] == exhaustive[1]
            assert not check_pair(A, hit[0], hit[1])
