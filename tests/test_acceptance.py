"""End-to-end acceptance gate.

Each test covers one acceptance criterion and records a single PASS/FAIL
line (echoed in the terminal summary) with the measured detail.  Criteria
with a runtime budget assert the measured wall time as well.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

from glasnerlab import cli
from glasnerlab.checker import (
    VerdictStatus,
    check_pair,
    complexity_bound,
    find_violation,
    full_check,
    verify_multiplicative_complexity,
)
from glasnerlab.expsum import complete_sum, hua_experiment, orbit_average
from glasnerlab.errors import HypothesisFailed
from glasnerlab.intmat import (
    IntMat,
    gcd_vec,
    rank_rational,
    smith_normal_form,
    verify_gcd_bound,
)
from glasnerlab.polymat import IntPoly, PolyMat, poly_mat_eval
from glasnerlab.torus import (
    TorusPointSet,
    non_glasner_witness,
    orbit_density_search,
    pair_spectrum,
)
from glasnerlab.unipotent import (
    SL2_PAIR,
    UnipotentSystem,
    adjoint_fixture,
    cayley_affine_span_dim,
    cayley_span_dim,
    construct_polynomial,
)

from conftest import (
    ACCEPTANCE_LINES,
    cumulative,
    determinantal_divisors,
    in_arc,
    random_int_matrix,
    random_poly_matrix,
)

X_MATRIX_1D = '{"d": 1, "entries": [[[0, 1]]]}'


def record(name, ok, detail=""):
    line = ("PASS " if ok else "FAIL ") + name + (f"  [{detail}]" if detail else "")
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_snf_correctness():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = random_int_matrix(rng, rows, cols, 20)
        s = smith_normal_form(M)
        diag = [s.diag.entries[i][i] for i in range(min(rows, cols))]
        ok &= s.left @ s.diag @ s.right == M
        ok &= abs(s.left.det()) == 1 and abs(s.right.det()) == 1
        ok &= all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        ok &= all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if max(rows, cols) <= 4:
            dd = determinantal_divisors(M)
            prev = 1
            for k, dk in enumerate(dd):
                expected = dk // prev if dk and prev else 0
                ok &= diag[k] == expected
                prev = dk
        if not ok:
            break
    elapsed = time.time() - t0
    record(
        "smith-normal-form over 1000 random matrices",
        ok and elapsed < 30,
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_02_gcd_bound():
    t0 = time.time()
    rng = random.Random(202)
    checked = 0
    ok = True
    while checked < 1000:
        d = rng.randint(1, 4)
        r = rng.randint(d, 6)
        vectors = [tuple(rng.randint(-10, 10) for _ in range(r)) for _ in range(d)]
        if rank_rational(IntMat([list(v) for v in vectors])) < d:
            continue
        q = rng.randint(1, 10**4)
        a = tuple(rng.randint(-50, 50) for _ in range(d))
        if math.gcd(gcd_vec(a), q) != 1:
            continue
        ok &= verify_gcd_bound(vectors, a, q).ok
        checked += 1
        if not ok:
            break
    elapsed = time.time() - t0
    record(
        "gcd of integer combinations bounded by d! * max-norm^d (1000 instances)",
        ok and elapsed < 10,
        f"{elapsed:.1f}s < 10s",
    )


def _dependent_entries_oracle(A, w):
    """Direct dependency test for d=2: build the two entry polynomials of
    (A(x) - A(0)) w and check all 2x2 coefficient minors vanish."""
    entries = []
    for i in range(2):
        e = IntPoly()
        for j in range(2):
            e = e + A.entries[i][j] * int(w[j])
        entries.append(e - IntPoly.const(e.constant_term()))
    D = max(e.degree for e in entries)
    if D < 1:
        return True  # both entries constant-free zero: every v works
    for k, l in combinations(range(1, D + 1), 2):
        if entries[0].coeff(k) * entries[1].coeff(l) != entries[0].coeff(l) * entries[1].coeff(k):
            return False
    # all columns proportional; dependent unless a single column spans (d=2 never)
    return True


def _first_violating_w_oracle(A, height):
    for w in product(range(-height, height + 1), repeat=2):
        if not any(w) or next(x for x in w if x) < 0 or gcd_vec(w) != 1:
            continue
        if _dependent_entries_oracle(A, w):
            return w
    return None


def test_criterion_03_checker_fixtures_and_oracle(scalar_x, symmetric_mix, power_matrix):
    t0 = time.time()
    ok = True
    hit = find_violation(scalar_x, 1)
    ok &= hit is not None and not check_pair(scalar_x, *hit)
    v, w = find_violation(symmetric_mix, 1)
    ok &= tuple(map(abs, v)) == (1, 1) and tuple(map(abs, w)) == (1, 1) and w[0] != w[1]
    ok &= not check_pair(symmetric_mix, v, w)
    verdict = full_check(power_matrix, height=10, trials=100, rng=random.Random(7))
    ok &= verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK
    ok &= verdict.height == 10 and verdict.trials == 100
    rng = random.Random(303)
    agreements = 0
    for _ in range(200):
        A = random_poly_matrix(rng, 2, rng.randint(1, 3), 3)
        expected_w = _first_violating_w_oracle(A, 4)
        hit = find_violation(A, 4)
        if expected_w is None:
            ok &= hit is None
        else:
            ok &= hit is not None and hit[1] == expected_w
            ok &= not check_pair(A, hit[0], hit[1])
        agreements += 1
        if not ok:
            break
    elapsed = time.time() - t0
    record(
        "violation checker fixtures + exhaustive-oracle agreement (200 matrices)",
        ok and elapsed < 120,
        f"{agreements} oracle runs, {elapsed:.1f}s < 120s",
    )


def test_criterion_04_multiplicative_complexity_conformance():
    rng = random.Random(404)
    checked = 0
    ok = True
    while checked < 1000:
        d = rng.randint(1, 3)
        A = random_poly_matrix(rng, d, rng.randint(1, 3), 3)
        w = tuple(rng.randint(-5, 5) for _ in range(d))
        if not any(w):
            continue
        try:
            Q = complexity_bound(A, w).Q
        except HypothesisFailed:
            continue  # dependent entries for this draw; resample
        q = rng.randint(1, 10**4)
        a = tuple(rng.randint(-20, 20) for _ in range(d))
        if math.gcd(gcd_vec(a), q) != 1:
            continue
        P = [
            sum((A.entries[i][j] * int(w[i]) for i in range(d)), IntPoly())
            for j in range(d)
        ]
        ok &= verify_multiplicative_complexity(P, a, q, Q).ok
        checked += 1
        if not ok:
            break
    record(
        "measured gcd never exceeds the multiplicative-complexity bound (1000 instances)",
        ok,
        f"{checked} instances",
    )


def test_criterion_05_exponential_sums():
    t0 = time.time()
    rng = random.Random(505)
    ok = True
    # complete linear sums vanish
    for _ in range(50):
        q = rng.randint(2, 100)
        c1 = rng.randint(1, q - 1)
        ok &= complete_sum(IntPoly([rng.randint(0, q), c1]), q).magnitude <= 1e-12
    # quadratic sums over odd primes have magnitude 1/sqrt(q)
    sieve = [True] * 998
    for p in range(2, 998):
        if sieve[p]:
            for k in range(p * p, 998, p):
                sieve[k] = False
    primes = [p for p in range(3, 998) if sieve[p]]
    for p in primes:
        mag = complete_sum(IntPoly([0, 0, 1]), p).magnitude
        ok &= abs(mag - 1 / math.sqrt(p)) <= 1e-9
    # rescaled maxima show no growth from q <= 100 to q <= 10^4
    q_small = [11, 23, 47, 83, 97]
    q_large = q_small + [211, 503, 997, 2003, 5003, 9973]
    c_small = hua_experiment(2, 0.1, q_small, trials_per_q=5, seed=55).empirical_C
    c_large = hua_experiment(2, 0.1, q_large, trials_per_q=5, seed=55).empirical_C
    ok &= 0 < c_large <= 2 * c_small
    elapsed = time.time() - t0
    record(
        "complete sums: linear vanishing, quadratic 1/sqrt(q), bounded rescaled maxima",
        ok and elapsed < 120,
        f"C({max(q_small)})={c_small:.3f}, C({max(q_large)})={c_large:.3f}, {elapsed:.1f}s < 120s",
    )


def test_criterion_06_orbit_average_periodization():
    rng = random.Random(606)
    ok = True
    for _ in range(100):
        d = rng.randint(1, 2)
        A = random_poly_matrix(rng, d, rng.randint(1, 3), 3)
        m = tuple(rng.randint(-3, 3) for _ in range(d))
        if not any(m):
            m = (1,) * d
        q = rng.randint(1, 50)
        a = [Fraction(rng.randrange(q), q) if q > 1 else Fraction(0) for _ in range(d)]
        res = orbit_average(A, m, a)
        N = 50 * res.terms
        acc = 0j
        for n in range(1, N + 1):
            An = poly_mat_eval(A, n)
            t = sum(
                Fraction(mi) * sum(Fraction(An.entries[i][j]) * a[j] for j in range(d))
                for i, mi in enumerate(m)
            )
            acc += cmath.exp(2j * math.pi * float(t % 1))
        ok &= abs(res.value - acc / N) <= 2 / N
        if not ok:
            break
    record("orbit averages match long direct averages within 2/N (100 instances)", ok)


def test_criterion_07_pair_spectrum_oracle():
    rng = random.Random(707)
    ok = True
    for _ in range(100):
        d = rng.randint(1, 3)
        base = rng.choice([12, 18, 24, 30])
        k = rng.randint(2, min(30, base**d))  # grid holds only base^d points
        pts = set()
        while len(pts) < k:
            pts.add(tuple(Fraction(rng.randrange(base), base) for _ in range(d)))
        Y = TorusPointSet.exact(sorted(pts))
        spectrum = pair_spectrum(Y)
        # brute-force oracle: minimal t with t * (p - r) integral in every coordinate
        oracle = {}
        for i, p in enumerate(Y.points):
            for j, r in enumerate(Y.points):
                if i == j:
                    continue
                diff = [(x - y) % 1 for x, y in zip(p, r)]
                t = 1
                while not all((t * x).denominator == 1 for x in diff):
                    t += 1
                if t >= 2:
                    oracle[t] = oracle.get(t, 0) + 1
        ok &= spectrum.counts == oracle
        for m in range(1, 40):
            ok &= cumulative(spectrum, m) <= k * m ** (d + 1)
        if not ok:
            break
    record("pair spectrum matches brute-force torsion orders; cumulative bound holds", ok)


def test_criterion_08_witness_avoids_band(scalar_x, symmetric_mix):
    ok = True
    for A in (scalar_x, symmetric_mix):
        v, w = find_violation(A, 1)
        report = non_glasner_witness(A, v, w, 10)
        for n in range(-1000, 1001):
            An = poly_mat_eval(A, n)
            for y in report.Y.points:
                img = [sum(Fraction(An.entries[i][j]) * y[j] for j in range(A.dim)) for i in range(A.dim)]
                f = sum(Fraction(vi) * u for vi, u in zip(v, img)) % 1
                if in_arc(f, report.band_interval):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    record(
        "generated witness families avoid their reported band for all |n| <= 1000",
        ok,
    )


def test_criterion_09_construction_pipeline():
    t0 = time.time()
    ok = True
    res = construct_polynomial(UnipotentSystem(list(SL2_PAIR)), rng=random.Random(9))
    u1, u2 = SL2_PAIR
    ok &= res.word_length == 4 and res.plan.base == 2
    ok &= res.matrix.degree <= 15
    ok &= all(poly_mat_eval(res.matrix, n).det() == 1 for n in range(-5, 6))
    ok &= poly_mat_eval(res.matrix, 1) == u1 @ u2 @ u1 @ u2
    ok &= res.verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK
    ok &= res.verdict.height == 5
    adj = construct_polynomial(adjoint_fixture(), rng=random.Random(9))
    ok &= adj.word_length == 6
    ok &= adj.verdict.status is VerdictStatus.CERTIFIED_GENERIC_RANK
    ok &= adj.verdict.height == 5
    elapsed = time.time() - t0
    record(
        "word-product construction pipeline (2x2 pair and 3x3 adjoint system)",
        ok and elapsed < 60,
        f"degrees {res.matrix.degree}/{adj.matrix.degree}, {elapsed:.1f}s < 60s",
    )


def test_criterion_10_span_growth():
    rng = random.Random(1010)
    ok = True
    for sys in (UnipotentSystem(list(SL2_PAIR)), adjoint_fixture()):
        d = sys.d
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(d))
            if not any(v):
                v = (1,) + (0,) * (d - 1)
            ok &= cayley_span_dim(sys, v, d - 1) == d
            ok &= cayley_affine_span_dim(sys, v, d) == d
            if not ok:
                break
        if not ok:
            break
    record("Cayley-ball linear and affine spans reach full dimension", ok)


def test_criterion_11_density_in_action(tmp_path, capsys):
    t0 = time.time()
    A = PolyMat([[IntPoly([0, 1])]])
    found = 0
    for seed in range(40):
        Y = TorusPointSet.random_floats(50, 1, random.Random(seed))
        if orbit_density_search(A, Y, 0.05, 1, 10**4) is not None:
            found += 1
    ok = found >= 38  # 95% of 40
    path = tmp_path / "x.json"
    path.write_text(X_MATRIX_1D)
    code = cli.main(
        [
            "scaling",
            str(path),
            "--epsilon", "0.2",
            "--epsilon", "0.1",
            "--epsilon", "0.05",
            "--seed", "7",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    ok &= code == 0
    floors = {}
    for row in out["table"]:
        k_min = row["k_min"]
        floor = math.ceil(1 / (2 * row["epsilon"]))
        floors[row["epsilon"]] = (k_min, floor)
        ok &= k_min is not None and k_min >= floor
    ks = [row["k_min"] for row in out["table"]]  # table ordered by epsilon desc
    ok &= all(a <= b for a, b in zip(ks, ks[1:]))
    elapsed = time.time() - t0
    record(
        "random 50-point sets become dense under the orbit; k_min respects 1/(2 eps)",
        ok and elapsed < 300,
        f"{found}/40 seeds, k_min {floors}, {elapsed:.1f}s < 300s",
    )
