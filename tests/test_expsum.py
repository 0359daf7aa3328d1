import cmath
import math
import random
from fractions import Fraction

import pytest

from glasnerlab.errors import BadDelta
from glasnerlab.expsum import (
    complete_sum,
    hua_experiment,
    orbit_average,
    weyl_average,
)
from glasnerlab.polymat import IntPoly

from conftest import poly, random_poly_matrix


def test_complete_sum_full_character():
    assert complete_sum(poly(0, 1), 3).magnitude <= 1e-12


def test_complete_sum_constant():
    res = complete_sum(IntPoly(), 5)
    assert abs(res.value - 1) <= 1e-12
    assert res.terms == 5


def test_complete_sum_quadratic_mod_4():
    res = complete_sum(poly(0, 0, 1), 4)
    assert abs(res.value - (0.5 + 0.5j)) <= 1e-12
    assert abs(res.magnitude - 1 / math.sqrt(2)) <= 1e-12


def test_complete_sum_normalized():
    rng = random.Random(6)
    for _ in range(40):
        q = rng.randint(1, 60)
        f = IntPoly([rng.randrange(q) for _ in range(4)])
        assert complete_sum(f, q).magnitude <= 1.0 + 1e-12


def test_complete_sum_coefficient_periodicity():
    rng = random.Random(7)
    for _ in range(30):
        q = rng.randint(2, 40)
        coeffs = [rng.randint(-100, 100) for _ in range(4)]
        f = IntPoly(coeffs)
        g = IntPoly([c % q for c in coeffs])
        assert abs(complete_sum(f, q).value - complete_sum(g, q).value) <= 1e-9


def test_complete_sum_multiplicative_magnitude():
    """|S(x^2, q1 q2)| = |S(x^2, q1)| * |S(x^2, q2)| for coprime moduli."""
    for q1, q2 in [(3, 5), (4, 7), (5, 8), (9, 11), (16, 25)]:
        lhs = complete_sum(poly(0, 0, 1), q1 * q2).magnitude
        rhs = (
            complete_sum(poly(0, 0, 1), q1).magnitude
            * complete_sum(poly(0, 0, 1), q2).magnitude
        )
        assert abs(lhs - rhs) <= 1e-9


def test_complete_sum_accepts_integer_valued_rational():
    b = IntPoly([0, Fraction(-1, 2), Fraction(1, 2)])  # binomial(n, 2)
    res = complete_sum(b, 7)
    direct = sum(cmath.exp(2j * math.pi * (b.eval_int(n) % 7) / 7) for n in range(1, 8)) / 7
    assert abs(res.value - direct) <= 1e-12


def test_weyl_alternating():
    assert weyl_average([0.0, 0.5], 1000).magnitude <= 1e-12


def test_weyl_zero_phase():
    assert abs(weyl_average([0.0], 10).value - 1) <= 1e-12


def test_weyl_golden_ratio_equidistribution():
    phi = (math.sqrt(5) - 1) / 2
    assert weyl_average([0.0, phi], 10**5).magnitude < 2e-5


def test_weyl_matches_geometric_series():
    alpha = 0.3173
    N = 500
    avg = weyl_average([0.0, alpha], N)
    direct = sum(cmath.exp(2j * math.pi * alpha * n) for n in range(1, N + 1)) / N
    assert abs(avg.value - direct) <= 1e-9


def test_orbit_average_half_point(scalar_x):
    res = orbit_average(scalar_x, (1, 0), [Fraction(1, 2), Fraction(0)])
    assert res.magnitude <= 1e-12


def test_orbit_average_trivial_pairing(scalar_x):
    res = orbit_average(scalar_x, (1, 0), [Fraction(0), Fraction(1, 2)])
    assert abs(res.value - 1) <= 1e-12


def test_orbit_average_equals_long_average():
    rng = random.Random(13)
    for _ in range(20):
        A = random_poly_matrix(rng, 2, 2, 3)
        m = (rng.randint(-2, 2), rng.randint(1, 2))
        q = rng.randint(1, 12)
        a = [Fraction(rng.randrange(q), q) if q > 1 else Fraction(0) for _ in range(2)]
        res = orbit_average(A, m, a)
        N = 50 * res.terms
        acc = 0j
        from glasnerlab.polymat import poly_mat_eval

        for n in range(1, N + 1):
            An = poly_mat_eval(A, n)
            t = sum(
                Fraction(mi) * sum(Fraction(An.entries[i][j]) * a[j] for j in range(2))
                for i, mi in enumerate(m)
            )
            acc += cmath.exp(2j * math.pi * float(t % 1))
        assert abs(res.value - acc / N) <= 2 / N


def test_hua_linear_sums_vanish():
    report = hua_experiment(1, 0.5, [7, 11, 30], trials_per_q=4, seed=3)
    assert all(mag <= 1e-12 for _, mag, _ in report.samples)
    assert report.empirical_C <= 1e-12


def test_hua_gauss_rescaling():
    report = hua_experiment(2, 0.1, [101, 211, 499], trials_per_q=3, seed=5)
    # rescaled value for prime modulus is q^(1/2 - 0.1) * q^(-1/2) = q^(-0.1) < 1
    assert 0 < report.empirical_C < 1
    assert len(report.samples) == 9


def test_hua_deterministic_given_seed():
    a = hua_experiment(2, 0.1, [50, 75], trials_per_q=2, seed=9)
    b = hua_experiment(2, 0.1, [50, 75], trials_per_q=2, seed=9)
    assert a.samples == b.samples


def test_hua_rejects_bad_delta():
    with pytest.raises(BadDelta):
        hua_experiment(2, 0.5, [10], trials_per_q=1, seed=0)
    with pytest.raises(BadDelta):
        hua_experiment(2, 0.0, [10], trials_per_q=1, seed=0)


@pytest.mark.parametrize("trials", [0, -2])
def test_hua_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials_per_q must be >= 1"):
        hua_experiment(2, 0.1, [7], trials_per_q=trials, seed=1)


def test_hua_report_serialization():
    d = hua_experiment(2, 0.1, [10], trials_per_q=1, seed=1).to_dict()
    assert d["degree"] == 2
    assert len(d["samples"]) == 1
    assert set(d["samples"][0]) == {"q", "magnitude", "rescaled"}
