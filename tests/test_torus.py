import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from glasnerlab.errors import (
    BadEpsilon,
    BadMesh,
    NotAViolation,
    NotExact,
)
from glasnerlab.intmat import IntMat
from glasnerlab.torus import (
    TorusPointSet,
    _by_abs,
    density_search,
    eps_dense,
    fourier_statistic,
    non_glasner_witness,
    orbit_density_search,
    pair_spectrum,
    torus_dist,
    weighted_spectrum_sum,
)

from conftest import cumulative, in_arc, poly, random_rationals


def exact_line(*fracs):
    return TorusPointSet.exact([(Fraction(f),) for f in fracs])


def test_point_set_normalizes_mod_1():
    Y = TorusPointSet.exact([(Fraction(5, 4),), (Fraction(-1, 3),)])
    assert Y.points == [(Fraction(1, 4),), (Fraction(2, 3),)]


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        exact_line(Fraction(1, 2), Fraction(3, 2))


def test_torus_dist_wraps():
    assert torus_dist((0.9,), (0.1,)) == pytest.approx(0.2)
    assert torus_dist((0.25, 0.0), (0.5, 0.9)) == pytest.approx(0.25)


def test_transform_exact():
    Y = TorusPointSet.exact([(Fraction(1, 3), Fraction(1, 2))])
    M = IntMat([[2, 0], [0, 3]])
    img = Y.transform(M)
    assert img.points == [(Fraction(2, 3), Fraction(1, 2))]


def test_transform_merges_collisions():
    Y = exact_line(Fraction(1, 4), Fraction(3, 4))
    img = Y.transform(IntMat([[2]]))
    assert img.points == [(Fraction(1, 2),)]


def test_eps_dense_uniform_grid():
    Y = exact_line(*[Fraction(i, 10) for i in range(10)])
    report = eps_dense(Y, 0.1, mesh=0.05)
    assert report.dense
    assert report.certificate is None


def test_eps_dense_single_point_fails():
    report = eps_dense(exact_line(0), 0.1)
    assert not report.dense
    assert report.certificate is not None
    # the certificate is a verified witness: farther than epsilon from Y
    assert torus_dist(report.certificate, (0.0,)) > 0.1


def test_eps_dense_2d_grid():
    m = 4
    pts = [
        (Fraction(i, m), Fraction(j, m)) for i in range(m) for j in range(m)
    ]
    report = eps_dense(TorusPointSet.exact(pts), 1 / m + 1e-9, mesh=1 / (2 * m))
    assert report.dense


def test_eps_dense_monotone_in_epsilon():
    rng = random.Random(12)
    Y = TorusPointSet.random_floats(25, 1, rng)
    dense_small = eps_dense(Y, 0.05, mesh=0.01).dense
    dense_large = eps_dense(Y, 0.2, mesh=0.01).dense
    if dense_small:
        assert dense_large


def test_eps_dense_parameter_validation():
    Y = exact_line(0)
    with pytest.raises(BadEpsilon):
        eps_dense(Y, 0.7)
    with pytest.raises(BadMesh):
        eps_dense(Y, 0.1, mesh=0.5)


def test_orbit_density_search_already_dense():
    A = poly_matrix_x()
    Y = exact_line(*[Fraction(i, 101) for i in range(101)])
    assert orbit_density_search(A, Y, 0.01, 1, 10) == 1


def test_orbit_density_search_torsion_trapped():
    A = poly_matrix_x()
    Y = exact_line(0, Fraction(1, 2))
    assert orbit_density_search(A, Y, 0.2, 1, 200) is None


def test_orbit_density_search_golden_orbit():
    A = poly_matrix_x()
    phi = (math.sqrt(5) - 1) / 2
    Y = TorusPointSet.floats([((j * phi) % 1.0,) for j in range(1, 26)])
    n = orbit_density_search(A, Y, 0.05, 1, 10**4)
    assert n is not None


def poly_matrix_x():
    from glasnerlab.polymat import PolyMat

    return PolyMat([[poly(0, 1)]])


@pytest.mark.parametrize(
    "points,expected",
    [
        ([0, Fraction(1, 2)], {2: 2}),
        ([0, Fraction(1, 3), Fraction(2, 3)], {3: 6}),
        ([0, Fraction(1, 2), Fraction(1, 3)], {2: 2, 3: 2, 6: 2}),
    ],
)
def test_pair_spectrum_small_sets(points, expected):
    spectrum = pair_spectrum(exact_line(*points))
    assert spectrum.counts == expected
    assert spectrum.rational_pairs == len(points) ** 2


def test_pair_spectrum_requires_exact():
    with pytest.raises(NotExact):
        pair_spectrum(TorusPointSet.floats([(0.1,), (0.2,)]))


def test_pair_spectrum_cumulative():
    spectrum = pair_spectrum(exact_line(0, Fraction(1, 2), Fraction(1, 3)))
    assert cumulative(spectrum, 2) == 2
    assert cumulative(spectrum, 3) == 4
    assert cumulative(spectrum, 6) == 6


@pytest.mark.parametrize(
    "points,r,expected",
    [
        ([0, Fraction(1, 2)], 1.0, 1.0),
        ([0, Fraction(1, 3), Fraction(2, 3)], 2.0, 6 / 9),
    ],
)
def test_weighted_spectrum_sum(points, r, expected):
    spectrum = pair_spectrum(exact_line(*points))
    assert weighted_spectrum_sum(spectrum, r) == pytest.approx(expected)


def test_fourier_statistic_singleton():
    Y = TorusPointSet.exact([(Fraction(0), Fraction(0))])
    val = fourier_statistic([IntMat.identity(2)], Y, 1.0)
    assert val == pytest.approx(24.0)  # (2*2+1)^2 - 1 terms, all equal 1


def test_fourier_statistic_singleton_general():
    Y = TorusPointSet.exact([(Fraction(1, 7),)])
    eps = 0.3
    M = int(1 / eps)
    val = fourier_statistic([IntMat.identity(1)], Y, eps)
    assert val == pytest.approx(2 * M)


def test_fourier_statistic_real_and_nonnegative():
    rng = random.Random(19)
    Y = random_rationals(5, 2, rng, max_den=50)
    gammas = [IntMat([[1, 1], [0, 1]]), IntMat([[2, 1], [1, 1]])]
    val = fourier_statistic(gammas, Y, 0.5)
    assert val >= -1e-9


def test_witness_scalar_matrix(scalar_x):
    report = non_glasner_witness(scalar_x, (1, 0), (0, 1), 10)
    assert report.band_direction == (1, 0)
    assert report.band_interval == (Fraction(1, 3), Fraction(2, 3))
    assert report.Y.points[0] == (Fraction(0), Fraction(0))
    assert len(report.Y) == 10


def test_witness_cancellation_fixture(symmetric_mix):
    report = non_glasner_witness(symmetric_mix, (1, 1), (1, -1), 5)
    assert len(report.Y) == 5
    # every point has coordinate sum 0 mod 1, far from the (1/3, 2/3) band
    for p in report.Y.points:
        assert not in_arc(sum(p), report.band_interval)


def test_witness_size_one(scalar_x):
    report = non_glasner_witness(scalar_x, (1, 0), (0, 1), 1)
    assert len(report.Y) == 1


def test_witness_rejects_non_violation(power_matrix):
    with pytest.raises(NotAViolation):
        non_glasner_witness(power_matrix, (1, 0), (1, 0), 5)


def test_in_arc_wrapping():
    assert in_arc(Fraction(1, 2), (Fraction(1, 3), Fraction(2, 3)))
    assert not in_arc(Fraction(1, 4), (Fraction(1, 3), Fraction(2, 3)))
    # arc wrapping through 0
    assert in_arc(Fraction(0), (Fraction(5, 6), Fraction(1, 6)))
    assert not in_arc(Fraction(1, 2), (Fraction(5, 6), Fraction(1, 6)))


@given(st.integers(-30, 30), st.integers(0, 40))
def test_by_abs_order_equals_sorted_range(n_min, width):
    n_max = n_min + width
    want = sorted(range(n_min, n_max + 1), key=lambda n: (abs(n), n < 0))
    assert list(_by_abs(n_min, n_max)) == want


@pytest.mark.parametrize("n_min, n_max", [(-9, -2), (-5, 0), (-4, 7), (-7, 3), (0, 0), (3, 3)])
def test_by_abs_order_edge_ranges(n_min, n_max):
    want = sorted(range(n_min, n_max + 1), key=lambda n: (abs(n), n < 0))
    assert list(_by_abs(n_min, n_max)) == want


def test_orbit_density_search_huge_range_dense_at_one():
    """n is generated lazily, so a 10^12-wide range costs nothing up front."""
    A = poly_matrix_x()
    Y = exact_line(*[Fraction(i, 101) for i in range(101)])
    assert orbit_density_search(A, Y, 0.01, 1, 10**12) == 1
    assert orbit_density_search(A, Y, 0.01, -10**12, 10**12) == 1


def test_density_search_returns_the_report_of_its_n():
    A = poly_matrix_x()
    Y = exact_line(*[Fraction(i, 101) for i in range(101)])
    n, report = density_search(A, Y, 0.01, 1, 10)
    assert n == 1
    assert report == eps_dense(Y, 0.01)
    assert density_search(A, exact_line(0, Fraction(1, 2)), 0.2, 1, 50) is None
