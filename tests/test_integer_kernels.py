"""The integer-form kernels against the direct Fraction oracles they replaced.

`direct_complete_sum` is the original complete-sum loop: one Fraction Horner
evaluation and one exp per term.  It is kept here, as a test oracle only.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from glasnerlab.errors import NonIntegerValue
from glasnerlab.expsum import _prime_power_factors, complete_sum
from glasnerlab.polymat import IntPoly

TWO_PI = 2.0 * math.pi
KERNEL = settings(max_examples=40, deadline=None)


def fraction_horner(f: IntPoly, n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * n + c
    return acc


def direct_complete_sum(f: IntPoly, q: int) -> complex:
    """(1/q) * sum_{n=1}^{q} e(f(n)/q), term by term."""
    acc = 0j
    for n in range(1, q + 1):
        v = fraction_horner(f, n)
        assert v.denominator == 1
        acc += cmath.exp(1j * (TWO_PI * ((v.numerator % q) / q)))
    return acc / q


def binomial(k: int) -> IntPoly:
    """C(x, k) = x (x - 1) ... (x - k + 1) / k!."""
    p = IntPoly([1])
    for j in range(k):
        p = p * IntPoly([-j, 1])
    return p * Fraction(1, math.factorial(k))


def binomial_combination(coeffs) -> IntPoly:
    """sum_k coeffs[k] * C(x, k): integer-valued, rational coefficients."""
    f = IntPoly()
    for k, a in enumerate(coeffs):
        f = f + binomial(k) * a
    return f


PRIMES = [2, 3, 5, 7, 97, 101, 997, 1999]
PRIME_POWERS = [4, 8, 9, 25, 27, 49, 121, 128, 243, 343, 625, 1024, 1331, 1369]
MANY_FACTORS = [30, 60, 105, 210, 360, 420, 1001, 1155, 1260, 1430, 1938, 2000]
SPECIAL_Q = st.sampled_from([1] + PRIMES + PRIME_POWERS + MANY_FACTORS)
INT_COEFFS = st.lists(st.integers(-10**6, 10**6), max_size=6)
BINOMIAL_COEFFS = st.lists(st.integers(-50, 50), min_size=2, max_size=6)


def assert_matches_direct(f: IntPoly, q: int):
    res = complete_sum(f, q)
    assert res.terms == q
    assert abs(res.value - direct_complete_sum(f, q)) <= 1e-12


@KERNEL
@given(INT_COEFFS, st.integers(1, 2000))
def test_complete_sum_matches_direct_sum(coeffs, q):
    assert_matches_direct(IntPoly(coeffs), q)


@KERNEL
@given(INT_COEFFS, SPECIAL_Q)
def test_complete_sum_matches_direct_sum_special_moduli(coeffs, q):
    assert_matches_direct(IntPoly(coeffs), q)


@KERNEL
@given(BINOMIAL_COEFFS, st.integers(1, 2000))
def test_complete_sum_binomial_basis_coprime_denominator(coeffs, q):
    f = binomial_combination(coeffs)
    _, L = f.integer_form()
    assume(math.gcd(L, q) == 1)
    assert_matches_direct(f, q)


@KERNEL
@given(BINOMIAL_COEFFS, st.integers(2, 2000))
def test_complete_sum_binomial_basis_shared_denominator(coeffs, q):
    f = binomial_combination(coeffs)
    _, L = f.integer_form()
    assume(math.gcd(L, q) > 1)
    assert_matches_direct(f, q)


def test_complete_sum_window_is_one_to_q_when_denominator_shares_q():
    """C(n, 2) mod 2 has period 4, so the sum depends on the window n = 1..q."""
    f = binomial(2)
    assert f.integer_form() == ((0, -1, 1), 2)
    assert complete_sum(f, 2).value == pytest.approx(0j, abs=1e-15)
    assert_matches_direct(f, 2)
    assert_matches_direct(f, 6)


def test_complete_sum_terms_is_q_on_composite():
    res = complete_sum(IntPoly([3, -5, 7, 1]), 2 * 3 * 5 * 7 * 11)
    assert res.terms == 2310


def test_complete_sum_q_one():
    res = complete_sum(IntPoly([5, 7]), 1)
    assert res.value == 1
    assert res.terms == 1


@pytest.mark.parametrize("q", [4, 7, 12])
def test_complete_sum_rejects_non_integer_valued(q):
    with pytest.raises(NonIntegerValue):
        complete_sum(IntPoly([0, Fraction(1, 2)]), q)


@given(st.integers(1, 10**7))
def test_prime_power_factors_split_q(q):
    parts = _prime_power_factors(q)
    assert math.prod(parts) == q
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            assert math.gcd(a, b) == 1


@given(
    st.lists(st.integers(-10**4, 10**4), max_size=7),
    st.integers(-10**6, 10**6),
)
def test_eval_int_matches_fraction_horner(coeffs, n):
    f = binomial_combination(coeffs)
    assert f.eval_int(n) == fraction_horner(f, n)


def test_eval_int_rejects_half_x():
    with pytest.raises(NonIntegerValue):
        IntPoly([0, Fraction(1, 2)]).eval_int(1)


def test_integer_form_is_cached():
    f = IntPoly([Fraction(1, 6), Fraction(-3, 4), 2])
    P, L = f.integer_form()
    assert (P, L) == ((2, -9, 24), 12)
    assert f.integer_form() is f.integer_form()
    assert IntPoly().integer_form() == ((), 1)
