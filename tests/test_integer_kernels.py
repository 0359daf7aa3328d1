"""The integer-form kernels against the direct Fraction oracles they replaced.

`direct_complete_sum` is the original complete-sum loop: one Fraction Horner
evaluation and one exp per term.  `trial_division_factors` is the original
factoring of q, by trial division alone.  Both are kept here, as test oracles
only.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glasnerlab.errors import NonIntegerValue
from glasnerlab import expsum
from glasnerlab.expsum import _prime_power_factors, _residue_sum, _roots_mod_p, complete_sum
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


def trial_division_factors(q: int):
    """The pairs (p, e) with p^e exactly dividing q, by trial division."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if q > 1:
        out.append((q, 1))
    return out


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
    pairs = _prime_power_factors(q)
    parts = [p**e for p, e in pairs]
    assert math.prod(parts) == q
    for p, e in pairs:
        assert e >= 1
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            assert math.gcd(a, b) == 1


def test_prime_power_factors_square_of_a_prime_near_the_limit():
    # below _MAX_BINS^2, so trial division reaches p
    assert _prime_power_factors((10**7 + 19) ** 2) == [(10**7 + 19, 2)]


# primes between 2^10, where the prime-power test starts, and sqrt(10^7)
LARGE_TRIAL_PRIMES = [p for p in range(1025, 3163, 2) if all(p % d for d in range(3, 57, 2))]


@given(
    st.one_of(
        st.integers(1, 10**7),
        st.builds(
            lambda m, p, e: m * p**e,
            st.integers(1, 9),
            st.sampled_from(LARGE_TRIAL_PRIMES),
            st.integers(1, 2),
        ).filter(lambda q: q <= 10**7),
    )
)
def test_prime_power_factors_match_trial_division(q):
    assert _prime_power_factors(q) == trial_division_factors(q)


P40, P40B = 1099511627689, 1099511627609  # the two largest primes below 2^40


@pytest.mark.parametrize(
    "q, want",
    [
        (561, [(3, 1), (11, 1), (17, 1)]),  # Carmichael numbers
        (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
        (1171 * 2341 * 3511, [(1171, 1), (2341, 1), (3511, 1)]),  # every factor above 2^10
        (149491 * 747451 * 34233211, [(149491, 1), (747451, 1), (34233211, 1)]),
        (10**18 + 3, [(10**18 + 3, 1)]),
        (1031 * (10**18 + 3), [(1031, 1), (10**18 + 3, 1)]),
        (P40**2, [(P40, 2)]),
        (1031**3 * 1033**2 * 1039, [(1031, 3), (1033, 2), (1039, 1)]),
        (4 * 3511**5, [(2, 2), (3511, 5)]),
    ],
)
def test_prime_power_factors_past_trial_division(q, want):
    assert _prime_power_factors(q) == want


def test_miller_rabin_rejects_strong_pseudoprimes():
    """A Carmichael number, and strong pseudoprimes to every prime base up
    to 7, 23 and 37, are composite; primes near 10^18 and 2^40 are not."""
    for n in (1171 * 2341 * 3511, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not expsum._is_prime(n)
    for n in (10**18 + 3, 10**9 + 7, P40, P40B):
        assert expsum._is_prime(n)
    # a prime past the bound of the 13 bases is not tested; a semiprime is no power
    assert expsum._as_prime_power(3317044064679887385962123) is None
    assert expsum._as_prime_power(P40 * P40B) is None


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


# ---------------------------------------------- p-adic reduction, closed forms


@st.composite
def prime_power_polys(draw):
    """(coefficients, p, k): p^k <= 4096, degree 1..6, and half the draws
    with every non-constant coefficient multiplied by p or p^2."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    k = draw(st.integers(1, {2: 12, 3: 7, 5: 5, 7: 4, 11: 3}[p]))
    deg = draw(st.integers(1, 6))
    c = draw(st.lists(st.integers(-10**6, 10**6), min_size=deg + 1, max_size=deg + 1))
    if draw(st.booleans()):
        m = p ** draw(st.integers(1, 2))
        c = [c[0]] + [x * m for x in c[1:]]
    return c, p, k


@KERNEL
@given(prime_power_polys())
def test_prime_power_sum_matches_direct_sum(case):
    c, p, k = case
    assert_matches_direct(IntPoly(c), p**k)


@pytest.mark.parametrize(
    "coeffs, q",
    [
        ([0, 2, 1], 2**9),  # n^2 + 2n: f' = 2n + 2 = 0 mod 2 everywhere
        ([0, 3, 0, 1], 3**6),  # n^3 + 3n: f' = 3n^2 + 3 = 0 mod 3 everywhere
        ([1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5], 5**4),  # f' = 0 mod 5 everywhere
        ([0, 0, 0, 1], 2**10),  # n^3: f' = 3n^2 has the double root 0 mod 2
        ([0, 4, 2], 3**7),  # f' = 4n + 4: the one root 2 mod 3
        ([0, -3, 0, 1], 7**4),  # n^3 - 3n: roots 1 and -1 of f' mod 7
        ([5, 0, -2, 0, 1], 7**4),  # n^4 - 2n^2: roots 0, 1 and -1 mod 7
    ],
)
def test_prime_power_sum_stationary_points(coeffs, q):
    assert_matches_direct(IntPoly(coeffs), q)


def test_prime_power_sum_no_stationary_point_is_exactly_zero():
    # f' = 6n^2 + 1 is 1 mod 2 and mod 3: no root, so every term cancels
    for q in (2**12, 3**7, 2**40, 6**20):
        assert complete_sum(IntPoly([5, 1, 0, 2]), q).value == 0j


def test_prime_power_sum_content_reduces_the_modulus():
    """S(p^s g, p^k) = S(g, p^(k-s)), and S = e(f(0)/q) when p^k divides
    every non-constant coefficient."""
    g = [0, 3, -1, 4]
    for p, k, s in ((2, 9, 3), (3, 6, 2), (5, 4, 1)):
        f = IntPoly([0] + [x * p**s for x in g[1:]])
        assert complete_sum(f, p**k).value == pytest.approx(
            complete_sum(IntPoly(g), p ** (k - s)).value, abs=1e-12
        )
        assert_matches_direct(f, p**k)
    whole = complete_sum(IntPoly([5, 2**6, 3 * 2**7]), 2**6).value
    assert whole == pytest.approx(cmath.exp(2j * math.pi * 5 / 64), abs=1e-15)


def test_cubic_at_two_to_the_forty():
    """S(n^3, 2^k) = S(n^3, 2^(k-3)) / 2 for k >= 4 (checked against the
    direct sum up to 2^12), so S(n^3, 2^39) = 2^-13 and S(n^3, 2^40) = 0."""
    f = IntPoly([0, 0, 0, 1])
    for k in range(1, 13):
        assert_matches_direct(f, 2**k)
    for k in range(4, 41):
        assert complete_sum(f, 2**k).value == pytest.approx(
            complete_sum(f, 2 ** (k - 3)).value / 2, abs=1e-15
        )
    assert complete_sum(f, 2**39).value == pytest.approx(2**-13, abs=1e-15)
    res = complete_sum(IntPoly([3, -1, 5, 7]), 2**40)
    assert res.terms == 2**40
    assert res.magnitude <= 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gauss_sum_at_high_prime_powers(p):
    """S(n^2, p^k) = p^(-k/2) for even k and eps_p p^(-k/2) for odd k,
    eps_p = 1 or i as p = 1 or 3 mod 4."""
    eps = 1 if p % 4 == 1 else 1j
    for k in range(1, 26):
        want = p ** (-k / 2) * (eps if k % 2 else 1)
        assert complete_sum(IntPoly([0, 0, 1]), p**k).value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [5, 13, 17, 7, 11, 19])
def test_gauss_sum_every_leading_coefficient(p):
    """a over all of 1..p-1 covers both outcomes of Euler's criterion, at
    p = 1 and p = 3 mod 4."""
    for a in range(1, p):
        for b, c in ((0, 0), (3, 1), (p - 1, 4)):
            f = IntPoly([c, b, a])
            res = complete_sum(f, p)
            assert res.magnitude == pytest.approx(p**-0.5, abs=1e-15)
            assert_matches_direct(f, p)


@pytest.mark.parametrize(
    "p, a, want",
    [
        (13, 1, 13**-0.5),  # p = 1 mod 4, residue
        (13, 2, -(13**-0.5)),  # p = 1 mod 4, non-residue
        (11, 3, 1j * 11**-0.5),  # p = 3 mod 4, residue
        (11, 2, -1j * 11**-0.5),  # p = 3 mod 4, non-residue
    ],
)
def test_gauss_sum_sign_and_quarter_turn(p, a, want):
    assert complete_sum(IntPoly([0, 0, a]), p).value == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize(
    "coeffs, p",
    [
        ([0, 0, 0, 1], 31),  # a t^3: b = 0 and no linear term
        ([4, 7, 0, 2], 101),  # depressed already: b = 0
        ([0, 7, 5, 2], 101),  # shifted by -b (3a)^-1
        ([9, -4, 11, -3], 1999),
    ],
)
def test_cubic_half_range_form(coeffs, p):
    assert_matches_direct(IntPoly(coeffs), p)


@pytest.mark.parametrize("coeffs", [[0, 1, 1, 1], [2, 0, 1, 2], [0, 1, 0, 1], [0, 2, 0, 2]])
def test_p3_cubics(coeffs):
    """At p = 3, n^3 = n as functions, so a cubic folds to degree <= 2."""
    for q in (3, 9, 27, 81, 3 * 7 * 8):
        assert_matches_direct(IntPoly(coeffs), q)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_monomials_fold_at_a_prime(p):
    """n^j = n^(1 + (j-1) mod (p-1)) on Z/p, for every j up to 3p."""
    for j in range(1, 3 * p + 1):
        for a in (1, 2):
            assert_matches_direct(IntPoly([0] * j + [a]), p)
            assert_matches_direct(IntPoly([1, 1] + [0] * (j - 1) + [a]), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_n_to_the_p_minus_n_folds_to_zero(p):
    res = complete_sum(IntPoly([0, -1] + [0] * (p - 2) + [1]), p)
    assert res.value == 1
    assert_matches_direct(IntPoly([0, -1] + [0] * (p - 2) + [1]), p)


@pytest.mark.parametrize("q", [7, 2**10, 3**5, 7 * 9 * 16, 10**9 + 7])
def test_coprime_linear_sum_is_exactly_zero(q):
    for c0 in range(-30, 30):
        value = complete_sum(IntPoly([c0, 5]), q).value
        # +0.0 parts: no signed zero reaches the JSON output
        assert (math.copysign(1, value.real), math.copysign(1, value.imag)) == (1, 1)
        assert value == 0j


def test_prime_sum_forms_by_folded_degree(monkeypatch):
    """Only a folded degree of 3 or more at a prime sums over residues:
    (p - 1)/2 values for the cubic form, p for the direct sum."""
    counts = []
    real = expsum._fsum_e

    def spy(rs, q, imag=True):
        counts.append((q, len(rs)))
        return real(rs, q, imag)

    monkeypatch.setattr(expsum, "_fsum_e", spy)
    for coeffs in ([0, 5], [1, 2, 3], [0, -1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 3]):
        complete_sum(IntPoly(coeffs), 7)
    assert counts == []  # linear, Gauss, n^7 - n = 0 and 3n^7 = 3n
    complete_sum(IntPoly([0, 1, 0, 1]), 7)
    assert counts == [(7, 3)]
    complete_sum(IntPoly([0, 1, 0, 0, 1]), 7)
    assert counts == [(7, 3), (7, 7)]


def test_residue_sum_refuses_an_oversized_histogram():
    with pytest.raises(ValueError, match=r"needs 1000000007 residue bins mod 1000000007"):
        _residue_sum([0, 0, 0, 1], 10**9 + 7)
    with pytest.raises(ValueError, match=r"needs 1073741824 residue bins mod 2147483648"):
        # gcd(L, q) > 1: the direct sum over q * L
        complete_sum(binomial(2), 2**30)
    with pytest.raises(ValueError, match=r"needs 1000000007 residue bins"):
        complete_sum(IntPoly([0, 0, 0, 1]), 10**9 + 7)


def test_stationary_phase_roots_above_the_scan_limit():
    """f' of degree <= 1 mod p, or 2 at odd p, is solved directly; a larger
    f' is scanned over the residues mod p, which refuses p = 2^25 + 35."""
    p = 33554467
    assert expsum._prime_power_sum([0, 0, 1], p, 2) == pytest.approx(1 / p, rel=1e-12)
    assert expsum._prime_power_sum([0, 1, 0, 0, 0, p], p, 3) == 0j
    # f = n^3: f' = 3 n^2 has the one root 0, whose lift contributes p
    assert expsum._prime_power_sum([0, 0, 0, 1], p, 2) == pytest.approx(1 / p, rel=1e-12)
    with pytest.raises(ValueError, match=rf"needs {p} residue bins mod {p}"):
        expsum._prime_power_sum([0, 0, 0, 0, 1], p, 2)


def scan_roots(d, p):
    return [r for r in range(p) if sum(c * r**j for j, c in enumerate(d)) % p == 0]


SMALL_PRIMES = [p for p in range(2, 500) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 23, 31])
def test_roots_of_every_quadratic_match_the_scan(p):
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(1, p):
                assert _roots_mod_p([c0, c1, c2], p) == scan_roots([c0, c1, c2], p)


@KERNEL
@given(
    st.sampled_from(SMALL_PRIMES),
    st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3),
)
def test_roots_of_a_quadratic_match_the_scan(p, d):
    assume(d[2] % p)
    assert _roots_mod_p(d, p) == scan_roots(d, p)


def test_cubic_at_the_square_of_a_large_prime():
    """f' is quadratic, so no scan of the p residues: S(n^3, p^2) = 1/p."""
    p = 10**6 + 3
    assert complete_sum(IntPoly([0, 0, 0, 1]), p * p).value == pytest.approx(1 / p, rel=1e-12)


CUBIC_PRIMES = [p for p in SMALL_PRIMES if p >= 5] + [2999]


@KERNEL
@given(
    st.sampled_from(CUBIC_PRIMES),
    st.integers(1, 10**6),
    st.integers(0, 10**6) | st.just(0),
    st.integers(-10**6, 10**6),
)
@example(2971, 5, 0, 0)  # 2971 = 1 mod 3
@example(2971, 5, 7, 0)
@example(2999, 5, 0, 0)  # 2999 = 2 mod 3
@example(2999, 5, 7, 0)
def test_cubic_form_matches_direct_sum(p, a3, b, a2):
    """The half-range cosine form against the term-by-term oracle, at p = 1
    and p = 2 mod 3, with and without a linear term."""
    assume(a3 % p)
    f = IntPoly([0, b, a2, a3])
    assert abs(complete_sum(f, p).value - direct_complete_sum(f, p)) <= 1e-12


def direct_residue_sum(P, mod, div, start):
    q = mod // div
    acc = 0j
    for n in range(start, start + q):
        r = sum(c * n**j for j, c in enumerate(P)) % mod // div
        acc += cmath.exp(1j * (TWO_PI * (r / q)))
    return acc / q


@KERNEL
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=7),
    st.integers(1, 600),
    st.integers(1, 12),
    st.integers(-50, 50),
    st.sampled_from([1, 5, 64, expsum._BLOCK]),
)
def test_residue_sum_matches_direct(P, q, div, start, block):
    """Blocks of any length, div = 1 (a direct sum mod q) and div > 1 (the
    sum over q * L of a shared denominator)."""
    with mock.patch.object(expsum, "_BLOCK", block):
        got = _residue_sum(P, q * div, div, start)
    assert abs(got - direct_residue_sum(P, q * div, div, start)) <= 1e-12


def test_residue_sum_memory_is_one_block():
    """At q = 2^20 + 7 the residues, 8 MiB as a histogram, never exist at
    once; two Horner passes keep two blocks alive."""
    q = (1 << 20) + 7
    tracemalloc.start()
    try:
        _residue_sum([0, 3, 1], q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_quadratic_at_a_large_prime():
    q = 10**9 + 7
    assert complete_sum(IntPoly([0, 0, 1]), q).magnitude == pytest.approx(q**-0.5, rel=1e-12)
