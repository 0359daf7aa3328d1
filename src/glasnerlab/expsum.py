"""Exponential sum kernels.

Complete rational sums are evaluated with the polynomial reduced mod q in
exact integer arithmetic, split by CRT over the coprime prime-power factors
p^k of q when the denominator of f allows.  Each factor goes through Hua's
p-adic reduction: the phase and p-content come out, stationary phase keeps
only the roots of f' mod p for k >= 2, and a prime modulus has closed forms
by folded degree (0, 1, the Gauss sum for 2, a half-range cosine sum for 3)
before a direct sum over the residues f(n) mod p.  Every reduction and
residue is exact integer arithmetic; floating point enters only in sqrt(p),
the final roots of unity exp(2*pi*i*r/q) and one math.fsum of cosines (and
sines) per block of residues, so no argument carries accumulated error.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import BadDelta
from .intmat import gcd_vec
from .polymat import IntPoly, PolyMat, bilinear_poly

TWO_PI = 2.0 * math.pi


@dataclass
class SumResult:
    value: complex
    terms: int

    @property
    def magnitude(self) -> float:
        return abs(self.value)


# n values per block of residues: bounds the working lists
_BLOCK = 1 << 14
# the most residues a direct sum may take mod q (or a root scan mod p)
_MAX_BINS = 1 << 25
_TRIAL = 1 << 10
# Miller-Rabin on these bases is exact below _MR_LIMIT (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, for odd n > 41 below _MR_LIMIT."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, n >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


def _as_prime_power(m: int) -> Optional[Tuple[int, int]]:
    """(r, k) with m = r^k, r prime, for m < _MR_LIMIT free of primes up to _TRIAL; else None."""
    # r > _TRIAL: k <= log2(m) / 10, and a float k-th root (k >= 3) errs by < 1e-7
    for k in range(1, m.bit_length() // 10 + 1 if m < _MR_LIMIT else 1):
        r = m if k == 1 else math.isqrt(m) if k == 2 else round(m ** (1.0 / k))
        if r**k == m and _is_prime(r):
            return r, k
    return None


def _prime_power_factors(q: int) -> List[Tuple[int, int]]:
    """The pairs (p, e) with p^e exactly dividing q, by trial division.

    Once the divisor passes _TRIAL, and after each further factor, the
    cofactor is tested as a prime power.  Raises ValueError naming q once
    the divisor passes _MAX_BINS with a composite cofactor left.
    """
    n, out, p, untested = q, [], 2, True
    while p * p <= q:
        if p > _TRIAL:
            if p > _MAX_BINS:
                raise ValueError(
                    f"cannot factor q = {n}: its cofactor {q} has no prime "
                    f"factor up to the trial division limit of {_MAX_BINS}"
                )
            if untested:
                untested = False
                rk = _as_prime_power(q)
                if rk:
                    return out + [rk]
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
            untested = True
        p += 1 if p == 2 else 2
    if q > 1:
        out.append((q, 1))
    return out


def _check_bins(bins: int, mod: int) -> None:
    """Refuse a direct sum or root scan of more than _MAX_BINS residues."""
    if bins > _MAX_BINS:
        raise ValueError(
            f"complete sum needs {bins} residue bins mod {mod}, "
            f"above the limit of {_MAX_BINS}"
        )


def _fsum_e(rs: List[int], q: int, imag: bool = True) -> complex:
    """Sum of e(r/q) over the exact residues rs: one math.fsum pass of cos (and of sin if imag)."""
    angle = (TWO_PI / q).__mul__
    re = math.fsum(map(math.cos, map(angle, rs)))
    return complex(re, math.fsum(map(math.sin, map(angle, rs))) if imag else 0.0)


def _residue_sum(P: Sequence[int], mod: int, div: int = 1, start: int = 0) -> complex:
    """(1/q) * sum_{n=start}^{start+q-1} e(r(n)/q), with q = mod // div and
    r(n) = (P(n) mod mod) // div.

    Integer Horner mod `mod` gives the residues, one _fsum_e per block of
    _BLOCK, so memory is O(_BLOCK).  Raises ValueError if q > _MAX_BINS.
    """
    q = mod // div
    _check_bins(q, mod)
    cs = [c % mod for c in reversed(P)] or [0]
    total = 0j
    for lo in range(start, start + q, _BLOCK):
        ns = range(lo, min(lo + _BLOCK, start + q))
        acc = [cs[0]] * len(ns)
        for c in cs[1:]:
            acc = [(a * n + c) % mod for a, n in zip(acc, ns)]
        total += _fsum_e([a // div for a in acc] if div > 1 else acc, q)
    return total / q


def _e(r: int, q: int) -> complex:
    """e(r/q) = exp(2*pi*i*r/q) for an integer r."""
    return cmath.rect(1.0, TWO_PI * ((r % q) / q))


def _taylor_shift(c: Sequence[int], r: int, mod: int) -> List[int]:
    """Coefficients of f(x + r) mod `mod`, f with coefficients c (ascending)."""
    a = [x % mod for x in c]
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] = (a[j] + r * a[j + 1]) % mod
    return a


def _valuation(x: int, p: int, cap: int) -> int:
    """min(v_p(x), cap), with v_p(0) taken as cap."""
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod an odd prime p (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, p >> s, p), pow(a, p >> s, p), pow(a, ((p >> s) + 1) // 2, p)
    while t > 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_mod_p(d: Sequence[int], p: int) -> List[int]:
    """The roots r in 0..p-1, ascending, of the polynomial with ascending
    coefficients d mod p: solved directly up to degree 1 and, at odd p,
    degree 2 (discriminant, Euler's criterion, Tonelli-Shanks); else a scan."""
    d = [x % p for x in d]
    while d and not d[-1]:
        d.pop()
    if len(d) == 1:
        return []
    if len(d) == 2:
        return [-d[0] * pow(d[1], -1, p) % p]
    if len(d) == 3 and p > 2:
        disc = (d[1] * d[1] - 4 * d[0] * d[2]) % p
        if pow(disc, (p - 1) // 2, p) > 1:
            return []
        s, inv = _sqrt_mod_p(disc, p), pow(2 * d[2], -1, p)
        return sorted({(s - d[1]) * inv % p, (-s - d[1]) * inv % p})
    _check_bins(p, p)
    out = []
    for r in range(p):
        acc = 0
        for x in reversed(d):
            acc = (acc * r + x) % p
        if not acc:
            out.append(r)
    return out


def _prime_sum(c: Sequence[int], p: int) -> complex:
    """(1/p) * sum_{n mod p} e(f(n)/p) for f(0) = 0 and integer c.

    As functions on Z/p, n^j = n^(1 + (j-1) mod (p-1)) for j >= 1, so f
    folds to degree at most p - 1.  The folded degree picks the form: the
    phase, exactly 0, the Gauss sum, one cosine fsum over (p - 1)/2 exact
    residues for degree 3, and `_residue_sum` over all p residues above.
    """
    a = [0] * min(len(c), p)
    for j in range(1, len(c)):
        a[1 + (j - 1) % (p - 1)] += c[j]
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    deg = len(a) - 1
    if deg <= 0:
        return complex(1)
    if deg == 1:
        return 0j
    if deg == 2:
        # Gauss sum, p odd: sum e((a t^2 + b t)/p)
        #   = e(-b^2 (4a)^-1 / p) * (a/p) * eps_p * sqrt(p)
        _, b, a2 = a
        phase = _e(-b * b * pow(4 * a2, -1, p), p)
        legendre = 1 if pow(a2, (p - 1) // 2, p) == 1 else -1
        eps = 1 if p % 4 == 1 else 1j
        return phase * (legendre * eps / math.sqrt(p))
    if deg == 3:
        # p > 3: shift to a t^3 + b t + d and pair t with -t
        d, b, _, a3 = _taylor_shift(a, -a[2] * pow(3 * a[3], -1, p), p)
        _check_bins(p, p)
        h = (p + 1) // 2
        half = 0.0
        for lo in range(1, h, _BLOCK):
            ts = range(lo, min(lo + _BLOCK, h))
            half += _fsum_e([(a3 * t * t + b) * t % p for t in ts], p, False).real
        return _e(d, p) * ((1 + 2 * half) / p)
    return _residue_sum(a, p)


def _prime_power_sum(c: Sequence[int], p: int, k: int) -> complex:
    """(1/p^k) * sum_{n mod p^k} e(f(n)/p^k) for f with integer
    coefficients c (ascending), by Hua's p-adic reduction.

    The phase e(f(0)/p^k) comes out first.  A p-content p^s of the rest
    reduces the modulus to p^(k-s).  For k >= 2, f(x + p^(k-1) y) =
    f(x) + p^(k-1) y f'(x) (mod p^k) leaves only the x with p | f'(x), and
    each such root r mod p contributes e(f(r)/p^k) times the sum of
    f(r + p t) - f(r), whose content is at least p^2.  k = 1 goes to
    _prime_sum.
    """
    q = p**k
    c = [x % q for x in c] or [0]
    phase = _e(c[0], q)
    c[0] = 0
    s = min((_valuation(x, p, k) for x in c[1:]), default=k)
    if s == k:
        return phase
    if s:
        ps = p**s
        return phase * _prime_power_sum([0] + [x // ps for x in c[1:]], p, k - s)
    if k == 1:
        return phase * _prime_sum(c, p)
    total = 0j
    for r in _roots_mod_p([j * c[j] for j in range(1, len(c))], p):
        g = _taylor_shift(c, r, q)  # g[0] = f(r)
        total += _e(g[0], q) * _prime_power_sum(
            [0] + [x * p**j for j, x in enumerate(g) if j], p, k
        )
    return phase * total / p


def complete_sum(f: IntPoly, q: int) -> SumResult:
    """(1/q) * sum_{n=1}^{q} e(f(n)/q).

    f may have rational coefficients as long as it is integer-valued.  With
    f = P / L (integer form): when gcd(L, q) = 1, f = P * L^-1 mod q has
    integer coefficients and the sum is the product over the prime powers
    p^e of q of the sums S(u * f, p^e), u = (q / p^e)^-1 mod p^e (CRT),
    each reduced exactly by `_prime_power_sum`.  Otherwise P is reduced mod
    q * L and f(n) mod q = (P(n) mod qL) // L, by the direct sum
    `_residue_sum`.  Residues and reductions are exact integer arithmetic;
    floats enter only in sqrt(p), the final roots of unity and one
    math.fsum pass per block of residues.  `terms` stays q, the number of
    summands.  A direct sum or root scan over more than 2^25 residues
    raises ValueError before it starts.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    P, L = f.integer_form()
    if L > 1:
        # NonIntegerValue unless f is integer at deg + 1 consecutive points,
        # which makes it integer-valued
        for n in range(len(P)):
            f.eval_int(n)
    if math.gcd(L, q) > 1:
        return SumResult(value=_residue_sum(P, q * L, L, start=1), terms=q)
    linv = pow(L, -1, q)
    c = [x * linv % q for x in P]
    value = complex(1)
    for p, e in _prime_power_factors(q):
        qi = p**e
        ui = pow(q // qi, -1, qi)
        value *= _prime_power_sum([ui * x for x in c], p, e)
        if not value:
            value = 0j  # an exact zero factor, without a signed zero
            break
    return SumResult(value=value, terms=q)


def _frac_mod1(c: float, npow: int) -> float:
    """(c * npow) mod 1 for float c and exact integer npow, without
    magnification of rounding error: the integer part of c contributes
    nothing mod 1 and the fractional part is an exact binary rational."""
    fpart = c - math.floor(c)
    if fpart == 0.0:
        return 0.0
    num, den = fpart.as_integer_ratio()
    return ((num * npow) % den) / den


def weyl_average(coeffs: Sequence[float], N: int) -> SumResult:
    """(1/N) * sum_{n=1}^{N} e(g(n)) for g(n) = sum_j coeffs[j] * n^j."""
    if N < 1:
        raise ValueError("N must be >= 1")
    acc = 0j
    for n in range(1, N + 1):
        t = 0.0
        npow = 1
        for j, c in enumerate(coeffs):
            if j > 0:
                npow *= n
            if c:
                t += _frac_mod1(float(c), npow)
        acc += cmath.exp(1j * TWO_PI * (t % 1.0))
    return SumResult(value=acc / N, terms=N)


def orbit_average(A: PolyMat, m: Sequence[int], delta_point: Sequence[Fraction]) -> SumResult:
    """Cesaro limit of (1/N) sum e(m^t A(n) delta), computed as the exact
    complete sum over one period q (the lcm of the coordinate denominators)."""
    if len(m) != A.dim or len(delta_point) != A.dim:
        raise ValueError("m and delta_point must have length d")
    fracs = [Fraction(x) for x in delta_point]
    q = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    a = [int(f * q) for f in fracs]
    p = IntPoly()
    for j, aj in enumerate(a):
        if aj:
            col = [A.entries[i][j] for i in range(A.dim)]
            for mi, e in zip(m, col):
                if mi:
                    p = p + e * (int(mi) * aj)
    # p(n) = m^t A(n) a; the summand is e(p(n)/q)
    return complete_sum(p, q)


@dataclass
class HuaReport:
    D: int
    delta: float
    samples: List[Tuple[int, float, float]] = field(default_factory=list)
    empirical_C: float = 0.0

    def to_dict(self):
        return {
            "degree": self.D,
            "delta": self.delta,
            "samples": [
                {"q": q, "magnitude": mag, "rescaled": res}
                for q, mag, res in self.samples
            ],
            "empirical_C": self.empirical_C,
        }


def hua_experiment(
    D: int,
    delta: float,
    q_list: Sequence[int],
    trials_per_q: int,
    seed: int,
) -> HuaReport:
    """Sample random degree-D polynomials with gcd(a_1..a_D, q) = 1 and record
    normalized sum magnitudes together with the q^{1/D - delta} rescaling.

    The nonconstructive constant of the classical bound is an output (the
    empirical maximum of the rescaled values), never an input.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if not 0 < delta < 1.0 / D:
        raise BadDelta("need 0 < delta < 1/D")
    if trials_per_q < 1:
        raise ValueError("trials_per_q must be >= 1")
    rng = random.Random(seed)
    report = HuaReport(D=D, delta=delta)
    for q in q_list:
        if q < 1:
            raise ValueError("moduli must be positive")
        for _ in range(trials_per_q):
            while True:
                coeffs = [0] + [rng.randrange(q) for _ in range(D)]
                if math.gcd(gcd_vec(coeffs[1:]), q) == 1:
                    break
            mag = complete_sum(IntPoly(coeffs), q).magnitude
            rescaled = q ** (1.0 / D - delta) * mag
            report.samples.append((q, mag, rescaled))
    report.empirical_C = max((s[2] for s in report.samples), default=0.0)
    return report
