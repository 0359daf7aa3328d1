"""Exponential sum kernels.

Complete rational sums are evaluated with the polynomial reduced mod q in
exact integer arithmetic: a histogram of the residues f(n) mod q, split by
CRT over the coprime prime-power factors of q when the denominator of f
allows.  Floating point enters only in the final exp(2*pi*i*r/q) of each
residue, so the argument carries no accumulated error even for large moduli.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

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


# n values per block of the residue histogram: bounds the working lists
_BLOCK = 1 << 14


def _prime_power_factors(q: int) -> List[int]:
    """The prime powers exactly dividing q, by trial division."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            pe = 1
            while q % p == 0:
                q //= p
                pe *= p
            out.append(pe)
        p += 1 if p == 2 else 2
    if q > 1:
        out.append(q)
    return out


def _residue_sum(P: Sequence[int], mod: int, div: int = 1, start: int = 0) -> complex:
    """(1/q) * sum_{n=start}^{start+q-1} e(r(n)/q), with q = mod // div and
    r(n) = (P(n) mod mod) // div.

    P(n) mod mod comes from integer Horner mod `mod` into a histogram of the
    q residues; floating point enters only in one exp per nonzero bin.
    """
    q = mod // div
    hist = [0] * q
    cs = [c % mod for c in reversed(P)] or [0]
    top, rest = cs[0], cs[1:]
    stop = start + q
    for lo in range(start, stop, _BLOCK):
        ns = range(lo, min(lo + _BLOCK, stop))
        acc = [top] * len(ns)
        for c in rest:
            acc = [(a * n + c) % mod for a, n in zip(acc, ns)]
        for a in acc:
            hist[a // div] += 1
    rect = cmath.rect
    return sum(rect(c, TWO_PI * (r / q)) for r, c in enumerate(hist) if c) / q


def complete_sum(f: IntPoly, q: int) -> SumResult:
    """(1/q) * sum_{n=1}^{q} e(f(n)/q).

    f may have rational coefficients as long as it is integer-valued.  With
    f = P / L (integer form): when gcd(L, q) = 1, f = P * L^-1 mod q has
    integer coefficients and the sum is the product over the prime powers
    q_i of q of the sums S(u_i * f, q_i), u_i = (q / q_i)^-1 mod q_i (CRT).
    Otherwise P is reduced mod q * L and f(n) mod q = (P(n) mod qL) // L.
    Every residue is exact; `terms` stays q, the number of summands.
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
    c = [p * linv % q for p in P]
    value = complex(1)
    for qi in _prime_power_factors(q):
        ui = pow(q // qi, -1, qi)
        value *= _residue_sum([ui * x for x in c], qi)
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
