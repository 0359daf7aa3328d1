"""Finite point sets on the d-torus and the experiments that act on them.

The torus metric everywhere in this package is the l-infinity metric (max
over coordinates of circle distance); it matches the box geometry of the
Fourier statistic and makes the conservative grid certificate exact.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .checker import check_pair
from .errors import (
    BadEpsilon,
    BadMesh,
    DimensionMismatch,
    NotAViolation,
    NotExact,
    ZeroVector,
)
from .intmat import IntMat
from .polymat import PolyMat, bilinear_poly, poly_mat_eval

EXACT = "exact"
FLOAT = "float"
# for 0 <= x < L <= _SAFE_DEN the float x / L is at most 1 - 2^-53 < 1.0
_SAFE_DEN = 2**53


def _wrap_float(x: float) -> float:
    """x mod 1 as a float in [0, 1); nan and inf are no point of the circle."""
    if not math.isfinite(x):
        raise ValueError(f"coordinate {x!r} is not a finite number")
    x = math.fmod(x, 1.0) + 0.0  # + 0.0 turns -0.0 into 0.0
    if x < 0:
        x += 1.0  # rounds to 1.0 when -x < 2^-54
    return x if x < 1.0 else 0.0


class TorusPointSet:
    """Distinct points of T^d, either all exact-rational or all float."""

    # _int caches integer_form(); it stays unset until first use, so building
    # a set costs nothing extra.
    __slots__ = ("dim", "points", "kind", "_int")

    def __init__(self, dim: int, points, kind: str):
        if kind not in (EXACT, FLOAT):
            raise ValueError(f"bad kind {kind!r}")
        norm = []
        for p in points:
            if len(p) != dim:
                raise DimensionMismatch("point dimension mismatch")
            if kind == EXACT:
                norm.append(tuple(Fraction(x) % 1 for x in p))
            else:
                norm.append(tuple(_wrap_float(float(x)) for x in p))
        if len(set(norm)) != len(norm):
            raise ValueError("points must be distinct")
        self.dim = dim
        self.points = norm
        self.kind = kind

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"TorusPointSet(dim={self.dim}, k={len(self.points)}, kind={self.kind})"

    @classmethod
    def _reduced(cls, dim: int, points, kind: str) -> "TorusPointSet":
        """A set of points already reduced mod 1 and distinct."""
        Y = cls.__new__(cls)
        Y.dim, Y.points, Y.kind = dim, points, kind
        return Y

    @classmethod
    def exact(cls, points) -> "TorusPointSet":
        points = [tuple(p) for p in points]
        return cls(len(points[0]), points, EXACT)

    @classmethod
    def floats(cls, points) -> "TorusPointSet":
        points = [tuple(p) for p in points]
        return cls(len(points[0]), points, FLOAT)

    @classmethod
    def random_floats(cls, k: int, dim: int, rng) -> "TorusPointSet":
        return cls(dim, [tuple(rng.random() for _ in range(dim)) for _ in range(k)], FLOAT)

    def as_floats(self) -> List[Tuple[float, ...]]:
        if self.kind == FLOAT:
            return list(self.points)
        return [tuple(float(x) for x in p) for p in self.points]

    def integer_form(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Per point, (L, nums) with coordinate i = nums[i] / L exactly and
        0 <= nums[i] < L.  For exact sets L is the lcm of the point's
        denominators; for float sets it is the largest denominator of the
        coordinates' exact binary rationals, a power of 2."""
        try:
            return self._int
        except AttributeError:
            pass
        form = []
        if self.kind == EXACT:
            for p in self.points:
                L = math.lcm(*[x.denominator for x in p])
                form.append((L, tuple([x.numerator * (L // x.denominator) for x in p])))
        else:
            for p in self.points:
                ratios = [x.as_integer_ratio() for x in p]
                L = max([den for _, den in ratios])
                form.append((L, tuple([num * (L // den) for num, den in ratios])))
        self._int = form
        return form

    def transform(self, M: IntMat) -> "TorusPointSet":
        """Image under an integer matrix, mod 1.

        Exact for rational sets.  Float coordinates enter as their exact
        binary rationals nums / L, so the huge integer entries of M never
        magnify rounding error: each image coordinate is (M nums mod L) / L,
        rounded once.  Images that coincide are merged.
        """
        if M.rows != self.dim or M.cols != self.dim:
            raise DimensionMismatch("matrix/point dimension mismatch")
        form = self.integer_form()
        by_den = {}  # L -> rows of M mod L
        residues = []
        for L, nums in form:
            rows = by_den.get(L)
            if rows is None:
                rows = by_den[L] = [[a % L for a in row] for row in M.entries]
            residues.append((L, [sum(map(mul, row, nums)) % L for row in rows]))
        if self.kind == FLOAT:
            images = set()
            for L, r in residues:
                img = tuple([x / L for x in r])  # int / int rounds correctly
                if L > _SAFE_DEN:  # x / L may round up to 1.0, which is 0
                    img = tuple([v if v < 1.0 else 0.0 for v in img])
                images.add(img)
            return TorusPointSet._reduced(self.dim, sorted(images), FLOAT)
        # x / L -> (x << s) // L is strictly increasing on fractions of
        # denominator at most max L (distinct ones are at least 1 / max L^2
        # apart, and 2^s > max L^2), so the keys merge equal images and sort
        # them in the order of their values
        s = 2 * max([L for L, _ in form], default=1).bit_length()
        images = {}
        for L, r in residues:
            images[tuple([(x << s) // L for x in r])] = (L, r)
        points = [
            tuple([Fraction(x, L) for x in r]) for _, (L, r) in sorted(images.items())
        ]
        return TorusPointSet._reduced(self.dim, points, EXACT)


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 1.0 - d)


def torus_dist(p, q) -> float:
    return max(circle_dist(float(a), float(b)) for a, b in zip(p, q))


@dataclass
class DensityReport:
    epsilon: float
    dense: bool
    covering_radius_estimate: float
    grid_mesh: float
    certificate: Optional[Tuple[float, ...]] = None
    inconclusive: bool = False

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "dense": self.dense,
            "covering_radius_estimate": self.covering_radius_estimate,
            "grid_mesh": self.grid_mesh,
            "certificate": None if self.certificate is None else list(self.certificate),
            "inconclusive": self.inconclusive,
        }


def _grid_min_dists(ys: List[Tuple[float, ...]], dim: int, g: int, epsilon: float):
    """Yield (grid_point, min distance to ys), stopping after the first
    uncovered grid point (distance > epsilon)."""
    if dim == 1:
        # sorted + bisect fast path
        xs = sorted(p[0] for p in ys)
        ext = xs + [xs[0] + 1.0]
        for i in range(g):
            t = i / g
            j = bisect_left(ext, t)
            lo = ext[j - 1] if j else ext[-2] - 1.0
            hi = ext[j] if j < len(ext) else ext[0] + 1.0
            dist = min(t - lo, hi - t)
            yield (t,), dist
            if dist > epsilon:
                return
        return
    idx = [0] * dim
    while True:
        t = tuple(i / g for i in idx)
        dist = min(torus_dist(t, p) for p in ys)
        yield t, dist
        if dist > epsilon:
            return
        k = dim - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < g:
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            return


def eps_dense(Y: TorusPointSet, epsilon: float, mesh: Optional[float] = None) -> DensityReport:
    """Conservative grid test for epsilon-density in the l-infinity metric.

    A grid point farther than epsilon from every point of Y certifies
    non-density.  If every grid point is within epsilon - mesh/2, any point
    of the torus is within epsilon and the set is certified dense.  The gap
    in between is reported as inconclusive (not dense, no certificate).
    """
    if not 0 < epsilon < 0.5:
        raise BadEpsilon("need 0 < epsilon < 1/2")
    if mesh is None:
        mesh = epsilon / 4
    if not 0 < mesh <= epsilon:
        raise BadMesh("need 0 < mesh <= epsilon")
    g = math.ceil(1.0 / mesh)
    ys = Y.as_floats()
    worst = 0.0
    certificate = None
    for t, dist in _grid_min_dists(ys, Y.dim, g, epsilon):
        if dist > worst:
            worst = dist
        if dist > epsilon:
            certificate = t
            break
    if certificate is not None:
        return DensityReport(
            epsilon=epsilon,
            dense=False,
            covering_radius_estimate=worst,
            grid_mesh=mesh,
            certificate=certificate,
        )
    if worst <= epsilon - mesh / 2:
        return DensityReport(
            epsilon=epsilon,
            dense=True,
            covering_radius_estimate=worst,
            grid_mesh=mesh,
        )
    return DensityReport(
        epsilon=epsilon,
        dense=False,
        covering_radius_estimate=worst,
        grid_mesh=mesh,
        inconclusive=True,
    )


def _by_abs(n_min: int, n_max: int):
    """The integers of [n_min, n_max] in (|n|, positive first) order, lazily."""
    if n_min >= 0:
        yield from range(n_min, n_max + 1)
    elif n_max <= 0:
        yield from range(n_max, n_min - 1, -1)
    else:
        yield 0
        for k in range(1, max(n_max, -n_min) + 1):
            if k <= n_max:
                yield k
            if -k >= n_min:
                yield -k


def density_search(
    A: PolyMat,
    Y: TorusPointSet,
    epsilon: float,
    n_min: int,
    n_max: int,
    mesh: Optional[float] = None,
) -> Optional[Tuple[int, DensityReport]]:
    """(n, report) for the smallest |n| in [n_min, n_max] (ties: positive
    first) with A(n)Y certified epsilon-dense; None if there is none."""
    if Y.dim != A.dim:
        raise DimensionMismatch("point set and matrix dimensions differ")
    if n_min > n_max:
        raise ValueError("need n_min <= n_max")
    for n in _by_abs(n_min, n_max):
        report = eps_dense(Y.transform(poly_mat_eval(A, n)), epsilon, mesh)
        if report.dense:
            return n, report
    return None


def orbit_density_search(
    A: PolyMat,
    Y: TorusPointSet,
    epsilon: float,
    n_min: int,
    n_max: int,
    mesh: Optional[float] = None,
) -> Optional[int]:
    """Smallest |n| in [n_min, n_max] (ties: positive first) with A(n)Y
    certified epsilon-dense; None if no such n exists in the range."""
    hit = density_search(A, Y, epsilon, n_min, n_max, mesh)
    return None if hit is None else hit[0]


@dataclass
class PairSpectrum:
    d: int
    k: int
    counts: Dict[int, int] = field(default_factory=dict)
    rational_pairs: int = 0

    def to_dict(self):
        return {
            "d": self.d,
            "k": self.k,
            "counts": {str(q): c for q, c in sorted(self.counts.items())},
            "rational_pairs": self.rational_pairs,
        }


def pair_spectrum(Y: TorusPointSet) -> PairSpectrum:
    """h_q = number of ordered pairs (i, j) whose difference has exact
    torsion order q in T^d; requires an exact-rational point set.

    The diagonal pairs (order 1) are not stored in counts but are included
    in rational_pairs, which equals k^2 for exact sets.
    """
    if Y.kind != EXACT:
        raise NotExact("pair spectrum needs exact rational coordinates")
    k = len(Y)
    spec = PairSpectrum(d=Y.dim, k=k, rational_pairs=k * k)
    counts = spec.counts
    form = Y.integer_form()
    # x/a - y/b = (x b - y a) / (a b), whose order is a b over the gcd of
    # a b and the numerators; (i, j) and (j, i) share it
    for i, (a, xs) in enumerate(form):
        for b, ys in form[i + 1:]:
            if a == b:
                q = a // math.gcd(a, *map(sub, xs, ys))
            else:
                ab = a * b
                q = ab // math.gcd(ab, *[x * b - y * a for x, y in zip(xs, ys)])
            counts[q] = counts.get(q, 0) + 2
    return spec


def weighted_spectrum_sum(S: PairSpectrum, r: float) -> float:
    """sum over q >= 2 of h_q * q^(-r)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return sum(c * q ** (-r) for q, c in S.counts.items())


def _ball_points(d: int, M: int):
    """Nonzero integer vectors of l-infinity norm <= M."""
    def rec(prefix):
        if len(prefix) == d:
            if any(prefix):
                yield tuple(prefix)
            return
        for x in range(-M, M + 1):
            yield from rec(prefix + [x])

    yield from rec([])


def fourier_statistic(gammas: Sequence[IntMat], Y: TorusPointSet, epsilon: float) -> float:
    """The box-truncated Fourier pair statistic at M = floor(d/epsilon).

    Computed as sum over nonzero |m|_inf <= M of the average over the given
    matrices of |sum_i e(m . gamma x_i)|^2, which is the same triple sum
    over ordered pairs (i, j) and is real by the m <-> -m symmetry.  The
    unspecified dimensional prefactor is deliberately not applied.
    """
    if epsilon <= 0:
        raise BadEpsilon("epsilon must be positive")
    if not gammas:
        raise ValueError("need at least one matrix")
    d = Y.dim
    M = int(d / epsilon)
    N = len(gammas)
    images = []
    for g in gammas:
        if g.rows != d or g.cols != d:
            raise DimensionMismatch("matrix dimension mismatch")
        images.append([tuple(float(v % 1) for v in g.mul_vec(p)) for p in Y.points])
    total = 0.0
    for m in _ball_points(d, M):
        acc = 0.0
        for img in images:
            s = sum(cmath.exp(2j * math.pi * sum(mi * xi for mi, xi in zip(m, p))) for p in img)
            acc += abs(s) ** 2
        total += acc / N
    return total


@dataclass
class WitnessReport:
    Y: TorusPointSet
    band_direction: Tuple[int, ...]
    band_interval: Tuple[Fraction, Fraction]

    def to_dict(self):
        return {
            "points": [[str(x) for x in p] for p in self.Y.points],
            "band_direction": list(self.band_direction),
            "band_interval": [str(self.band_interval[0]), str(self.band_interval[1])],
        }


def _avoided_arc(c: int, size: int) -> Tuple[Fraction, Fraction]:
    """An open arc of the circle avoiding {c/m mod 1 : m <= size} and 0.

    For c = 0 this is the middle third (1/3, 2/3); otherwise the middle
    third of the longest arc complementary to the finite value set.
    """
    if c == 0:
        return (Fraction(1, 3), Fraction(2, 3))
    vals = sorted({Fraction(c, m) % 1 for m in range(1, size + 1)} | {Fraction(0)})
    best = None
    for a, b in zip(vals, vals[1:] + [vals[0] + 1]):
        if best is None or b - a > best[1] - best[0]:
            best = (a, b)
    a, b = best
    gap = b - a
    return ((a + gap / 3) % 1, (a + 2 * gap / 3) % 1)


def non_glasner_witness(A: PolyMat, v, w, size: int) -> WitnessReport:
    """Infinite-family witness for a violating pair (v, w).

    Y is {w/m mod 1 : m = 1..size}; the open band {u : v . u in U} is never
    entered by any A(n)Y since v . A(n) (w/m) = c/m mod 1 stays on the
    avoided value set.
    """
    if not any(v) or not any(w):
        raise ZeroVector("v and w must be nonzero")
    if size < 1:
        raise ValueError("size must be >= 1")
    if check_pair(A, v, w):
        raise NotAViolation("v^t (A(x) - A(0)) w is not identically zero")
    c = int(bilinear_poly(A, v, w).constant_term())
    pts = []
    seen = set()
    for m in range(1, size + 1):
        p = tuple(Fraction(int(x), m) % 1 for x in w)
        if p not in seen:  # w/m values can coincide mod 1 for non-primitive w
            seen.add(p)
            pts.append(p)
    Y = TorusPointSet(A.dim, pts, EXACT)
    return WitnessReport(
        Y=Y, band_direction=tuple(int(x) for x in v), band_interval=_avoided_arc(c, size)
    )
