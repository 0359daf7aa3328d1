"""The four workloads: per-round command lists and the inputs they read.

A round is one list of `glasner` commands.  Round r of a run draws its
inputs from Random("<workload>:<seed>:<r>") and from per-run permutations,
so the same seed always gives the same inputs and no input repeats within a
run.  Every command carries what its check needs (see checks.py).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as O


@dataclass
class Command:
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_matrix(path, entries):
    return _write(path, json.dumps({"d": len(entries), "entries": entries}) + "\n")


def _points_text(points):
    lines = []
    for p in points:
        if isinstance(p[0], Fraction):
            lines.append(",".join(f"{x.numerator}/{x.denominator}" for x in p))
        else:
            lines.append(",".join(repr(x) for x in p))
    return "\n".join(lines) + "\n"


def _round_rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def _permutation(tag, seed, values):
    values = list(values)
    random.Random(f"{tag}:{seed}").shuffle(values)
    return values


def _distinct(pool, r, count):
    """The count values of round r from a per-run permutation of pool.

    A round past the end of the pool would repeat values, so it is an
    error; each workload's max_rounds keeps a run short of it."""
    if (r + 1) * count > len(pool):
        raise ValueError(f"round {r} would reuse values of a pool of {len(pool)}")
    return pool[r * count:(r + 1) * count]


# ------------------------------------------------------------------ certify

LEVELS = range(2, 2002)  # levels of the SL2 pairs, drawn without repetition

# checker heights: the construct's own check, then two heights on its output
CONSTRUCT_HEIGHT = 6
CHECK_HEIGHTS = (8, 10)
TRIALS = 100
# planted violations: (d, height, first coordinate of the planted w)
PLANTED = ((3, 10, 9), (4, 4, 3))


def _planted_matrix(rng, d, height, lead):
    """A degree-d matrix with v0^t (A(x) - A(0)) w0 = 0 for a planted pair.

    w0 = (lead, s, 0.., 1) sits in the last two lexicographic blocks of the
    height-`height` scan; v0 = (1, random...).  Each B_k is random and then
    corrected in entry (0, d-1), which changes v0^t B_k w0 by the correction
    times v0[0] * w0[d-1] = 1.
    """
    w0 = [lead, rng.randint(-1, 1)] + [rng.randint(-2, 2) for _ in range(d - 3)] + [1]
    v0 = [1] + [rng.randint(-3, 3) for _ in range(d - 1)]
    coeffs = [[[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]]
    for _ in range(d):
        B = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        B[0][d - 1] -= sum(vi * x for vi, x in zip(v0, O.mat_vec(B, w0)))
        coeffs.append(B)
    entries = [[[coeffs[k][i][j] for k in range(d + 1)] for j in range(d)] for i in range(d)]
    return entries, tuple(w0)


def certify_round(seed, r, tmp):
    rng = _round_rng("certify", seed, r)
    levels = _distinct(_permutation("certify-levels", seed, LEVELS), r, 4)
    cmds = []
    for i, level in enumerate(levels[:2]):
        gens = [O.adjoint(g) for g in O.sl2_pair(level)]
        gpath = _write(os.path.join(tmp, f"gens{i}.json"), json.dumps(gens) + "\n")
        apath = os.path.join(tmp, f"A{i}.json")
        cmds.append(Command(
            ["construct", gpath, "--height", str(CONSTRUCT_HEIGHT), "--trials", str(TRIALS),
             "--seed", str(rng.randrange(10**9)), "--out", apath],
            "construct",
            {"gens": gens, "height": CONSTRUCT_HEIGHT, "trials": TRIALS, "path": apath,
             "rank_seed": rng.randrange(10**9)},
        ))
    # the checked matrices are built by the oracle from other levels, so
    # that no command reads a matrix another command has already seen
    for height, level in zip(CHECK_HEIGHTS, levels[2:]):
        entries = _construct_matrix("adjoint", level)
        apath = _write_matrix(os.path.join(tmp, f"check{height}.json"), entries)
        cmds.append(Command(
            ["check", apath, "--height", str(height), "--trials", str(TRIALS),
             "--seed", str(rng.randrange(10**9))],
            "check",
            {"entries": entries, "height": height, "trials": TRIALS,
             "rank_seed": rng.randrange(10**9)},
        ))
    for d, height, lead in PLANTED:
        entries, w0 = _planted_matrix(rng, d, height, lead)
        ppath = _write_matrix(os.path.join(tmp, f"planted{d}.json"), entries)
        cmds.append(Command(
            ["check", ppath, "--height", str(height), "--trials", str(TRIALS),
             "--seed", str(rng.randrange(10**9))],
            "planted",
            {"entries": entries, "d": d, "height": height, "w0": w0},
        ))
    return cmds


# -------------------------------------------------------------------- orbit

# (matrix, kind, k, epsilon, n_max); every set has k * (2 eps)^d < 1
ORBIT = (
    ("sl2", "float", 60, 0.03, 150),
    ("sl2", "exact", 60, 0.03, 80),
    ("adjoint", "float", 40, 0.1, 20),
    ("adjoint", "exact", 40, 0.1, 20),
)
EXACT_DEN = 10**6


def _random_points(rng, k, d, kind):
    pts = set()
    while len(pts) < k:
        if kind == "float":
            pts.add(tuple(rng.random() for _ in range(d)))
        else:
            pts.add(tuple(Fraction(rng.randrange(EXACT_DEN), EXACT_DEN) for _ in range(d)))
    return sorted(pts)


def _construct_matrix(name, level):
    gens = O.sl2_pair(level)
    if name == "adjoint":
        gens = [O.adjoint(g) for g in gens]
    entries, _ = O.cyclic_word_matrix(gens)
    return entries


def orbit_round(seed, r, tmp):
    rng = _round_rng("orbit", seed, r)
    levels = _distinct(_permutation("orbit-levels", seed, LEVELS), r, 2)
    mats = {}
    for name, level in zip(("sl2", "adjoint"), levels):
        entries = _construct_matrix(name, level)
        mats[name] = (entries, _write_matrix(os.path.join(tmp, f"{name}.json"), entries))
    cmds = []
    for i, (name, kind, k, eps, n_max) in enumerate(ORBIT):
        entries, mpath = mats[name]
        d = len(entries)
        if k * (2 * eps) ** d >= 1:
            raise ValueError(f"orbit set {i} is not sparse")
        pts = _random_points(rng, k, d, kind)
        ppath = _write(os.path.join(tmp, f"orbit{i}.txt"), _points_text(pts))
        cmds.append(Command(
            ["density", mpath, ppath, "--epsilon", str(eps), "--n-max", str(n_max)],
            "sparse",
            {"entries": entries, "points": pts, "kind": kind, "epsilon": eps,
             "samples": sorted(rng.sample(range(1, n_max + 1), 3))},
        ))
    return cmds


# -------------------------------------------------------------------- cover

# (matrix, lattice side s, extra random points, epsilon); the default mesh
# is epsilon / 4 and 1/(2s) + JITTER < epsilon - mesh/2 leaves a margin
COVER = (
    ("sl2", 7, 31, 0.1),
    ("adjoint", 3, 13, 0.3),
)
COVER_DEN = 10**4
SPECTRUM = (200, 170)  # point counts of the d=2 and d=3 spectrum sets
SPECTRUM_R = ("0.5", "2.0")


def _jittered_lattice(rng, d, s, extra, eps):
    mesh = eps / 4
    jitter = (eps - mesh / 2 - 1 / (2 * s)) / 2
    if jitter <= 0:
        raise ValueError("lattice too coarse for epsilon")
    J = int(jitter * COVER_DEN)
    pts = set()
    for idx in itertools.product(range(s), repeat=d):
        centre = [Fraction(2 * i + 1, 2 * s) for i in idx]
        pts.add(tuple((c + Fraction(rng.randint(-J, J), COVER_DEN)) % 1 for c in centre))
    while len(pts) < s ** d + extra:
        pts.add(tuple(Fraction(rng.randrange(COVER_DEN), COVER_DEN) for _ in range(d)))
    return sorted(pts)


def _torsion_points(rng, k, d):
    pts = set()
    while len(pts) < k:
        pts.add(tuple(Fraction(rng.randrange(q), q) for q in
                      (rng.randint(2, 60) for _ in range(d))))
    return sorted(pts)


def cover_round(seed, r, tmp):
    rng = _round_rng("cover", seed, r)
    levels = _distinct(_permutation("cover-levels", seed, LEVELS), r, 2)
    cmds = []
    for i, ((name, s, extra, eps), level) in enumerate(zip(COVER, levels)):
        entries = _construct_matrix(name, level)
        mpath = _write_matrix(os.path.join(tmp, f"cover{i}.json"), entries)
        d = len(entries)
        target = _jittered_lattice(rng, d, s, extra, eps)
        inv = O.inverse_integer(O.eval_poly_matrix(entries, 1))
        pts = sorted(O.exact_image(inv, target))
        ppath = _write(os.path.join(tmp, f"cover{i}.txt"), _points_text(pts))
        cmds.append(Command(
            ["density", mpath, ppath, "--epsilon", str(eps), "--n-max", "50"],
            "dense",
            {"entries": entries, "points": pts, "epsilon": eps, "mesh": eps / 4},
        ))
    for i, k in enumerate(SPECTRUM):
        d = 2 + i
        pts = _torsion_points(rng, k, d)
        ppath = _write(os.path.join(tmp, f"spectrum{i}.txt"), _points_text(pts))
        argv = ["spectrum", ppath]
        for rr in SPECTRUM_R:
            argv += ["--r", rr]
        cmds.append(Command(argv, "spectrum", {"points": pts, "r": SPECTRUM_R}))
    return cmds


# ---------------------------------------------------------------------- hua

HUA_TOTAL = 56000  # sum of the moduli of one --hua command
HUA_DELTA = {2: "0.1", 3: "0.05"}
HUA_CLASSES = 100  # the composites of a run differ mod 2 * HUA_CLASSES
CUBIC_Q = [8 * m for m in range(251, 500, 2)]  # 2^3 m, m odd, below every composite


def _is_prime(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


PRIMES = [p for p in range(10000, 12000) if _is_prime(p)]
PRIME_POWERS = sorted(
    p ** e for p in range(2, 224) if _is_prime(p)
    for e in range(2, 17) if 5000 <= p ** e <= 4 * 10**4
)
# odd moduli of the quadratic and linear sums, above PRIMES
COEFFS_Q = [q for q in range(12001, 12600, 2) if q not in PRIME_POWERS]


def _composite(target, j):
    """The least c >= target with c = 2j (mod 2 HUA_CLASSES) that is not a
    power of two: c is even with an odd prime factor, so it splits into two
    coprime parts, and distinct j < HUA_CLASSES give distinct c."""
    step = 2 * HUA_CLASSES
    c = target + (2 * j - target) % step
    while c & (c - 1) == 0:
        c += step
    return c


def hua_round(seed, r, tmp):
    """Two --hua commands (degrees 2 and 3) over three moduli summing to
    HUA_TOTAL and three single sums.

    Each round takes one prime power, given to the degree-2 command on even
    rounds and to the degree-3 command on odd rounds; the other command gets
    a second prime.  The third modulus of each is an even composite.  The
    single sums are a quadratic with gcd(a, q) = 1 and a coprime linear sum
    at odd q, and a cubic at q = 8m with m odd.  Moduli never repeat within
    a run: the primes and prime powers come from per-run permutations, the
    composites differ mod 2 HUA_CLASSES, and the pools do not overlap (the
    composites are even and at least HUA_TOTAL - 12000 - 40000, above
    CUBIC_Q; COEFFS_Q lies above PRIMES and holds no prime power)."""
    rng = _round_rng("hua", seed, r)
    primes = _distinct(_permutation("hua-primes", seed, PRIMES), r, 3)
    (power,) = _distinct(_permutation("hua-powers", seed, PRIME_POWERS), r, 1)
    power_degree = 2 + r % 2
    cmds = []
    for i, D in enumerate((2, 3)):
        qs = [primes[i], power if D == power_degree else primes[2]]
        qs.append(_composite(HUA_TOTAL - sum(qs), 2 * r + i))
        argv = ["expsum", "--hua", "--degree", str(D), "--delta", HUA_DELTA[D],
                "--trials-per-q", "1", "--seed", str(rng.randrange(10**9))]
        for q in qs:
            argv += ["--q", str(q)]
        cmds.append(Command(argv, "hua", {"degree": D, "delta": float(HUA_DELTA[D]),
                                          "q": qs, "trials": 1}))
    odd = _distinct(_permutation("hua-coeffs", seed, COEFFS_Q), r, 2)
    (even,) = _distinct(_permutation("hua-cubic", seed, CUBIC_Q), r, 1)
    for shape, q in zip(("quadratic", "linear", "cubic"), odd + [even]):
        deg = {"quadratic": 2, "linear": 1, "cubic": 3}[shape]
        while True:
            coeffs = [rng.randrange(-q, q) for _ in range(deg + 1)]
            if math.gcd(coeffs[-1], q) == 1:
                break
        cmds.append(Command(
            ["expsum", "--coeffs=" + ",".join(map(str, coeffs)), "--q", str(q)],
            "coeffs",
            {"coeffs": coeffs, "q": q, "shape": shape},
        ))
    return cmds


# workload -> (round maker, most rounds before an input would repeat)
WORKLOADS = {
    "certify": (certify_round, len(LEVELS) // 4),
    "orbit": (orbit_round, len(LEVELS) // 2),
    "cover": (cover_round, len(LEVELS) // 2),
    "hua": (hua_round, min(len(PRIME_POWERS), len(PRIMES) // 3, HUA_CLASSES // 2,
                           len(COEFFS_Q) // 2, len(CUBIC_Q))),
}
