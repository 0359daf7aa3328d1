"""Checks of every `glasner` output against the independent oracle.

`check(cmd, code, stdout, glasner, rank_jobs)` raises oracle.CheckError on
a wrong output and returns the number of w vectors the checker scanned,
which only the outputs reveal.  Rank checks need sympy; they are appended
to `rank_jobs` and run once by `check_ranks` at the end.  `glasner` maps
module names to the imported program modules and is used only to call
`TorusPointSet.transform` on the benchmark's own matrices.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

import oracle as O
from oracle import CheckError, require

SAFE = {"ClearedToHeight", "CertifiedGenericRank"}


def _load_entries(path):
    with open(path) as fh:
        obj = json.load(fh)
    return obj["entries"]


def _scan_index(d, height, w):
    """1-based position of w in the checker's scan order."""
    for i, u in enumerate(O.primitive_vectors(d, height), 1):
        if u == w:
            return i
    raise CheckError(f"witness w={w} is not a primitive vector of height <= {height}")


def _rank_samples(entries, height, seed, count=4):
    rng = random.Random(seed)
    d = len(entries)
    out = []
    while len(out) < count:
        w = tuple(rng.randint(-height, height) for _ in range(d))
        if any(w) and math.gcd(*w) == 1:
            out.append((entries, w))
    return out


def _cleared(v, height, trials, d):
    """Shared checks of a non-violating verdict; returns w scanned."""
    require(v["status"] in SAFE, f"unexpected verdict {v['status']}")
    require(v["witness"] is None, "clearing verdict carries a witness")
    require(v["height"] == height, f"verdict height {v['height']} != requested {height}")
    scanned = _primitive_count(d, height)
    if v["status"] == "CertifiedGenericRank":
        require(v["trials"] == trials, f"verdict trials {v['trials']} != {trials}")
        scanned += trials
    return scanned


@functools.lru_cache(maxsize=None)
def _primitive_count(d, height):
    return O.count_primitive(d, height)


def check_construct(e, code, out, rank_jobs):
    require(code == 0, f"construct exited {code}")
    gens = e["gens"]
    d, m = len(gens[0]), len(gens)
    require(out["N"] == d * m, f"word length {out['N']} != {d * m}")
    entries = _load_entries(e["path"])
    degree = max(len(c) for row in entries for c in row) - 1
    require(out["degree"] == degree, f"reported degree {out['degree']} != file degree {degree}")
    for n in (-1, 1, 2):
        An = O.eval_poly_matrix(entries, n)
        require(An == O.word_value(gens, out["R"], n), f"A({n}) differs from the generator word")
        require(O.det(An) == 1, f"det A({n}) != 1")
    scanned = _cleared(out["verdict"], e["height"], e["trials"], d)
    rank_jobs += _rank_samples(entries, e["height"], e["rank_seed"])
    return scanned


def check_check(e, code, out, rank_jobs):
    require(code == 0, f"check exited {code}")
    scanned = _cleared(out, e["height"], e["trials"], len(e["entries"]))
    rank_jobs += _rank_samples(e["entries"], e["height"], e["rank_seed"])
    return scanned


def check_planted(e, code, out):
    require(code == 3, f"planted check exited {code}, expected 3")
    require(out["status"] == "ViolationFound", f"planted violation missed: {out['status']}")
    v, w = tuple(out["witness"]["v"]), tuple(out["witness"]["w"])
    d, height = e["d"], e["height"]
    require(len(v) == d and len(w) == d and any(v), "malformed witness")
    require(w <= tuple(e["w0"]), f"witness w={w} lies after the planted w={tuple(e['w0'])}")
    require(O.bilinear_cancels(e["entries"], v, w), f"witness v={v}, w={w} does not cancel")
    return _scan_index(d, height, w)


def check_sparse(e, code, out, glasner):
    require(code == 3, f"sparse density exited {code}, expected 3")
    require(out == {"found_n": None}, f"sparse set reported dense: {out}")
    pts = e["points"]
    Y = glasner["torus"].TorusPointSet(len(pts[0]), pts, e["kind"])
    for n in e["samples"]:
        M = O.eval_poly_matrix(e["entries"], n)
        want = O.exact_image(M, [[Fraction(x) for x in p] for p in e["points"]])
        if e["kind"] == "float":
            want = {tuple(float(x) for x in p) for p in want}
        got = set(Y.transform(glasner["intmat"].IntMat(M)).points)
        require(got == want, f"transform at n={n} differs from the exact image")


def check_dense(e, code, out):
    require(code == 0, f"dense density exited {code}")
    require(out.get("found_n") == 1, f"found_n {out.get('found_n')} != 1")
    rep = out["report"]
    eps, mesh = e["epsilon"], e["mesh"]
    require(rep["dense"] is True and rep["inconclusive"] is False, "report not dense")
    require(rep["epsilon"] == eps and math.isclose(rep["grid_mesh"], mesh), "report parameters")
    require(rep["covering_radius_estimate"] <= eps - mesh / 2,
            f"covering radius {rep['covering_radius_estimate']} > eps - mesh/2")
    image = O.exact_image(O.eval_poly_matrix(e["entries"], 1), e["points"])
    radius = O.grid_covering_radius([tuple(float(x) for x in p) for p in image], eps, mesh)
    require(radius <= eps - mesh / 2, f"oracle grid scan finds radius {radius} > eps - mesh/2")


def check_spectrum(e, code, out):
    require(code == 0, f"spectrum exited {code}")
    pts = e["points"]
    k = len(pts)
    want = O.spectrum_counts(pts)
    got = {int(q): c for q, c in out["counts"].items()}
    require(out["k"] == k and out["d"] == len(pts[0]), "spectrum k or d")
    require(out["rational_pairs"] == k * k, "rational_pairs != k^2")
    require(sum(got.values()) == k * (k - 1), "sum of h_q != k(k-1)")
    require(got == want, "h_q differ from the oracle's lcm-of-denominators counts")
    for r in e["r"]:
        ws = sum(c * q ** (-float(r)) for q, c in want.items())
        got_ws = out["weighted_sums"][str(float(r))]
        require(math.isclose(got_ws, ws, rel_tol=1e-12), f"weighted sum at r={r}")


def check_hua(e, code, out):
    require(code == 0, f"hua exited {code}")
    D, delta = e["degree"], e["delta"]
    require(out["degree"] == D and out["delta"] == delta, "hua parameters")
    samples = out["samples"]
    qs = [q for q in e["q"] for _ in range(e["trials"])]
    require([s["q"] for s in samples] == qs, "hua moduli")
    for s in samples:
        require(0 <= s["magnitude"] <= 1 + 1e-12, f"magnitude {s['magnitude']} > 1")
        want = s["q"] ** (1.0 / D - delta) * s["magnitude"]
        require(math.isclose(s["rescaled"], want, rel_tol=1e-12, abs_tol=1e-15),
                "rescaled != q^(1/D - delta) * magnitude")
    require(out["empirical_C"] == max(s["rescaled"] for s in samples),
            "empirical_C is not the largest rescaled value")


def check_coeffs(e, code, out):
    require(code == 0, f"expsum exited {code}")
    q = e["q"]
    want = O.complete_sum(e["coeffs"], q)
    got = complex(*out["value"])
    require(abs(got - want) <= 1e-9, f"sum {got} differs from oracle {want}")
    require(math.isclose(out["magnitude"], abs(got), rel_tol=1e-12, abs_tol=1e-15),
            "magnitude != |value|")
    if e["shape"] == "quadratic":
        require(abs(out["magnitude"] - q ** -0.5) <= 1e-9, "quadratic sum magnitude != q^(-1/2)")
    elif e["shape"] == "linear":
        require(out["magnitude"] <= 1e-9, "coprime linear sum does not vanish")


def check(cmd, code, stdout, glasner, rank_jobs):
    """Check one command's output; returns the w vectors it scanned."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{cmd.kind}: output is not JSON: {exc}") from exc
    kind, e = cmd.kind, cmd.expect
    if kind == "construct":
        return check_construct(e, code, out, rank_jobs)
    if kind == "check":
        return check_check(e, code, out, rank_jobs)
    if kind == "planted":
        return check_planted(e, code, out)
    if kind == "sparse":
        check_sparse(e, code, out, glasner)
    elif kind == "dense":
        check_dense(e, code, out)
    elif kind == "spectrum":
        check_spectrum(e, code, out)
    elif kind == "hua":
        check_hua(e, code, out)
    elif kind == "coeffs":
        check_coeffs(e, code, out)
    else:
        raise ValueError(f"unknown command kind {kind}")
    return 0


def check_ranks(rank_jobs):
    """sympy's rank of each sampled fleeing matrix [B_1 w ... B_D w] is d.

    Columns are added in blocks until the rank reaches d, which bounds the
    sympy work for the degree-728 matrices."""
    if not rank_jobs:
        return
    import sympy

    for entries, w in rank_jobs:
        d = len(entries)
        cols = O.fleeing_columns(entries, w)
        rank, take = 0, d
        while rank < d and take < 2 * len(cols):
            block = cols[:take]
            rank = sympy.Matrix([[c[i] for c in block] for i in range(d)]).rank()
            take *= 2
        require(rank == d, f"sympy rank {rank} < d = {d} at w={w}")
