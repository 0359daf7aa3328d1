"""Tests of the benchmark's own checks and oracle.

    python3 -m pytest perfbench/test_checks.py -q

Each check must accept a right output and reject a wrong one.
"""

from __future__ import annotations

import cmath
import copy
import json
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle as O  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
from workloads import Command  # noqa: E402


def run_check(kind, expect, code, out, glasner=None, rank_jobs=None):
    return checks.check(Command([], kind, expect), code, json.dumps(out), glasner,
                        [] if rank_jobs is None else rank_jobs)


# ------------------------------------------------------------------ oracle


def test_word_value_matches_symbolic_construction():
    gens = [O.adjoint(g) for g in O.sl2_pair(6)]
    entries, R = O.cyclic_word_matrix(gens)
    assert R == 3 and max(len(e) for row in entries for e in row) == 729
    for n in (-2, -1, 0, 1, 2):
        An = O.eval_poly_matrix(entries, n)
        assert An == O.word_value(gens, R, n)
        assert O.det(An) == 1


def test_complete_sum_matches_direct_sum():
    for coeffs, q in (([3, 5, 7], 91), ([1, 0, 0, 4], 64), ([2, 9], 35)):
        direct = sum(cmath.exp(2j * math.pi * (O.horner(coeffs, n) % q) / q)
                     for n in range(1, q + 1)) / q
        assert abs(O.complete_sum(coeffs, q) - direct) < 1e-12


def test_grid_covering_radius_matches_brute_force():
    import random
    rng = random.Random(4)
    for d, k, eps in ((1, 7, 0.2), (2, 30, 0.15), (3, 40, 0.3)):
        pts = [tuple(rng.random() for _ in range(d)) for _ in range(k)]
        mesh = eps / 4
        g = math.ceil(1 / mesh)
        brute = max(min(max(O.circle(a, b) for a, b in zip([i / g for i in idx], p)) for p in pts)
                    for idx in product(range(g), repeat=d))
        fast = O.grid_covering_radius(pts, eps, mesh)
        assert fast == brute if brute <= eps else fast > eps


def test_spectrum_counts_match_fraction_lcm():
    pts = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(0)), (Fraction(5, 6), Fraction(2, 9))]
    want = {}
    for i, p in enumerate(pts):
        for j, r in enumerate(pts):
            if i != j:
                q = math.lcm(*(((a - b) % 1).denominator for a, b in zip(p, r)))
                want[q] = want.get(q, 0) + 1
    assert O.spectrum_counts(pts) == want


# ------------------------------------------------------------------ certify


def planted_case():
    import random
    entries, w0 = workloads._planted_matrix(random.Random(7), 3, 4, 3)
    return entries, w0


def scan_first_violation(entries, height):
    for w in O.primitive_vectors(len(entries), height):
        for v in product(range(-3, 4), repeat=len(entries)):
            if any(v) and O.bilinear_cancels(entries, v, w):
                return v, w
    return None


def test_planted_accepts_real_witness_and_rejects_a_non_cancelling_one():
    entries, w0 = planted_case()
    expect = {"entries": entries, "d": 3, "height": 4, "w0": w0}
    v, w = scan_first_violation(entries, 4)
    assert w <= w0
    out = {"status": "ViolationFound", "witness": {"v": list(v), "w": list(w)}, "height": 4, "trials": None}
    assert run_check("planted", expect, 3, out) == O.count_primitive(3, 4) - sum(
        1 for u in O.primitive_vectors(3, 4) if u > w)
    bad = copy.deepcopy(out)
    bad["witness"]["v"][0] += 1
    with pytest.raises(CheckError, match="does not cancel"):
        run_check("planted", expect, 3, bad)


def test_planted_rejects_a_missed_violation_and_a_late_witness():
    entries, w0 = planted_case()
    expect = {"entries": entries, "d": 3, "height": 4, "w0": w0}
    with pytest.raises(CheckError, match="missed"):
        run_check("planted", expect, 3, {"status": "ClearedToHeight", "witness": None,
                                          "height": 4, "trials": None})
    late = (4, 4, 1)
    assert late > w0
    out = {"status": "ViolationFound", "witness": {"v": [1, 0, 0], "w": list(late)}}
    with pytest.raises(CheckError, match="after the planted"):
        run_check("planted", expect, 3, out)


def test_construct_check_rejects_a_wrong_matrix_or_verdict(tmp_path):
    gens = [O.adjoint(g) for g in O.sl2_pair(4)]
    entries, R = O.cyclic_word_matrix(gens)
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"d": 3, "entries": entries}))
    expect = {"gens": gens, "height": 2, "trials": 5, "path": str(path), "rank_seed": 1}
    out = {"N": 6, "R": R, "degree": 728, "forced": False, "out": str(path),
           "verdict": {"status": "CertifiedGenericRank", "witness": None, "height": 2, "trials": 5}}
    jobs = []
    assert run_check("construct", expect, 0, out, rank_jobs=jobs) == O.count_primitive(3, 2) + 5
    assert len(jobs) == 4
    wrong = copy.deepcopy(out)
    wrong["verdict"]["height"] = 3
    with pytest.raises(CheckError, match="height"):
        run_check("construct", expect, 0, wrong)
    entries[0][1][5] += 1
    path.write_text(json.dumps({"d": 3, "entries": entries}))
    with pytest.raises(CheckError, match="generator word"):
        run_check("construct", expect, 0, out)


def test_rank_check_rejects_a_rank_deficient_fleeing_matrix():
    pytest.importorskip("sympy")
    entries, w0 = planted_case()
    checks.check_ranks([(entries, (1, 0, 0))])
    with pytest.raises(CheckError, match="rank"):
        checks.check_ranks([(entries, w0)])


# --------------------------------------------------------------- the torus


def glasner_modules():
    pytest.importorskip("glasnerlab")
    from glasnerlab import intmat, torus
    return {"torus": torus, "intmat": intmat}


def sparse_case():
    entries = [[[1, 0, 3], [0, 2]], [[0, 1], [1, 1, 1]]]
    pts = [(Fraction(1, 7), Fraction(2, 5)), (Fraction(3, 11), Fraction(1, 2))]
    return {"entries": entries, "points": pts, "kind": "exact", "epsilon": 0.1, "samples": [1, 2, 5]}


def test_sparse_rejects_a_non_null_found_n():
    glasner = glasner_modules()
    run_check("sparse", sparse_case(), 3, {"found_n": None}, glasner)
    with pytest.raises(CheckError, match="reported dense"):
        run_check("sparse", sparse_case(), 3, {"found_n": 4}, glasner)


def test_sparse_rejects_a_wrong_transform():
    glasner = glasner_modules()
    torus = glasner["torus"]
    orig = torus.TorusPointSet.transform

    def off_by_one(self, M):
        img = orig(self, M)
        return torus.TorusPointSet(img.dim, [(p[0] + Fraction(1, 97),) + p[1:] for p in img.points], img.kind)

    torus.TorusPointSet.transform = off_by_one
    try:
        with pytest.raises(CheckError, match="transform"):
            run_check("sparse", sparse_case(), 3, {"found_n": None}, glasner)
    finally:
        torus.TorusPointSet.transform = orig


def dense_case(points):
    return {"entries": [[[1], [0]], [[0], [1]]], "points": points, "epsilon": 0.2, "mesh": 0.05}


def dense_report(radius):
    return {"found_n": 1, "report": {"epsilon": 0.2, "dense": True, "covering_radius_estimate": radius,
                                     "grid_mesh": 0.05, "certificate": None, "inconclusive": False}}


def test_dense_rejects_a_report_with_an_uncovered_grid_point():
    lattice = [(Fraction(2 * i + 1, 6), Fraction(2 * j + 1, 6)) for i in range(3) for j in range(3)]
    run_check("dense", dense_case(lattice), 0, dense_report(0.17))
    with pytest.raises(CheckError, match="oracle grid scan"):
        run_check("dense", dense_case(lattice[1:]), 0, dense_report(0.17))
    with pytest.raises(CheckError, match="covering radius"):
        run_check("dense", dense_case(lattice), 0, dense_report(0.19))


def test_spectrum_rejects_wrong_counts():
    pts = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(0)), (Fraction(5, 6), Fraction(2, 9))]
    counts = O.spectrum_counts(pts)
    out = {"d": 2, "k": 3, "rational_pairs": 9, "counts": {str(q): c for q, c in counts.items()},
           "weighted_sums": {"2.0": sum(c * q ** -2.0 for q, c in counts.items())}}
    expect = {"points": pts, "r": ("2.0",)}
    run_check("spectrum", expect, 0, out)
    q = next(iter(counts))
    bad = copy.deepcopy(out)
    bad["counts"][str(q)] += 1
    with pytest.raises(CheckError):
        run_check("spectrum", expect, 0, bad)


# ---------------------------------------------------------------------- hua


def test_coeffs_rejects_a_sum_off_by_1e6():
    coeffs, q = [3, 5, 7], 1003
    s = O.complete_sum(coeffs, q)
    out = {"value": [s.real, s.imag], "magnitude": abs(s), "terms": q}
    expect = {"coeffs": coeffs, "q": q, "shape": "quadratic"}
    run_check("coeffs", expect, 0, out)
    bad = dict(out, value=[s.real + 1e-6, s.imag])
    with pytest.raises(CheckError, match="differs from oracle"):
        run_check("coeffs", expect, 0, bad)


def test_coeffs_rejects_a_non_vanishing_linear_sum():
    expect = {"coeffs": [2, 5], "q": 1000, "shape": "linear"}
    s = O.complete_sum([2, 5], 1000)
    assert abs(s) < 1e-12
    run_check("coeffs", expect, 0, {"value": [s.real, s.imag], "magnitude": abs(s), "terms": 1000})
    with pytest.raises(CheckError):
        run_check("coeffs", expect, 0, {"value": [0.01, 0.0], "magnitude": 0.01, "terms": 1000})


def test_coeffs_rejects_a_wrong_cubic_sum_at_an_even_composite():
    coeffs, q = [4, -7, 11, 3], 8 * 105
    s = O.complete_sum(coeffs, q)
    direct = sum(cmath.exp(2j * math.pi * (O.horner(coeffs, n) % q) / q) for n in range(q)) / q
    assert abs(s - direct) < 1e-12
    expect = {"coeffs": coeffs, "q": q, "shape": "cubic"}
    run_check("coeffs", expect, 0, {"value": [s.real, s.imag], "magnitude": abs(s), "terms": q})
    t = O.complete_sum(coeffs, q // 2)  # the same polynomial at the wrong modulus
    with pytest.raises(CheckError, match="differs from oracle"):
        run_check("coeffs", expect, 0, {"value": [t.real, t.imag], "magnitude": abs(t),
                                        "terms": q})


def hua_output(D=2, delta=0.1):
    samples = [{"q": q, "magnitude": m, "rescaled": q ** (1 / D - delta) * m}
               for q, m in ((101, 0.09), (121, 0.1))]
    return {"degree": D, "delta": delta, "samples": samples,
            "empirical_C": max(s["rescaled"] for s in samples)}


def test_hua_rejects_a_wrong_rescaling_or_maximum():
    expect = {"degree": 2, "delta": 0.1, "q": [101, 121], "trials": 1}
    run_check("hua", expect, 0, hua_output())
    bad = hua_output()
    bad["samples"][0]["rescaled"] *= 1 + 1e-9
    with pytest.raises(CheckError, match="rescaled"):
        run_check("hua", expect, 0, bad)
    bad = hua_output()
    bad["empirical_C"] = bad["samples"][0]["rescaled"]
    with pytest.raises(CheckError, match="empirical_C"):
        run_check("hua", expect, 0, bad)
    bad = hua_output()
    bad["samples"][1]["magnitude"] = 1.5
    with pytest.raises(CheckError, match="> 1"):
        run_check("hua", expect, 0, bad)


# --------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_round_after_max_rounds_is_refused(name, tmp_path):
    make_round, max_rounds = workloads.WORKLOADS[name]
    assert make_round(5, max_rounds - 1, str(tmp_path))
    with pytest.raises(ValueError, match="reuse"):
        make_round(5, max_rounds, str(tmp_path))


def test_hua_moduli_never_repeat_within_a_run(tmp_path):
    make_round, max_rounds = workloads.WORKLOADS["hua"]
    moduli = []
    for r in range(max_rounds):
        for cmd in make_round(5, r, str(tmp_path)):
            qs = [int(cmd.argv[i + 1]) for i, a in enumerate(cmd.argv) if a == "--q"]
            moduli += qs
            if cmd.kind == "hua":
                assert 0 <= sum(qs) - workloads.HUA_TOTAL < 2 * workloads.HUA_CLASSES
    assert len(moduli) == len(set(moduli)) == 9 * max_rounds


# ------------------------------------------------------------------ tracing


def test_tracer_self_time_subtracts_child_spans():
    import time

    import tracing

    t = tracing.Tracer()
    child = t.wrap("torus.eps_dense", lambda: time.sleep(0.02))

    def parent():
        child()
        time.sleep(0.01)

    t.begin_command(0)
    t.wrap("cli.main", parent)()
    m = t.layer_metrics([0], density_commands=1)
    assert m["torus.eps_dense.calls"] == 1 and m["torus.eps_dense.calls_per_command"] == 1
    assert abs(m["cli.main.busy_s"] - m["cli.self_s"] - m["torus.eps_dense.self_s"]) < 1e-9
    assert m["cli.self_s"] >= 0.009 and m["torus.eps_dense.self_s"] >= 0.019


def test_tracer_install_wraps_every_name_and_uninstall_restores_it():
    import importlib

    import tracing

    pytest.importorskip("glasnerlab")
    glasner = {m: importlib.import_module(f"glasnerlab.{m}") for m in
               ("cli", "formats", "checker", "unipotent", "expsum", "torus", "polymat")}
    before = {(target, attr): tracing._resolve(glasner, target).__dict__[attr]
              for target, attr, *_ in tracing.SPANS + tracing.COUNTERS}
    t = tracing.Tracer()
    t.install(glasner)
    try:
        for (target, attr), orig in before.items():
            assert tracing._resolve(glasner, target).__dict__[attr] is not orig
    finally:
        t.uninstall()
    for (target, attr), orig in before.items():
        assert tracing._resolve(glasner, target).__dict__[attr] is orig
