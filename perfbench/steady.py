"""Steadiness check and reference figures: one fresh process per run.

    python3 perfbench/steady.py                  # seeds 1..10
    python3 perfbench/steady.py --first-seed 11  # seeds 11..20, a second set

For each workload in BENCHMARK.json it makes RUNS untraced runs, one seed
each, and prints for every end-to-end metric the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and the
share of failed commands.
It then makes one traced run on the first seed and prints the nonzero
per-layer metrics and the tracing overhead: traced wall_s minus the
untraced wall_s of the same seed.  Runs are sequential, so they never share
a core.  The summary goes to .perfbench_out/steady-seed<first seed>.json.
The exit code is 1 if any run failed a command or a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(spec, workload, seed, trace):
    """One benchmark run; returns (elapsed seconds, result object)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    traced_wall = next((float(ln.split()[1]) for ln in lines if ln.startswith("wall_s ")), None)
    result = json.loads(lines[-1])
    result["wall_s_printed"] = traced_wall
    return elapsed, result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            elapsed, result = run_once(spec, w, seed, 0)
            ok = ok and result["correct"] and result["failed"] == 0
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed} run={elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        summary[w] = {"failed_share": sorted(shares), "metrics": {}}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "values": vals}
            print(f"  {w:8s} {name:13s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.4f} bound={bounds[name]}", flush=True)

        elapsed, traced = run_once(spec, w, args.first_seed, 1)
        ok = ok and traced["correct"] and traced["failed"] == 0
        untraced_wall = values["wall_s"][0]
        overhead = traced["wall_s_printed"] - untraced_wall
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        summary[w]["traced"] = {"wall_s": traced["wall_s_printed"], "overhead_s": overhead,
                                "per_layer": layers}
        print(f"  {w:8s} traced wall_s={traced['wall_s_printed']:.4g} untraced={untraced_wall:.4g} "
              f"overhead={overhead:+.4g}s ({overhead / untraced_wall:+.1%})", flush=True)
        for name, value in layers.items():
            if value:
                print(f"    {name} {value:.4g}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-seed{args.first_seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
