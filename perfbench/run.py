"""Benchmark of the `glasner` command line, run in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload's command list through
`glasnerlab.cli.main([...])` until --seconds of command time have passed,
or until the workload's inputs would repeat, checks every output against
perfbench/oracle.py, and prints one JSON object as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 1 if a command failed or an output was wrong.  End-to-end
times are in reference seconds (see speed.py); per-layer times are raw.
The package is imported from src/ of the checkout this file sits in;
without it the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from oracle import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MODULES = ("cli", "formats", "checker", "intmat", "polymat", "unipotent", "expsum", "torus")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "call_p50_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def import_glasner():
    """Import the package from src/ afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "glasnerlab" or m.startswith("glasnerlab.")]:
        del sys.modules[name]
    importlib.import_module("glasnerlab")
    mods = {m: importlib.import_module(f"glasnerlab.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"glasnerlab imported from {origin}, not from {SRC}")
    return mods


def run_round(glasner, cmds, first_id, tracer, out_dir):
    """Run one command list; returns one record per command.

    Each command is timed between two passes of the speed reference loop,
    and its wall and CPU times are scaled to reference seconds.  Outputs go
    to files in out_dir, so that memory does not grow with the rounds."""
    main = glasner["cli"].main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    records = []
    sink = io.StringIO()
    before = speed.reference_loop()
    for i, cmd in enumerate(cmds):
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_command(first_id + i)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                code = main(cmd.argv)
            error = None
        except Exception as exc:  # a crash counts as a failed command
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = speed.reference_loop()
        f = speed.scale(before, after)
        stdout = os.path.join(out_dir, f"stdout{i}.json")
        with open(stdout, "w") as fh:
            fh.write(buf.getvalue())
        records.append({"seconds": wall * f, "cpu": cpu * f, "raw_seconds": wall,
                        "raw_cpu": cpu, "code": code, "stdout": stdout, "error": error})
        before = after
    return records


def set_up(seed, make_round, tmp):
    """Import the package and write one round of inputs, SETUP_REPEATS
    times; returns the last import, the prepared rounds and the times."""
    times, prepared = [], []
    before = speed.reference_loop()
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        glasner = import_glasner()
        prepared.append(prepare_round(seed, make_round, tmp, r))
        elapsed = time.perf_counter() - t0
        after = speed.reference_loop()
        times.append(elapsed * speed.scale(before, after))
        before = after
    return glasner, prepared, times


def round_dir(tmp, r):
    return os.path.join(tmp, f"round{r}")


def prepare_round(seed, make_round, tmp, r):
    """Round r's commands, writing its inputs; calling it again rewrites the
    same files and returns equal commands."""
    d = round_dir(tmp, r)
    os.makedirs(d, exist_ok=True)
    return make_round(seed, r, d)


def check_rounds(rounds, cmds_of, glasner, tracer):
    """Check every output; returns attempted, failed, correct, problems.

    The commands of a round are made again by cmds_of(r), so the timed part
    keeps no inputs alive and peak memory does not grow with the number of
    rounds."""
    attempted = failed = 0
    correct, problems, rank_jobs = True, [], []
    for r, rd in enumerate(rounds):
        rd["w_scanned"] = 0
        for i, (cmd, rec) in enumerate(zip(cmds_of(r), rd["records"])):
            attempted += 1
            if rec["error"] is not None or rec["code"] not in (0, 3):
                failed += 1
                problems.append(f"{cmd.kind} {cmd.argv}: failed ({rec['error'] or rec['code']})")
                continue
            with open(rec["stdout"]) as fh:
                stdout = fh.read()
            try:
                scanned = checks.check(cmd, rec["code"], stdout, glasner, rank_jobs)
            except (CheckError, KeyError, TypeError, ValueError) as exc:
                correct = False
                problems.append(f"{cmd.kind} {cmd.argv}: {type(exc).__name__}: {exc}")
                continue
            rd["w_scanned"] += scanned
            if tracer is not None:
                tracer.add_count(rd["first_id"] + i, "checker.w_scanned", scanned)
    try:
        checks.check_ranks(rank_jobs)
    except CheckError as exc:
        correct = False
        problems.append(f"rank: {exc}")
    return attempted, failed, correct, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "glasnerlab" / "cli.py").is_file():
        print(f"perfbench: no glasnerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    make_round, max_rounds = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as tmp:
        glasner, prepared, setup_times = set_up(args.seed, make_round, tmp)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(glasner)
        rounds, measured, next_id = [], 0.0, 0
        while not rounds or (measured < args.seconds and len(rounds) < max_rounds):
            r = len(rounds)
            if r < len(prepared):
                cmds, prepared[r] = prepared[r], None
            else:
                cmds = prepare_round(args.seed, make_round, tmp, r)
            density = sum(1 for c in cmds if c.argv[0] == "density")
            gc.collect()
            records = run_round(glasner, cmds, next_id, tracer, round_dir(tmp, r))
            del cmds
            rounds.append({"records": records, "first_id": next_id, "density": density,
                           "wall": sum(rec["seconds"] for rec in records),
                           "cpu": sum(rec["cpu"] for rec in records),
                           "raw_wall": sum(rec["raw_seconds"] for rec in records)})
            next_id += len(records)
            measured += rounds[-1]["raw_wall"]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        attempted, failed, correct, problems = check_rounds(
            rounds, lambda r: prepare_round(args.seed, make_round, tmp, r), glasner, tracer)

    call_times = [[rec["seconds"] for rec in rd["records"]] for rd in rounds]
    e2e = {
        "wall_s": statistics.median(rd["wall"] for rd in rounds),
        "cpu_s": statistics.median(rd["cpu"] for rd in rounds),
        # per-round medians first: pooling would put the median on the
        # boundary between two command kinds whenever a round is even
        "call_p50_s": statistics.median(statistics.median(t) for t in call_times),
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setup_times),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "commands_per_round": len(rounds[0]["records"]),
        "setup_times": setup_times, "round_wall": [rd["wall"] for rd in rounds],
        "round_cpu": [rd["cpu"] for rd in rounds], "call_times": call_times,
        "raw_round_wall": [rd["raw_wall"] for rd in rounds],
        "raw_call_times": [[rec["raw_seconds"] for rec in rd["records"]] for rd in rounds],
        "w_scanned": [rd["w_scanned"] for rd in rounds], "problems": problems,
        "end_to_end": e2e,
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0]['records'])} commands, {attempted} attempted, {failed} failed, "
          f"correct={correct}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]}" + (" (traced)" if args.trace else ""))

    if args.trace:
        per_round = []
        for rd in rounds:
            ids = range(rd["first_id"], rd["first_id"] + len(rd["records"]))
            per_round.append(tracer.layer_metrics(ids, rd["density"]))
        layers = tracing.median_metrics(per_round)
        detail["per_layer"] = layers
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name, value in layers.items():
            print(f"{name} {value:.6g} {_layer_unit(name)}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def _layer_unit(name):
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
