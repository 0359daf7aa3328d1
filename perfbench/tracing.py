"""Per-layer tracing from outside the program.

Each layer's public functions are replaced, at the module or class
attribute their callers look them up by, with a wrapper that records a
span (name, start, end, parent span, command id) in memory.  `IntPoly.eval_int`
runs once per summand, so it only gets a call counter.  A layer's self time
is its span time minus the time of its child spans.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


def _terms(result, args):
    return {"expsum.terms": result.terms}


def _points(result, args):
    return {"torus.points_transformed": len(args[0])}


# (module or module.Class, attribute, span name, extra counts from the call)
SPANS = (
    ("formats", "load_polymat", "formats.load_polymat", None),
    ("formats", "load_points", "formats.load_points", None),
    ("formats", "load_generators", "formats.load_generators", None),
    ("formats", "save_polymat", "formats.save_polymat", None),
    ("checker", "find_violation", "checker.find_violation", None),
    ("checker", "certify_generic", "checker.certify_generic", None),
    ("checker", "left_kernel_integer", "intmat.left_kernel_integer", None),
    ("checker", "coeff_matrices", "polymat.coeff_matrices", None),
    ("cli", "construct_polynomial", "unipotent.construct_polynomial", None),
    ("unipotent", "certify_irreducible", "unipotent.certify_irreducible", None),
    ("unipotent", "word_product", "unipotent.word_product", None),
    ("unipotent", "substitute", "polymat.substitute", None),
    ("cli", "poly_mat_eval", "polymat.poly_mat_eval", None),
    ("torus", "poly_mat_eval", "polymat.poly_mat_eval", None),
    ("cli", "complete_sum", "expsum.complete_sum", _terms),
    ("expsum", "complete_sum", "expsum.complete_sum", _terms),
    ("torus.TorusPointSet", "transform", "torus.transform", _points),
    ("cli", "eps_dense", "torus.eps_dense", None),
    ("torus", "eps_dense", "torus.eps_dense", None),
    ("cli", "orbit_density_search", "torus.orbit_density_search", None),
    ("cli", "pair_spectrum", "torus.pair_spectrum", None),
)
COUNTERS = (("polymat.IntPoly", "eval_int", "polymat.IntPoly.eval_int.calls"),)

# per-layer metrics: name -> (kind, span or count name)
LAYER_METRICS = {
    "cli.main.busy_s": ("busy", "cli.main"),
    "cli.self_s": ("self", "cli.main"),
    "formats.load_polymat.self_s": ("self", "formats.load_polymat"),
    "formats.load_points.self_s": ("self", "formats.load_points"),
    "checker.find_violation.self_s": ("self", "checker.find_violation"),
    "checker.certify_generic.self_s": ("self", "checker.certify_generic"),
    "checker.w_scanned": ("count", "checker.w_scanned"),
    "intmat.left_kernel_integer.calls": ("calls", "intmat.left_kernel_integer"),
    "intmat.left_kernel_integer.self_s": ("self", "intmat.left_kernel_integer"),
    "unipotent.word_product.self_s": ("self", "unipotent.word_product"),
    "unipotent.certify_irreducible.self_s": ("self", "unipotent.certify_irreducible"),
    "unipotent.construct_polynomial.busy_s": ("busy", "unipotent.construct_polynomial"),
    "polymat.poly_mat_eval.calls": ("calls", "polymat.poly_mat_eval"),
    "polymat.poly_mat_eval.self_s": ("self", "polymat.poly_mat_eval"),
    "polymat.coeff_matrices.self_s": ("self", "polymat.coeff_matrices"),
    "polymat.substitute.self_s": ("self", "polymat.substitute"),
    "polymat.IntPoly.eval_int.calls": ("count", "polymat.IntPoly.eval_int.calls"),
    "expsum.complete_sum.calls": ("calls", "expsum.complete_sum"),
    "expsum.complete_sum.self_s": ("self", "expsum.complete_sum"),
    "expsum.terms": ("count", "expsum.terms"),
    "torus.transform.calls": ("calls", "torus.transform"),
    "torus.transform.self_s": ("self", "torus.transform"),
    "torus.points_transformed": ("count", "torus.points_transformed"),
    "torus.eps_dense.calls": ("calls", "torus.eps_dense"),
    "torus.eps_dense.self_s": ("self", "torus.eps_dense"),
    "torus.eps_dense.calls_per_command": ("per_density", "torus.eps_dense"),
    "torus.orbit_density_search.self_s": ("self", "torus.orbit_density_search"),
    "torus.pair_spectrum.self_s": ("self", "torus.pair_spectrum"),
}


class Tracer:
    """Spans and counts of one run, keyed by command id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.counts = {}  # command id -> {count name: value}
        self._stack = []
        self._cmd = -1
        self._cmd_counts = {}
        self._undo = []

    def begin_command(self, cmd_id):
        self._cmd = cmd_id
        self._cmd_counts = self.counts.setdefault(cmd_id, {})

    def add_count(self, cmd_id, name, value):
        c = self.counts.setdefault(cmd_id, {})
        c[name] = c.get(name, 0) + value

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._cmd]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                counts = self._cmd_counts
                for key, value in extra(result, args).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            counts = self._cmd_counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self, glasner):
        """Patch the program's modules; `glasner` maps short names to modules."""
        for target, attr, name, extra in SPANS:
            obj = _resolve(glasner, target)
            self._patch(obj, attr, self.wrap(name, getattr(obj, attr), extra))
        for target, attr, name in COUNTERS:
            obj = _resolve(glasner, target)
            self._patch(obj, attr, self._counter(name, getattr(obj, attr)))

    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def layer_metrics(self, cmd_ids, density_commands):
        """Per-layer metrics over the given commands."""
        ids = set(cmd_ids)
        child = {}
        for rec in self.spans:
            if rec[4] in ids and rec[3] >= 0:
                child[rec[3]] = child.get(rec[3], 0.0) + rec[2] - rec[1]
        busy, self_t, calls = {}, {}, {}
        for i, (name, start, end, _, cmd) in enumerate(self.spans):
            if cmd not in ids:
                continue
            busy[name] = busy.get(name, 0.0) + end - start
            self_t[name] = self_t.get(name, 0.0) + end - start - child.get(i, 0.0)
            calls[name] = calls.get(name, 0) + 1
        counts = {}
        for cmd in ids:
            for key, value in self.counts.get(cmd, {}).items():
                counts[key] = counts.get(key, 0) + value
        out = {}
        for metric, (kind, name) in LAYER_METRICS.items():
            if kind == "busy":
                out[metric] = busy.get(name, 0.0)
            elif kind == "self":
                out[metric] = self_t.get(name, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(name, 0)
            elif kind == "count":
                out[metric] = counts.get(name, 0)
            else:
                out[metric] = calls.get(name, 0) / density_commands if density_commands else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, cmd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd}) + "\n")


def _resolve(glasner, target):
    module, _, cls = target.partition(".")
    obj = glasner[module]
    return getattr(obj, cls) if cls else obj


def median_metrics(per_round):
    """Median over rounds of each metric."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
