"""Command-line front end.

Exit codes: 0 success/affirmative, 2 input or configuration error,
3 violation or negative finding, 4 precondition not certified.
JSON goes to stdout, diagnostics to stderr.  Every randomized command
requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import formats
from .checker import VerdictStatus, full_check
from .errors import GlasnerError, NotAViolation, NotCertifiedIrreducible
from .expsum import complete_sum, hua_experiment
# eps_dense and poly_mat_eval are not called in this module; perfbench's
# per-layer tracing wraps them under these names here.
from .polymat import IntPoly, poly_mat_eval  # noqa: F401
from .torus import (  # noqa: F401
    density_search,
    eps_dense,
    non_glasner_witness,
    orbit_density_search,
    pair_spectrum,
    weighted_spectrum_sum,
)
from .unipotent import (
    SL2_PAIR,
    UnipotentSystem,
    adjoint_fixture,
    construct_polynomial,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_NOT_CERTIFIED = 4

# --fixture name -> builder of its generator system
FIXTURES = {
    "sl2-pair": lambda: UnipotentSystem(list(SL2_PAIR)),
    "adjoint-sl2": adjoint_fixture,
}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_vec(text: str):
    return tuple(int(t.strip()) for t in text.split(","))


def cmd_check(args) -> int:
    try:
        A = formats.load_polymat(args.matrix)
    except (OSError, GlasnerError) as exc:
        return _fail(f"cannot load matrix: {exc}")
    verdict = full_check(
        A,
        height=args.height,
        trials=args.trials,
        rng=random.Random(args.seed),
    )
    _emit(verdict.to_dict())
    if verdict.status is VerdictStatus.VIOLATION_FOUND:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        if args.fixture:
            sys_ = FIXTURES[args.fixture]()
        elif args.generators:
            sys_ = UnipotentSystem(formats.load_generators(args.generators))
        else:
            return _fail("either a generators file or --fixture is required")
    except (OSError, GlasnerError) as exc:
        return _fail(f"cannot load generators: {exc}")
    try:
        result = construct_polynomial(
            sys_,
            force=args.force,
            height=args.height,
            trials=args.trials,
            rng=random.Random(args.seed),
        )
    except NotCertifiedIrreducible as exc:
        return _fail(str(exc), EXIT_NOT_CERTIFIED)
    if args.out:
        formats.save_polymat(result.matrix, args.out)
    _emit(
        {
            "N": result.word_length,
            "R": result.plan.base,
            "degree": result.matrix.degree,
            "forced": result.forced,
            "verdict": result.verdict.to_dict(),
            "out": args.out,
        }
    )
    if result.verdict.status is VerdictStatus.VIOLATION_FOUND:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_density(args) -> int:
    try:
        A = formats.load_polymat(args.matrix)
        Y = formats.load_points(args.points)
    except (OSError, GlasnerError) as exc:
        return _fail(f"cannot load inputs: {exc}")
    if Y.dim != A.dim:
        return _fail(f"dimension mismatch: matrix {A.dim}, points {Y.dim}")
    try:
        hit = density_search(
            A, Y, args.epsilon, args.n_min, args.n_max, mesh=args.mesh
        )
    except GlasnerError as exc:
        return _fail(str(exc))
    if hit is None:
        _emit({"found_n": None})
        return EXIT_NEGATIVE
    n, report = hit
    _emit({"found_n": n, "report": report.to_dict()})
    return EXIT_OK


def _scaling_predicate(A, eps, k, samples, seed, n_min, n_max):
    from .torus import TorusPointSet

    for s in range(samples):
        rng = random.Random(seed * 1000003 + s)
        Y = TorusPointSet.random_floats(k, A.dim, rng)
        if orbit_density_search(A, Y, eps, n_min, n_max) is None:
            return False
    return True


def cmd_scaling(args) -> int:
    try:
        A = formats.load_polymat(args.matrix)
    except (OSError, GlasnerError) as exc:
        return _fail(f"cannot load matrix: {exc}")
    verdict = full_check(A, rng=random.Random(args.seed))
    if verdict.status is VerdictStatus.VIOLATION_FOUND:
        return _fail("matrix fails the condition check; scaling study undefined")
    table = []
    for eps in sorted(args.epsilon, reverse=True):
        # point sets are drawn as prefixes of one seeded stream, so success
        # is monotone in k and binary search is valid
        lo, hi = 0, 1
        while hi <= args.k_max and not _scaling_predicate(
            A, eps, hi, args.samples, args.seed, args.n_min, args.n_max
        ):
            lo = hi
            hi *= 2
        if hi > args.k_max:
            table.append({"epsilon": eps, "k_min": None})
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _scaling_predicate(
                A, eps, mid, args.samples, args.seed, args.n_min, args.n_max
            ):
                hi = mid
            else:
                lo = mid
        table.append({"epsilon": eps, "k_min": hi})
    _emit({"samples": args.samples, "seed": args.seed, "table": table})
    return EXIT_OK


def cmd_expsum(args) -> int:
    if args.hua:
        if args.seed is None:
            return _fail("--seed is required for the randomized experiment")
        q_list = args.q if args.q else None
        if q_list is None:
            return _fail("provide at least one --q modulus")
        try:
            report = hua_experiment(
                args.degree, args.delta, q_list, args.trials_per_q, args.seed
            )
        except GlasnerError as exc:
            return _fail(str(exc))
        _emit(report.to_dict())
        return EXIT_OK
    if not args.coeffs or not args.q:
        return _fail("complete sum needs --coeffs and a single --q")
    if len(args.q) > 1:
        return _fail(f"complete sum takes a single --q, got {len(args.q)}; "
                     "repeat --q only with --hua")
    f = IntPoly(_parse_vec(args.coeffs))
    res = complete_sum(f, args.q[0])
    _emit(
        {
            "value": [res.value.real, res.value.imag],
            "magnitude": res.magnitude,
            "terms": res.terms,
        }
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    try:
        Y = formats.load_points(args.points)
        spec = pair_spectrum(Y)
    except (OSError, GlasnerError) as exc:
        return _fail(str(exc))
    out = spec.to_dict()
    out["weighted_sums"] = {
        str(r): weighted_spectrum_sum(spec, r) for r in args.r
    }
    _emit(out)
    return EXIT_OK


def cmd_witness(args) -> int:
    try:
        A = formats.load_polymat(args.matrix)
    except (OSError, GlasnerError) as exc:
        return _fail(f"cannot load matrix: {exc}")
    try:
        report = non_glasner_witness(
            A, _parse_vec(args.v), _parse_vec(args.w), args.size
        )
    except NotAViolation as exc:
        return _fail(str(exc), EXIT_NEGATIVE)
    except GlasnerError as exc:
        return _fail(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(formats.dump_points(report.Y))
    _emit(report.to_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="glasner",
        description="Exact toolkit for the hyperplane-fleeing condition and "
        "torus density experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide/certify the condition for a matrix file")
    c.add_argument("matrix")
    c.add_argument("--height", type=int, default=5)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("construct", help="build A(x) from unipotent generators")
    c.add_argument("generators", nargs="?")
    c.add_argument("--fixture", choices=sorted(FIXTURES))
    c.add_argument("--force", action="store_true")
    c.add_argument("--out")
    c.add_argument("--height", type=int, default=5)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("density", help="search n with A(n)Y epsilon-dense")
    c.add_argument("matrix")
    c.add_argument("points")
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--mesh", type=float, default=None)
    c.add_argument("--n-min", type=int, default=1)
    c.add_argument("--n-max", type=int, default=10**4)
    c.set_defaults(func=cmd_density)

    c = sub.add_parser("scaling", help="least point count achieving density, per epsilon")
    c.add_argument("matrix")
    c.add_argument("--epsilon", type=float, action="append", required=True)
    c.add_argument("--samples", type=int, default=3)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--n-min", type=int, default=1)
    c.add_argument("--n-max", type=int, default=2000)
    c.add_argument("--k-max", type=int, default=4096)
    c.set_defaults(func=cmd_scaling)

    c = sub.add_parser("expsum", help="complete rational sums / bound experiment")
    c.add_argument("--coeffs", help="ascending integer coefficients, comma-separated")
    c.add_argument("--q", type=int, action="append", help="modulus (repeatable)")
    c.add_argument("--hua", action="store_true", help="run the rescaled-maxima experiment")
    c.add_argument("--degree", type=int, default=2)
    c.add_argument("--delta", type=float, default=0.1)
    c.add_argument("--trials-per-q", type=int, default=5)
    c.add_argument("--seed", type=int)
    c.set_defaults(func=cmd_expsum)

    c = sub.add_parser("spectrum", help="torsion pair spectrum of an exact point set")
    c.add_argument("points")
    c.add_argument("--r", type=float, action="append", default=[])
    c.set_defaults(func=cmd_spectrum)

    c = sub.add_parser("witness", help="infinite-family witness from a violating pair")
    c.add_argument("matrix")
    c.add_argument("--v", required=True)
    c.add_argument("--w", required=True)
    c.add_argument("--size", type=int, default=10)
    c.add_argument("--out")
    c.set_defaults(func=cmd_witness)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first `main` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GlasnerError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
