"""Command line interface.

Subcommands
-----------
validate   check a measure JSON file against the format and invariants
check      run the independence report for a bipartition
graph      dependence graph and finest independent partition of a measure
simulate   draw max-stable or conditional samples to CSV (+ sidecar)
estimate   chi matrix / graph recovery, or the block factorization test
crosscheck random-measure agreement battery for all five criteria

Coordinates are 1-based on this surface and converted once at the
boundary.  Exit codes: 0 success (and "independent" for check), 1 I/O or
validation failure, 2 bad flags, 3 dependent verdict, 4 internal
disagreement between criteria.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .estimate import chi_empirical, factorization_test
from .graphs import build_graph, empirical_graph, to_dot
from .independence import agreement_battery, full_report
from .measure import (
    InvalidMeasureError,
    MeasureFormatError,
    load_measure,
    measure_from_dict,
    validate_measure,
)
from .partition import Bipartition
from .simulate import load_batch, sample_conditional, sample_max_stable, save_batch

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_DEPENDENT = 3
EXIT_DISAGREE = 4


def _emit(payload: dict) -> None:
    print(json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False))


def _strict(value):
    # strict JSON has no Infinity or NaN: a non-finite number (an overflowed
    # witness residual) is written as the string "inf", "-inf" or "nan"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _coords(text: str) -> frozenset[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated coordinate list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty coordinate list")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("coordinates are 1-based")
    return frozenset(v - 1 for v in values)


def _disjoint_blocks(a: frozenset[int], c: frozenset[int]) -> bool:
    overlap = sorted(a & c)
    if overlap:
        # report in the numbering the user typed
        print(f"error: --A and --C share coordinates {[i + 1 for i in overlap]}",
              file=sys.stderr)
    return not overlap


def _bipartition(a: frozenset[int], c: frozenset[int], d: int, source: str) -> Bipartition:
    # coverage errors in the numbering the user typed
    found = {"missing": set(range(d)) - a - c, "out of range": {i for i in a | c if i >= d}}
    if any(found.values()):
        raise ValueError(f"--A/--C must cover 1..{d} of the {source}: " + ", ".join(
            f"{label} {sorted(i + 1 for i in coords)}" for label, coords in found.items() if coords))
    return Bipartition(a, c)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


# ---- handlers --------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        with open(args.measure, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        measure = measure_from_dict(data)
    except (OSError, json.JSONDecodeError, MeasureFormatError) as exc:
        _emit({"valid": False, "error": str(exc), "violations": []})
        return EXIT_INPUT
    violations = validate_measure(measure)
    _emit({
        "valid": not violations,
        "violations": [
            {k: v for k, v in
             {"code": w.code, "atom": w.atom,
              "coordinate": None if w.coordinate is None else w.coordinate + 1,
              "detail": w.detail or None}.items() if v is not None}
            for w in violations
        ],
    })
    return EXIT_OK if not violations else EXIT_INPUT


def cmd_check(args) -> int:
    measure = load_measure(args.measure)
    if not _disjoint_blocks(args.A, args.C):
        return EXIT_USAGE
    report = full_report(measure, _bipartition(args.A, args.C, measure.d, "measure"))
    _emit(report.to_dict())
    if not report.agree:
        return EXIT_DISAGREE
    return EXIT_OK if report.independent else EXIT_DEPENDENT


def cmd_graph(args) -> int:
    measure = load_measure(args.measure)
    graph = build_graph(measure)
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    _emit(graph.to_dict())
    return EXIT_OK


def cmd_simulate(args) -> int:
    measure = load_measure(args.measure)
    if args.conditional is not None:
        k = args.conditional - 1
        if not 0 <= k < measure.d:
            raise ValueError(f"--conditional {args.conditional} out of range for d={measure.d}")
        batch = sample_conditional(measure, k, args.n, args.seed)
    else:
        batch = sample_max_stable(measure, args.n, args.seed)
    save_batch(batch, args.out)
    _emit({"out": args.out, **batch.metadata()})
    return EXIT_OK


def cmd_estimate(args) -> int:
    batch = load_batch(getattr(args, "in"))
    if batch.kind == "conditional":
        if args.A is None or args.C is None:
            print("error: conditional batches need --A and --C for the factorization test",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.seed is None:
            print("error: the permutation test needs --seed", file=sys.stderr)
            return EXIT_USAGE
        if not _disjoint_blocks(args.A, args.C):
            return EXIT_USAGE
        part = _bipartition(args.A, args.C, batch.d, "batch")
        result = factorization_test(batch, part, n_perm=args.n_perm,
                                    alpha=args.alpha, seed=args.seed)
        _emit({
            "kind": "factorization_test",
            "k": batch.k + 1 if batch.k is not None else None,
            "reject": result.reject,
            "p_value": result.p_value,
            "statistic": result.statistic,
            "degenerate": result.degenerate,
            "n_perm": result.n_perm,
            "alpha": result.alpha,
        })
        return EXIT_OK

    if args.A is not None or args.C is not None or args.seed is not None:
        print(f"error: --A/--C/--seed run the factorization test, which needs "
              f"conditional samples (this batch is {batch.kind})", file=sys.stderr)
        return EXIT_USAGE
    chi = chi_empirical(batch, q=args.q)
    payload = {"kind": "chi_matrix", **chi.to_dict()}
    if args.graph:
        payload["graph"] = {"threshold": args.threshold,
                            **empirical_graph(chi, args.threshold).to_dict()}
    if args.csv is not None:
        chi.to_csv(args.csv)
        payload["csv"] = args.csv
    _emit(payload)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    result = agreement_battery(d=args.d, n_atoms=args.atoms, trials=args.trials,
                               seed=args.seed)
    _emit(result.to_dict())
    return EXIT_OK if result.ok else EXIT_DISAGREE


# ---- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetail",
        description="atomic exponent measures: independence checks, conditional laws, simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a measure JSON file")
    p.add_argument("measure", help="path to measure JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="independence report for a bipartition")
    p.add_argument("measure", help="path to measure JSON")
    p.add_argument("--A", type=_coords, required=True, metavar="I,J,...",
                   help="first block, 1-based coordinates")
    p.add_argument("--C", type=_coords, required=True, metavar="I,J,...",
                   help="second block, 1-based coordinates")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("graph", help="dependence graph and finest partition")
    p.add_argument("measure", help="path to measure JSON")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", help="draw samples to CSV (+ metadata sidecar)")
    p.add_argument("measure", help="path to measure JSON")
    p.add_argument("--n", type=_positive_int, required=True, help="number of samples")
    p.add_argument("--seed", type=_nonnegative_int, required=True,
                   help="seed; all randomness derives from it")
    p.add_argument("--conditional", type=_positive_int, metavar="K",
                   help="sample the conditional law at coordinate K (1-based) "
                        "instead of the max-stable law")
    p.add_argument("--out", required=True, metavar="PATH", help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="chi matrix or factorization test from samples")
    p.add_argument("--in", required=True, metavar="PATH", help="CSV written by simulate")
    p.add_argument("--q", type=float, default=0.95, help="exceedance level (default 0.95)")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="edge threshold for --graph (default 0.1)")
    p.add_argument("--graph", action="store_true",
                   help="also derive the dependence graph from the chi matrix")
    p.add_argument("--csv", metavar="PATH", help="write the chi matrix as CSV")
    p.add_argument("--A", type=_coords, metavar="I,J,...",
                   help="first block for the factorization test (conditional batches)")
    p.add_argument("--C", type=_coords, metavar="I,J,...",
                   help="second block for the factorization test")
    p.add_argument("--n-perm", type=_positive_int, default=499,
                   help="permutations for the factorization test (default 499)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="test level (default 0.05)")
    p.add_argument("--seed", type=_nonnegative_int,
                   help="seed for the permutation stream (required for the test)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("crosscheck", help="random-measure agreement battery")
    p.add_argument("--d", type=_positive_int, required=True, help="dimension")
    p.add_argument("--atoms", type=_positive_int, required=True,
                   help="maximum atoms per measure")
    p.add_argument("--trials", type=_positive_int, required=True,
                   help="number of random measures")
    p.add_argument("--seed", type=_nonnegative_int, required=True,
                   help="seed; all randomness derives from it")
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, MeasureFormatError, InvalidMeasureError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
