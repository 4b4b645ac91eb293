"""Command-line front end.

Subcommands:

  degree     exact degree of the locus for one d (d=4 uses the quartic path)
  formula    reconstruct the closed-form degree polynomial by interpolation
  fixpoints  enumerate the fixed points, refresh the cache, print the census
             (or every record, with --format json)
  verify     run the verification suite; nonzero exit on any failure

Each subcommand takes only the flags it reads, as COMMANDS lists them; any
other flag, such as `fixpoints --threads` or `verify --format` (verify
prints text only), is argparse's usage error, exit status 2.
"""

import argparse
import gc
import os
import sys
import time
from pathlib import Path

from . import fixpoints as fx
from . import localization as loc
from .formula import (
    DIVISOR_FACTORS,
    INTERPOLATION_DEGREE_BOUND,
    closed_form,
    compare,
    inner_polynomial,
    interpolate,
)
from .torus import DEFAULT_WEIGHTS, WeightSpec


def _print_json(doc):
    """Print doc as JSON with sorted keys; `json` is imported only here, so a
    command with text output never loads it."""
    import json

    print(json.dumps(doc, sort_keys=True))


def _usage_error(message):
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_flags(args):
    """Turn --weights into a WeightSpec and --cache into a Path, for the flags
    the command has; a bad flag is a usage error naming it."""
    for flag in ("d", "dmax"):
        if flag in args and getattr(args, flag) > loc.MAX_D:
            _usage_error(f"--{flag} must be at most {loc.MAX_D} (sys.maxsize // 4)")
    if "weights" in args:
        try:
            args.weights = WeightSpec(tuple(int(v) for v in args.weights.split(",")))
        except ValueError as exc:
            _usage_error(f"bad weights: {exc}")
    if "threads" in args and args.threads < 1:
        _usage_error(f"bad threads {args.threads!r}: expected an integer >= 1")
    if not args.cache:
        _usage_error(f"bad cache {args.cache!r}: expected a non-empty path string")
    args.cache = Path(args.cache)


def cmd_degree(args):
    if args.d < 4:
        _usage_error("--d must be at least 4")
    started = time.perf_counter()
    points = fx.load_or_enumerate(args.cache)
    result = loc.Bott(points, args.weights, args.threads).degree_range(args.d, args.d)[0]
    elapsed = time.perf_counter() - started
    if args.format == "json":
        doc = result.to_json()
        doc["elapsed"] = round(elapsed, 3)
        _print_json(doc)
    else:
        print(f"deg NL(W,{result.d}) = {result.degree}")
        print(
            f"  weights={result.spec.values} fixpoints={result.fixpoint_count}"
            f" elapsed={elapsed:.2f}s"
        )
    return 0


def cmd_formula(args):
    if args.dmin < 5:
        _usage_error("--dmin must be at least 5")
    if args.dmax - args.dmin < INTERPOLATION_DEGREE_BOUND:
        _usage_error(
            f"need at least {INTERPOLATION_DEGREE_BOUND + 1} nodes (the degree"
            f" polynomial has degree {INTERPOLATION_DEGREE_BOUND}); increase --dmax"
        )
    started = time.perf_counter()
    points = fx.load_or_enumerate(args.cache)
    results = loc.Bott(points, args.weights, args.threads).degree_range(args.dmin, args.dmax)
    fitted = interpolate([(r.d, r.degree) for r in results])
    target = closed_form()
    report = compare(fitted, target)
    elapsed = time.perf_counter() - started
    if args.format == "json":
        _print_json(
            {
                "nodes": [[r.d, str(r.degree)] for r in results],
                "coefficients": [str(c) for c in fitted.coefficients],
                "degree": fitted.degree(),
                "match": report.equal,
                "elapsed": round(elapsed, 3),
            }
        )
    else:
        print(f"interpolated at d={args.dmin}..{args.dmax} ({len(results)} nodes)")
        print(f"degree of the fitted polynomial: {fitted.degree()}")
        print("coefficient list (ascending):")
        for k, c in enumerate(fitted.coefficients):
            print(f"  d^{k}: {c}")
        print("factored form:")
        print(f"  binomial(d-2,3) * ({_inner_text(fitted)}) / {_divisor_text()}")
        print("expanded form:")
        print(f"  {fitted}")
        if report.equal:
            print("MATCH: the published closed form is reproduced")
        else:
            print(f"MISMATCH: {report}")
    return 0 if report.equal else 1


def _inner_text(fitted):
    inner = inner_polynomial(fitted)
    return "<not divisible by binomial(d-2,3)>" if inner is None else str(inner)


def _divisor_text():
    factors = (f"{p}^{e}" if e > 1 else str(p) for p, e in DIVISOR_FACTORS)
    return "(" + "*".join(factors) + ")"


def cmd_fixpoints(args):
    points = fx.enumerate_all()
    fx.save_cache(points, args.cache)
    counts = fx.stratum_counts(points)
    if args.format == "json":
        _print_json([fx.point_to_json(p) for p in points])
    else:
        print(
            f"G2={counts[0]} G2E1={counts[1]} E2={counts[2]} total={sum(counts)}"
        )
        print(f"cache written to {args.cache}")
    return 0


def cmd_verify(args):
    from . import checks  # only here: no other command loads checks or limits

    bott = loc.Bott(fx.load_or_enumerate(args.cache), args.weights, args.threads)
    failures = 0
    for name, check in checks.CHECKS:
        try:
            check(bott)
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print("verify:", "ok" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


FLAGS = {
    "weights": dict(
        metavar="a,b,c,d",
        default=",".join(map(str, DEFAULT_WEIGHTS.values)),
        help=(
            "integer torus weights for x0..x3 (default %(default)s); write"
            " --weights=-3,0,2,11 when the first value is negative"
        ),
    ),
    "threads": dict(
        type=int,
        default=1,
        metavar="N",
        help=(
            "processes for each Bott sum (default 1): at most N, never more than"
            " the CPUs this process may run on"
        ),
    ),
    "cache": dict(
        metavar="PATH",
        default="fixpoints.json",
        help="fixed-point cache file (default %(default)s)",
    ),
    "format": dict(choices=("text", "json"), default="text", help="output format"),
    "d": dict(type=int, required=True, help="surface degree (>= 4)"),
    "dmin": dict(
        type=int,
        default=5,
        metavar="D",
        help="lowest interpolation node, at least 5 (default %(default)s)",
    ),
    "dmax": dict(
        type=int,
        default=53,
        metavar="D",
        help=(
            "highest interpolation node, at least --dmin +"
            f" {INTERPOLATION_DEGREE_BOUND} (default %(default)s)"
        ),
    ),
}

# each subcommand: its function, its help line and the flags it reads
COMMANDS = {
    "degree": (
        cmd_degree,
        "compute deg NL(W,d) for one d",
        ("weights", "threads", "cache", "format", "d"),
    ),
    "formula": (
        cmd_formula,
        "interpolate the degree polynomial and compare",
        ("weights", "threads", "cache", "format", "dmin", "dmax"),
    ),
    "fixpoints": (cmd_fixpoints, "enumerate fixed points, refresh cache", ("cache", "format")),
    "verify": (cmd_verify, "run the verification suite", ("weights", "threads", "cache")),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nlocus",
        description=(
            "Exact degrees of the loci of surfaces in P^3 containing an"
            " elliptic quartic curve, via torus localization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    _check_flags(args)
    # the points live until the command returns, so no collection should walk
    # their tuples: the cyclic collector is paused for the command, then left
    # as the caller had it, and objects the caller froze stay frozen
    with fx.collector_paused():
        try:
            code = args.fn(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader of stdout has gone; send the unflushed rest to devnull
            # so the interpreter's flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (ValueError, RuntimeError, OSError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print(f"error: out of memory in nlocus {args.command}", file=sys.stderr)
            return 1


def run():
    """The process entry (`nlocus`, `python -m nlocus`, `python -m nlocus.cli`):
    `main`, then everything left is frozen, so the interpreter's collection
    at exit walks none of what the run built."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
