"""Command-line front end.

Subcommands:

  degree     exact degree of the locus for one d (d=4 uses the quartic path)
  formula    reconstruct the closed-form degree polynomial by interpolation
  fixpoints  enumerate the fixed points, refresh the cache, print the census
             (or every record, with --format json)
  verify     run the verification suite; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import checks
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

CACHE_ENV = "NLOCUS_CACHE"
DEFAULT_CACHE = "fixpoints.json"
CONFIG_KEYS = ("cache", "format", "threads", "weights")


def _usage_error(message):
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


@dataclass(frozen=True)
class Config:
    weight_spec: WeightSpec
    workers: int
    cache_path: Path
    output_format: str


def _load_config_file(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _usage_error(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        _usage_error(f"config file {path} must hold a JSON object")
    for key in doc:
        if key not in CONFIG_KEYS:
            _usage_error(
                f"bad config key {key!r} in {path}: expected one of {', '.join(CONFIG_KEYS)}"
            )
    return doc


def _weight_spec(value):
    """The WeightSpec of a `a,b,c,d` string or a config list of integers."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list) or not all(
        isinstance(v, str) or type(v) is int for v in items
    ):
        _usage_error(f"bad weights {value!r}: expected 'a,b,c,d' or a list of integers")
    try:
        return WeightSpec(tuple(int(v) for v in items))
    except ValueError as exc:
        _usage_error(f"bad weights: {exc}")


_ABSENT = object()


def _build_config(args):
    file_cfg = _load_config_file(args.config) if args.config else {}

    def given(key, default=_ABSENT):
        """The value of key on the command line, else in the config file."""
        value = getattr(args, key)
        return value if value is not None else file_cfg.get(key, default)

    weights = given("weights")
    spec = DEFAULT_WEIGHTS if weights is _ABSENT else _weight_spec(weights)
    workers = given("threads", 1)
    if type(workers) is not int or workers < 1:
        _usage_error(f"bad threads {workers!r}: expected an integer >= 1")
    cache = given("cache")
    if cache is _ABSENT:
        cache = os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    if not isinstance(cache, str) or not cache:
        _usage_error(f"bad cache {cache!r}: expected a non-empty path string")
    fmt = given("format", "text")
    if fmt not in ("text", "json"):
        _usage_error(f"bad output format {fmt!r}")
    return Config(
        weight_spec=spec,
        workers=workers,
        cache_path=Path(cache),
        output_format=fmt,
    )


def cmd_degree(args):
    if args.d < 4:
        _usage_error("--d must be at least 4")
    cfg = _build_config(args)
    started = time.perf_counter()
    points = fx.load_or_enumerate(cfg.cache_path)
    spec = loc.admissible_spec(points, cfg.weight_spec)
    result = loc.degree_nl(args.d, spec, points, workers=cfg.workers)
    elapsed = time.perf_counter() - started
    if cfg.output_format == "json":
        doc = result.to_json()
        doc["elapsed"] = round(elapsed, 3)
        print(json.dumps(doc, sort_keys=True))
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
    cfg = _build_config(args)
    started = time.perf_counter()
    points = fx.load_or_enumerate(cfg.cache_path)
    spec = loc.admissible_spec(points, cfg.weight_spec)
    results = loc.degree_range(args.dmin, args.dmax, spec, points, workers=cfg.workers)
    fitted = interpolate([(r.d, r.degree) for r in results])
    target = closed_form()
    report = compare(fitted, target)
    elapsed = time.perf_counter() - started
    if cfg.output_format == "json":
        print(
            json.dumps(
                {
                    "nodes": [[r.d, str(r.degree)] for r in results],
                    "coefficients": [str(c) for c in fitted.coefficients],
                    "degree": fitted.degree(),
                    "match": report.equal,
                    "elapsed": round(elapsed, 3),
                },
                sort_keys=True,
            )
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
    cfg = _build_config(args)
    points = fx.enumerate_all()
    fx.save_cache(points, cfg.cache_path)
    counts = fx.stratum_counts(points)
    if cfg.output_format == "json":
        print(json.dumps([fx.point_to_json(p) for p in points], sort_keys=True))
    else:
        print(
            f"G2={counts[0]} G2E1={counts[1]} E2={counts[2]} total={sum(counts)}"
        )
        print(f"cache written to {cfg.cache_path}")
    return 0


def cmd_verify(args):
    cfg = _build_config(args)
    points = fx.load_or_enumerate(cfg.cache_path)
    spec = loc.admissible_spec(points, cfg.weight_spec)
    failures = 0
    for name, check in checks.CHECKS:
        try:
            check(points, spec, cfg.workers)
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print("verify:", "ok" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--weights",
        metavar="a,b,c,d",
        help=(
            "integer torus weights for x0..x3 (default 0,1,5,18); write"
            " --weights=-3,0,2,11 when the first value is negative"
        ),
    )
    common.add_argument(
        "--threads", type=int, default=None, help="worker processes for the Bott sum"
    )
    common.add_argument(
        "--cache",
        metavar="PATH",
        help=f"fixed-point cache file (default ${CACHE_ENV} or {DEFAULT_CACHE})",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default=None, help="output format"
    )
    common.add_argument(
        "--config",
        metavar="FILE",
        help="JSON config file with keys weights/threads/cache/format",
    )

    parser = argparse.ArgumentParser(
        prog="nlocus",
        description=(
            "Exact degrees of the loci of surfaces in P^3 containing an"
            " elliptic quartic curve, via torus localization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_degree = sub.add_parser(
        "degree", parents=[common], help="compute deg NL(W,d) for one d"
    )
    p_degree.add_argument("--d", type=int, required=True, help="surface degree (>= 4)")
    p_degree.set_defaults(fn=cmd_degree)

    p_formula = sub.add_parser(
        "formula", parents=[common], help="interpolate the degree polynomial and compare"
    )
    p_formula.add_argument("--dmin", type=int, default=5)
    p_formula.add_argument("--dmax", type=int, default=53)
    p_formula.set_defaults(fn=cmd_formula)

    p_fix = sub.add_parser(
        "fixpoints", parents=[common], help="enumerate fixed points, refresh cache"
    )
    p_fix.set_defaults(fn=cmd_fixpoints)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the verification suite"
    )
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except SystemExit:
        raise
    except BrokenPipeError:
        # the reader of stdout has gone; send the unflushed rest to devnull so
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
