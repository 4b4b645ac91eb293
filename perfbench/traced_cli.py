"""Run the nlocus CLI with a span around every public layer function.

    python3 perfbench/traced_cli.py SPANS_OUT RUN_ID -- <nlocus arguments>

Same behaviour and exit code as `python -m nlocus <arguments>`; in addition
the spans and counters are written to SPANS_OUT as JSON when the CLI
returns.  Only the benchmark's traced mode starts this file, so untraced
runs never load the wrappers.

Each wrapper replaces the function at every module attribute of the
package that refers to it, because callers look functions up through their
own module (`localization.elem_sym`, `cli.kbase`, `ideals.gbcore.groebner`).
Forked pool workers turn the wrappers into pass-throughs: their time shows
in the parent as the self time of `localization.sum`.
"""

from __future__ import annotations

import os
import sys
import time

import spans


def _count_values(rec, result, args, kwargs):
    rec.counts["torus.elem_sym.values"] += len(args[1])


def _count_monomials(rec, result, args, kwargs):
    rec.counts["ideals.standard_monomials.monomials"] += len(result)


def _count_load(rec, result, args, kwargs):
    if result is not None:
        rec.counts["fixpoints.load_cache.hits"] += 1
        rec.counts["fixpoints.cache_bytes"] += os.path.getsize(args[0])


def _count_save(rec, result, args, kwargs):
    rec.counts["fixpoints.cache_bytes"] += os.path.getsize(args[1])


# (module, function, span name, counter hook)
TARGETS = (
    ("fixpoints", "enumerate_all", "fixpoints.enumerate_all", None),
    ("fixpoints", "e1_points", "fixpoints.e1_points", None),
    ("fixpoints", "classify_e1", "fixpoints.classify_e1", None),
    ("fixpoints", "e2_points", "fixpoints.e2_points", None),
    ("fixpoints", "save_cache", "fixpoints.save_cache", _count_save),
    ("fixpoints", "load_cache", "fixpoints.load_cache", _count_load),
    ("ideals", "saturate_t", "ideals.saturate_t", None),
    ("ideals", "reduce_gb", "ideals.reduce_gb", None),
    ("ideals", "hilbert_polynomial", "ideals.hilbert_polynomial", None),
    ("ideals", "standard_monomials", "ideals.standard_monomials", _count_monomials),
    ("ideals", "kbase", "ideals.kbase", None),
    ("gbcore", "groebner", "gbcore.groebner", None),
    ("torus", "elem_sym", "torus.elem_sym", _count_values),
    ("localization", "_localize", "localization.sum", None),
    ("localization", "_sum_chunk", "localization.accumulate", None),
    ("localization", "admissible_spec", "localization.admissible_spec", None),
    ("formula", "interpolate", "formula.interpolate", None),
    ("formula", "compare", "formula.compare", None),
    ("poly", "parse", "poly.parse", None),
)


def install(rec):
    """Wrap every target at each package attribute bound to it."""
    import nlocus.cli  # noqa: F401 - imports every layer module

    modules = [m for n, m in sys.modules.items() if n == "nlocus" or n.startswith("nlocus.")]
    for module_name, attr, span_name, hook in TARGETS:
        original = getattr(sys.modules[f"nlocus.{module_name}"], attr)
        wrapper = rec.wrap(span_name, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    os.register_at_fork(after_in_child=rec.disable)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, run_id, cli_args = argv[0], argv[1], argv[3:]
    from nlocus.cli import main as cli_main

    started = time.perf_counter()
    rec = spans.Recorder(run_id)
    install(rec)
    rec.counts["trace.install_s"] = time.perf_counter() - started
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        rec.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
