"""Benchmark of the nlocus CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is quartic-cold, formula-warm,
verify-warm, or `all` for one table of the three.  Each run first sets up:
a cold `nlocus fixpoints` builds the fixed-point cache the warm workloads
load (setup_s).  It then starts the workload's CLI command as a child
process, one after another (a closed loop), for S seconds and at least
once, and measures each child from outside.  Every child's output is
checked against the exact answers; a wrong or failed run counts in
`failed`.

The benchmark and its children run pinned to one vCPU, next to a probe
thread that measures how fast that vCPU runs meanwhile (probe.py); every
reported time is scaled to the probe's reference speed, so that a slow
stretch of the shared host does not read as a slower program.  Raw times
are kept in the result file.

--trace 0 reports the end-to-end metrics; --trace 1 alternates an untraced
child with one started through traced_cli.py and reports the per-layer
metrics derived from its spans.  The last line of standard output is one
JSON object; a result file with provenance is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# A run must end within 180 s; no child is started that could pass this.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 3

CENSUS = "G2=21 G2E1=180 E2=324 total=525"
QUARTIC_ANSWER = "deg NL(W,4) = 38475"
VERIFY_CHECKS = (
    "euler-census",
    "rank-invariants",
    "hilbert-oracles",
    "localization-self-test",
    "d4-target",
    "d5-cross-check",
    "spec-independence",
    "algebra-kernel",
)
DMIN, DMAX = 5, 53

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> unit, in the order of the layer table in README.md
PER_LAYER = {
    "fixpoints.enumerate_all.s": "s",
    "fixpoints.e1_points.s": "s",
    "fixpoints.classify_e1.s": "s",
    "fixpoints.e2_points.s": "s",
    "fixpoints.save_cache.s": "s",
    "fixpoints.load_cache.s": "s",
    "fixpoints.load_cache.hits": "count",
    "fixpoints.cache_bytes": "bytes",
    "ideals.saturate_t.calls": "count",
    "ideals.saturate_t.s": "s",
    "ideals.reduce_gb.calls": "count",
    "ideals.reduce_gb.s": "s",
    "ideals.hilbert_polynomial.calls": "count",
    "ideals.hilbert_polynomial.s": "s",
    "ideals.standard_monomials.calls": "count",
    "ideals.standard_monomials.s": "s",
    "ideals.standard_monomials.monomials": "count",
    "ideals.kbase.calls": "count",
    "ideals.kbase.s": "s",
    "gbcore.groebner.calls": "count",
    "gbcore.groebner.s": "s",
    "gbcore.groebner.per_saturation": "calls/call",
    "torus.elem_sym.calls": "count",
    "torus.elem_sym.s": "s",
    "torus.elem_sym.values": "count",
    "localization.sum.s": "s",
    "localization.accumulate.self_s": "s",
    "localization.pool_wait_s": "s",
    "localization.admissible_spec.s": "s",
    "formula.interpolate.s": "s",
    "formula.compare.s": "s",
    "poly.parse.calls": "count",
    "poly.parse.s": "s",
    "cli.other.self_s": "s",
    "trace.overhead_s": "s",
}

COUNTERS = (
    "fixpoints.load_cache.hits",
    "fixpoints.cache_bytes",
    "ideals.standard_monomials.monomials",
    "torus.elem_sym.values",
)


class SetupError(RuntimeError):
    """The cold enumeration that builds the cache failed; no result."""


# ---------------------------------------------------------------------------
# workloads


def _check_quartic(out, nodes):
    if QUARTIC_ANSWER not in out.splitlines():
        return f"no line {QUARTIC_ANSWER!r}"
    return None


def _check_formula(out, nodes):
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return f"no JSON result: {exc}"
    if doc.get("match") is not True:
        return "match is not true"
    if doc.get("nodes") != nodes:
        return "nodes differ from closed_form()(d)"
    return None


def _check_verify(out, nodes):
    lines = set(out.splitlines())
    missing = [name for name in VERIFY_CHECKS if f"PASS {name}" not in lines]
    if missing:
        return f"no PASS for {', '.join(missing)}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    check: object
    cold: bool = False

    def argv(self, weights, cache):
        weights = ",".join(map(str, weights))
        return [*self.args, "--weights", weights, "--cache", str(cache)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quartic-cold",
            ("degree", "--d", "4", "--threads", "1"),
            _check_quartic,
            cold=True,
        ),
        Workload(
            "formula-warm",
            ("formula", "--dmin", str(DMIN), "--dmax", str(DMAX), "--threads", "1",
             "--format", "json"),
            _check_formula,
        ),
        Workload("verify-warm", ("verify", "--threads", "2"), _check_verify),
    )
}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Sample:
    """One child process, measured from outside.

    wall_s and cpu_s are scaled to the probe's reference speed; the raw
    times are wall_s / scale and cpu_s / scale.
    """

    argv: list
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    scale: float
    probe_ns: float
    error: str | None = None
    spans_file: str | None = None
    layers: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.error is None

    @property
    def raw_wall_s(self):
        return self.wall_s / self.scale


def _child_env():
    env = dict(os.environ)
    env.pop("NLOCUS_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _stop_group(pgid):
    """Kill what is left of the child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv, stem, deadline):
    """Run argv from the checkout root; wall, CPU and peak RSS of its tree.

    The probe runs on the benchmark's vCPU, which the child inherits, for
    as long as the child does.
    """
    timeout = deadline - time.perf_counter()
    with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err, \
            probe.Probe() as speed:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            finally:
                os.close(pidfd)
            if not exited:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            _stop_group(proc.pid)
    text = Path(f"{stem}.out").read_text(errors="replace")
    sample = Sample(
        argv=argv[1:],
        code=code,
        wall_s=wall * speed.scale,
        # children's times include the pool workers the CLI waited for
        cpu_s=(usage.ru_utime + usage.ru_stime) * speed.scale,
        peak_rss_mb=usage.ru_maxrss / 1024,
        scale=speed.scale,
        probe_ns=speed.mean_ns,
    )
    if not exited:
        sample.error = f"killed after {timeout:.0f} s"
    elif code != 0:
        sample.error = f"exit code {code}"
    return sample, text


def _deadline_allows(deadline, needed):
    """True when `needed` seconds, with a margin, still fit before the deadline."""
    return deadline - time.perf_counter() > 1.5 * needed


# ---------------------------------------------------------------------------
# setup and measurement


@dataclass
class Setup:
    samples: list
    cache: Path


def setup(seconds, deadline):
    """Cold enumerations into fresh cache files; the last one is kept.

    Repeats up to SETUP_REPEATS times while the repeats fit in `seconds`,
    so setup_s is a median once enumeration is fast.
    """
    work = OUT / "work"
    samples = []
    while len(samples) < SETUP_REPEATS and (
        not samples or sum(s.raw_wall_s for s in samples) < seconds
    ):
        if samples and not _deadline_allows(deadline, samples[-1].raw_wall_s):
            break
        cache = work / f"setup-{len(samples)}.json"
        cache.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "nlocus", "fixpoints", "--cache", str(cache)]
        sample, text = spawn(argv, work / f"setup-{len(samples)}", deadline)
        if sample.ok and CENSUS not in text.splitlines():
            sample.error = f"no line {CENSUS!r}"
        print(f"  setup {len(samples) + 1}: {sample.wall_s:.3f} s"
              f" (raw {sample.raw_wall_s:.3f} s) {'ok' if sample.ok else sample.error}",
              flush=True)
        if not sample.ok:
            raise SetupError(f"setup failed: {sample.error}; see {work}")
        samples.append(sample)
    for old in work.glob("setup-*.json"):
        if old != cache:
            old.unlink()
    return Setup(samples, cache)


def oracle(cache, seed):
    """(weights, closed-form nodes) for the seed, from a child that loads nlocus."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(cache), str(seed), str(DMIN), str(DMAX)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"oracle failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    return tuple(doc["weights"]), doc["nodes"]


def run_once(workload, weights, nodes, cache, stem, deadline, trace_id=None):
    """One child running the workload's command; checked and measured."""
    if workload.cold:
        cache = OUT / "work" / "cold.json"
        cache.unlink(missing_ok=True)
    cli = workload.argv(weights, cache)
    if trace_id is None:
        argv = [sys.executable, "-m", "nlocus", *cli]
    else:
        spans_file = f"{stem}.spans.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), spans_file, trace_id, "--", *cli]
    sample, text = spawn(argv, stem, deadline)
    if sample.ok:
        sample.error = workload.check(text, nodes)
    if workload.cold:
        cache.unlink(missing_ok=True)
    if trace_id is not None and sample.ok:
        sample.spans_file = spans_file
        sample.layers = layer_metrics(*spans.load(spans_file), sample)
    tag = " traced" if trace_id is not None else ""
    print(f"  {workload.name}{tag}: wall {sample.wall_s:.3f} s  cpu {sample.cpu_s:.3f} s"
          f" (raw wall {sample.raw_wall_s:.3f} s)  rss {sample.peak_rss_mb:.1f} MB"
          f"  {'ok' if sample.ok else sample.error}", flush=True)
    return sample


def layer_metrics(span_list, counts, traced):
    """The per-layer metrics of one traced child, from its spans.

    Span times are raw; times (unit s) are scaled like the child's own.
    """
    summary = spans.summarize(span_list)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("s", "calls"):
            metrics[name] = get(layer, key)
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    saturations = get("ideals.saturate_t", "calls")
    inside = sum(
        1
        for i, span in enumerate(span_list)
        if span[spans.NAME] == "gbcore.groebner"
        and spans.has_ancestor(span_list, i, "ideals.saturate_t")
    )
    metrics["gbcore.groebner.per_saturation"] = inside / saturations if saturations else 0
    metrics["localization.accumulate.self_s"] = get("localization.accumulate", "self_s")
    # with a pool, _localize's own time is spent waiting for the workers
    metrics["localization.pool_wait_s"] = get("localization.sum", "self_s")
    metrics["cli.other.self_s"] = (
        traced.raw_wall_s
        - spans.root_time(span_list)
        - counts.get("trace.install_s", 0)
        - counts.get("trace.write_s", 0)
    )
    return {
        name: value * traced.scale if PER_LAYER.get(name) == "s" else value
        for name, value in metrics.items()
    }


def measure(workload, seed, seconds, trace, setup_result, answers, deadline):
    """Closed loop of children for `seconds` (at least one); the result dict."""
    weights, nodes = answers
    print(f"{workload.name}: seed {seed}, weights {','.join(map(str, weights))},"
          f" trace {trace}", flush=True)
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        if plain and not _deadline_allows(
            deadline, plain[-1].raw_wall_s + (traced[-1].raw_wall_s if trace else 0)
        ):
            break
        n = len(plain)
        stem = OUT / "work" / f"{workload.name}-{seed}-{n}"
        plain.append(
            run_once(workload, weights, nodes, setup_result.cache, stem, deadline)
        )
        if trace:
            run_id = f"{workload.name}-seed{seed}-{n}"
            traced.append(
                run_once(workload, weights, nodes, setup_result.cache,
                         OUT / "results" / run_id, deadline, trace_id=run_id)
            )
    samples = plain + traced
    failed = sum(not s.ok for s in samples)
    if trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, setup_result.samples)
    return {
        "workload": workload.name,
        "weights": list(weights),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "raw_wall_s": statistics.median(s.raw_wall_s for s in plain),
        "scale": statistics.median(s.scale for s in plain),
        "samples": [asdict(s) for s in samples],
        "setup": [asdict(s) for s in setup_result.samples],
    }


def end_to_end_metrics(samples, setup_samples):
    values = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "setup_s": statistics.median(s.wall_s for s in setup_samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(plain, traced):
    """Medians over the traced children; overhead against the untraced ones."""
    good = [s for s in traced if s.ok]
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values[name] = statistics.median(s.layers[name] for s in good) if good else 0
    values["trace.overhead_s"] = statistics.median(
        s.wall_s for s in traced
    ) - statistics.median(s.wall_s for s in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# provenance and output


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed, cpus):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": cpus["usable"],
        "pinned_cpu": cpus["pinned"],
        "probe_ref_ns": probe.REF_NS,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def write_result(result, seed, trace, cpus):
    doc = {"provenance": provenance(seed, cpus), "trace": trace, **result}
    path = OUT / "results" / f"{result['workload']}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def print_table(results):
    """Every metric by name and unit, and the fail rate, per workload."""
    for result in results:
        attempted, failed = result["attempted"], result["failed"]
        print(f"{result['workload']} (weights {','.join(map(str, result['weights']))})")
        for name, metric in result["metrics"].items():
            print(f"  {name:38s} {metric['value']:14.6f} {metric['unit']}")
        print(f"  {'fail_rate':38s} {failed / attempted:14.6f} ({failed}/{attempted} runs)")
        print(f"  {'(raw wall, unscaled)':38s} {result['raw_wall_s']:14.6f} s"
              f" (probe scale {result['scale']:.4f})")


def final_line(result):
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still runs the finally blocks that stop its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "nlocus" / "cli.py").is_file():
        print(f"error: no nlocus sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    cpus = {"usable": len(os.sched_getaffinity(0))}
    cpus["pinned"] = probe.pin()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.workload == "all":
        deadline += RUN_LIMIT_S * (len(WORKLOADS) - 1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        setup_result = setup(args.seconds, deadline)
        answers = oracle(setup_result.cache, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, args.trace,
                         setup_result, answers, deadline)
        print(f"  result file: {write_result(result, args.seed, args.trace, cpus)}")
        results.append(result)
    print_table(results)
    if args.workload == "all":
        print(json.dumps({r["workload"]: final_line(r) for r in results}))
    else:
        print(json.dumps(final_line(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
