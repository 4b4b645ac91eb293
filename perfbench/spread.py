"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload formula-warm --seeds 1-10

Runs `run.py` once per seed (trace off) and prints, for each end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  The spread must stay within the
bound, and should stay below a third of it; setup_s is exempt from the
spread rule (its median is what a later change is compared on).  Exits 1
when a spread exceeds its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    ok = True
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            median, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            verdict = "ok" if rel < bound / 3 else "within bound" if rel <= bound else "OVER"
            if name != "setup_s" and rel > bound:
                ok = False
            print(f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {rel:.4f}  bound {bound}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
