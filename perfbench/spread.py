"""Run-to-run spread of the benchmark, as its acceptance check computes it.

    python3 -m perfbench.spread --workload NAME [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Runs ``perfbench.run`` once per seed, one after another, and prints for
every metric its median over the runs, the interquartile distance as a
share of the median (``statistics.quantiles(values, n=4)``) and the share
of the metric's bound in BENCHMARK.json that this spread uses. The raw
(unscaled) times each run records are listed too, without a bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from perfbench import stats
from perfbench.run import ROOT


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.spread")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, "-m", "perfbench.run", "--workload", args.workload,
               "--seed", seed, "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct={last['correct']} "
              f"attempted={last['attempted']} failed={last['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in last["metrics"].items()
                         if k in bounds), flush=True)
        metrics = dict(last["metrics"])
        results = sorted((ROOT / ".perfbench_out" / "results").glob(
            f"{args.workload}-seed*-trace{args.trace}.json"), key=lambda p: p.stat().st_mtime)
        if results:
            metrics.update(json.loads(results[-1].read_text()).get("raw", {}))
        for k, m in metrics.items():
            values.setdefault(k, []).append(m["value"])
    for k, vals in values.items():
        med = stats.median(vals)
        spread = stats.relative_spread(vals) if med else 0.0
        bound = bounds.get(k)
        use = f"  {spread / bound:.2f} of bound {bound}" if bound else ""
        print(f"{k:36s} median {med:.6g}  spread {spread:.4f}{use}"
              + ("" if len(set(vals)) > 1 else "  (identical in every run)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
