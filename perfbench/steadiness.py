"""Steadiness report: repeated benchmark runs with different seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                    [--report PATH]

Runs perfbench/run.py once per workload and seed, one run at a time, with
the run_seconds of BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, next to the metric's bound.
With --trace 1 it reports the medians of the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["elapsed_s"] = elapsed
    out["env"] = json.loads(lines[-2][len("env "):])
    return out


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default=None, help="write the report as JSON here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": _seeds(args.seeds), "workloads": {}}
    worst = 0.0
    for workload in names:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(bench, workload, seed, args.trace))
            print(f"   {workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"{runs[-1]['elapsed_s']:.1f} s", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {**summarize(values), "values": values}
            if args.trace == 0:
                metrics[name]["bound"] = bounds[name]
                metrics[name]["within_third"] = metrics[name]["spread"] < bounds[name] / 3
                if name != "setup_s":
                    worst = max(worst, metrics[name]["spread"] / bounds[name])
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "env": runs[-1]["env"],
            "metrics": metrics,
        }
        print(f"== {workload}: correct={report['workloads'][workload]['correct']} "
              f"failed={sum(r['failed'] for r in runs)} "
              f"elapsed max {max(r['elapsed_s'] for r in runs):.1f} s")
        for name, m in metrics.items():
            tail = (f"  bound {m['bound']:.2f} {'ok' if m['within_third'] else 'WIDE'}"
                    if args.trace == 0 else "")
            print(f"  {name:52s} {m['median']:14.6g}  spread {m['spread']:.4f}{tail}")
        sys.stdout.flush()
    if args.trace == 0:
        report["worst_spread_over_bound"] = worst
        print(f"worst spread / bound (without setup_s): {worst:.3f}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
