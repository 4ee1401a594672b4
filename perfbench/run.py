"""Benchmark of the vacmirror CLI: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's src/ (nothing is installed).  A run

1. times the set-up (import vacmirror.cli and build its parser) in
   SETUP_PROBES fresh interpreters and keeps the median;
2. starts one workload process (child.py) with the BLAS pool pinned to
   one thread and its address space capped, which repeats passes of the
   workload's CLI operations for --seconds and checks every output;
3. prints an environment record, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics of the traced run with
   --trace 1.

Exits non-zero without a result when the program is missing or the
workload process fails.  Scratch files go to .perfbench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0

SETUP_PROBE = """
import time
t0 = time.perf_counter()
from vacmirror import cli
cli.build_parser()
t1 = time.perf_counter()
print(t1 - t0, cli.__file__)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "frac",
    "rows_per_s": "1/s",
}

# Seconds per CLI command are reported with the per-layer metrics: on a
# workload whose main load lacks a command, only a millisecond companion
# call measures it, and such calls spread by 0.2-0.4 of their median from
# run to run on a shared host, beyond any end-to-end bound.
PER_LAYER = {
    **{m: "s" for m in workloads.COMMAND_METRIC.values()},
    "cli.main.self_s": "s",
    "cli.compute_rows.self_s": "s",
    "cli.write_outputs.self_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "B",
    "model.ModeSet.build.calls": "count",
    "model.ModeSet.build.self_s": "s",
    "model.modes": "count",
    "perturb.energy_shift.self_s": "s",
    "perturb.dressed_amplitudes.self_s": "s",
    "perturb.photon_spectrum.self_s": "s",
    "perturb.pairs": "count",
    "perturb.peak_alloc_mib": "MiB",
    "single_cavity.delta_energy_density.self_s": "s",
    "single_cavity.em_field_fluctuations.self_s": "s",
    "single_cavity.flops": "flop",
    "single_cavity.bytes": "B",
    "single_cavity.peak_alloc_mib": "MiB",
    "two_cavity.squared_field_correlation_discrete.self_s": "s",
    "two_cavity.kernel_entries": "count",
    "two_cavity.peak_alloc_mib": "MiB",
    "continuum.full_quadrature.self_s": "s",
    "continuum.partial_analytic.self_s": "s",
    "continuum.scaling_probe.self_s": "s",
    "continuum.neval": "count",
    "continuum.peak_alloc_mib": "MiB",
    "oracle.build_hamiltonian.self_s": "s",
    "oracle.ground_state.self_s": "s",
    "oracle.expectation.self_s": "s",
    "oracle.dim": "count",
    "oracle.full_dim": "count",
    "oracle.kept_frac": "ratio",
    "oracle.nnz": "count",
    "oracle.residual_max": "norm",
    "trace.overhead_s": "s",
}


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the vacmirror CLI.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes, for the harness's own test")
    ap.add_argument("--references", default=REFERENCES,
                    help="reference digests of the outputs")
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VACMIRROR_THREADS", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", *head[5:].split("/"))) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _llc() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        names = [n for n in os.listdir(base) if n.startswith("index")]
    except OSError:
        return best[1]
    for name in names:
        try:
            with open(os.path.join(base, name, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, name, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine(),
            "llc": _llc(), "commit": _commit(), "blas_threads": 1,
            "mem_cap_mib": workloads.MEM_CAP_MIB[args.workload]}


def setup_seconds(env, deadline, probes) -> list:
    """Import-and-parser time in fresh interpreters."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not os.path.realpath(path.strip()).startswith(os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"vacmirror imported from {path.strip()}, not from {SRC}")
        times.append(float(seconds))
    return times


def run_workload(args, env, out, deadline) -> dict:
    result_path = os.path.join(out, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--references", args.references,
           "--mem-cap-mib", str(workloads.MEM_CAP_MIB[args.workload]),
           "--src", SRC, "--out", out, "--result", result_path]
    with open(os.path.join(out, "child.log"), "w+") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0:
            log.seek(0)
            raise RuntimeError(f"workload process ended with {code}:\n{log.read()[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def end_to_end(result, setup) -> dict:
    passes = [p for p in result["passes"] if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mib": result["maxrss_kib"] / 1024.0,
        "ops_ok_frac": (len(ops) - failed) / len(ops),
        "rows_per_s": statistics.median(sum(op["rows"] for op in p["ops"]) / p["wall_s"]
                                        for p in passes),
    }


def per_layer(result) -> dict:
    """Layer medians over traced passes; command seconds from untraced ones."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
               for name in PER_LAYER}
    ops = [op for p in plain for op in p["ops"]]
    for metric in workloads.COMMAND_METRIC.values():
        # the main load's calls of the command where it has any, else the
        # companion's
        calls = [op for op in ops if op["metric"] == metric]
        main = [op for op in calls if not workloads.is_companion(op["key"])]
        metrics[metric] = statistics.median(op["seconds"] for op in main or calls)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "vacmirror", "cli.py")):
        print(f"perfbench: no vacmirror sources under {SRC}", file=sys.stderr)
        return 2
    out = os.path.join(OUT_ROOT, f"{args.workload}-{args.size}")
    os.makedirs(out, exist_ok=True)
    env = child_env()
    try:
        setup = setup_seconds(env, deadline, SETUP_PROBES if args.size == "full" else 1)
        result = run_workload(args, env, out, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops = [op for p in result["passes"] for op in p["ops"]]
    failures = [op for op in ops if not op["ok"]]
    for op in failures[:10]:
        print(f"perfbench: FAILED {op['key']}: {'; '.join(op['errors'])}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    units = PER_LAYER if args.trace else END_TO_END
    record = {**environment(args), **result["env"], "inputs": result["inputs"],
              "passes": len(result["passes"]), "setup_probes_s": setup,
              "vm_peak_mib": result["vm_peak_kib"] / 1024.0}
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures),
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
