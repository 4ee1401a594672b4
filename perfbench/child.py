"""Workload process: runs passes of one workload through vacmirror.cli.main.

Started by run.py with the BLAS pool pinned to one thread.  It caps its
own address space first, so that an oversize allocation becomes a failed
operation (MemoryError) rather than an out-of-memory kill, then imports
vacmirror from the checkout's src/ and repeats passes of the workload
until the measuring time is up.  In a traced run, passes alternate
untraced and traced, and the difference of their medians is the tracing
overhead.  Writes one JSON result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import checks
import tracing
import workloads


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--references", help="reference digests to check against")
    ap.add_argument("--record", action="store_true",
                    help="run one pass and store digests instead of checking")
    ap.add_argument("--mem-cap-mib", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding vacmirror")
    ap.add_argument("--out", required=True, help="scratch directory for CSVs")
    ap.add_argument("--result", required=True, help="result JSON path")
    return ap.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _vm_peak_kib() -> int:
    """Peak address-space size of this process, to compare with its cap."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


class Runner:
    """Runs operations, times them and checks their outputs."""

    def __init__(self, cli, args, inp, refs, rec):
        self.cli = cli
        self.args = args
        self.inp = inp
        self.refs = refs
        self.rec = rec
        self.digests = {}
        self.values = {}          # first 'value' of each operation this pass
        self.op_id = 0

    def run_op(self, op) -> dict:
        path = os.path.join(self.args.out, f"op{self.op_id}.csv")
        self.rec.op = self.op_id
        self.op_id += 1
        errors = []
        t0 = time.perf_counter()
        try:
            code = self.cli.main([*op.argv, "-o", path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            code = None
            errors.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        rows = []
        if code == 0:
            header, rows = checks.read_csv(path)
            if self.args.record:
                self.digests[op.key] = checks.digest(op, self.inp, header, rows)
            else:
                ref = self.refs.get(op.key)
                errors += (checks.compare(op, self.inp, header, rows, ref)
                           if ref is not None else [f"no reference for {op.key}"])
            errors += checks.invariants(op, header, rows, self.values)
            if "value" in header:
                self.values[op.key] = rows[0][header.index("value")]
        elif not errors:
            errors.append(f"exit code {code}")
        for p in (path, self.cli.sidecar_path(path)):
            if os.path.exists(p):
                os.remove(p)
        return {"key": op.key, "metric": op.metric, "seconds": seconds,
                "rows": len(rows), "ok": not errors, "errors": errors}

    def run_pass(self, ops, traced: bool, pass_idx: int) -> dict:
        self.values = {}
        if traced:
            tracemalloc.start()
            self.rec.pass_idx = pass_idx
            self.rec.enabled = True
        try:
            results = [self.run_op(op) for op in ops]
        finally:
            if traced:
                self.rec.enabled = False
                tracemalloc.stop()
        out = {"traced": traced, "ops": results,
               "wall_s": sum(r["seconds"] for r in results)}
        if traced:
            out["layers"] = tracing.pass_metrics(self.rec, pass_idx)
        return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    cap = args.mem_cap_mib * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    from vacmirror import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"vacmirror imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    inp = workloads.Inputs.from_seed(args.seed)
    ops = workloads.build_pass(args.workload, inp, args.size)
    refs = {}
    if not args.record:
        with open(args.references) as fh:
            refs = json.load(fh)
    rec = tracing.Recorder()
    if args.trace:
        tracing.install(rec)
    runner = Runner(cli, args, inp, refs, rec)

    # a further pass starts only if half of a typical pass still fits, so a
    # run lasts about --seconds whatever the length of a pass
    passes, lengths = [], []
    min_passes = 1 if args.record else 1 + args.trace
    t0 = time.perf_counter()
    if not args.record and args.size == "full":
        for op in workloads.warmup(args.workload, inp):
            runner.run_op(op)
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(runner.run_pass(ops, traced, len(passes)))
        lengths.append(time.perf_counter() - start)
        if len(passes) >= min_passes and (
                args.record or time.perf_counter() - t0
                + 0.5 * statistics.median(lengths) > args.seconds):
            break

    result = {"env": _environment(), "passes": passes,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "vm_peak_kib": _vm_peak_kib(),
              "inputs": {"seed": inp.seed, "f": inp.f, "g": inp.g}}
    if args.record:
        result["digests"] = runner.digests
    if args.trace:
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump([s.as_dict() for s in rec.spans], fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
