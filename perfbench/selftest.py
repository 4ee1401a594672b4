"""The harness's own test, at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the workloads and metrics run.py
reports; runs every workload at smoke size untraced and traced, so that
every operation, check, counter and span runs; and runs three negative
cases: a corrupted reference must mark its operation failed, an oversize
allocation under the address-space cap must become a failed operation,
and a directory without the program must make run.py exit non-zero
without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def bench_run(*extra, cwd=run.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(run.HERE, "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int, references=run.REFERENCES) -> dict:
    proc = bench_run("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke",
                     "--references", references)
    if proc.returncode != 0:
        print(proc.stderr[-3000:])
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr
    return result


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names the four workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    expect(setup["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s has the largest bound")


def check_smoke_runs() -> None:
    for workload in workloads.WORKLOADS:
        plain = smoke(workload, 0)
        expect(plain.get("correct") is True and plain.get("failed") == 0,
               f"{workload}: smoke run correct")
        values = {k: v["value"] for k, v in plain.get("metrics", {}).items()}
        expect(set(values) == set(run.END_TO_END)
               and all(math.isfinite(v) and v > 0 for v in values.values()),
               f"{workload}: every end-to-end metric reported and positive")
        traced = smoke(workload, 1)
        expect(traced.get("correct") is True, f"{workload}: traced smoke run correct")
        values = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        expect(set(values) == set(run.PER_LAYER)
               and all(v > 0 for k, v in values.items() if k != "trace.overhead_s"),
               f"{workload}: every per-layer metric reported and nonzero")
        spans_path = os.path.join(run.OUT_ROOT, f"{workload}-smoke", "spans.json")
        with open(spans_path) as fh:
            spans = json.load(fh)
        layers = {s["name"].split(".", 1)[0] for s in spans}
        expect(layers == {"cli", "model", "perturb", "single_cavity", "two_cavity",
                          "continuum", "oracle"}
               and all({"name", "start", "end", "parent", "op"} <= set(s) for s in spans)
               and all(s["end"] >= s["start"] for s in spans),
               f"{workload}: spans cover every layer")


def check_corrupted_reference() -> None:
    with open(run.REFERENCES) as fh:
        refs = json.load(fh)
    refs["smoke/continuum-fq"]["columns"]["value"]["samples"][0] *= 1.0001
    path = os.path.join(run.OUT_ROOT, "corrupted-references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh)
    result = smoke("continuum-quad", 0, references=path)
    expect(result.get("correct") is False and result.get("failed", 0) >= 1
           and "smoke/continuum-fq" in result.get("stderr", ""),
           "a corrupted reference marks its operation failed")


GUARD = """
import json, resource, sys, types
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
sys.path[:0] = [{here!r}, {src!r}]
import child, tracing, workloads
from vacmirror import cli
inp = workloads.Inputs.from_seed(0)
args = types.SimpleNamespace(out={out!r}, record=False)
runner = child.Runner(cli, args, inp, {{}}, tracing.Recorder())
# the 10 GiB meshgrid of an N = 36842 energy shift
op = workloads._modesum(inp, "guard", "energy-shift", workloads._cut(1000))
print(json.dumps(runner.run_op(op)))
"""


def check_memory_guard() -> None:
    code = GUARD.format(here=run.HERE, src=run.SRC, out=run.OUT_ROOT)
    proc = subprocess.run([sys.executable, "-c", code], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    ok = proc.returncode == 0
    if ok:
        op = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = op["ok"] is False and "MemoryError" in " ".join(op["errors"])
    expect(ok, "an oversize allocation under the cap is a failed operation")


def check_missing_program() -> None:
    bare = os.path.join(run.OUT_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench_run("--workload", "many-small", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    check_benchmark_json()
    check_smoke_runs()
    check_corrupted_reference()
    check_memory_guard()
    check_missing_program()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
