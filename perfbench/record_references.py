"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/record_references.py

Runs one pass of every workload, at both sizes, with seed 0 and writes
perfbench/references.json.  Re-record only when a change is meant to move
the program's output values beyond the checks' tolerances.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def main() -> int:
    refs = {}
    out = os.path.join(run.OUT_ROOT, "record")
    os.makedirs(out, exist_ok=True)
    result_path = os.path.join(out, "result.json")
    for size in ("smoke", "full"):
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.join(run.HERE, "child.py"),
                   "--workload", workload, "--seed", "0", "--seconds", "0",
                   "--size", size, "--record",
                   "--mem-cap-mib", str(workloads.MEM_CAP_MIB[workload]),
                   "--src", run.SRC, "--out", out, "--result", result_path]
            subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT, check=True)
            with open(result_path) as fh:
                result = json.load(fh)
            bad = [op for op in result["passes"][0]["ops"] if not op["ok"]]
            if bad:
                print(f"{workload}/{size}: {bad}", file=sys.stderr)
                return 1
            refs.update(result["digests"])
            print(f"recorded {workload} ({size})")
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
