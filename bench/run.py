"""Benchmark entry point.

    python3 bench/run.py --workload {ingest,train,evaluate,exosim,all}
                         --seed N --seconds S --trace {0,1}

Runs each workload in a child process whose environment pins the BLAS
thread count and puts ``src/`` on the import path, so the package is used
from source. The child's output is passed through; its last line is the
result object. ``--workload all`` runs the four workloads one after the
other and ends with one object over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "train", "evaluate", "exosim")
# one BLAS thread: never more than nproc, and no pool contending with the caller
BLAS_THREADS = 1
# a run must end within 180 s; a stuck child is killed before that
CHILD_TIMEOUT_S = 170


def run_workload(workload, args):
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    command = [
        sys.executable, str(HERE / "harness.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"error: {workload} exited with code {child.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gazehead" / "__init__.py").is_file():
        print(f"error: no gazehead sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
