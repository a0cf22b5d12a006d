"""Runs one workload in this process and prints its result.

``run.py`` starts this file with the BLAS thread count pinned in the
environment and ``src`` on the import path. Without ``--trace`` the run
sets up the workload SETUP_REPEATS times, then loops operations for the
given seconds and reports the end-to-end metrics. With ``--trace 1`` it
sets up once, loops untraced for the given seconds, then loops again with
every layer wrapped, and reports the per-layer metrics; the two loops
give the tracing overhead.

The machine is shared: other tenants slow every instruction stream on it
for stretches of tens of seconds, by up to 2x, which moves raw medians
between runs by more than any bound worth having. So the harness runs a
fixed reference kernel, its own code and independent of the package,
between the timed parts of every operation and before every set-up. Each
operation's time is scaled to a machine on which that kernel takes
REFERENCE_S, by the kernel calls made during that operation; the metrics
are medians of the scaled times. Raw medians are printed too.

The last line of standard output is the result object; the lines before
it print every metric with its unit, and the same record, with the
environment, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
import time
from array import array
from pathlib import Path
from statistics import mean, median

import numpy as np

import layers
from spans import Tracer
from stats import beyond, tail_level
from workloads import WORKLOADS, Checks, scaled

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# reference kernel calls per pause between timed parts
KERNEL_CALLS = 2
# claims are made on the seed of their own runs and checked on this one
CHECK_SEED = 1
# gated end-to-end metrics; every workload reports all of them
END_TO_END = ("op_s", "setup_s", "peak_rss_mb")

# mean seconds of reference_kernel() on the 2-vCPU Xeon (Sapphire
# Rapids) machine the benchmark was defined on, at a quiet time
REFERENCE_S = 0.0105

clock = time.perf_counter

_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_VECTORS = _REFERENCE_RNG.normal(size=(200, 3))
_REFERENCE_MATRIX = _REFERENCE_RNG.normal(size=(512, 137)) * 0.1


def reference_kernel():
    """Fixed work of the kinds the package does per sample: interpreter
    steps, small numpy calls, a 3x3 solve, and an LSTM-sized matvec."""
    acc = 0.0
    vectors, matrix = _REFERENCE_VECTORS, _REFERENCE_MATRIX
    state = np.zeros(matrix.shape[1])
    for i in range(len(vectors)):
        a, b = vectors[i], vectors[i - 1]
        c = np.cross(a, b)
        m = np.column_stack([a, -b, c])
        acc += float(np.linalg.solve(m, a - b)[0]) + math.sqrt(float(c @ c))
        state[:128] = np.tanh((matrix @ state)[:128] + a[0])
    return acc + float(state.sum())


class Pacer:
    """Runs and times the reference kernel; called between timed parts."""

    def __init__(self):
        self.seconds = array("d")

    def __call__(self):
        for _ in range(KERNEL_CALLS):
            t0 = clock()
            reference_kernel()
            self.seconds.append(clock() - t0)

    def factor(self, since=0):
        """Scale to the reference machine from the kernel calls made since
        the ``since``-th. A timed part averages the machine's speed over
        its length, so the kernel times are averaged too: their median
        would jump between the two humps of a half-loaded machine."""
        return REFERENCE_S / mean(self.seconds[since:])


def run_region(workload, seconds, checks, pacer):
    """Closed loop: the next operation starts when the previous returns,
    until ``seconds`` have passed. Sets each operation's ``factor`` from
    the kernel calls made during it. Returns the operations and the
    region's (start, end)."""
    ops = []
    start = clock()
    while not ops or clock() - start < seconds:
        since = len(pacer.seconds)
        op = workload.op(checks, pacer)
        op.factor = pacer.factor(since)
        ops.append(op)
    return ops, (start, clock())



def src_lines():
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "check_seed": CHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines(),
    }


def untraced_run(workload, args, checks):
    pacer = Pacer()
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        since = len(pacer.seconds)
        for _ in range(3):
            pacer()
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
        scaled_setups.append(setups[-1] * pacer.factor(since))
    gc.collect()
    ops, _ = run_region(workload, args.seconds, checks, pacer)
    # read before the harness's own statistics allocate; ru_maxrss is in
    # KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    measured = workload.end_to_end(ops)
    measured["setup_s"] = (median(scaled_setups), "s")
    measured["peak_rss_mb"] = (peak_mb, "MB")
    lines = [
        f"ops = {len(ops)}",
        f"reference kernel: mean {mean(pacer.seconds) * 1e3:.4f} ms over {len(pacer.seconds)} "
        f"calls; raw op_s {median(op.seconds for op in ops):.6g} s, "
        f"raw setup_s {median(setups):.6g} s",
    ]
    if args.workload == "exosim":
        n = len(workload.tick_latencies(ops))
        level = tail_level(n)
        lines.append(f"ticks = {n}, highest percentile with >= 10 beyond: p{level} "
                     f"({beyond(level, n)} beyond)")
    gated = {name: measured.pop(name) for name in END_TO_END}
    return gated, measured, lines


def traced_run(workload, args, checks):
    workload.setup()
    gc.collect()
    untraced_pacer, traced_pacer = Pacer(), Pacer()
    untraced, _ = run_region(workload, args.seconds, checks, untraced_pacer)
    tracer = Tracer()
    layers.install(tracer)
    try:
        gc.collect()
        traced, region = run_region(workload, args.seconds, checks, traced_pacer)
    finally:
        tracer.unwrap()
    tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    overhead = scaled(traced) / scaled(untraced) - 1.0
    values = layers.per_layer(tracer, traced, region, overhead)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    lines = [f"ops = {len(untraced)} untraced, {len(traced)} traced", f"spans = {len(tracer.start)}"]
    return metrics, {}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)

    env = environment(args)
    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, extra, lines = run(workload, args, checks)
    finally:
        workload.close()

    failed_ratio = checks.failed / checks.attempted
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed_ratio:.6g} fraction "
          f"({checks.failed} of {checks.attempted} checked operations)")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "env": env, "failed_ratio": failed_ratio,
              "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
