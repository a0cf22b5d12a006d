#!/usr/bin/env python3
"""Bit parity of every CLI artifact between two git revisions.

    python3 tools/parity.py PARENT_REV [CHANGE_REV]     # CHANGE_REV defaults to HEAD

Checks both revisions out with ``git worktree`` under a temporary
directory, runs the same pipeline with ``python -m gazehead`` from each
tree's ``src/`` (BLAS pinned to one thread), and compares the two output
trees byte for byte:

- ``generate`` 6 participants, all tasks, 6 s trials;
- ``generate`` a second shape, 3 participants with 2 trials per task at
  45 Hz and 3 s, and a third, 1 participant with 3 trials per task at
  200 Hz and 12 s, long enough for a rapid-avoidance distractor to reach
  the subject and respawn (both compared only, never trained on);
- ``train`` vector, mlp 8, lstm H2, lstm H3 with 6 inputs and quadrant,
  each with a report and a checkpoint, and a wide lstm H64 (small and
  wide recurrent matrix products can round differently, so each size
  gets its own run);
- ``evaluate`` of each of the six alone with ``--steps-csv`` and
  ``--duration-cap`` (``rollout-<name>.*``);
- ``evaluate`` of the first five, serial and with ``--jobs 2``, with
  ``--csv``, and once with ``--noise 0``;
- ``report`` of the evaluate tables;
- ``exosim`` of every controller;
- ``evaluate`` of quadrant on each of a fixed list of corruptions of one
  generated file (``MALFORMED``, ``malformed_argv``), each expected to
  exit 1; its stderr is kept as ``malformed/<name>.stderr``.

Only ``wall_time_s`` in the train reports, a clock reading, is masked.
Every differing file is printed with its first differing number, and every
file found in one tree only, and the exit status is 1 on any difference, 0
when every file matches.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CONTROLLERS = ("vector", "mlp", "lstm", "lstm6", "quadrant")
TRAIN = {
    "vector": ["--family", "vector", "--vector-iterations", "600"],
    "mlp": ["--family", "mlp", "--hidden", "8", "--epochs", "20", "--lr", "0.01"],
    "lstm": ["--family", "lstm", "--hidden", "2", "--epochs", "4", "--lr", "0.01"],
    "lstm6": ["--family", "lstm", "--hidden", "3", "--epochs", "4", "--lr", "0.01", "--lstm-input", "6"],
    "quadrant": ["--family", "quadrant"],
    "lstm64": ["--family", "lstm", "--hidden", "64", "--epochs", "2", "--lr", "0.01"],
}
CONFIGS = [f"{name}.json" for name in CONTROLLERS]
TRAINED = (*CONTROLLERS, "lstm64")  # trained, evaluated alone and run in exosim


def pipeline():
    """The CLI commands, in order; paths are relative to the output tree."""
    steps = [["generate", "--task", "all", "--participants", "6", "--seed", "1",
              "--duration", "6", "--out", "data"],
             ["generate", "--task", "all", "--participants", "3", "--trials-per-task", "2",
              "--rate", "45", "--duration", "3", "--seed", "2", "--out", "data45"],
             ["generate", "--task", "all", "--participants", "1", "--duration", "12",
              "--rate", "200", "--out", "data200"]]
    for name in TRAINED:
        steps.append(["train", *TRAIN[name], "--data", "data", "--seed", "0", "--name", name,
                      "--out", f"{name}.json", "--report", f"{name}.report.json"])
    for name in TRAINED:
        steps.append(["evaluate", "--controllers", f"{name}.json", "--data", "data", "--seed", "3",
                      "--duration-cap", "4", "--out", f"rollout-{name}.json",
                      "--steps-csv", f"rollout-{name}.steps.csv"])
    steps += [
        ["evaluate", "--controllers", *CONFIGS, "--data", "data", "--seed", "3",
         "--out", "table.json", "--csv", "table.csv"],
        ["evaluate", "--controllers", *CONFIGS, "--data", "data", "--seed", "3", "--jobs", "2",
         "--out", "table-jobs2.json", "--csv", "table-jobs2.csv"],
        ["evaluate", "--controllers", *CONFIGS, "--data", "data", "--seed", "5", "--noise", "0",
         "--out", "table-quiet.json", "--csv", "table-quiet.csv"],
        ["report", "--results", "table.json", "table-jobs2.json", "table-quiet.json",
         "--out", "report"],
    ]
    for name in TRAINED:
        steps.append(["exosim", "--controller", f"{name}.json", "--ticks", "300", "--seed", "2",
                      "--out", f"exosim-{name}.csv"])
    return steps


# Corruptions of MALFORMED_SOURCE, one file each: per edit, the 0-based
# line, the key, and the raw JSON text its value becomes (None deletes the
# key; a key of None replaces the whole line). Line 0 is the header. The
# files are written with surrogateescape, so "\udcff" is the byte 0xff.
MALFORMED_SOURCE = "data45/p000_linear-pursuit_t00.jsonl"
MALFORMED = {
    "missing-key": [(3, "rd", None)],
    "missing-t": [(4, "t", None)],
    "string-number": [(3, "t", '"0.1"')],
    "bool-number": [(4, "head_pos", "[true, 0.0, 0.0]")],
    "null": [(5, "ld", "[0.0, null, 1.0]")],
    "overflow": [(6, "ro", "[0.0, 1e999, 0.0]")],
    "off-unit-gaze": [(7, "ld", "[0.0, 0.0, 0.9]")],
    "non-monotonic-t": [(9, "t", "0.0")],
    "later-json-error": [(12, "t", "0.0"), (30, None, '{"t": 1.0, "head_pos": [0.0,')],
    "participant-1.7": [(0, "participant", "1.7")],
    "valid-string": [(8, "valid", '"false"')],
    "non-utf8": [(40, "valid", 'true, "\udcff": 0')],
}


def malformed_argv(name):
    """The command run on corruption ``name``, expected to exit 1."""
    return ["evaluate", "--controllers", "quadrant.json", "--data", f"malformed/{name}.jsonl",
            "--seed", "3", "--out", f"malformed/{name}.table.json"]


def corrupted(lines, edits):
    lines = list(lines)
    for i, key, text in edits:
        if key is None:
            lines[i] = text
            continue
        row = json.loads(lines[i])
        if text is None:
            del row[key]
            lines[i] = json.dumps(row)
        else:
            row[key] = "@"
            lines[i] = json.dumps(row).replace('"@"', text)
    return lines


def run(argv, out, env, tree, status=0):
    proc = subprocess.run([sys.executable, "-m", "gazehead", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    if proc.returncode != status:
        raise SystemExit(f"{tree.name}: gazehead {' '.join(argv)} exited {proc.returncode}, "
                         f"not {status}:\n{proc.stderr}")
    return proc.stderr


def run_pipeline(tree: Path, out: Path):
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for argv in pipeline():
        run(argv, out, env, tree)
    bad = out / "malformed"
    bad.mkdir()
    source = (out / MALFORMED_SOURCE).read_text(encoding="utf-8").splitlines()
    for name, edits in MALFORMED.items():
        (bad / f"{name}.jsonl").write_text("\n".join(corrupted(source, edits)) + "\n",
                                           encoding="utf-8", errors="surrogateescape")
        stderr = run(malformed_argv(name), out, env, tree, status=1)
        (bad / f"{name}.stderr").write_text(stderr, encoding="utf-8")


_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]+')
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|nan|-?inf")


def _masked(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name.endswith(".report.json"):
        data = _WALL_TIME.sub(b'"wall_time_s": <masked>', data)
    return data


def _first_difference(a: bytes, b: bytes) -> str:
    """The first differing number of two files, or their first differing
    line when the numbers agree."""
    for x, y in zip(_NUMBER.finditer(a), _NUMBER.finditer(b)):
        if x.group() != y.group():
            line = a.count(b"\n", 0, x.start()) + 1
            return f"line {line}: {x.group().decode()} != {y.group().decode()}"
    for line, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {line}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    return f"lengths differ: {len(a)} != {len(b)} bytes"


def compare(parent: Path, change: Path) -> int:
    """Print each differing file with its first difference, and each file
    of one tree only; returns the number of such files."""
    files = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    other = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    only = sorted(files ^ other)
    for f in only:
        print(f"only in one tree: {f}")
    differ = []
    for f in sorted(files & other):
        a, b = _masked(parent / f), _masked(change / f)
        if a != b:
            differ.append(f)
            print(f"differs: {f}: {_first_difference(a, b)}")
    print(f"{len(files & other)} files compared, {len(differ)} differ, {len(only)} only in one tree")
    return len(differ) + len(only)


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("change", nargs="?", default="HEAD", help="git revision to check (default HEAD)")
    args = parser.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent).strip())
    with tempfile.TemporaryDirectory(prefix="gazehead-parity-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": (args.parent, tmp / "parent"), "change": (args.change, tmp / "change")}
        try:
            for rev, tree in trees.values():
                git("worktree", "add", "--detach", str(tree), rev, cwd=root)
            for side, (rev, tree) in trees.items():
                print(f"{side}: {git('rev-parse', '--short', rev, cwd=root).strip()}", flush=True)
                run_pipeline(tree, tmp / f"out-{side}")
        finally:
            for _, tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree), cwd=root)
            git("worktree", "prune", cwd=root)
        return 1 if compare(tmp / "out-parent", tmp / "out-change") else 0


if __name__ == "__main__":
    sys.exit(main())
