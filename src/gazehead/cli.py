"""Command-line entry point.

Subcommands: generate, train, evaluate, exosim, report. Every
subcommand is reproducible: the same flags and seed produce byte-identical
artifacts. All randomness derives from the global --seed combined with
stable job identifiers (participant, task index, trial index), so the
--jobs level never changes results. Logs go to stderr, artifacts only to
the declared output paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import dataset as ds
from .controllers import load_controller, save_controller
from .exosim import SAMPLES_PER_TICK, SENSOR_RATE_HZ, EmaFilter, ExoLimits, ExoSim
from .rollout import ROW_KEYS, EvalRow, EvalTable, RolloutConfig, evaluate_suite
from .training import FAMILIES, TrainConfig, fit

TASK_CHOICES = [t.value for t in ds.Task] + ["all"]


def log(message):
    print(message, file=sys.stderr)


def _load_dir(path):
    """All trajectories under a .jsonl file or a directory of them,
    blink-repaired, in sorted file order."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".jsonl")
        )
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no .jsonl trajectories under {path}")
    trajs = []
    for f in files:
        for traj in ds.load_trajectories(f):
            trajs.append(ds.repair_blinks(traj))
    if not trajs:
        raise ValueError(f"no samples found under {path}")
    return trajs


def _selected_tasks(name):
    if name == "all":
        return list(ds.Task)
    return [ds.Task(name)]


def cmd_generate(args):
    tasks = _selected_tasks(args.task)
    trials = args.trials_per_task or max(1, 12 // len(tasks))
    config = ds.TaskConfig(duration=args.duration, rate_hz=args.rate)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for pid in range(args.participants):
        trajs = ds.generate_participant(pid, tasks, trials, config, seed=args.seed)
        trial_index = 0
        for traj in trajs:
            name = f"p{pid:03d}_{traj.task.value}_t{trial_index % trials:02d}.jsonl"
            ds.save_trajectories(traj, os.path.join(args.out, name))
            trial_index += 1
            count += 1
    log(f"generate: wrote {count} trajectories to {args.out}")
    return 0


def _split_ids(args, trajs):
    ids = sorted({t.participant_id for t in trajs})
    if args.split:
        with open(args.split, encoding="utf-8") as f:
            try:
                return ds.SplitSpec.from_json(json.load(f))
            except ValueError as exc:
                reason = f"invalid JSON ({exc})" if isinstance(exc, json.JSONDecodeError) else exc
                raise ValueError(f"{args.split}: {reason}") from exc
    if args.train_ids or args.test_ids:
        train, test = args.train_ids, args.test_ids
        if not train:
            train = [i for i in ids if i not in set(test)]
        if not test:
            test = [i for i in ids if i not in set(train)]
        return ds.SplitSpec(frozenset(train), frozenset(test))
    # default 18/25 proportion: first 72% of participants train, rest test
    cut = max(1, round(len(ids) * 18 / 25))
    if cut == len(ids):
        cut = len(ids) - 1 if len(ids) > 1 else len(ids)
    return ds.SplitSpec(frozenset(ids[:cut]), frozenset(ids[cut:]))


def cmd_train(args):
    config = TrainConfig(
        family=args.family,
        hidden=args.hidden,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        lstm_input=args.lstm_input,
        vector_iterations=args.vector_iterations,
        vector_learning_rate=args.vector_lr,
        name=args.name,
    )
    trajs = _load_dir(args.data)
    spec = _split_ids(args, trajs)
    train, test = ds.split(trajs, spec)
    controller, report = fit(config, train, test)
    save_controller(controller, args.out, extra_config=asdict(config))
    payload = report.to_json()
    payload["split"] = spec.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    log(
        f"train: {controller.name} train_mse={report.train_mse[-1]:.3e}"
        + (f" test_mse={report.test_mse:.3e}" if report.test_mse is not None else "")
    )
    return 0


def _write_rows_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ROW_KEYS)
        for r in rows:
            writer.writerow([r.controller, r.task, r.trajectory, repr(r.mse), r.steps, int(r.faulted)])


def _write_table(path, table):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table.to_json(), f, indent=2)
        f.write("\n")


def cmd_evaluate(args):
    config = RolloutConfig(noise_sigma_deg=args.noise, seed=args.seed, duration_cap_s=args.duration_cap)
    controllers = {}
    for path in args.controllers:
        controller = load_controller(path)
        if controller.name in controllers:
            raise ValueError(f"duplicate controller name {controller.name!r}")
        controllers[controller.name] = controller
    trajs = _load_dir(args.data)
    table = evaluate_suite(controllers, trajs, config, jobs=args.jobs)
    _write_table(args.out, table)
    if args.csv:
        _write_rows_csv(args.csv, table.rows)
    if args.steps_csv:
        with open(args.steps_csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["controller", "task", "trajectory", "step", "squared_error"])
            for row in table.rows:
                for step, err in enumerate(row.step_errors):
                    writer.writerow([row.controller, row.task, row.trajectory, step, repr(float(err))])
    for name, cells in table.aggregate().items():
        log(f"evaluate: {name} overall mse={cells['overall']['mse']:.4f}")
    return 0


def _synthetic_gaze(n, seed):
    """Seeded fixate-and-jump gaze pattern at SENSOR_RATE_HZ with sensor jitter, degrees."""
    rng = np.random.default_rng([int(seed), 424242])
    out = np.empty((n, 2))
    target = np.zeros(2)
    hold = 0
    for i in range(n):
        if hold == 0:
            target = rng.uniform((-20, -35), (20, 35))
            hold = rng.integers(int(0.3 * SENSOR_RATE_HZ), int(2.0 * SENSOR_RATE_HZ))
        out[i] = target + rng.normal(0, 0.8, 2)
        hold -= 1
    return out


def _read_gaze(path):
    """(pitch_deg, yaw_deg) per data row of a gaze CSV: the last two fields
    of each row; blank rows and rows whose first field starts with ``t``
    (the header) are skipped. A row with fewer than two fields, or whose
    last two are not finite numbers, raises ValueError naming the file and
    line."""
    stream = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        for row in reader:
            if not row or row[0].startswith("t"):
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: fewer than two fields (pitch_deg, yaw_deg)")
            try:
                pitch, yaw = float(row[-2]), float(row[-1])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not (math.isfinite(pitch) and math.isfinite(yaw)):
                raise ValueError(f"{where}: pitch and yaw must be finite, got {row[-2]}, {row[-1]}")
            stream.append((pitch, yaw))
    return stream


def cmd_exosim(args):
    controller = load_controller(args.controller)
    limits = ExoLimits(
        flexion_max=args.flexion_max,
        extension_max=args.extension_max,
        yaw_limit=args.yaw_limit,
        max_speed=args.max_speed,
    )
    if args.gaze:
        stream = _read_gaze(args.gaze)
    else:
        gaze = _synthetic_gaze(max(args.ticks, 0) * SAMPLES_PER_TICK, args.seed)
        stream = [(float(p), float(y)) for p, y in gaze]
    sim = ExoSim(controller, limits=limits, alpha=args.alpha)
    pose_log = sim.run(stream)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "pitch_deg", "yaw_deg", "pitch_saturated", "yaw_saturated"])
        for t, pitch, yaw, psat, ysat in pose_log:
            writer.writerow([repr(t), repr(pitch), repr(yaw), int(psat), int(ysat)])
    log(f"exosim: {len(pose_log)} ticks, final pose=({pose_log[-1][1]:.2f}, {pose_log[-1][2]:.2f}) deg")
    if sim.dropped_samples:
        log(f"exosim: dropped the last {sim.dropped_samples} gaze samples, short of a whole tick "
            f"({SAMPLES_PER_TICK} samples)")
    return 0


def cmd_report(args):
    rows = []
    bad = []
    for path in args.results:
        try:
            with open(path, encoding="utf-8") as f:
                payload = json.load(f)
            for r in payload["trajectories"]:
                rows.append(EvalRow(*(r[key] for key in ROW_KEYS[:-1]), r.get("faulted", False)))
        except (OSError, ValueError, KeyError) as exc:
            bad.append((path, str(exc)))
    for path, reason in bad:
        log(f"report: skipping {path}: {reason}")
    if not rows:
        log("report: no usable results")
        return 1
    os.makedirs(args.out, exist_ok=True)
    table = EvalTable(rows=rows)
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["controller", "task", "mse", "steps"])
        for controller, cells in table.aggregate().items():
            for task, cell in cells.items():
                writer.writerow([controller, task, repr(cell["mse"]), cell["steps"]])
    _write_rows_csv(os.path.join(args.out, "distribution.csv"), rows)
    log(f"report: wrote summary.csv and distribution.csv to {args.out}")
    return 0


def _ints(text):
    """A comma-separated list of integers: layer sizes or participant ids."""
    try:
        return tuple(int(i) for i in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gazehead",
        description="Gaze-driven head-movement controllers: data, training, rollout evaluation, robot-loop simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize task trajectories")
    p.add_argument("--task", choices=TASK_CHOICES, default="all")
    p.add_argument("--participants", type=int, required=True)
    p.add_argument("--trials-per-task", type=int, default=0,
                   help="default keeps 12 trials per participant split across the selected tasks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=ds.TaskConfig.duration,
                   help="seconds per trial (default %(default)g)")
    p.add_argument("--rate", type=float, default=ds.TaskConfig.rate_hz,
                   help="samples per second (default %(default)g)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a controller on trajectory data")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--hidden", type=_ints, default=TrainConfig.hidden,
                   help="comma-separated hidden sizes (mlp) or H (lstm); default "
                        + ",".join(map(str, TrainConfig.hidden)))
    p.add_argument("--data", required=True)
    p.add_argument("--split", help="JSON file with train/test participant ids")
    p.add_argument("--train-ids", type=_ints, default=(), help="comma-separated participant ids")
    p.add_argument("--test-ids", type=_ints, default=())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="always run in full (no early stopping)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--lstm-input", type=int, default=TrainConfig.lstm_input, choices=[6, 9])
    p.add_argument("--vector-iterations", type=int, default=TrainConfig.vector_iterations)
    p.add_argument("--vector-lr", type=float, default=TrainConfig.vector_learning_rate)
    p.add_argument("--name", default=None)
    p.add_argument("--out", required=True, help="controller config JSON path")
    p.add_argument("--report", help="write the training report JSON here instead of stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="closed-loop MSE table of one or more controllers")
    p.add_argument("--controllers", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=RolloutConfig.noise_sigma_deg)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--duration-cap", type=float, default=None,
                   help="seconds of each trajectory to roll out (default: all)")
    p.add_argument("--out", required=True, help="table JSON path")
    p.add_argument("--csv", help="optional per-trajectory CSV")
    p.add_argument("--steps-csv", help="optional per-step squared-error CSV, controller-major")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("exosim", help="run a controller through the robot control loop")
    p.add_argument("--controller", required=True)
    p.add_argument("--gaze", help="CSV of gaze angles at the sensor rate: a header line starting "
                   "with t, then t, pitch_deg, yaw_deg rows; default: synthetic stream")
    p.add_argument("--ticks", type=int, default=500, help="synthetic stream length in control ticks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flexion-max", type=float, default=ExoLimits.flexion_max,
                   help="forward pitch limit, deg")
    p.add_argument("--extension-max", type=float, default=ExoLimits.extension_max,
                   help="backward pitch limit, deg")
    p.add_argument("--yaw-limit", type=float, default=ExoLimits.yaw_limit, help="side-to-side limit, deg")
    p.add_argument("--max-speed", type=float, default=ExoLimits.max_speed, help="rad/s")
    p.add_argument("--alpha", type=float, default=EmaFilter.alpha, help="EMA smoothing factor")
    p.add_argument("--out", required=True, help="pose log CSV path")
    p.set_defaults(func=cmd_exosim)

    p = sub.add_parser("report", help="summarize evaluation results")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit 1 with diagnostic
        log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
