import csv
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gazehead
from gazehead.cli import _load_dir, build_parser, main
from gazehead.controllers import QuadrantController, load_controller, save_controller
from gazehead.rollout import RolloutConfig, evaluate_suite, rollout


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_generate_file_count_follows_trial_convention(tmp_path):
    # 12 trials per participant, split across the selected tasks
    out = tmp_path / "d"
    assert run_cli(
        "generate", "--task", "linear-pursuit", "--participants", "2",
        "--seed", "7", "--duration", "1.0", "--out", out,
    ) == 0
    files = sorted(out.glob("*.jsonl"))
    assert len(files) == 24


def test_generate_all_tasks_trial_split(tmp_path):
    out = tmp_path / "d"
    run_cli("generate", "--task", "all", "--participants", "1",
            "--seed", "1", "--duration", "0.5", "--out", out)
    files = sorted(out.glob("*.jsonl"))
    assert len(files) == 12  # 3 trials x 4 tasks
    tasks = {f.name.split("_")[1] for f in files}
    assert tasks == {"linear-pursuit", "arc-pursuit", "rapid-search", "rapid-avoidance"}


def test_generate_is_bitwise_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("generate", "--task", "arc-pursuit", "--participants", "1",
                "--trials-per-task", "1", "--seed", "3", "--duration", "1.0", "--out", out)
    fa, fb = sorted(a.iterdir()), sorted(b.iterdir())
    assert [f.name for f in fa] == [f.name for f in fb]
    for x, y in zip(fa, fb):
        assert x.read_bytes() == y.read_bytes()


def test_evaluate_without_controllers_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--data", str(tmp_path), "--out", str(tmp_path / "t.json")])
    assert err.value.code == 2


def test_unknown_task_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--task", "nonsense", "--participants", "1", "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "option, value, reason",
    [
        ("--duration", "0.001", "duration 0.001 s at rate_hz 90 gives 0 frames; a trial needs at least 2"),
        ("--duration", "0.01", "duration 0.01 s at rate_hz 90 gives 1 frames; a trial needs at least 2"),
        ("--duration", "nan", "duration must be positive and finite, got nan"),
        ("--rate", "inf", "rate_hz must be positive and finite, got inf"),
    ],
    ids=["0-frames", "1-frame", "nan-duration", "inf-rate"],
)
def test_generate_names_a_trial_without_two_frames(tmp_path, capsys, option, value, reason):
    out = tmp_path / "d"
    assert run_cli("generate", "--participants", "1", option, value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("option, ids", [("--train-ids", "a"), ("--test-ids", "1,x")])
def test_a_malformed_participant_id_list_exits_2_naming_the_option(tmp_path, capsys, option, ids):
    with pytest.raises(SystemExit) as err:
        main(["train", "--family", "quadrant", "--data", str(tmp_path), option, ids,
              "--out", str(tmp_path / "q.json")])
    assert err.value.code == 2
    assert f"argument {option}: not a comma-separated list of integers: {ids!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, reason",
    [
        ("--noise", "nan", "noise_sigma_deg must be nonnegative and finite, got nan"),
        ("--noise", "inf", "noise_sigma_deg must be nonnegative and finite, got inf"),
        ("--duration-cap", "nan", "duration_cap_s must be finite, got nan"),
        ("--duration-cap", "inf", "duration_cap_s must be finite, got inf"),
        ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
    ],
    ids=["nan-noise", "inf-noise", "nan-cap", "inf-cap", "negative-seed"],
)
def test_evaluate_names_a_non_finite_rollout_option(quadrant_config, tmp_path, capsys, option, value,
                                                     reason):
    data = tmp_path / "d"
    assert run_cli("generate", "--participants", "1", "--task", "linear-pursuit", "--duration", "1",
                   "--out", data) == 0
    capsys.readouterr()
    out = tmp_path / "t.json"
    assert run_cli("evaluate", "--controllers", quadrant_config, "--data", data, option, value,
                   "--out", out) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--family", "mlp", "--epochs", "0"], "epochs must be an integer >= 1, got 0"),
        (["--family", "lstm", "--hidden", "0"], "hidden sizes must be integers >= 1, got (0,)"),
        (["--family", "lstm", "--hidden", "4,4"], "an lstm has exactly one hidden size, got (4, 4)"),
        (["--family", "mlp", "--lr", "-0.01"], "learning_rate must be positive and finite, got -0.01"),
        (["--family", "vector", "--vector-lr", "nan"], "vector_learning_rate must be positive and finite, got nan"),
        (["--family", "vector", "--vector-iterations", "0"], "vector_iterations must be an integer >= 1, got 0"),
    ],
    ids=["zero-epochs", "zero-hidden", "two-lstm-hidden", "negative-lr", "nan-vector-lr", "zero-iterations"],
)
def test_train_names_a_bad_option_before_it_reads_or_writes(tmp_path, capsys, argv, reason):
    # the data directory does not exist: the option is checked before it is read
    out = tmp_path / "m.json"
    assert run_cli("train", *argv, "--data", tmp_path / "missing", "--out", out) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def load_parity():
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_every_parity_command_parses():
    # a subcommand or option that tools/parity.py runs and the CLI lacks
    # fails here, not at the next parity run
    parity = load_parity()
    argvs = parity.pipeline() + [parity.malformed_argv(name) for name in parity.MALFORMED]
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def test_parity_names_every_differing_file(tmp_path, capsys):
    # an announced output change takes its list of changed artifacts from
    # this output, so no differing file may go unnamed
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "report").mkdir(parents=True)
        (tree / "same.csv").write_text("t,err\n0,0.5\n")
    (parent / "a.json").write_text('{"mse": 1.5}\n')
    (change / "a.json").write_text('{"mse": 1.25}\n')
    (parent / "report" / "b.csv").write_text("t,err\n0,3\n")
    (change / "report" / "b.csv").write_text("t,err\n0,4\n")
    assert load_parity().compare(parent, change) == 2
    assert capsys.readouterr().out.splitlines() == [
        "differs: a.json: line 1: 1.5 != 1.25",
        "differs: report/b.csv: line 2: 3 != 4",
        "3 files compared, 2 differ, 0 only in one tree",
    ]


def test_missing_data_dir_runtime_error(tmp_path):
    code = run_cli("train", "--family", "vector", "--data", tmp_path / "nope",
                   "--out", tmp_path / "v.json")
    assert code == 1


def test_bad_trajectory_file_is_named_in_the_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("generate", "--task", "linear-pursuit", "--participants", "2",
                   "--trials-per-task", "1", "--duration", "1.0", "--out", data) == 0
    bad = sorted(data.iterdir())[1]
    lines = bad.read_text().splitlines()
    lines[2] = re.sub(r'"t": [^,]+', '"t": NaN', lines[2])
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("train", "--family", "quadrant", "--data", data,
                   "--out", tmp_path / "q.json") == 1
    err = capsys.readouterr().err
    assert f"{bad}: line 3: non-finite number NaN" in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> train all four families -> evaluate -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run_cli("generate", "--task", "linear-pursuit", "--participants", "3",
            "--trials-per-task", "1", "--seed", "5", "--duration", "8.0", "--out", data)
    ctrls = []
    common = ["--data", data, "--train-ids", "0,1", "--test-ids", "2", "--seed", "0"]
    assert run_cli("train", "--family", "quadrant", *common,
                   "--out", root / "quadrant.json", "--report", root / "quadrant.report.json") == 0
    assert run_cli("train", "--family", "vector", "--vector-iterations", "1500", *common,
                   "--out", root / "vector.json", "--report", root / "vector.report.json") == 0
    assert run_cli("train", "--family", "mlp", "--hidden", "8", "--epochs", "120",
                   "--lr", "0.01", *common,
                   "--out", root / "mlp.json", "--report", root / "mlp.report.json") == 0
    assert run_cli("train", "--family", "lstm", "--hidden", "4", "--epochs", "40",
                   "--lr", "0.01", *common,
                   "--out", root / "lstm.json", "--report", root / "lstm.report.json") == 0
    ctrls = [root / f"{n}.json" for n in ("quadrant", "vector", "mlp", "lstm")]
    assert run_cli("evaluate", "--controllers", *ctrls, "--data", data,
                   "--seed", "11", "--out", root / "table.json", "--csv", root / "table.csv") == 0
    assert run_cli("report", "--results", root / "table.json", "--out", root / "report") == 0
    return root


def test_pipeline_emits_full_table(pipeline):
    payload = json.loads((pipeline / "table.json").read_text())
    agg = payload["aggregate"]
    assert set(agg) == {"quadrant", "vector", "mlp-8", "lstm-h4"}
    for cells in agg.values():
        assert "overall" in cells and "linear-pursuit" in cells
    assert len(payload["trajectories"]) == 4 * 3


def test_pipeline_reports_match_recomputation(pipeline):
    payload = json.loads((pipeline / "table.json").read_text())
    with open(pipeline / "report" / "summary.csv", newline="") as f:
        summary = {(r["controller"], r["task"]): r for r in csv.DictReader(f)}
    # summary means equal recomputation from the per-trajectory rows
    per_controller = {}
    for row in payload["trajectories"]:
        key = (row["controller"], row["task"])
        total, steps = per_controller.get(key, (0.0, 0))
        per_controller[key] = (total + row["mse"] * row["steps"], steps + row["steps"])
    for (controller, task), (total, steps) in per_controller.items():
        got = float(summary[(controller, task)]["mse"])
        assert abs(got - total / steps) < 1e-9


def test_pipeline_train_reports_have_test_mse(pipeline):
    for name in ("vector", "mlp", "lstm"):
        report = json.loads((pipeline / f"{name}.report.json").read_text())
        assert report["test_mse"] is not None
        assert report["zero_baseline_test_mse"] > 0
        assert report["split"] == {"train": [0, 1], "test": [2]}


def test_trained_checkpoints_are_reproducible(pipeline, tmp_path):
    again = tmp_path / "mlp2.json"
    run_cli("train", "--family", "mlp", "--hidden", "8", "--epochs", "120",
            "--lr", "0.01", "--data", pipeline / "data", "--train-ids", "0,1",
            "--test-ids", "2", "--seed", "0", "--out", again)
    first = (pipeline / "mlp.ckpt.json").read_text()
    second = (tmp_path / "mlp2.ckpt.json").read_text()
    assert json.loads(first)["params"] == json.loads(second)["params"]


def test_evaluate_jobs_matches_serial(pipeline, tmp_path):
    out = tmp_path / "parallel.json"
    run_cli("evaluate", "--controllers", pipeline / "quadrant.json", pipeline / "vector.json",
            "--data", pipeline / "data", "--seed", "11", "--jobs", "2", "--out", out)
    serial = json.loads((pipeline / "table.json").read_text())
    parallel = json.loads(out.read_text())
    for name in ("quadrant", "vector"):
        assert parallel["aggregate"][name] == serial["aggregate"][name]


def test_evaluate_jobs_output_is_byte_identical_to_serial(pipeline, tmp_path):
    # --jobs only shards the trajectories: the table and CSV keep every byte
    ctrls = [pipeline / f"{n}.json" for n in ("quadrant", "vector", "mlp", "lstm")]
    assert run_cli("evaluate", "--controllers", *ctrls, "--data", pipeline / "data", "--seed", "11",
                   "--jobs", "2", "--out", tmp_path / "table.json", "--csv", tmp_path / "table.csv") == 0
    assert (tmp_path / "table.json").read_bytes() == (pipeline / "table.json").read_bytes()
    assert (tmp_path / "table.csv").read_bytes() == (pipeline / "table.csv").read_bytes()


def test_evaluate_steps_csv_under_a_duration_cap_keeps_its_bytes_under_jobs(pipeline, tmp_path):
    # --jobs only shards the trajectories: table, CSV and steps CSV keep
    # every byte, and each row's steps run 0..n-1 and average to its mse
    ctrls = [pipeline / "quadrant.json", pipeline / "lstm.json"]
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        assert run_cli("evaluate", "--controllers", *ctrls, "--data", pipeline / "data", "--seed", "11",
                       "--duration-cap", "5", "--jobs", jobs, "--out", out / "table.json",
                       "--csv", out / "table.csv", "--steps-csv", out / "steps.csv") == 0
        runs.append([(out / name).read_bytes() for name in ("table.json", "table.csv", "steps.csv")])
    assert runs[0] == runs[1]
    table = json.loads(runs[0][0])
    errors = {}
    with open(tmp_path / "jobs1" / "steps.csv", newline="") as f:
        for r in csv.DictReader(f):
            key = (r["controller"], r["task"], r["trajectory"])
            errors.setdefault(key, []).append((int(r["step"]), float(r["squared_error"])))
    rows = table["trajectories"]
    assert list(errors) == [(row["controller"], row["task"], row["trajectory"]) for row in rows]
    assert len(rows) == 2 * 3
    for row in rows:
        steps = errors[(row["controller"], row["task"], row["trajectory"])]
        assert row["steps"] == 5 * 90
        assert [step for step, _ in steps] == list(range(row["steps"]))
        assert float(np.mean([err for _, err in steps])) == row["mse"]


def test_rollout_steps_csv_repeats_byte_for_byte(pipeline, tmp_path):
    runs = []
    for run in ("a", "b"):
        assert run_cli("evaluate", "--controllers", pipeline / "lstm.json", "--data", pipeline / "data",
                       "--seed", "11", "--duration-cap", "5", "--out", tmp_path / f"{run}.json",
                       "--steps-csv", tmp_path / f"{run}.csv") == 0
        runs.append([(tmp_path / f"{run}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert runs[0] == runs[1]


def test_rollout_matches_evaluate(pipeline, tmp_path):
    # rollout.rollout is evaluate for one controller and one trial: same
    # row, and the step errors the steps CSV writes, bit for bit
    common = ["--data", pipeline / "data", "--seed", "11"]
    assert run_cli("evaluate", "--controllers", pipeline / "lstm.json", *common,
                   "--out", tmp_path / "evaluate.json", "--steps-csv", tmp_path / "steps.csv") == 0
    table = json.loads((tmp_path / "evaluate.json").read_text())
    errors = {}
    with open(tmp_path / "steps.csv", newline="") as f:
        for r in csv.DictReader(f):
            errors.setdefault((r["controller"], r["task"], r["trajectory"]), []).append(r["squared_error"])
    controller = load_controller(pipeline / "lstm.json")
    config = RolloutConfig(noise_sigma_deg=table["noise_sigma_deg"], seed=11)
    trajs = _load_dir(str(pipeline / "data"))
    assert len(trajs) == len(table["trajectories"]) == 3
    for traj, expected in zip(trajs, table["trajectories"]):
        # the label numbers a trial within its suite, so one trial alone is -00
        label = expected.pop("trajectory")
        row = rollout(controller, traj, config)
        assert {key: getattr(row, key) for key in expected} == expected
        assert [repr(float(err)) for err in row.step_errors] == errors[(row.controller, row.task, label)]


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_evaluate_step_errors_are_bounded_and_average_to_the_row_mse(pipeline, sigma):
    controllers = {}
    for name in ("quadrant", "vector", "mlp", "lstm"):
        controller = load_controller(pipeline / f"{name}.json")
        controllers[controller.name] = controller
    trajs = _load_dir(str(pipeline / "data"))
    table = evaluate_suite(controllers, trajs, RolloutConfig(noise_sigma_deg=sigma, seed=11))
    assert len(table.rows) == 4 * len(trajs)
    for row in table.rows:
        errors = row.step_errors
        assert np.all(np.isfinite(errors)) and errors.min() >= 0.0 and errors.max() <= 4.0
        assert len(errors) == row.steps
        assert float(np.mean(errors)) == row.mse


def test_exosim_cli_writes_pose_log(pipeline, tmp_path):
    out = tmp_path / "pose.csv"
    assert run_cli("exosim", "--controller", pipeline / "quadrant.json",
                   "--ticks", "100", "--seed", "2", "--out", out) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    for row in rows:
        assert -3.0 <= float(row["pitch_deg"]) <= 25.0
        assert abs(float(row["yaw_deg"])) <= 30.0


def test_exosim_reads_gaze_csv(pipeline, tmp_path):
    gaze = tmp_path / "gaze.csv"
    with open(gaze, "w", newline="") as f:
        writer = csv.writer(f)
        for i in range(400):
            writer.writerow([i / 200.0, 0.0, 25.0])
    out = tmp_path / "pose.csv"
    run_cli("exosim", "--controller", pipeline / "quadrant.json", "--gaze", gaze, "--out", out)
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    assert float(rows[-1][ "yaw_deg"]) > 0


@pytest.fixture
def quadrant_config(tmp_path):
    path = tmp_path / "quadrant.json"
    save_controller(QuadrantController(), path)
    return path


@pytest.mark.parametrize(
    "rows, line, reason",
    [
        ([["t", "pitch_deg", "yaw_deg"]] + [[i / 200.0, "nan", "nan"] for i in range(40)], 2,
         "pitch and yaw must be finite, got nan, nan"),
        ([[i / 200.0, 1.0, 2.0] for i in range(8)] + [[0.04, 1.0, "inf"]], 9,
         "pitch and yaw must be finite, got 1.0, inf"),
        ([[i / 200.0, 1.0, 2.0] for i in range(5)] + [[0.025, "abc", 2.0]], 6,
         "could not convert string to float: 'abc'"),
        ([[i / 200.0, 1.0, 2.0] for i in range(3)] + [["0.015"]], 4,
         "fewer than two fields (pitch_deg, yaw_deg)"),
    ],
    ids=["nan", "inf", "abc", "one-field"],
)
def test_exosim_rejects_a_bad_gaze_row(quadrant_config, tmp_path, capsys, rows, line, reason):
    gaze = tmp_path / "gaze.csv"
    with open(gaze, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    out = tmp_path / "pose.csv"
    assert run_cli("exosim", "--controller", quadrant_config, "--gaze", gaze, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {gaze}: line {line}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["ticks-0", "ticks-negative", "csv"])
def test_exosim_rejects_a_stream_shorter_than_one_tick(quadrant_config, tmp_path, capsys, source):
    if source.startswith("ticks"):
        stream = ["--ticks", "0" if source == "ticks-0" else "-3"]
        samples = 0
    else:
        gaze = tmp_path / "gaze.csv"
        gaze.write_text("t,pitch_deg,yaw_deg\n0.0,1.0,2.0\n0.005,1.0,2.0\n0.01,1.0,2.0\n")
        stream = ["--gaze", gaze]
        samples = 3
    out = tmp_path / "pose.csv"
    assert run_cli("exosim", "--controller", quadrant_config, *stream, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: gaze stream of {samples} samples is shorter than one tick (4 samples)\n"
    )
    assert not out.exists()


def test_exosim_reports_the_samples_short_of_a_tick(quadrant_config, tmp_path, capsys):
    logs = {}
    for rows in (4, 5, 7):
        gaze = tmp_path / f"gaze{rows}.csv"
        gaze.write_text("t,pitch_deg,yaw_deg\n" + "".join(f"{i / 200.0},1.0,2.0\n" for i in range(rows)))
        out = tmp_path / f"pose{rows}.csv"
        assert run_cli("exosim", "--controller", quadrant_config, "--gaze", gaze, "--out", out) == 0
        logs[rows] = out.read_bytes()
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("exosim: 1 ticks")
        dropped = [f"exosim: dropped the last {rows - 4} gaze samples, short of a whole tick "
                   "(4 samples)"]
        assert err[1:] == (dropped if rows > 4 else [])
    assert logs[5] == logs[4] == logs[7]


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"family": "vector", "params": {"yaw": {"v": 1.0, "a": 0.5, "b": 6.0, "c": 0.0}}}',
         "missing field params.pitch"),
        ('{"name": "q", "params": {}}', "missing field family"),
        ('{"family": "quadrant", "params": {"speed": "fast"}}',
         "field params.speed is not a finite number"),
        ('{"family": "quadrant", "params": {"speed": NaN}}', "field params.speed is not a finite number"),
        ("quadrant", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
        ('{"family": "vector", "params": {"symmetric": "no", '
         '"pitch": {"v": 1.0, "a": 0.5, "b": 6.0, "c": 0.0}, '
         '"yaw": {"v": 1.0, "a": 0.5, "b": 6.0, "c": 0.0}}}', "field params.symmetric is not a bool"),
    ],
    ids=["no-pitch", "no-family", "string-speed", "nan-speed", "not-json", "string-symmetric"],
)
def test_a_malformed_controller_config_is_named_with_its_field(tmp_path, capsys, text, reason):
    config = tmp_path / "controller.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "pose.csv"
    assert run_cli("exosim", "--controller", config, "--ticks", "10", "--out", out) == 1
    assert capsys.readouterr().err == f"error: {config}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"train": [0, 1]}', "missing field test"),
        ('{"train": [0, 1], "test": 2}', "field test is not a list of integer ids"),
    ],
    ids=["no-test", "test-not-a-list"],
)
def test_a_malformed_split_file_is_named_with_its_field(tmp_path, capsys, text, reason):
    data = tmp_path / "data"
    run_cli("generate", "--task", "linear-pursuit", "--participants", "3", "--trials-per-task", "1",
            "--duration", "0.5", "--out", data)
    split = tmp_path / "split.json"
    split.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("train", "--family", "quadrant", "--data", data, "--split", split,
                   "--out", tmp_path / "q.json") == 1
    assert capsys.readouterr().err == f"error: {split}: {reason}\n"


def test_report_survives_corrupt_input(pipeline, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "rep"
    assert run_cli("report", "--results", bad, pipeline / "table.json", "--out", out) == 0
    assert (out / "summary.csv").exists()
    assert run_cli("report", "--results", bad, "--out", tmp_path / "rep2") == 1


SUBCOMMANDS = ("generate", "train", "evaluate", "exosim", "report")


def _assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert "{" + ",".join(SUBCOMMANDS) + "}" in proc.stdout
    for name in SUBCOMMANDS:
        assert re.search(rf"^\s+{name}\s+\S", proc.stdout, re.MULTILINE), name


def test_console_entry_point_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    # the script an install creates is declared as gazehead.cli:main ...
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"gazehead": "gazehead.cli:main"}
    module, attr = scripts["gazehead"].split(":")
    assert getattr(importlib.import_module(module), attr) is main
    # ... and the same main runs as `python -m gazehead` without an install,
    # from any working directory
    src = str(Path(gazehead.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gazehead", "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    _assert_help_lists_subcommands(proc)


@pytest.mark.skipif(shutil.which("gazehead") is None, reason="gazehead is not installed as a script")
def test_installed_console_script_runs():
    proc = subprocess.run(["gazehead", "--help"], capture_output=True, text=True)
    _assert_help_lists_subcommands(proc)
