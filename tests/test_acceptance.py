"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end pipeline
criterion trains every controller family on a 25-participant synthetic set
and takes the longest (a few minutes); everything else is seconds.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from gazehead.cli import main as cli_main
from gazehead.controllers import (
    QuadrantParams,
    VectorAxisParams,
    quadrant_step,
    control_law,
    symmetric_control_law,
)
from gazehead.dataset import SplitSpec, Task, TaskConfig, generate_participant, split
from gazehead.exosim import EmaFilter, ExoLimits, ExoSim
from gazehead.geometry import Ray, focal_point
from gazehead.nn import DenseNet, LstmNet
from gazehead.rollout import RolloutConfig, evaluate_suite
from gazehead.training import TrainConfig, fit, fit_vector_axis
from oracles import control_law_mp, gradient_check, grid_closest_point


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion-{number}: {description}")
        raise
    print(f"PASS criterion-{number}: {description}")


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_1_focal_point_oracle_equivalence():
    with criterion(1, "focal point matches grid-search oracle within 1e-6 m in < 1 s"):
        rng = np.random.default_rng(2024)
        pairs = []
        while len(pairs) < 100:
            o1, o2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            d1, d2 = random_unit(rng), random_unit(rng)
            if abs(d1 @ d2) <= 0.95:
                pairs.append((o1, d1, o2, d2))
        start = time.perf_counter()
        for o1, d1, o2, d2 in pairs:
            fp = focal_point(Ray(o1, d1), Ray(o2, d2))
            expect, _ = grid_closest_point(o1, d1, o2, d2)
            assert not fp.degenerate
            assert np.linalg.norm(fp.point - expect) < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_gradient_fidelity():
    with criterion(2, "analytic gradients match central differences (rel err < 1e-4) in < 10 s"):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        nets = [
            DenseNet([9, 8, 2], seed=1),
            DenseNet([9, 16, 16, 2], seed=2),
            LstmNet(9, 2, seed=3),
            LstmNet(9, 16, seed=4),
        ]
        for net in nets:
            x = rng.normal(size=(10, 9))
            d = rng.normal(size=(10, 2)) * 0.1
            worst = gradient_check(net, x, d, h=1e-5)
            assert worst < 1e-4, f"{type(net).__name__}: rel err {worst:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_3_control_law_exactness():
    with criterion(3, "control law matches 50-digit oracle to 1e-12 relative; h(c)=0; asymptote"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = rng.uniform(-3, 3)
            a = rng.uniform(0.05, 3.0)
            b = rng.uniform(0, 20)
            c = rng.uniform(-15, 15)
            x = rng.uniform(-50, 50)
            p = VectorAxisParams(v, a, b, c)
            got = control_law(p, x)
            expect = control_law_mp(v, a, b, c, x)
            assert abs(got - expect) <= 1e-12 * max(abs(expect), 1e-300)
        for _ in range(100):
            p = VectorAxisParams(rng.uniform(-3, 3), rng.uniform(0.05, 3), rng.uniform(0, 20), rng.uniform(-15, 15))
            assert control_law(p, p.c) == 0.0
            assert symmetric_control_law(p, p.c) == 0.0
            x = p.c + p.b + 20.0 / p.a + rng.uniform(0, 30)
            asymptote = p.v * (x - p.c)
            assert abs(control_law(p, x) - asymptote) < 1e-6 * abs(asymptote)


def test_criterion_4_quadrant_fuzz():
    with criterion(4, "quadrant: axis-aligned, speed in {0, 20 deg/s}, silent in 5-deg deadzone"):
        rng = np.random.default_rng(13)
        params = QuadrantParams()
        dt = 1.0 / 90.0
        for _ in range(100_000):
            gp, gy = rng.uniform(-100, 100, 2)
            dp, dy = quadrant_step(params, gp, gy, dt)
            assert dp * dy == 0.0
            speed = math.hypot(dp, dy) / dt
            assert speed == 0.0 or abs(speed - 20.0) < 1e-9
            if math.hypot(gp, gy) <= 5.0:
                assert (dp, dy) == (0.0, 0.0)


@pytest.fixture(scope="module")
def pipeline():
    """Criterion-5 end-to-end run: 25 synthetic participants (1 trial per
    task, 20 s), 18/7 split, all families trained, then rolled out on the
    held-out participants."""
    start = time.perf_counter()
    config = TaskConfig(duration=20.0, motor_noise_rms=20.0, motor_noise_tau=0.5)
    trajs = []
    for pid in range(25):
        trajs.extend(generate_participant(pid, list(Task), 1, config, seed=1000))
    spec = SplitSpec(frozenset(range(18)), frozenset(range(18, 25)))
    train, test = split(trajs, spec)
    controllers, reports = {}, {}
    for train_config in (
        TrainConfig(family="quadrant", name="quadrant"),
        TrainConfig(family="vector", seed=0, name="vector"),
        TrainConfig(family="mlp", hidden=(8,), epochs=60, learning_rate=1e-2, seed=0, name="mlp"),
        TrainConfig(family="mlp", hidden=(16, 16), epochs=60, learning_rate=1e-2, seed=0, name="mlp-h16_16"),
        TrainConfig(family="lstm", hidden=(2,), epochs=20, learning_rate=1e-2, seed=0, name="lstm-h2"),
        TrainConfig(family="lstm", hidden=(128,), epochs=20, learning_rate=1e-2, seed=0, name="lstm-h128"),
    ):
        ctrl, report = fit(train_config, train, test)
        controllers[ctrl.name] = ctrl
        reports[ctrl.name] = report
    table = evaluate_suite(controllers, test, RolloutConfig(noise_sigma_deg=0.5, seed=7))
    elapsed = time.perf_counter() - start
    return reports, table.aggregate(), elapsed


def test_criterion_5_autoregressive_gap_and_ordering(pipeline):
    with criterion(5, "autoregressive MSE > teacher-forced MSE for all models; H128 > H2; < 30 min"):
        reports, aggregate, elapsed = pipeline
        for name, report in reports.items():
            ar = aggregate[name]["overall"]["mse"]
            tf = report.test_mse
            assert ar > tf, f"{name}: AR {ar:.3e} not above TF {tf:.3e}"
        h2 = aggregate["lstm-h2"]["overall"]["mse"]
        h128 = aggregate["lstm-h128"]["overall"]["mse"]
        assert h128 > h2, f"H128 {h128:.4f} not above H2 {h2:.4f}"
        assert elapsed < 1800.0, f"pipeline took {elapsed:.0f} s"
        print(
            "  [table] "
            + "  ".join(
                f"{n}: tf={reports[n].test_mse:.2e} ar={aggregate[n]['overall']['mse']:.4f}"
                for n in reports
            )
        )


def test_criterion_6_training_effectiveness():
    with criterion(6, "every family reaches <= 0.1 x zero-baseline test MSE for >= 19/20 seeds"):
        passes = {"vector": 0, "mlp": 0, "lstm": 0}
        misses = {family: [] for family in passes}
        for s in range(20):
            config = TaskConfig(duration=12.0, motor_noise_rms=0.0)
            trajs = []
            for pid in range(6):
                trajs.extend(
                    generate_participant(pid, [Task.LINEAR_PURSUIT], 1, config, seed=1000 + s)
                )
            train, test = split(trajs, SplitSpec(frozenset(range(4)), frozenset({4, 5})))
            for family, train_config in (
                ("vector", TrainConfig(family="vector", vector_iterations=1500, seed=s)),
                ("mlp", TrainConfig(family="mlp", hidden=(16, 16), epochs=250, learning_rate=1e-2, seed=s)),
                ("lstm", TrainConfig(family="lstm", hidden=(8,), epochs=150, learning_rate=1e-2, seed=s)),
            ):
                _, report = fit(train_config, train, test)
                if report.test_mse <= 0.1 * report.zero_baseline_test_mse:
                    passes[family] += 1
                else:
                    ratio = report.test_mse / report.zero_baseline_test_mse
                    misses[family].append(f"seed {s}: {ratio:.3f}")
        # one verdict after every family ran, so a shortfall in one family
        # cannot hide another
        summary = "; ".join(
            f"{family} {count}/20" + (f" (misses {', '.join(misses[family])})" if misses[family] else "")
            for family, count in passes.items()
        )
        print(f"  [seeds] {summary}")
        short = [family for family, count in passes.items() if count < 19]
        assert not short, f"below 19/20 seeds: {', '.join(short)}; {summary}"


class _HostileController:
    family = "hostile"
    stateful = False

    def __init__(self, seed):
        self.name = "hostile"
        self.faulted = False
        self.rng = np.random.default_rng(seed)

    def reset(self):
        self.faulted = False

    def step(self, left_dir, right_dir, head_dir, dt):
        roll = self.rng.uniform()
        if roll < 0.01:
            self.faulted = True
            return 0.0, 0.0
        if roll < 0.02:
            return 1e6, -1e6
        return float(self.rng.uniform(-4, 4)), float(self.rng.uniform(-4, 4))


def test_criterion_7_exoskeleton_safety_fuzz():
    with criterion(7, "1e6 hostile ticks: pose inside [-3, 25] x +/-30 deg, roll 0, rate <= 1 rad/s"):
        limits = ExoLimits()
        sim = ExoSim(_HostileController(99), limits=limits)
        cap = limits.max_speed * sim.tick_dt
        samples = [(0.0, 0.0)] * 4
        prev_pitch, prev_yaw = 0.0, 0.0
        for _ in range(1_000_000):
            state = sim.tick(samples)
            assert limits.extension_max <= state.pitch <= limits.flexion_max
            assert -limits.yaw_limit <= state.yaw <= limits.yaw_limit
            assert state.roll == 0.0
            step = math.hypot(
                math.radians(state.pitch - prev_pitch),
                math.radians(state.yaw - prev_yaw),
            )
            assert step <= cap + 1e-12
            prev_pitch, prev_yaw = state.pitch, state.yaw


def test_criterion_8_ema_closed_form():
    with criterion(8, "EMA unit-step response equals 1 - 0.9^k to 1e-12 for k <= 100"):
        ema = EmaFilter(0.1)
        ema.update(0.0)
        for k in range(1, 101):
            got = ema.update(1.0)
            assert abs(got - (1.0 - 0.9**k)) < 1e-12


def _run_once(root):
    data = root / "data"
    cli_main([
        "generate", "--task", "linear-pursuit", "--participants", "3",
        "--trials-per-task", "1", "--seed", "5", "--duration", "4.0", "--out", str(data),
    ])
    common = ["--data", str(data), "--train-ids", "0,1", "--test-ids", "2", "--seed", "0"]
    cli_main([
        "train", "--family", "mlp", "--hidden", "8", "--epochs", "15", "--lr", "0.01",
        *common, "--out", str(root / "mlp.json"), "--report", str(root / "mlp.report.json"),
    ])
    cli_main([
        "train", "--family", "vector", "--vector-iterations", "300",
        *common, "--out", str(root / "vector.json"), "--report", str(root / "vector.report.json"),
    ])
    cli_main([
        "evaluate", "--controllers", str(root / "mlp.json"), str(root / "vector.json"),
        "--data", str(data), "--seed", "11", "--out", str(root / "table.json"),
        "--csv", str(root / "table.csv"),
    ])


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "repeated seeded runs: bitwise-identical trajectories, checkpoints, tables"):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        _run_once(a)
        _run_once(b)
        files = [
            *[f"data/{p.name}" for p in sorted((a / "data").iterdir())],
            "mlp.json", "mlp.ckpt.json", "vector.json", "table.json", "table.csv",
        ]
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"


def test_criterion_10_vector_identifiability():
    with criterion(10, "fit recovers a known law within 2% RMS over the sampled range"):
        rng = np.random.default_rng(404)
        true = VectorAxisParams(v=0.8, a=0.5, b=6.0, c=1.0)
        x = rng.uniform(-40, 40, size=4000)
        dt = 1.0 / 90.0
        clean = np.array([symmetric_control_law(true, xi) for xi in x])
        targets = (clean + rng.normal(0, 0.02, size=x.size)) * dt * math.pi / 180.0
        fitted = fit_vector_axis(x, targets, dt, iterations=4000, learning_rate=0.05)
        grid = np.linspace(0.0, 40.0, 400)
        h_true = np.array([symmetric_control_law(true, g) for g in grid])
        h_fit = np.array([symmetric_control_law(fitted, g) for g in grid])
        rms_err = math.sqrt(float(np.mean((h_fit - h_true) ** 2)))
        rms_true = math.sqrt(float(np.mean(h_true**2)))
        assert rms_err < 0.02 * rms_true, f"{rms_err / rms_true:.4f} relative RMS"
