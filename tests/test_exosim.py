import math

import numpy as np
import pytest

from gazehead.controllers import Controller, QuadrantController
from gazehead.exosim import EmaFilter, ExoLimits, ExoSim, clamp_with_slide, limit_velocity
from oracles import ZeroController

LIMITS = ExoLimits()


class RawController(Controller):
    """Emits a scripted (possibly hostile) command stream in radians."""

    family = "raw"

    def __init__(self, commands):
        super().__init__("raw")
        self.commands = commands
        self.i = 0

    def step(self, left_dir, right_dir, head_dir, dt):
        cmd = self.commands[self.i % len(self.commands)]
        self.i += 1
        return self._guard(float(cmd[0]), float(cmd[1]))


def test_ema_fixed_point():
    f = EmaFilter(0.1)
    f.update(3.0)
    for _ in range(100):
        assert f.update(3.0) == 3.0


def test_ema_step_response_closed_form():
    f = EmaFilter(0.1)
    f.update(0.0)  # seed at 0
    y = 0.0
    for k in range(1, 101):
        y = f.update(1.0)
        assert abs(y - (1.0 - 0.9**k)) < 1e-12
    f10 = EmaFilter(0.1)
    f10.update(0.0)
    for _ in range(10):
        out = f10.update(1.0)
    assert abs(out - 0.6513216) < 1e-7


def test_ema_alpha_one_passthrough():
    f = EmaFilter(1.0)
    f.update(5.0)
    assert f.update(-2.5) == -2.5


def test_ema_contraction():
    rng = np.random.default_rng(3)
    a, b = EmaFilter(0.1), EmaFilter(0.1)
    a.update(10.0)
    b.update(-4.0)
    gap = abs(a.state - b.state)
    for x in rng.normal(size=50):
        a.update(x)
        b.update(x)
        new_gap = abs(a.state - b.state)
        assert abs(new_gap - 0.9 * gap) < 1e-12
        gap = new_gap


def test_clamp_examples():
    assert clamp_with_slide(30.0, 10.0, LIMITS) == (25.0, 10.0)
    assert clamp_with_slide(0.0, 0.0, LIMITS) == (0.0, 0.0)
    assert clamp_with_slide(-10.0, -45.0, LIMITS) == (-3.0, -30.0)


def test_limit_velocity_below_cap_passes():
    p, y = limit_velocity(0.0, 0.0, 0.5, 0.0, 0.02, LIMITS)
    assert (p, y) == (0.5, 0.0)


def test_limit_velocity_caps_to_one_rad_per_s():
    p, y = limit_velocity(0.0, 0.0, 5.0, 0.0, 0.02, LIMITS)
    cap_deg = math.degrees(0.02)  # 1 rad/s * 0.02 s
    assert abs(p - cap_deg) < 1e-12
    assert y == 0.0
    # direction preserved for a diagonal request
    p, y = limit_velocity(0.0, 0.0, 3.0, 4.0, 0.02, LIMITS)
    assert abs(math.hypot(p, y) - cap_deg) < 1e-12
    assert abs(p / y - 3.0 / 4.0) < 1e-12


def test_limit_velocity_zero_step():
    assert limit_velocity(1.0, -2.0, 1.0, -2.0, 0.02, LIMITS) == (1.0, -2.0)


def test_zero_controller_holds_pose():
    sim = ExoSim(ZeroController())
    stream = [(5.0, 5.0)] * 400
    log = sim.run(stream)
    assert len(log) == 100
    assert all(row[1] == 0.0 and row[2] == 0.0 for row in log)


def test_quadrant_sweeps_to_yaw_boundary_then_holds():
    sim = ExoSim(QuadrantController())
    # constant large rightward gaze, far outside the deadzone
    stream = [(0.0, 40.0)] * (200 * 4)
    log = sim.run(stream)
    dt = 1.0 / 50.0
    for i, row in enumerate(log):
        t, pitch, yaw, _, ysat = row
        assert pitch == 0.0
        expect = min(20.0 * (i + 1) * dt, 30.0)
        assert abs(yaw - expect) < 1e-9
    assert log[-1][2] == 30.0
    assert log[-1][4]  # yaw saturation flagged at the boundary


def test_fuzz_pose_never_leaves_workspace():
    rng = np.random.default_rng(11)
    commands = np.column_stack(
        [rng.uniform(-3, 3, 100_000), rng.uniform(-3, 3, 100_000)]
    )
    # sprinkle hostile values
    commands[::997] = [float("nan"), 1e9]
    commands[::1231] = [float("inf"), -float("inf")]
    sim = ExoSim(RawController(commands))
    cap = LIMITS.max_speed * sim.tick_dt
    prev = (0.0, 0.0)
    stream = [(0.0, 0.0)] * 4
    for _ in range(100_000):
        state = sim.tick(stream)
        assert LIMITS.extension_max <= state.pitch <= LIMITS.flexion_max
        assert -LIMITS.yaw_limit <= state.yaw <= LIMITS.yaw_limit
        assert state.roll == 0.0
        step = math.hypot(
            math.radians(state.pitch - prev[0]), math.radians(state.yaw - prev[1])
        )
        assert step <= cap + 1e-12
        prev = (state.pitch, state.yaw)


def test_faulted_controller_holds_and_flags():
    sim = ExoSim(RawController([(float("nan"), 0.0)]))
    state = sim.tick([(0.0, 10.0)] * 4)
    assert state.pitch == 0.0 and state.yaw == 0.0
    assert state.controller_faulted


def test_exosim_determinism():
    rng = np.random.default_rng(5)
    stream = [(float(p), float(y)) for p, y in rng.normal(0, 20, size=(400, 2))]
    log1 = ExoSim(QuadrantController()).run(stream)
    log2 = ExoSim(QuadrantController()).run(stream)
    assert log1 == log2


def test_limits_validation():
    with pytest.raises(ValueError):
        ExoLimits(flexion_max=-5.0, extension_max=0.0)
    with pytest.raises(ValueError):
        EmaFilter(0.0)
