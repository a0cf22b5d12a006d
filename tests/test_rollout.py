import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazehead.controllers import (
    Controller,
    LstmController,
    MlpController,
    QuadrantController,
    VectorAxisParams,
    VectorController,
    VectorParams,
)
from gazehead.dataset import COLUMNS, Task, TaskConfig, generate_task
from gazehead import rollout as rollout_module
from gazehead.geometry import (
    focal_points,
    head_rotation,
    head_rotations,
    normalize,
    normalize_rows,
    to_head_frame,
    vec3,
)
from gazehead.rollout import (
    EvalTable,
    RolloutConfig,
    evaluate_suite,
    lockstep,
    precompute_focal_points,
    rollout,
)
from gazehead.nn import DenseNet, LstmNet
from gazehead.training import TrainConfig, fit, head_deltas
import oracles
from oracles import (
    ReplayController,
    StepRowsMixin,
    ZeroController,
    focal_point_scalar,
    focal_points_loop,
    make_trajectory,
    rollout_loop,
)

QUIET = RolloutConfig(noise_sigma_deg=0.0, seed=1)


class FaultyController(StepRowsMixin, Controller):
    family = "faulty"

    def __init__(self, fail_at):
        super().__init__("faulty")
        self.fail_at = fail_at
        self.i = 0

    def reset_rows(self, rows):
        super().reset_rows(rows)
        self.i = 0

    def step(self, left_dir, right_dir, head_dir, dt):
        self.i += 1
        if self.i >= self.fail_at:
            return self._guard(float("nan"), 0.0)
        return 0.0, 0.0


def converged_traj(n=20):
    return make_trajectory(np.arange(n) / 90.0, normalize(vec3(0.03, 0, 2)), normalize(vec3(-0.03, 0, 2)))


def test_focal_points_constant_for_converged_eyes():
    points = precompute_focal_points(converged_traj())
    assert points.shape == (20, 3)
    assert np.allclose(points, [0, 0, 2], atol=1e-9)


def test_focal_points_match_generator_targets():
    track, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=2.0), seed=5)
    points = precompute_focal_points(oracle)
    assert len(points) == len(oracle)
    assert np.max(np.linalg.norm(points - track.pos, axis=1)) < 1e-6


def test_focal_points_degenerate_first_sample_raises():
    traj = converged_traj(5)
    traj.left_dir[:] = vec3(0, 0, 1)
    traj.right_dir[:] = vec3(0, 0, 1)
    with pytest.raises(ValueError):
        precompute_focal_points(traj)


def test_focal_points_inherit_previous_on_degenerate():
    traj = converged_traj(5)
    traj.left_dir[3] = vec3(0, 0, 1)
    traj.right_dir[3] = vec3(0, 0, 1)
    points = precompute_focal_points(traj)
    assert np.array_equal(points[3], points[2])


def test_replay_controller_tracks_exactly():
    _, oracle = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=2.0), seed=7)
    replay = ReplayController(head_deltas(oracle))
    result = rollout(replay, oracle, QUIET)
    assert result.mse < 1e-12
    assert not result.faulted


def test_zero_controller_closed_form():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=2.0), seed=8)
    result = rollout(ZeroController(), oracle, QUIET)
    dirs = oracle.head_dir
    expect = float(np.mean(np.sum((dirs[0] - dirs) ** 2, axis=1)))
    assert abs(result.mse - expect) < 1e-12


def test_rollout_noise_free_determinism():
    _, oracle = generate_task(Task.RAPID_SEARCH, TaskConfig(duration=2.0), seed=9)
    ctrl = QuadrantController()
    a = rollout(ctrl, oracle, QUIET)
    b = rollout(ctrl, oracle, QUIET)
    assert np.array_equal(a.step_errors, b.step_errors)
    _, errors = rollout_loop(ctrl, oracle, 0.0, 1, 1)
    assert a.step_errors.tobytes() == errors.tobytes()


def test_rollout_noisy_determinism_same_seed():
    from gazehead.controllers import VectorAxisParams, VectorController, VectorParams

    _, oracle = generate_task(Task.RAPID_SEARCH, TaskConfig(duration=2.0), seed=9)
    axis = VectorAxisParams(v=2.0, a=0.5, b=8.0, c=0.0)
    config = RolloutConfig(noise_sigma_deg=0.5, seed=33)
    a = rollout(VectorController(VectorParams(axis, axis)), oracle, config)
    b = rollout(VectorController(VectorParams(axis, axis)), oracle, config)
    assert np.array_equal(a.step_errors, b.step_errors)
    _, errors = rollout_loop(VectorController(VectorParams(axis, axis)), oracle, 0.5, 33, 1)
    assert a.step_errors.tobytes() == errors.tobytes()
    c = rollout(
        VectorController(VectorParams(axis, axis)),
        oracle,
        RolloutConfig(noise_sigma_deg=0.5, seed=34),
    )
    assert not np.array_equal(a.step_errors, c.step_errors)


def test_rollout_mse_is_mean_of_steps():
    _, oracle = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=2)
    result = rollout(QuadrantController(), oracle, QUIET)
    assert abs(result.mse - np.mean(result.step_errors)) < 1e-12
    assert np.all(result.step_errors >= 0)
    assert np.all(result.step_errors <= 4.0)


def test_simulated_eyes_hit_focal_point_without_noise():
    # with zero noise and a convergent trajectory, the virtual eye rays
    # pass through the focal point before any controller action
    traj = converged_traj(5)
    points = precompute_focal_points(traj)
    left_origin = vec3(-0.03, 0, 0)
    aimed = normalize(points[0] - left_origin)
    w = points[0] - left_origin
    miss = np.linalg.norm(w - (w @ aimed) * aimed)
    assert miss < 1e-9


def test_faulted_rollout_is_flagged_with_partial_errors():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=3)
    result = rollout(FaultyController(fail_at=10), oracle, QUIET)
    assert result.faulted
    assert len(result.step_errors) == len(oracle)


def test_duration_cap():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=2.0), seed=4)
    config = RolloutConfig(noise_sigma_deg=0.0, seed=0, duration_cap_s=1.0)
    result = rollout(ZeroController(), oracle, config)
    assert len(result.step_errors) == 90


def test_duration_cap_below_one_sample_is_an_error():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=4)
    config = RolloutConfig(noise_sigma_deg=0.0, seed=0, duration_cap_s=0.005)
    with pytest.raises(ValueError, match="keeps no sample"):
        rollout(ZeroController(), oracle, config)


def test_evaluate_suite_single_matches_rollout():
    _, oracle = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=6)
    table = evaluate_suite({"quadrant": QuadrantController()}, [oracle], QUIET)
    direct = rollout(QuadrantController(), oracle, QUIET)
    agg = table.aggregate()
    assert agg["quadrant"]["arc-pursuit"]["mse"] == pytest.approx(direct.mse)
    assert agg["quadrant"]["overall"]["mse"] == pytest.approx(direct.mse)


def test_evaluate_suite_controllers_are_independent():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=6)
    solo = evaluate_suite({"quadrant": QuadrantController()}, [oracle], QUIET)
    both = evaluate_suite(
        {"quadrant": QuadrantController(), "zero": ZeroController()}, [oracle], QUIET
    )
    assert solo.aggregate()["quadrant"] == both.aggregate()["quadrant"]


def test_evaluate_suite_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_suite({}, [], QUIET)


def test_eval_table_json_shape():
    _, a = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=1)
    _, b = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=1)
    table = evaluate_suite({"zero": ZeroController()}, [a, b], QUIET)
    payload = table.to_json()
    assert set(payload["aggregate"]["zero"]) == {"linear-pursuit", "arc-pursuit", "overall"}
    assert len(payload["trajectories"]) == 2
    steps = sum(r["steps"] for r in payload["trajectories"])
    assert payload["aggregate"]["zero"]["overall"]["steps"] == steps


def test_lstm_rollout_ticks_at_its_trained_rate():
    # an LSTM fitted on 90 Hz data downsampled 3x is a 30 Hz controller:
    # it is stepped every third sample, with three sample periods as dt
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=2)
    controller, _ = fit(TrainConfig(family="lstm", hidden=(2,), epochs=1, lstm_downsample=3), [traj])
    assert controller.train_rate_hz == 30.0
    dts = []
    inner = controller.step_rows

    def recording(x, dt, rows):
        dts.extend(dt.tolist())
        return inner(x, dt, rows)

    controller.step_rows = recording
    result = rollout(controller, traj, QUIET)
    n = len(traj)
    assert dts == [(1.0 / traj.rate_hz) * 3] * len(range(0, n - 1, 3))
    _, errors = rollout_loop(controller, traj, 0.0, 1, 3)
    assert result.step_errors.tobytes() == errors.tobytes()


def test_stateful_rate_ratio_must_be_whole():
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=2)
    controller = LstmController(LstmNet(9, 2, seed=0), train_rate_hz=40.0)
    with pytest.raises(ValueError, match=r"40 Hz.*90 Hz"):
        rollout(controller, traj, QUIET)


def test_evaluate_suite_rows_carry_step_errors():
    _, oracle = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=6)
    table = evaluate_suite({"quadrant": QuadrantController()}, [oracle], QUIET)
    _, errors = rollout_loop(QuadrantController(), oracle, 0.0, 1, 1)
    (row,) = table.rows
    assert row.step_errors.tobytes() == errors.tobytes()
    assert row.steps == len(errors) and row.mse == float(np.mean(errors))
    assert "step_errors" not in table.to_json()["trajectories"][0]


def degenerate_interior_traj():
    """A 2 s trajectory whose sample 40 has parallel gaze, so it inherits
    the focal point of sample 39."""
    _, traj = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=2.0), seed=12)
    traj.participant_id = 3
    traj.right_dir[40] = traj.left_dir[40]
    return traj


def parity_controllers():
    axis = VectorAxisParams(v=2.0, a=0.5, b=8.0, c=0.0)
    return [
        (QuadrantController(), 1),
        (VectorController(VectorParams(axis, axis)), 1),
        (MlpController(DenseNet([9, 8, 2], seed=4)), 1),
        (LstmController(LstmNet(9, 3, seed=5), train_rate_hz=45.0), 2),
    ]


def test_precompute_focal_points_matches_per_sample_loop_bitwise():
    traj = degenerate_interior_traj()
    points = precompute_focal_points(traj)
    assert np.array_equal(points[40], points[39])
    assert points.tobytes() == focal_points_loop(traj).tobytes()


@pytest.mark.parametrize("sigma", [0.5, 0.0])
def test_rollout_matches_step_loop_oracle_bitwise(sigma):
    traj = degenerate_interior_traj()
    config = RolloutConfig(noise_sigma_deg=sigma, seed=21, duration_cap_s=1.5)
    for controller, every in parity_controllers():
        result = rollout(controller, traj, config)
        _, errors = rollout_loop(controller, traj, sigma, 21, every, n=135)
        assert len(errors) == 135
        assert result.step_errors.tobytes() == errors.tobytes(), controller.name


def truncated(traj, n):
    return dataclasses.replace(traj, **{c: getattr(traj, c)[:n] for c in COLUMNS})


@functools.cache
def property_pool():
    """Trajectories of unequal length, task, participant and rate; the
    first has parallel gaze at sample 40."""
    pool = [degenerate_interior_traj()]
    for pid, (task, rate) in enumerate(
        [(Task.LINEAR_PURSUIT, 90.0), (Task.RAPID_SEARCH, 90.0), (Task.RAPID_AVOIDANCE, 45.0)]
    ):
        _, traj = generate_task(task, TaskConfig(duration=1.4, rate_hz=rate), seed=30 + pid)
        traj.participant_id = 5 + pid
        pool.append(traj)
    return pool


def mixed_controller(kind, seed):
    axis = VectorAxisParams(v=2.0, a=0.5, b=8.0, c=0.0)
    if kind == "quadrant":
        return QuadrantController()
    if kind == "vector":
        return VectorController(VectorParams(axis, axis))
    if kind == "mlp":
        return MlpController(DenseNet([9, 8, 2], seed=seed))
    if kind == "lstm":  # 9 inputs, every second 90 Hz sample
        return LstmController(LstmNet(9, 3, seed=seed), train_rate_hz=45.0)
    return LstmController(LstmNet(6, 2, seed=seed), train_rate_hz=45.0)


def oracle_rows(controllers, trajs, sigma, seed, cap):
    """rollout_loop of every (controller, trajectory) row, controller-major."""
    rows = []
    for controller in controllers:
        for traj in trajs:
            every = round(traj.rate_hz / controller.train_rate_hz) if controller.stateful else 1
            n = len(traj) if cap is None else min(len(traj), int(cap * traj.rate_hz))
            rows.append(rollout_loop(controller, traj, sigma, seed, every, n=n))
    return rows


def assert_rows_equal(errors, oracle):
    assert len(errors) == len(oracle)
    for row, (_, expected) in zip(errors, oracle):
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lockstep_matches_step_loop_oracle_bitwise(data):
    pool = property_pool()
    kinds = data.draw(st.lists(st.sampled_from(["quadrant", "vector", "mlp", "lstm", "lstm6"]),
                               min_size=1, max_size=5))
    trajs = [truncated(pool[0], data.draw(st.integers(42, len(pool[0]))))]
    for index in data.draw(st.lists(st.integers(1, len(pool) - 1), max_size=3)):
        trajs.append(truncated(pool[index], data.draw(st.integers(1, len(pool[index])))))
    order = data.draw(st.permutations(range(len(trajs))))
    trajs = [trajs[i] for i in order]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(trajs) - 1), max_size=len(trajs) - 1))
                  if len(trajs) > 1 else [])
    cap = data.draw(st.one_of(st.none(), st.floats(0.05, 1.5)))
    sigma = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    seed = data.draw(st.integers(0, 2**16))
    controllers = [mixed_controller(kind, seed=k) for k, kind in enumerate(kinds)]
    config = RolloutConfig(noise_sigma_deg=sigma, seed=seed, duration_cap_s=cap)
    for lo, hi in zip([0, *cuts], [*cuts, len(trajs)]):
        errors, _ = lockstep(controllers, trajs[lo:hi], config)
        assert_rows_equal(errors, oracle_rows(controllers, trajs[lo:hi], sigma, seed, cap))


class ScriptedRng:
    """Serves normal(loc, scale), normal(size=3) and standard_normal(n)
    from one fixed stream of standard normals."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def _next(self, count):
        out = self.values[self.used : self.used + count]
        assert len(out) == count, "scripted stream ran out"
        self.used += count
        return out

    def standard_normal(self, size):
        return self._next(size).copy()

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return loc + scale * float(self._next(1)[0])
        return loc + scale * self._next(size)


def oracle_aims(controller, traj, sigma, every, values, monkeypatch):
    """The unit eye directions that rollout_loop perturbs, in draw order."""
    aims = []
    perturb = oracles.perturb_np

    def recording(direction, sigma_rad, rng):
        aims.append(direction.copy())
        return perturb(direction, sigma_rad, rng)

    with monkeypatch.context() as m:
        m.setattr(oracles, "perturb_np", recording)
        rollout_loop(controller, traj, sigma, 0, every, rng=ScriptedRng(values))
    return aims


@pytest.mark.parametrize("eye", [0, 1, 2], ids=["left-first-step", "right-first-step", "lstm-second-step"])
def test_parallel_raw_axis_takes_the_basis_axis_and_reads_no_value(eye, monkeypatch):
    # the raw axis of the every-second-sample LSTM row's eye-th perturbation
    # (its first step's left and right eye, then its second step's left eye)
    # is scripted parallel to that eye's aim
    traj = truncated(degenerate_interior_traj(), 12)
    sigma = 0.5
    unscripted = np.random.default_rng(8).standard_normal(400)
    lstm, every = parity_controllers()[3]
    aim = oracle_aims(lstm, traj, sigma, every, unscripted, monkeypatch)[eye]

    def rows(values):
        """lockstep's rows on a scripted stream, checked against rollout_loop's."""
        monkeypatch.setattr(rollout_module, "_rollout_rng", lambda config, traj: ScriptedRng(values))
        controllers = parity_controllers()
        errors, _ = lockstep([c for c, _ in controllers], [traj], RolloutConfig(noise_sigma_deg=sigma, seed=0))
        assert_rows_equal(errors, [rollout_loop(c, traj, sigma, 0, every, rng=ScriptedRng(values))
                                   for c, every in controllers])
        return errors

    parallel, antiparallel = unscripted.copy(), unscripted.copy()
    parallel[4 * eye + 1 : 4 * eye + 4] = aim
    antiparallel[4 * eye + 1 : 4 * eye + 4] = -2.0 * aim
    scripted, flipped, free = rows(parallel), rows(antiparallel), rows(unscripted)
    # the quadrant row's thresholded commands do not move; every other row's do
    assert [a.tobytes() != b.tobytes() for a, b in zip(scripted, free)] == [False, True, True, True]
    # every row's first step aims alike; at the LSTM's second step the other
    # rows take their own second step, whose aim is not parallel; a row that
    # takes the basis axis reads nothing of its parallel draw
    for b in [3] if eye == 2 else range(4):
        assert scripted[b].tobytes() == flipped[b].tobytes()


def test_basis_axis_is_unit_and_perpendicular():
    # a raw axis equal to the direction takes d x e_k; turned a quarter turn,
    # d becomes axis x d, so d x turned recovers the unit axis
    signed = np.concatenate([np.eye(3), -np.eye(3), np.full((1, 3), 1.0 / math.sqrt(3.0))])
    d = np.concatenate([signed, normalize_rows(np.random.default_rng(3).normal(size=(50, 3)))])
    quarter = np.full((len(d), 1), math.pi / 2)
    turned = rollout_module._perturb(d, np.hstack([quarter, d]), 1.0)
    assert turned.tobytes() == rollout_module._perturb(d, np.hstack([quarter, -2.0 * d]), 1.0).tobytes()
    axis = np.cross(d, turned)
    np.testing.assert_allclose(np.linalg.norm(axis, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(axis * d, axis=1), 0.0, atol=1e-12)
    basis = np.cross(d, np.eye(3)[np.abs(d).argmin(axis=1)])
    assert np.all(np.linalg.norm(basis, axis=1) >= math.sqrt(2.0 / 3.0) - 1e-12)
    np.testing.assert_allclose(axis, basis / np.linalg.norm(basis, axis=1)[:, None], atol=1e-12)
    np.testing.assert_allclose(axis[6], [0.0, math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-12)  # ties: e_x


@pytest.mark.parametrize("rows", [1, 2, 4, 24])
def test_head_rotation_block_has_each_rows_bits(rows):
    # the (rows, 3, 3) block that lockstep and net_inputs build;
    # np.array(entries).T.reshape(-1, 3, 3) is a view that is not
    # C-contiguous when rows >= 2, and a stacked matmul over it rounds
    # differently
    rng = np.random.default_rng(rows)
    angles = np.column_stack([rng.uniform(-1.5, 1.5, rows), rng.uniform(-7.0, 7.0, rows)])
    angles[0, 0] = math.radians(89.0)  # the pitch clamp
    if rows > 1:
        angles[-1] = [-0.0, 0.0]
    v = rng.normal(size=(rows, 3))
    rot = head_rotations(angles)
    assert rot.shape == (rows, 3, 3) and rot.flags.c_contiguous
    turned = (rot @ v[:, :, None])[:, :, 0]
    back = (rot.transpose(0, 2, 1) @ v[:, :, None])[:, :, 0]
    framed = to_head_frame(rot, v)
    assert framed.shape == (rows, 3)
    for k, (pitch, yaw) in enumerate(angles.tolist()):
        one = head_rotation(pitch, yaw)
        assert rot[k].tobytes() == one.tobytes()
        assert turned[k].tobytes() == (one @ v[k]).tobytes()
        assert back[k].tobytes() == (one.T @ v[k]).tobytes()
        assert framed[k].tobytes() == (one.T @ v[k]).tobytes()


@pytest.mark.parametrize(
    "field, value",
    [("noise_sigma_deg", math.nan), ("noise_sigma_deg", math.inf), ("noise_sigma_deg", -0.5),
     ("duration_cap_s", math.nan), ("duration_cap_s", math.inf), ("duration_cap_s", -math.inf),
     ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", None)],
)
def test_rollout_config_rejects_a_negative_or_non_finite_option(field, value):
    rule = "a nonnegative integer" if field == "seed" else ".*finite"
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {re.escape(repr(value))}$"):
        RolloutConfig(**{field: value})
    RolloutConfig(noise_sigma_deg=0.0, duration_cap_s=None)
    RolloutConfig(duration_cap_s=2.5, seed=np.int64(3))


def test_lockstep_names_an_empty_trajectory():
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=4)
    traj.participant_id = 6
    for cap in (None, 1.0):
        with pytest.raises(ValueError, match="^the trajectory of participant 6 on linear-pursuit has no samples$"):
            lockstep([ZeroController()], [traj, truncated(traj, 0)], RolloutConfig(duration_cap_s=cap))


def test_batched_focal_points_match_scalar_oracle_bitwise():
    rng = np.random.default_rng(17)
    n = 400
    lo, ro = rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3))
    ld, rd = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    rd[::7] = ld[::7]  # exactly parallel rows
    rd[3::7] = -ld[3::7]  # antiparallel rows
    ld /= np.linalg.norm(ld, axis=1, keepdims=True)
    rd /= np.linalg.norm(rd, axis=1, keepdims=True)
    points, degenerate, gaps = focal_points(lo, ld, ro, rd)
    assert degenerate.sum() >= 2 * (n // 7)
    for i in range(n):
        point, gap = focal_point_scalar(lo[i], ld[i], ro[i], rd[i])
        assert degenerate[i] == (point is None)
        if point is None:
            assert np.isnan(points[i]).all() and np.isnan(gaps[i])
        else:
            assert points[i].tobytes() == point.tobytes()
            assert gaps[i] == gap


def test_focal_points_reject_non_unit_direction():
    rows = [np.zeros((2, 3)), np.array([[0, 0, 1.0], [0, 0, 1.1]]),
            np.ones((2, 3)), np.array([[0, 1.0, 0], [0, 1.0, 0]])]
    with pytest.raises(ValueError, match="unit length"):
        focal_points(*rows)
