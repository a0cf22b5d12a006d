import dataclasses
import math
import re

import numpy as np
import pytest

from gazehead.controllers import (
    Controller,
    MlpController,
    QuadrantController,
    VectorAxisParams,
    VectorController,
    VectorParams,
    symmetric_control_law,
)
from gazehead.dataset import COLUMNS, Task, TaskConfig, downsample, generate_participant, generate_task
from gazehead.geometry import dirs_to_pitch_yaw, head_rotation, pitch_yaw_to_dir, vec3
from gazehead import training
from gazehead.nn import DenseNet, LstmNet
from gazehead.training import (
    HEAD_DECAY,
    TrainConfig,
    dataset_loss,
    fit,
    fit_vector_axis,
    fit_vector_params,
    head_deltas,
    net_inputs,
    vector_axis_grad,
    zero_baseline_loss,
)
from oracles import ZeroController, lstm_predict_loop, make_trajectory, rel_err, vector_axis_grad_np


def static_head_traj(n=50, rate=90.0):
    return make_trajectory(np.arange(n) / rate, vec3(0, 0, 1), rate_hz=rate)


def constant_delta_traj(dpitch, dyaw, n=50, rate=90.0):
    d = [pitch_yaw_to_dir(i * dpitch, i * dyaw) for i in range(n)]
    return make_trajectory(np.arange(n) / rate, d, head_dir=d, rate_hz=rate)


def test_perfect_model_scores_zero():
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=2.0), seed=0)
    deltas = head_deltas(traj)

    class Exact(Controller):
        family = "exact"

        def __init__(self):
            super().__init__()
            self.i = 0

        def step(self, *args):
            d = deltas[self.i]
            self.i += 1
            return float(d[0]), float(d[1])

    exact = Exact()
    pred = np.array([exact.step(None, None, None, 1 / 90) for _ in range(len(deltas))])
    assert np.mean((pred - deltas) ** 2) == 0.0


def test_zero_model_on_static_head_is_zero():
    assert dataset_loss(ZeroController(), [static_head_traj()]) == 0.0


def test_zero_model_constant_delta_closed_form():
    dpitch, dyaw = 2e-3, -1e-3
    traj = constant_delta_traj(dpitch, dyaw)
    loss = dataset_loss(ZeroController(), [traj])
    expect = (dpitch**2 + dyaw**2) / 2.0
    assert abs(loss - expect) < 1e-12


def test_one_sample_trajectory_adds_no_steps_to_the_loss():
    # a 1-sample trajectory has no steps: every family predicts (0, 2)
    # commands for it, and the loss is that of the other trajectories
    traj = constant_delta_traj(2e-3, -1e-3)
    single = make_trajectory(np.zeros(1), vec3(0, 0, 1))
    net = DenseNet([9, 2], seed=1)
    for controller in (QuadrantController(), VectorController(VectorParams(
            pitch=VectorAxisParams(1.0, 0.5, 8.0, 0.0), yaw=VectorAxisParams(1.0, 0.5, 8.0, 0.0))),
            MlpController(net)):
        assert [p.shape for p in controller.predict([net_inputs(single)], [1 / 90])] == [(0, 2)]
        assert dataset_loss(controller, [traj, single]) == dataset_loss(controller, [traj])


def test_teacher_forcing_inputs_ignore_predictions():
    # the evaluator must feed ground truth regardless of what the model
    # emits: a wild controller and a zero controller see identical inputs
    _, traj = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=1)

    seen = []

    class Probe(MlpController):
        def __init__(self, scale):
            net = DenseNet([9, 2])
            for p in net.params().values():
                p[...] = 0.0
            super().__init__(net)
            self.scale = scale

        def step(self, left_dir, right_dir, head_dir, dt):
            seen.append(np.concatenate([left_dir, right_dir, head_dir]))
            return self.scale, self.scale

    # both go through the same precomputed-input path
    x = net_inputs(traj)
    [a] = MlpController(DenseNet([9, 2], seed=1)).predict([x], [1 / 90])
    [b] = ZeroController().predict([x], [1 / 90])
    assert a.shape == b.shape == (len(traj) - 1, 2)
    # inputs are derived from the trajectory alone
    x2 = net_inputs(traj)
    assert np.array_equal(x, x2)


def test_head_deltas_unwrap_yaw_across_180():
    # a head turning left through 180 degrees: yaw 179.5 -> -179.0 is a
    # +1.5 degree step, not -358.5
    yaws = [math.radians(v) for v in (178.0, 179.5, -179.0, -177.5)]
    head = [pitch_yaw_to_dir(0.0, yaw) for yaw in yaws]
    deltas = head_deltas(make_trajectory(np.arange(4) / 90.0, vec3(0, 0, 1), head_dir=head))
    assert np.allclose(deltas[:, 1], math.radians(1.5), atol=1e-12)
    assert np.allclose(deltas[:, 0], 0.0, atol=1e-12)


def test_head_deltas_match_generator_law():
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=3.0), seed=2)
    deltas = head_deltas(traj)
    assert deltas.shape == (len(traj) - 1, 2)
    assert np.max(np.abs(deltas)) < math.radians(3.0)  # sane per-frame motion


def test_fit_vector_axis_gradients_match_finite_differences():
    rng = np.random.default_rng(83)
    x = rng.uniform(-40, 40, size=400)
    dt = 1 / 90
    true = VectorAxisParams(0.9, 0.6, 5.0, 0.5)
    d = np.array([symmetric_control_law(true, xi) for xi in x]) * dt * math.pi / 180

    def loss_at(theta):
        v, alpha, b, c = theta
        p = VectorAxisParams(v, math.exp(alpha), b, c)
        h = np.array([symmetric_control_law(p, xi) for xi in x])
        return float(np.mean((h * dt * math.pi / 180 - d) ** 2))

    # the gradient that fit_vector_axis steps on, over (v, alpha, b, c)
    theta = np.array([1.1, math.log(0.4), 6.0, -0.5])
    grad = vector_axis_grad(theta, x, d, dt * math.pi / 180)
    h_step = 1e-5
    for idx in range(4):
        up, down = theta.copy(), theta.copy()
        up[idx] += h_step
        down[idx] -= h_step
        numeric = (loss_at(up) - loss_at(down)) / (2 * h_step)
        assert rel_err(grad[idx], numeric) < 1e-4


@pytest.mark.parametrize("theta, clips", [
    ((1.1, math.log(0.4), 6.0, -0.5), (False, False)),
    ((0.9, math.log(120.0), 8.0, 0.5), (True, True)),  # +700 near c, -700 far from it
    ((-0.7, math.log(30.0), -3.0, 2.0), (True, False)),  # b < 0: -700 far from c
])
def test_vector_axis_grad_has_the_bits_of_each_formula_on_its_own(theta, clips):
    # elements with x == c have s = 0; where a*(b - u) clips, D**2 overflows
    rng = np.random.default_rng(89)
    c = theta[3]
    x = np.concatenate([rng.uniform(-40, 40, size=300), np.full(7, c), c + rng.uniform(-0.05, 0.05, 20)])
    d = rng.normal(0, 0.01, size=x.size)
    t = math.exp(theta[1]) * (theta[2] - np.abs(x - c))
    assert np.any(x == c)
    assert (bool(np.any(t < -700.0)), bool(np.any(t > 700.0))) == clips  # (clips at -700, at +700)
    k = math.pi / 180 / 90
    with np.errstate(over="ignore"):
        got = vector_axis_grad(np.array(theta), x, d, k)
        expect = vector_axis_grad_np(np.array(theta), x, d, k)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == expect.tobytes()


def test_fit_vector_recovers_known_quadruple():
    rng = np.random.default_rng(97)
    true = VectorAxisParams(v=0.8, a=0.5, b=6.0, c=1.0)
    x = rng.uniform(-40, 40, size=4000)
    dt = 1 / 90
    clean = np.array([symmetric_control_law(true, xi) for xi in x])
    d = (clean + rng.normal(0, 0.02, size=x.size)) * dt * math.pi / 180
    fitted = fit_vector_axis(x, d, dt, iterations=4000, learning_rate=0.05)
    grid = np.linspace(0.0, 40.0, 400)
    h_true = np.array([symmetric_control_law(true, g) for g in grid])
    h_fit = np.array([symmetric_control_law(fitted, g) for g in grid])
    rms_err = math.sqrt(np.mean((h_fit - h_true) ** 2))
    rms_true = math.sqrt(np.mean(h_true**2))
    assert rms_err < 0.02 * rms_true


def test_fit_vector_flat_on_zero_deltas():
    rng = np.random.default_rng(103)
    x = rng.uniform(-30, 30, size=1000)
    d = np.zeros_like(x)
    fitted = fit_vector_axis(x, d, 1 / 90, iterations=1500, learning_rate=0.05)
    grid = np.linspace(-40, 40, 200)
    h = np.array([symmetric_control_law(fitted, g) for g in grid])
    assert np.max(np.abs(h)) < 1e-3


def make_dataset(n_participants, duration, seed0=0):
    from gazehead.dataset import generate_participant

    trajs = []
    for pid in range(n_participants):
        trajs.extend(
            generate_participant(
                pid, [Task.LINEAR_PURSUIT], 1, TaskConfig(duration=duration), seed=seed0
            )
        )
    return trajs


def test_fit_mlp_improves_over_zero_baseline():
    trajs = make_dataset(6, duration=15.0, seed0=100)
    train, test = trajs[:4], trajs[4:]
    config = TrainConfig(family="mlp", hidden=(16, 16), epochs=300, learning_rate=1e-2, seed=0)
    controller, report = fit(config, train, test)
    assert report.test_mse is not None
    assert report.test_mse <= 0.1 * report.zero_baseline_test_mse
    assert report.epochs_run == len(report.train_mse)



def test_fit_runs_every_configured_epoch():
    # the criterion-6 training set of seed 0, where a stop rule on the noisy
    # per-epoch loss once ended the fit at epoch 87 of 250
    config = TaskConfig(duration=12.0, motor_noise_rms=0.0)
    train = [
        traj
        for pid in range(4)
        for traj in generate_participant(pid, [Task.LINEAR_PURSUIT], 1, config, seed=1000)
    ]
    train_config = TrainConfig(family="mlp", hidden=(16, 16), epochs=250, learning_rate=1e-2, seed=0)
    _, report = fit(train_config, train)
    assert report.epochs_run == 250

def test_fit_vector_improves_over_zero_baseline():
    trajs = make_dataset(3, duration=8.0)
    train, test = trajs[:2], trajs[2:]
    controller, report = fit(TrainConfig(family="vector"), train, test)
    assert report.test_mse <= 0.1 * report.zero_baseline_test_mse


def test_zero_baseline_equals_zero_controller_loss_exactly():
    trajs = make_dataset(3, duration=4.0)
    slow = [downsample(t, 2) for t in trajs]
    for group in (trajs, slow):
        assert zero_baseline_loss(group) == dataset_loss(ZeroController(), group)
    _, report = fit(TrainConfig(family="vector", vector_iterations=50), trajs[:2], trajs[2:])
    assert report.zero_baseline_test_mse == dataset_loss(ZeroController(), trajs[2:])


def test_fit_same_seed_is_bitwise_identical():
    trajs = make_dataset(2, duration=4.0)
    config = TrainConfig(family="mlp", hidden=(16, 16), epochs=10, seed=7)
    c1, _ = fit(config, trajs)
    c2, _ = fit(config, trajs)
    for k, v in c1.net.params().items():
        assert np.array_equal(c2.net.params()[k], v)


def test_fit_lstm_consumes_downsampled_lengths():
    _, traj = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=90.0), seed=3)
    assert len(traj) == 8100
    config = TrainConfig(family="lstm", hidden=(2,), epochs=1, seed=0)
    controller, report = fit(config, [traj])
    # 8100-sample input halves to 4050; the fitted sequence is one shorter
    assert report.trajectory_lengths == [4050]
    assert controller.train_rate_hz == 45.0


@pytest.mark.parametrize("lstm_input", [9, 6])
def test_lstm_fit_decays_only_the_head_direction_columns(monkeypatch, lstm_input):
    # with Adam's own update taken out, each step scales the last three
    # input columns of w, the head direction, and leaves every other weight
    monkeypatch.setattr(training, "adam_step", lambda params, grads, state: (
        {k: v.copy() for k, v in params.items()}, state))
    trajs = make_dataset(2, duration=2.0)
    config = TrainConfig(family="lstm", hidden=(4,), epochs=3, learning_rate=0.01, seed=5,
                         lstm_input=lstm_input)
    controller, _ = fit(config, trajs)
    expect = LstmNet(lstm_input, 4, seed=5).w
    head = expect[:, lstm_input - 3 : lstm_input]
    for _ in range(config.epochs * len(trajs)):
        head *= 1.0 - config.learning_rate * HEAD_DECAY
    assert controller.net.w.tobytes() == expect.tobytes()


@pytest.mark.parametrize("fields, reason", [
    ({"family": "gru"}, "family must be one of quadrant, vector, mlp, lstm, got 'gru'"),
    ({"learning_rate": -0.01}, "learning_rate must be positive and finite, got -0.01"),
    ({"learning_rate": 0.0}, "learning_rate must be positive and finite, got 0.0"),
    ({"learning_rate": math.inf}, "learning_rate must be positive and finite, got inf"),
    ({"vector_learning_rate": math.nan}, "vector_learning_rate must be positive and finite, got nan"),
    ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    ({"epochs": 2.5}, "epochs must be an integer >= 1, got 2.5"),
    ({"vector_iterations": 0}, "vector_iterations must be an integer >= 1, got 0"),
    ({"family": "lstm", "lstm_downsample": 0}, "lstm_downsample must be an integer >= 1, got 0"),
    ({"family": "lstm", "hidden": (0,)}, "hidden sizes must be integers >= 1, got (0,)"),
    ({"hidden": (16, -1)}, "hidden sizes must be integers >= 1, got (16, -1)"),
    ({"hidden": (8.0,)}, "hidden sizes must be integers >= 1, got (8.0,)"),
    ({"family": "lstm", "hidden": (4, 4)}, "an lstm has exactly one hidden size, got (4, 4)"),
    ({"family": "lstm", "hidden": ()}, "an lstm has exactly one hidden size, got ()"),
    ({"lstm_input": 7}, "lstm_input must be 6 or 9, got 7"),
], ids=["family", "negative-lr", "zero-lr", "inf-lr", "nan-vector-lr", "zero-epochs", "fractional-epochs",
        "zero-vector-iterations", "zero-downsample", "zero-lstm-hidden", "negative-mlp-hidden",
        "float-hidden", "two-lstm-hidden", "no-lstm-hidden", "lstm-input"])
def test_train_config_rejects_a_bad_value(fields, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        TrainConfig(**fields)


def test_fit_rejects_empty_training_set():
    with pytest.raises(ValueError):
        fit(TrainConfig(family="mlp"), [])


def test_fit_rejects_mixed_sample_rates():
    _, fast = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0), seed=1)
    _, slow = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=1.0, rate_hz=60.0), seed=2)
    for family in ("quadrant", "vector", "mlp", "lstm"):
        with pytest.raises(ValueError, match=r"60, 90 Hz"):
            fit(TrainConfig(family=family, epochs=1, vector_iterations=1), [fast, slow])
    with pytest.raises(ValueError, match=r"60, 90 Hz"):
        fit_vector_params([fast, slow], iterations=1, learning_rate=0.05)


@pytest.mark.parametrize("family, samples, rate", [
    ("quadrant", 1, "90"), ("vector", 1, "90"), ("mlp", 1, "90"), ("lstm", 2, "45"),
])
@pytest.mark.parametrize("side", ["train", "test"])
def test_fit_rejects_a_trajectory_too_short_to_learn_from(family, samples, rate, side):
    # 2 samples are one sample at the LSTM's downsampled 45 Hz
    short = make_trajectory(np.arange(samples) / 90.0, vec3(0, 0, 1), participant_id=7,
                            task=Task.ARC_PURSUIT)
    train, test = [static_head_traj()], [static_head_traj()]
    (train if side == "train" else test).append(short)
    config = TrainConfig(family=family, epochs=1, vector_iterations=1)
    with pytest.raises(ValueError, match=rf"^participant 7 arc-pursuit: 1 samples at {rate} Hz, "
                                         "fewer than the 2 a fit needs$"):
        fit(config, train, test)


def test_controller_without_predict_is_a_type_error():
    class Bare(Controller):
        family = "bare"

    with pytest.raises(TypeError, match="Bare"):
        dataset_loss(Bare(), [static_head_traj()])


def test_quadrant_training_report_is_teacher_forced_loss():
    trajs = make_dataset(1, duration=4.0)
    controller, report = fit(TrainConfig(family="quadrant"), trajs, trajs)
    assert report.test_mse == pytest.approx(dataset_loss(controller, trajs))


@pytest.mark.parametrize("lstm_input", [9, 6])
def test_lstm_dataset_loss_sums_the_per_trajectory_step_loop_in_order(lstm_input):
    # held-out trajectories of unequal lengths, one of a single sample,
    # predicted in one lockstep pass: the loss must be the per-trajectory
    # step loop's residuals summed in trajectory order
    trajs = [generate_task(task, TaskConfig(duration=d), seed=k)[1]
             for k, (task, d) in enumerate(zip(Task, (1.0, 0.4, 0.7, 1.3)))]
    trajs.insert(2, dataclasses.replace(trajs[0], **{c: getattr(trajs[0], c)[:2] for c in COLUMNS}))
    config = TrainConfig(family="lstm", hidden=(3,), epochs=1, lstm_input=lstm_input)
    controller, _ = fit(config, trajs[:1])
    slow = [downsample(t, 2) for t in trajs]
    assert [len(t) for t in slow] == [45, 18, 1, 32, 59]
    expect = 0.0
    for traj, pred in zip(slow, lstm_predict_loop(controller, map(net_inputs, slow), [1 / 45] * 5)):
        expect += float(np.sum((pred - head_deltas(traj)) ** 2))
    assert dataset_loss(controller, slow) == expect / (2 * sum(len(t) - 1 for t in slow))


@pytest.mark.parametrize("step", [1, 2])
def test_net_inputs_put_the_gaze_in_the_head_frame_as_a_rollout_does(step):
    # each row is lockstep's one-row product at the recorded head angles
    config = TaskConfig(duration=2.0, motor_noise_rms=20.0, motor_noise_tau=0.5)
    for task in Task:
        _, traj = generate_task(task, config, seed=13)
        traj = downsample(traj, step)
        x = net_inputs(traj)
        pitch, yaw = dirs_to_pitch_yaw(traj.head_dir)
        for t, (p, y) in enumerate(zip(pitch[:-1].tolist(), yaw[:-1].tolist())):
            rot = head_rotation(p, y)
            assert x[t, 0:3].tobytes() == (rot.T @ traj.left_dir[t]).tobytes()
            assert x[t, 3:6].tobytes() == (rot.T @ traj.right_dir[t]).tobytes()
            assert x[t, 6:9].tobytes() == traj.head_dir[t].tobytes()


@pytest.mark.parametrize("duration", [2.0, 2.0 + 1 / 90, 30.0])
def test_downsampled_views_give_the_bits_of_contiguous_copies(duration):
    # downsample returns strided views, which the LSTM path feeds to
    # net_inputs and head_deltas; they must give the bits of contiguous
    # copies of the same rows
    config = TaskConfig(duration=duration, motor_noise_rms=20.0, motor_noise_tau=0.5)
    for task in Task:
        _, traj = generate_task(task, config, seed=11)
        slow = downsample(traj, TrainConfig().lstm_downsample)
        assert not slow.head_dir.flags.c_contiguous
        copy = dataclasses.replace(slow, **{c: np.ascontiguousarray(getattr(slow, c)) for c in COLUMNS})
        assert net_inputs(slow).tobytes() == net_inputs(copy).tobytes()
        assert head_deltas(slow).tobytes() == head_deltas(copy).tobytes()
