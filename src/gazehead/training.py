"""Teacher-forced fitting of the vector, MLP, and LSTM controllers.

Targets are the per-step head angle deltas (radians) extracted from
consecutive head directions. The loss everywhere is the mean over steps
and both components of the squared residual, so a residual (p, q) counts
(p^2 + q^2) / 2. Inputs are always ground truth; predictions never feed
back into the input stream.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .controllers import (
    Controller,
    LstmController,
    MlpController,
    QuadrantController,
    VectorAxisParams,
    VectorController,
    VectorParams,
    combined_inputs,
    gaze_angles,
)
from .dataset import Trajectory, downsample
from .geometry import dirs_to_pitch_yaw, head_rotations, to_head_frame
from .nn import AdamState, DenseNet, LstmNet, adam_step

# Decoupled (AdamW) decay of an LSTM's head-direction input columns, its last
# three: each Adam step scales them by 1 - learning_rate * HEAD_DECAY, so the
# fit leans less on the one input that a rollout imputes from its own output.
HEAD_DECAY = 1.0


def head_deltas(traj: Trajectory):
    """(T-1, 2) per-step (dpitch, dyaw) in radians from head directions.

    Yaw is unwrapped first, so a head crossing +/-180 degrees moves by its
    small true step rather than by about 360 degrees.
    """
    pitch, yaw = dirs_to_pitch_yaw(traj.head_dir)
    return np.column_stack([np.diff(pitch), np.diff(np.unwrap(yaw))])


def net_inputs(traj: Trajectory):
    """(T-1, 9) network inputs: head-relative left/right gaze directions
    plus the world-frame head direction. The gaze goes into the head frame
    as in a rollout, by ``to_head_frame`` of the ``head_rotations`` at the
    recorded head angles."""
    head, left, right = traj.head_dir[:-1], traj.left_dir[:-1], traj.right_dir[:-1]
    rot = head_rotations(np.column_stack(dirs_to_pitch_yaw(head)))
    return np.concatenate([to_head_frame(rot, left), to_head_frame(rot, right), head], axis=1)


def dataset_loss(controller: Controller, trajs) -> float:
    """Step-weighted mean teacher-forced MSE over a trajectory list.

    The controller predicts every trajectory in one ``predict`` call. Its
    inputs come solely from the trajectories, so a prediction can never
    leak into the next input; they are built as ``predict`` takes them, so
    a family that predicts one trajectory at a time holds one at a time.
    """
    trajs = list(trajs)
    preds = controller.predict(map(net_inputs, trajs), [1.0 / t.rate_hz for t in trajs])
    total = 0.0
    steps = 0
    for traj, pred in zip(trajs, preds):
        resid = pred - head_deltas(traj)
        total += float(np.sum(resid**2))
        steps += resid.size
    return total / steps


def zero_baseline_loss(trajs) -> float:
    """dataset_loss of a controller that always predicts zero, without
    building its inputs: a zero prediction leaves residual -d, and
    (-d)**2 == d**2 exactly."""
    total = 0.0
    steps = 0
    for traj in trajs:
        deltas = head_deltas(traj)
        total += float(np.sum(deltas**2))
        steps += deltas.size
    return total / steps


def _common_rate(trajs) -> float:
    """The one sample rate of a training set: a fit learns per-tick deltas."""
    rates = sorted({traj.rate_hz for traj in trajs})
    if len(rates) > 1:
        raise ValueError(f"training set mixes sample rates ({', '.join(f'{r:g}' for r in rates)} Hz)")
    return rates[0]


FAMILIES = ("quadrant", "vector", "mlp", "lstm")


@dataclass
class TrainConfig:
    family: str = "mlp"  # one of FAMILIES
    hidden: tuple = (8,)  # mlp hidden sizes, or (H,) for lstm
    learning_rate: float = 1e-3
    epochs: int = 50
    seed: int = 0
    lstm_downsample: int = 2
    lstm_input: int = 9
    vector_iterations: int = 3000
    vector_learning_rate: float = 0.05
    name: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {', '.join(FAMILIES)}, got {self.family!r}")
        for key in ("learning_rate", "vector_learning_rate"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and value > 0 and math.isfinite(value)):
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
        for key in ("epochs", "vector_iterations", "lstm_downsample"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if not all(isinstance(h, numbers.Integral) and h >= 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be integers >= 1, got {self.hidden!r}")
        if self.family == "lstm" and len(self.hidden) != 1:
            raise ValueError(f"an lstm has exactly one hidden size, got {self.hidden!r}")
        if self.lstm_input not in (6, 9):
            raise ValueError(f"lstm_input must be 6 or 9, got {self.lstm_input!r}")

    def resolved_name(self):
        if self.name:
            return self.name
        if self.family == "mlp":
            return "mlp-" + "_".join(str(h) for h in self.hidden)
        if self.family == "lstm":
            return f"lstm-h{self.hidden[0]}"
        return self.family


@dataclass
class TrainReport:
    config: dict
    train_mse: list = field(default_factory=list)
    test_mse: float | None = None
    zero_baseline_test_mse: float | None = None
    wall_time_s: float = 0.0
    epochs_run: int = 0
    trajectory_lengths: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def _fit_net(config: TrainConfig, trajs, build_net, prep):
    """Adam over full-trajectory batches on RMS-normalized targets, for
    exactly ``config.epochs`` epochs.

    There is no early stopping: the epoch loss is a mean over
    per-trajectory Adam steps and moves by several percent from one epoch
    to the next while its trend still falls, so a stop rule on it fires on
    that noise rather than on convergence.

    Training on targets scaled to unit RMS keeps the residuals on the same
    footing as the freshly initialized outputs; afterwards the scale is
    folded back into the linear output head, so the returned net emits raw
    per-tick deltas. Reported losses are converted back to radians^2.
    An LSTM's head-direction input columns decay by HEAD_DECAY.
    """
    net = build_net()
    params = net.params()
    state = AdamState(learning_rate=config.learning_rate)
    head = slice(net.input_size - 3, net.input_size) if net.kind == "lstm" else None
    keep = 1.0 - config.learning_rate * HEAD_DECAY
    prepared = [prep(t) for t in trajs]
    lengths = [x.shape[0] + 1 for x, _ in prepared]
    rms = math.sqrt(float(np.mean(np.concatenate([d for _, d in prepared]) ** 2)))
    scale = 1.0 / rms if rms > 0 else 1.0
    report_losses = []
    for _ in range(config.epochs):
        epoch_losses = []
        for x, d in prepared:
            loss, grads = net.sequence_loss_grads(x, d * scale)
            epoch_losses.append(loss)
            params, state = adam_step(params, grads, state)
            if head is not None:
                params["w"][:, head] *= keep
            net.set_params(params)
        report_losses.append(float(np.mean(epoch_losses)) / scale**2)
    if net.kind == "dense":
        net.weights[-1] = net.weights[-1] / scale
        net.biases[-1] = net.biases[-1] / scale
    else:
        net.w_out = net.w_out / scale
        net.b_out = net.b_out / scale
    return net, report_losses, lengths


def vector_axis_grad(theta, x, d, k):
    """Gradient of the symmetric law's loss mean((k*h - d)**2) with respect
    to theta = (v, alpha, b, c), where a = exp(alpha) and, for u = |x - c|
    with sign s and E = exp(a*(b - u)) clipped to exp(+-700),
      h = s*v*u / D,  D = 1 + E
      dh/dv = s*u/D
      dh/da = -s*v*u*E*(b-u)/D^2
      dh/db = -s*v*u*E*a/D^2
      dh/dc = -v*(1/D + u*a*E/D^2)
    and dh/dalpha = a * dh/da.

    Each product the gradients share (x - c, s*v*u, s*v*u*E, b - u, D^2) is
    formed once, in the left-to-right order of the formulas above, and the
    sign of -s*v*u*E rides on the coefficient: a negation is exact, so the
    bits are those of each formula evaluated on its own.
    """
    v, alpha, b, c = theta
    a = math.exp(alpha)
    s = np.subtract(x, c)
    u = np.abs(s)
    np.sign(s, out=s)
    b_u = np.subtract(b, u)
    e = np.multiply(a, b_u)
    np.clip(e, -700.0, 700.0, out=e)
    np.exp(e, out=e)
    dd = np.add(1.0, e)
    dd2 = np.square(dd)
    svu = np.multiply(s, v)
    svu *= u
    coeff = np.divide(svu, dd)  # h, then k*h - d, then the loss's d/dh, 2k(k*h - d)/n
    coeff *= k
    coeff -= d
    coeff *= 2.0 * k
    coeff /= coeff.size
    s *= u  # coeff * dh/dv
    s /= dd
    s *= coeff
    svu *= e
    b_u *= svu  # -dh/da, times -coeff below
    b_u /= dd2
    svu *= a  # -dh/db, times -coeff below
    svu /= dd2
    u *= a  # coeff * dh/dc, in dd
    u *= e
    u /= dd2
    np.divide(1.0, dd, out=dd)
    dd += u
    dd *= -v
    dd *= coeff
    np.negative(coeff, out=coeff)
    b_u *= coeff
    svu *= coeff
    return np.array([np.sum(s), float(np.sum(b_u)) * a, np.sum(svu), np.sum(dd)])


def fit_vector_axis(x_deg, target_rad, dt, iterations, learning_rate):
    """Fit one (v, a, b, c) quadruple by full-batch Adam on the symmetric
    law, as one Adam parameter theta = (v, alpha, b, c). ``a`` is optimized
    as exp(alpha) so it stays positive."""
    x = np.asarray(x_deg, dtype=float)
    d = np.asarray(target_rad, dtype=float)
    k = dt * math.pi / 180.0  # deg/s -> radians per step
    params = {"theta": np.array([1.0, math.log(0.5), 8.0, 0.0])}
    state = AdamState(learning_rate=learning_rate)
    for _ in range(iterations):
        grads = {"theta": vector_axis_grad(params["theta"], x, d, k)}
        params, state = adam_step(params, grads, state)
    v, alpha, b, c = params["theta"].tolist()
    return VectorAxisParams(v=v, a=math.exp(alpha), b=b, c=c)


def fit_vector_params(trajs, iterations, learning_rate) -> VectorParams:
    """Fit independent pitch/yaw quadruples on pooled trajectory data."""
    dt = 1.0 / _common_rate(trajs)
    x = np.concatenate([np.array(gaze_angles(net_inputs(traj))) for traj in trajs])
    d = np.concatenate([head_deltas(traj) for traj in trajs])
    pitch = fit_vector_axis(x[:, 0], d[:, 0], dt, iterations, learning_rate)
    yaw = fit_vector_axis(x[:, 1], d[:, 1], dt, iterations, learning_rate)
    return VectorParams(pitch=pitch, yaw=yaw, symmetric=True)


def fit(config: TrainConfig, train_trajs, test_trajs=()):
    """Train one controller; returns (controller, TrainReport).

    Deterministic for a given config seed. The training set must have one
    sample rate. LSTM training consumes the trajectories downsampled by
    config.lstm_downsample; the controller's train_rate_hz records that
    slower rate, and a rollout steps it once per that many samples.
    """
    if not train_trajs:
        raise ValueError("empty training set")
    rate = _common_rate(train_trajs)
    step = config.lstm_downsample if config.family == "lstm" else 1
    for traj in (*train_trajs, *test_trajs):
        n = math.ceil(len(traj) / step)  # len(downsample(traj, step))
        if n < 2:
            raise ValueError(f"participant {traj.participant_id} {traj.task.value}: {n} samples at "
                             f"{traj.rate_hz / step:g} Hz, fewer than the 2 a fit needs")
    t0 = time.perf_counter()
    name = config.resolved_name()
    report = TrainReport(config=asdict(config))

    if config.family == "quadrant":
        # nothing to optimize; the report still carries its teacher-forced loss
        controller = QuadrantController(name=name)
    elif config.family == "vector":
        params = fit_vector_params(
            train_trajs, config.vector_iterations, config.vector_learning_rate
        )
        controller = VectorController(params, name=name)
    elif config.family == "mlp":
        # network output is the per-tick delta at the data rate, so the
        # targets are the raw per-step deltas
        net, report.train_mse, report.trajectory_lengths = _fit_net(
            config,
            train_trajs,
            lambda: DenseNet([9, *config.hidden, 2], seed=config.seed),
            lambda traj: (net_inputs(traj), head_deltas(traj)),
        )
        controller = MlpController(net, train_rate_hz=rate, name=name)
    elif config.family == "lstm":
        slow = [downsample(t, config.lstm_downsample) for t in train_trajs]

        def prep(traj):
            x = net_inputs(traj)
            return (combined_inputs(x) if config.lstm_input == 6 else x), head_deltas(traj)

        net, report.train_mse, report.trajectory_lengths = _fit_net(
            config,
            slow,
            lambda: LstmNet(config.lstm_input, config.hidden[0], seed=config.seed),
            prep,
        )
        controller = LstmController(net, train_rate_hz=slow[0].rate_hz, name=name)
    else:
        raise ValueError(f"unknown family {config.family!r}")
    if config.family in ("quadrant", "vector"):
        report.train_mse = [dataset_loss(controller, train_trajs)]
        report.trajectory_lengths = [len(t) for t in train_trajs]

    report.epochs_run = len(report.train_mse)
    if not all(np.isfinite(report.train_mse)):
        bad = next(i for i, v in enumerate(report.train_mse) if not np.isfinite(v))
        raise FloatingPointError(f"training diverged at epoch {bad}")
    if test_trajs:
        eval_set = (
            [downsample(t, config.lstm_downsample) for t in test_trajs]
            if config.family == "lstm"
            else list(test_trajs)
        )
        report.test_mse = dataset_loss(controller, eval_set)
        report.zero_baseline_test_mse = zero_baseline_loss(eval_set)
    report.wall_time_s = time.perf_counter() - t0
    return controller, report
