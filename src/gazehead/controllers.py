"""Gaze-to-head-motion controllers behind one stepping interface.

Every controller maps head-relative gaze (left/right eye unit directions)
plus the world-frame head direction to a per-tick (delta pitch, delta yaw)
command in radians, one row at a time (``step``) or for many independent
rows at once (``step_rows``, with the same bits per row). Four families:

- quadrant: axis-aligned constant-speed motion outside a circular deadzone.
- vector: a per-axis sigmoid-gated velocity law with a soft deadzone.
- mlp: dense network emitting per-tick angle deltas.
- lstm: recurrent network, stateful across a rollout, stepped at its
  trained rate.

The angle-level laws (quadrant_step, vector_step, control_law) work in
degrees and degrees/second; the Controller classes convert to radians.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .geometry import dir_to_pitch_yaw, normalize, normalize_rows
from .nn import DenseNet, LstmNet, load_checkpoint, save_checkpoint

_EXP_MAX = 700.0  # exp() overflow guard; beyond this the law is exactly 0


@dataclass
class QuadrantParams:
    deadzone_diameter: float = 10.0  # degrees
    speed: float = 20.0  # degrees/second

    def __post_init__(self):
        if self.deadzone_diameter <= 0 or self.speed <= 0:
            raise ValueError("quadrant parameters must be positive")


@dataclass
class VectorAxisParams:
    """One (v, a, b, c) quadruple of the sigmoid-gated velocity law."""

    v: float  # linear asymptote slope, (deg/s) per deg
    a: float  # inflection sharpness, 1/deg; must be > 0
    b: float  # inflection offset from c, deg
    c: float  # shift of the whole law, deg

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("sharpness a must be positive")


@dataclass
class VectorParams:
    pitch: VectorAxisParams
    yaw: VectorAxisParams
    symmetric: bool = True


def control_law(p: VectorAxisParams, x: float) -> float:
    """Velocity (deg/s) at gaze angle x (deg): v*(x-c) gated by a sigmoid.

    The sigmoid switches on around x = c + b with sharpness a, which makes
    a soft deadzone near c and a linear asymptote v*(x-c) far from it.
    """
    u = x - p.c
    t = p.a * (-u + p.b)
    if t > _EXP_MAX:
        return 0.0
    return p.v * u / (1.0 + math.exp(t))


def symmetric_control_law(p: VectorAxisParams, x: float) -> float:
    """control_law applied to |x-c| with the sign of x-c restored, so one
    quadruple covers both gaze directions."""
    u = x - p.c
    if u == 0.0:
        return 0.0
    return math.copysign(1.0, u) * control_law(p, p.c + abs(u))


def vector_step(params: VectorParams, gaze_pitch: float, gaze_yaw: float, dt: float):
    """Per-axis law outputs times dt; angles in degrees, returns degrees."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    law = symmetric_control_law if params.symmetric else control_law
    return law(params.pitch, gaze_pitch) * dt, law(params.yaw, gaze_yaw) * dt


def quadrant_step(params: QuadrantParams, gaze_pitch: float, gaze_yaw: float, dt: float):
    """Constant-speed motion along the dominant gaze axis, in degrees.

    Inside the circular deadzone the command is exactly (0, 0); outside it
    only one axis moves (ties go to yaw), so diagonal targets are reached
    in a zig-zag.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    radius = params.deadzone_diameter / 2.0
    if math.hypot(gaze_pitch, gaze_yaw) <= radius:
        return 0.0, 0.0
    step = params.speed * dt
    if abs(gaze_pitch) > abs(gaze_yaw):
        return math.copysign(step, gaze_pitch), 0.0
    return 0.0, math.copysign(step, gaze_yaw)


def combined_inputs(x):
    """(N, 6) inputs from (N, 9) ones: the normalized mean of the left and
    right gaze, each row with the bits of ``normalize(left + right)``, then
    the head direction."""
    return np.concatenate([normalize_rows(x[:, 0:3] + x[:, 3:6]), x[:, 6:9]], axis=1)


def gaze_angle(unit):
    """(pitch, yaw) in degrees of a unit combined gaze, by
    ``dir_to_pitch_yaw``'s ``math``: the angles every law family takes."""
    pitch, yaw = dir_to_pitch_yaw(unit)
    return math.degrees(pitch), math.degrees(yaw)


def gaze_angles(x):
    """gaze_angle of each row's combined gaze, a list of N pairs from
    (N, 9) inputs."""
    return [gaze_angle(unit) for unit in combined_inputs(x)[:, 0:3].tolist()]


class Controller:
    """Stepping interface shared by all families.

    step() takes head-relative left/right gaze unit vectors, the world
    head direction, and the tick duration; it returns (dpitch, dyaw) in
    radians. ``faulted`` latches when a non-finite command was replaced by
    (0, 0).

    reset_rows() clears the latch and sets up independent rows, and a
    stateful family's ``step`` advances row 0. Each family's step_rows()
    steps K of those rows at once: (K, 9) inputs in the
    ``training.net_inputs`` layout, (K,) tick durations and the (K,) row
    indices -> (K, 2) commands and the (K,) mask of rows whose command was
    replaced by (0, 0). Every row gets the bits ``step`` would give it.

    predict() is the teacher-forced counterpart, the one place a family's
    maths meets whole trajectories, all of a loss's at once: an iterable
    of (T_k - 1, 9) ground-truth inputs from ``training.net_inputs`` and
    the list of their tick lengths -> the list of (T_k - 1, 2) commands in
    radians. Each trajectory starts from the family's fresh state, and
    the controller's own state and fault latch are left alone.
    """

    family = "base"
    stateful = False

    def __init__(self, name=None):
        self.name = name or self.family
        self.faulted = False

    def reset(self):
        """``reset_rows(1)``; the package never calls it, the benchmark's
        exosim workload does."""
        self.reset_rows(1)

    def reset_rows(self, rows):
        """Clear the fault latch and set up ``rows`` independent rows."""
        self.faulted = False

    def step(self, left_dir, right_dir, head_dir, dt):
        raise NotImplementedError

    def predict(self, xs, dts):
        raise TypeError(f"{type(self).__name__} has no teacher-forced prediction")

    def _guard(self, dpitch, dyaw):
        if not (math.isfinite(dpitch) and math.isfinite(dyaw)):
            self.faulted = True
            return 0.0, 0.0
        return dpitch, dyaw

    def _guard_rows(self, out):
        """_guard on every row of (K, 2) commands, in place; returns the
        (K,) fault mask."""
        if np.isfinite(out).all():
            return np.zeros(len(out), dtype=bool)
        faults = ~np.isfinite(out).all(axis=1)
        out[faults] = 0.0
        self.faulted = True
        return faults


class _LawController(Controller):
    """A hand-designed family: its angle-level ``law(params, gaze_pitch,
    gaze_yaw, dt)``, in degrees, applied to the combined gaze.

    step, step_rows and predict share one arithmetic, so a row gets the
    same bits in closed loop and teacher-forced: the combined gaze of
    ``normalize`` (``combined_inputs`` on rows), then ``gaze_angle``.
    """

    law = None  # staticmethod(params, gaze_pitch, gaze_yaw, dt) -> degrees

    def __init__(self, params, name=None):
        super().__init__(name)
        self.params = params

    def _commands(self, x, dts):
        """(K, 2) law commands in radians of (K, 9) inputs and K tick lengths."""
        law, params = self.law, self.params
        commands = [law(params, p, y, dt) for (p, y), dt in zip(gaze_angles(x), dts)]
        return np.radians(commands).reshape(-1, 2)

    def step(self, left_dir, right_dir, head_dir, dt):
        dp, dy = self.law(self.params, *gaze_angle(normalize(left_dir + right_dir)), dt)
        return self._guard(math.radians(dp), math.radians(dy))

    def step_rows(self, x, dt, rows):
        out = self._commands(x, dt.tolist())
        return out, self._guard_rows(out)

    def predict(self, xs, dts):
        return [self._commands(x, [dt] * len(x)) for x, dt in zip(xs, dts)]


class QuadrantController(_LawController):
    family = "quadrant"
    law = staticmethod(quadrant_step)
    step = _LawController.step  # each family owns its step, to be traced on its own

    def __init__(self, params: QuadrantParams | None = None, name=None):
        super().__init__(params or QuadrantParams(), name)


class VectorController(_LawController):
    family = "vector"
    law = staticmethod(vector_step)
    step = _LawController.step


class _NetController(Controller):
    """A learned family: ``net`` emits the per-tick delta at
    ``train_rate_hz`` (the family's ``default_rate_hz`` when not given); at
    other tick lengths the delta scales by dt * train_rate_hz. The
    network's type and shape, and the rate, are checked once, here, so a
    bad checkpoint fails before the first step.
    """

    net_type = None
    input_sizes = ()
    default_rate_hz = None

    def __init__(self, net, train_rate_hz=None, name=None):
        super().__init__(name)
        wanted = (f"{self.net_type.__name__} with {' or '.join(map(str, self.input_sizes))} "
                  "inputs and 2 outputs")
        if not isinstance(net, self.net_type):
            raise ValueError(f"{self.family} controller needs {wanted}, got {type(net).__name__}")
        if net.input_size not in self.input_sizes or net.output_size != 2:
            raise ValueError(f"{self.family} controller needs {wanted}, got "
                             f"{net.input_size} inputs and {net.output_size} outputs")
        rate = float(self.default_rate_hz if train_rate_hz is None else train_rate_hz)
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"train_rate_hz must be positive and finite, got {rate!r}")
        self.net = net
        self.train_rate_hz = rate


class MlpController(_NetController):
    """Dense net over the 9-vector (left, right, head directions)."""

    family = "mlp"
    net_type = DenseNet
    input_sizes = (9,)
    default_rate_hz = 90.0

    def step(self, left_dir, right_dir, head_dir, dt):
        x = np.concatenate([left_dir, right_dir, head_dir])
        out = self.net.forward_rows(x[None])[0] * (dt * self.train_rate_hz)
        return self._guard(float(out[0]), float(out[1]))

    def step_rows(self, x, dt, rows):
        out = self.net.forward_rows(x) * (dt * self.train_rate_hz)[:, None]
        return out, self._guard_rows(out)

    def predict(self, xs, dts):
        return [self.net.forward_batch(x) * (dt * self.train_rate_hz) for x, dt in zip(xs, dts)]


class LstmController(_NetController):
    """Recurrent controller; holds hidden/cell state across a rollout.

    It is stepped at ``train_rate_hz`` (45 Hz by default, half the 90 Hz
    data rate): a rollout calls it every rate_hz / train_rate_hz samples.
    Its 6 or 9 inputs are the combined gaze or both gazes, then the head
    direction. ``hidden`` and ``cell`` hold the (rows, H) states that
    ``reset_rows`` sets up. ``step`` advances row 0, so it continues row 0
    of a lockstep call unless ``reset_rows(1)`` runs first. A row's state stops
    advancing once that row has faulted (``row_faulted``), and ``step``'s
    while ``faulted`` is set.
    """

    family = "lstm"
    stateful = True
    net_type = LstmNet
    input_sizes = (6, 9)
    default_rate_hz = 45.0

    def __init__(self, net: LstmNet, train_rate_hz=None, name=None):
        super().__init__(net, train_rate_hz, name)
        self.reset_rows(1)

    def reset_rows(self, rows):
        super().reset_rows(rows)
        self.hidden = np.zeros((rows, self.net.hidden_size))
        self.cell = np.zeros_like(self.hidden)
        self.row_faulted = np.zeros(rows, dtype=bool)

    def step(self, left_dir, right_dir, head_dir, dt):
        if self.net.input_size == 6:
            x = np.concatenate([normalize(left_dir + right_dir), head_dir])
        else:
            x = np.concatenate([left_dir, right_dir, head_dir])
        out, hidden, cell = self.net.step(self.hidden[0], self.cell[0], x)
        out = out * (dt * self.train_rate_hz)
        dp, dy = self._guard(float(out[0]), float(out[1]))
        if not self.faulted:
            self.hidden[0] = hidden
            self.cell[0] = cell
        return dp, dy

    def step_rows(self, x, dt, rows):
        if self.net.input_size == 6:
            x = combined_inputs(x)
        y, hidden, cell = self.net.step_rows(self.hidden[rows], self.cell[rows], x)
        out = y * (dt * self.train_rate_hz)[:, None]
        faults = self._guard_rows(out)
        if faults.any() or self.row_faulted[rows].any():
            self.row_faulted[rows] |= faults
            keep = ~self.row_faulted[rows]
            rows, hidden, cell = rows[keep], hidden[keep], cell[keep]
        self.hidden[rows] = hidden
        self.cell[rows] = cell
        return out, faults

    def predict(self, xs, dts):
        """All sequences advance together through ``net.step_rows``, longest
        first, so the rows still running are a prefix that shrinks as
        shorter sequences end; each row gets the bits of ``net.step``."""
        xs = [combined_inputs(x) if self.net.input_size == 6 else x for x in xs]
        lengths = [len(x) for x in xs]
        order = sorted(range(len(xs)), key=lambda k: -lengths[k])
        inputs = np.zeros((max(lengths, default=0), len(xs), self.net.input_size))
        for j, k in enumerate(order):
            inputs[: lengths[k], j] = xs[k]
        ys = np.empty((len(inputs), len(xs), 2))
        hidden = np.zeros((len(xs), self.net.hidden_size))
        cell = np.zeros_like(hidden)
        live = len(xs)
        for t, x in enumerate(inputs):
            while lengths[order[live - 1]] <= t:
                live -= 1
            ys[t, :live], hidden, cell = self.net.step_rows(hidden[:live], cell[:live], x[:live])
        preds = [None] * len(xs)
        for j, k in enumerate(order):
            preds[k] = ys[: lengths[k], j] * (dts[k] * self.train_rate_hz)
        return preds


def save_controller(controller: Controller, path, extra_config=None):
    """Write the controller config JSON; net-backed families also write a
    checkpoint beside it, ``<path stem>.ckpt.json``, named by file name."""
    path = os.fspath(path)
    config = {"family": controller.family, "name": controller.name}
    if controller.family in ("quadrant", "vector"):
        config["tick_rate_hz"] = 90.0
        config["params"] = asdict(controller.params)
    elif controller.family in ("mlp", "lstm"):
        checkpoint_path = os.path.splitext(path)[0] + ".ckpt.json"
        save_checkpoint(controller.net, checkpoint_path, train_config=extra_config)
        config["tick_rate_hz"] = controller.train_rate_hz
        config["params"] = {"checkpoint": os.path.basename(checkpoint_path)}
    else:
        raise ValueError(f"cannot save family {controller.family!r}")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2)
        f.write("\n")


def _law_params(cls, values, where):
    """A law's parameter dataclass from a decoded JSON object of finite
    numbers; a field that is missing, unknown or not a finite number
    raises ValueError naming it."""
    if values is None:
        raise ValueError(f"missing field {where}")
    if not isinstance(values, dict):
        raise ValueError(f"field {where} is not an object")
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ValueError(f"missing field {where}.{f.name}")
    for key, value in values.items():
        if key not in {f.name for f in fields(cls)}:
            raise ValueError(f"unknown field {where}.{key}")
        if not (type(value) is int or type(value) is float and math.isfinite(value)):
            raise ValueError(f"field {where}.{key} is not a finite number")
    return cls(**values)


def load_controller(path) -> Controller:
    """Build a controller from its config JSON. A config that is not JSON
    or has a field missing or of the wrong type, a malformed checkpoint,
    or a network or tick rate its family cannot run raises ValueError
    naming the config file (and the checkpoint file) and the reason."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError("not a JSON object")
        if "family" not in config:
            raise ValueError("missing field family")
        family, name = config["family"], config.get("name")
        params = config.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("field params is not an object")
        if family == "quadrant":
            return QuadrantController(_law_params(QuadrantParams, params, "params"), name=name)
        if family == "vector":
            symmetric = params.get("symmetric", True)
            if type(symmetric) is not bool:
                raise ValueError("field params.symmetric is not a bool")
            pitch, yaw = (_law_params(VectorAxisParams, params.get(axis), f"params.{axis}")
                          for axis in ("pitch", "yaw"))
            return VectorController(VectorParams(pitch, yaw, symmetric), name=name)
        if family not in ("mlp", "lstm"):
            raise ValueError(f"unknown controller family {family!r}")
        ckpt = params.get("checkpoint")
        if type(ckpt) is not str:
            raise ValueError("field params.checkpoint is not a file name")
    except ValueError as exc:
        reason = f"invalid JSON ({exc})" if isinstance(exc, json.JSONDecodeError) else exc
        raise ValueError(f"{path}: {reason}") from exc
    if not os.path.isabs(ckpt):
        ckpt = os.path.join(os.path.dirname(path), ckpt)
    family_type = MlpController if family == "mlp" else LstmController
    try:
        net, _ = load_checkpoint(ckpt)
        rate = config.get("tick_rate_hz", family_type.default_rate_hz)
        return family_type(net, train_rate_hz=rate, name=name)
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path} (checkpoint {ckpt}): {reason}") from exc
