"""Trajectory records, JSONL storage, blink repair, splits, and synthetic
eye-head task data.

File format (one or more trajectories per .jsonl file): a header object
``{"participant", "task", "rate_hz"}`` starts each trajectory, followed by
one sample object per line with keys ``t, head_pos, head_dir, lo, ld, ro,
rd, valid``. Floats are written with Python's shortest round-trip repr, so
save/load is bit-exact.

The synthetic generator produces, for each task, a timestamped target
track plus an "oracle" trajectory of an idealized subject: both eyes aim
exactly at the active target while the head pursues the gaze through a
soft-deadzone first-order lag. Everything is driven by a seeded PCG64
generator, so outputs are reproducible.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    EYE_OFFSET,
    dir_to_pitch_yaw,
    head_rotation,
    interpolate_blink,
    norm,
    normalize,
    normalize_rows,
    norms,
    pitch_yaw_to_dir,
    vec3,
)


class Task(str, enum.Enum):
    LINEAR_PURSUIT = "linear-pursuit"
    ARC_PURSUIT = "arc-pursuit"
    RAPID_SEARCH = "rapid-search"
    RAPID_AVOIDANCE = "rapid-avoidance"


TASK_ORDER = list(Task)


@dataclass
class GazeSample:
    """One timestamped binocular gaze + head pose record.

    Positions in meters, directions unit-norm in the world frame.
    ``valid`` False marks a blink. In a generated or loaded trajectory each
    array is a row view of a per-trajectory (T, 3) block, one block per
    field.
    """

    t: float
    head_pos: np.ndarray
    head_dir: np.ndarray
    left_origin: np.ndarray
    left_dir: np.ndarray
    right_origin: np.ndarray
    right_dir: np.ndarray
    valid: bool = True


@dataclass
class Trajectory:
    participant_id: int
    task: Task
    rate_hz: float
    samples: list[GazeSample] = field(default_factory=list)

    def __len__(self):
        return len(self.samples)


@dataclass
class SplitSpec:
    """Disjoint participant-id sets for train/test partitioning."""

    train_ids: frozenset[int]
    test_ids: frozenset[int]

    def __post_init__(self):
        self.train_ids = frozenset(int(i) for i in self.train_ids)
        self.test_ids = frozenset(int(i) for i in self.test_ids)
        overlap = self.train_ids & self.test_ids
        if overlap:
            raise ValueError(f"participants in both sets: {sorted(overlap)}")

    def to_json(self):
        return {"train": sorted(self.train_ids), "test": sorted(self.test_ids)}

    @classmethod
    def from_json(cls, payload):
        return cls(frozenset(payload["train"]), frozenset(payload["test"]))


class TrajectoryFormatError(ValueError):
    """A malformed trajectory file, reported as ``<path>: line N: reason``
    (without the path when it is not known)."""

    def __init__(self, message, line_number, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.line_number = line_number
        self.path = path


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


# json.loads with keyword arguments builds a new decoder per call; one
# shared decoder keeps the per-row cost of the default one
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


# the six vector fields of GazeSample and their JSON keys, in file order
_FIELDS = ("head_pos", "head_dir", "left_origin", "left_dir", "right_origin", "right_dir")
_KEYS = ("head_pos", "head_dir", "lo", "ld", "ro", "rd")

# a loaded direction this close to unit length counts as unit
UNIT_TOLERANCE = 1e-6


def _vec_list(v):
    return [float(v[0]), float(v[1]), float(v[2])]


def save_trajectories(trajectories, path):
    """Write trajectories as JSONL; every float is written as its shortest
    round-trip repr, so loading gives back the same bits."""
    if isinstance(trajectories, Trajectory):
        trajectories = [trajectories]
    with open(path, "w", encoding="utf-8") as f:
        for traj in trajectories:
            header = {
                "participant": int(traj.participant_id),
                "task": traj.task.value,
                "rate_hz": float(traj.rate_hz),
            }
            f.write(json.dumps(header) + "\n")
            for s in traj.samples:
                row = {
                    "t": float(s.t),
                    "head_pos": _vec_list(s.head_pos),
                    "head_dir": _vec_list(s.head_dir),
                    "lo": _vec_list(s.left_origin),
                    "ld": _vec_list(s.left_dir),
                    "ro": _vec_list(s.right_origin),
                    "rd": _vec_list(s.right_dir),
                    "valid": bool(s.valid),
                }
                f.write(json.dumps(row) + "\n")


def _malformed(exc, line_number):
    return TrajectoryFormatError(f"malformed sample row ({exc})", line_number)


def _parse_sample(row, line_number):
    """One decoded sample row on its own; names what is wrong with it."""
    try:
        sample = GazeSample(
            float(row["t"]),
            *(np.array(row[key], dtype=float) for key in _KEYS),
            valid=bool(row["valid"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _malformed(exc, line_number) from exc
    for name in _FIELDS:
        if getattr(sample, name).shape != (3,):
            raise TrajectoryFormatError(f"field {name} is not a 3-vector", line_number)
    return sample


def _sample_columns(rows, line_numbers):
    """The six (n, 3) vector columns and the (n,) valid flags of a
    trajectory's decoded sample rows.

    Raises TrajectoryFormatError for the first bad row: a malformed row, or
    a direction that is not unit length (head_dir on every row, the gaze
    only on valid rows). A valid row whose gaze has collapsed (norm below
    0.5) is reclassified as a blink first.
    """
    n = len(rows)
    error = None
    try:
        columns = [np.array([row[key] for row in rows], dtype=float) for key in _KEYS]
        valid = np.array([bool(row["valid"]) for row in rows])
        malformed = any(column.shape != (n, 3) for column in columns)
    except (KeyError, TypeError, ValueError, OverflowError):
        malformed = True
    if malformed:
        # parse row by row up to the first malformed row; a direction
        # error on an earlier row is still reported first
        samples = []
        for row, line_number in zip(rows, line_numbers):
            try:
                samples.append(_parse_sample(row, line_number))
            except TrajectoryFormatError as exc:
                error = exc
                break
        columns = [np.array([getattr(s, name) for s in samples]).reshape(-1, 3) for name in _FIELDS]
        valid = np.array([s.valid for s in samples], dtype=bool)
    # one row per sample: the lengths of head_dir, left_dir and right_dir
    lengths = np.column_stack([norms(columns[1]), norms(columns[3]), norms(columns[5])])
    valid &= ~np.any(lengths[:, 1:] < 0.5, axis=1)
    off_unit = ~(np.abs(lengths - 1.0) <= UNIT_TOLERANCE)  # NaN counts as off
    off_unit[:, 1:] &= valid[:, None]
    bad = np.flatnonzero(off_unit.any(axis=1))
    if len(bad):
        i = bad[0]
        k = int(np.argmax(off_unit[i]))
        name = ("head_dir", "left_dir", "right_dir")[k]
        raise TrajectoryFormatError(
            f"field {name} is not unit length (norm {float(lengths[i, k])!r})", line_numbers[i]
        )
    if error is not None:
        raise error
    return columns, valid


def _with_samples(header, rows, line_numbers, times):
    """The header trajectory filled with its buffered sample rows."""
    columns, valid = _sample_columns(rows, line_numbers)
    header.samples = [
        GazeSample(t, head_pos, head_dir, lo, ld, ro, rd, flag)
        for t, head_pos, head_dir, lo, ld, ro, rd, flag in zip(times, *columns, valid.tolist())
    ]
    return header


def load_trajectories(path):
    """Parse a JSONL trajectory file; returns only non-empty trajectories.

    Raises TrajectoryFormatError with the path and the offending line
    number for malformed rows, NaN or Infinity tokens, a rate_hz that is
    not positive and finite, non-monotonic timestamps, or a head or (on a
    valid row) gaze direction more than UNIT_TOLERANCE off unit length.
    Rows whose gaze has collapsed load as blinks.
    """
    with open(path, encoding="utf-8") as f:
        try:
            return _parse_lines(f)
        except TrajectoryFormatError as exc:
            raise TrajectoryFormatError(exc.reason, exc.line_number, path) from exc


def _parse_lines(f):
    """Trajectories of an open JSONL file; errors name the line only.

    Lines are decoded one at a time, and timestamps are checked as they
    come; a trajectory's sample rows are buffered and turned into arrays
    together at the next header or at the end of the file. Before any
    error is raised the buffered rows are checked as well, so the error
    names the first bad line of the file.
    """
    trajectories = []
    current = None
    rows, line_numbers, times = [], [], []
    try:
        for line_number, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryFormatError(f"invalid JSON ({exc.msg})", line_number) from exc
            except ValueError as exc:  # from _reject_constant
                raise TrajectoryFormatError(str(exc), line_number) from exc
            if not isinstance(row, dict):
                raise TrajectoryFormatError("expected a JSON object", line_number)
            if "participant" in row:
                if rows:
                    pending = rows, line_numbers, times
                    rows, line_numbers, times = [], [], []
                    trajectories.append(_with_samples(current, *pending))
                try:
                    current = Trajectory(
                        participant_id=int(row["participant"]),
                        task=Task(row["task"]),
                        rate_hz=float(row["rate_hz"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise TrajectoryFormatError(f"malformed header ({exc})", line_number) from exc
                if not (math.isfinite(current.rate_hz) and current.rate_hz > 0):
                    raise TrajectoryFormatError(
                        f"rate_hz must be positive and finite, got {current.rate_hz!r}", line_number
                    )
                continue
            if current is None:
                raise TrajectoryFormatError("sample row before any header", line_number)
            try:
                t = float(row["t"])
            except (KeyError, TypeError, ValueError) as exc:
                raise _malformed(exc, line_number) from exc
            # buffered before the timestamp check: a malformed field of
            # this row is reported ahead of its timestamp
            rows.append(row)
            line_numbers.append(line_number)
            if times and t <= times[-1]:
                raise TrajectoryFormatError("non-monotonic timestamp", line_number)
            times.append(t)
        if rows:
            pending = rows, line_numbers, times
            rows = []
            trajectories.append(_with_samples(current, *pending))
    except TrajectoryFormatError:
        if rows:
            _sample_columns(rows, line_numbers)  # raises for an earlier bad row
        raise
    return trajectories


def repair_blinks(traj: Trajectory) -> Trajectory:
    """Replace blink samples by interpolated gaze between the bracketing
    valid samples; leading/trailing blinks are trimmed.

    The interpolation fraction is elapsed time over the bracketing span.
    Raises ValueError when no valid samples exist.
    """
    valid_idx = [i for i, s in enumerate(traj.samples) if s.valid]
    if not valid_idx:
        raise ValueError("trajectory has no valid samples; unrecoverable")
    samples = traj.samples[valid_idx[0] : valid_idx[-1] + 1]
    repaired = []
    i = 0
    while i < len(samples):
        s = samples[i]
        if s.valid:
            repaired.append(s)
            i += 1
            continue
        j = i
        while not samples[j].valid:
            j += 1
        before = repaired[-1]
        after = samples[j]
        span = after.t - before.t
        for k in range(i, j):
            gap_sample = samples[k]
            fraction = (gap_sample.t - before.t) / span
            repaired.append(
                replace(
                    gap_sample,
                    left_dir=interpolate_blink(before.left_dir, after.left_dir, fraction),
                    right_dir=interpolate_blink(before.right_dir, after.right_dir, fraction),
                    valid=True,
                )
            )
        i = j
    return Trajectory(traj.participant_id, traj.task, traj.rate_hz, repaired)


def downsample(traj: Trajectory, factor: int) -> Trajectory:
    """Keep every factor-th sample starting at index 0."""
    if int(factor) != factor or factor < 1:
        raise ValueError("downsample factor must be a positive integer")
    factor = int(factor)
    return Trajectory(
        traj.participant_id,
        traj.task,
        traj.rate_hz / factor,
        traj.samples[::factor],
    )


def split(trajectories, spec: SplitSpec):
    """Partition trajectories by participant id, never by trial."""
    known = spec.train_ids | spec.test_ids
    train, test = [], []
    for traj in trajectories:
        pid = traj.participant_id
        if pid not in known:
            raise ValueError(f"participant {pid} not covered by the split spec")
        (train if pid in spec.train_ids else test).append(traj)
    return train, test


@dataclass
class TaskConfig:
    """Geometry and timing of the synthetic tasks (angles in degrees)."""

    cone_half_angle: float = 70.0  # per-axis view cone for any target
    linear_speed: float = 5.0  # m/s
    arc_angular_speed: float = 1.0  # rad/s
    spawn_distance: float = 10.0  # m, rapid-task spawn radius
    fixation_time: float = 0.3  # s of fixation before a respawn
    spawn_cone: float = 60.0  # per-axis spawn/waypoint cone
    duration: float = 90.0  # s
    rate_hz: float = 90.0
    approach_speed: float = 1.0  # m/s, rapid-task cubes toward the subject
    reach_radius: float = 0.5  # m; also the cube edge length
    fixation_tolerance: float = 2.0  # deg, angular size of "on target"
    head_lag_gain: float = 4.0  # 1/s, pursuit gain of the head oracle
    head_deadzone: float = 10.0  # deg, soft deadzone of the head oracle
    head_deadzone_sharpness: float = 0.5  # 1/deg
    # fractional spread of the pursuit parameters across participants;
    # each synthetic subject draws its own gain/deadzone/sharpness
    subject_spread: float = 0.15
    # smooth head motor noise: stationary RMS (deg/s) and correlation time
    # (s) of an Ornstein-Uhlenbeck angular-velocity wander per axis
    motor_noise_rms: float = 3.0
    motor_noise_tau: float = 0.25

    def __post_init__(self):
        if self.cone_half_angle > 90 or self.cone_half_angle <= 0:
            raise ValueError("cone_half_angle must be in (0, 90]")
        for name in (
            "linear_speed",
            "arc_angular_speed",
            "spawn_distance",
            "fixation_time",
            "spawn_cone",
            "duration",
            "rate_hz",
            "approach_speed",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TargetTrack:
    """Active-target position per frame."""

    t: np.ndarray  # (N,)
    pos: np.ndarray  # (N, 3)


def _in_cone(points, half_angle_deg):
    """Per-axis cone test: |pitch| and |yaw| of every point <= half angle."""
    points = np.atleast_2d(points)
    r = np.linalg.norm(points, axis=1)
    if np.any(r < 1e-9):
        return False
    limit = math.radians(half_angle_deg)
    pitch = np.arcsin(np.clip(points[:, 1] / r, -1, 1))
    yaw = np.arctan2(points[:, 0], points[:, 2])
    return bool(np.all(np.abs(pitch) <= limit) and np.all(np.abs(yaw) <= limit))


def _sample_cone_point(rng, half_angle_deg, distance):
    pitch = math.radians(rng.uniform(-half_angle_deg, half_angle_deg))
    yaw = math.radians(rng.uniform(-half_angle_deg, half_angle_deg))
    return pitch_yaw_to_dir(pitch, yaw) * distance


def _segment_ok(p0, p1, config):
    """Accept a pursuit segment only if its whole path keeps a margin
    inside the view cone and away from the head."""
    ts = np.linspace(0.0, 1.0, 2048)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    if np.min(np.linalg.norm(pts, axis=1)) < 1.5:
        return False
    return _in_cone(pts, config.cone_half_angle - 1.0)


class _LinearTargets:
    """Waypoint-to-waypoint straight motion at constant speed, with the
    leftover of a frame step carried into the next segment."""

    def __init__(self, rng, config):
        self.rng = rng
        self.config = config
        self.pos = _sample_cone_point(rng, config.spawn_cone, rng.uniform(3.0, 8.0))
        self.waypoint = self._next_waypoint()

    def _next_waypoint(self):
        for _ in range(1000):
            candidate = _sample_cone_point(
                self.rng, self.config.spawn_cone, self.rng.uniform(2.0, 10.0)
            )
            if np.linalg.norm(candidate - self.pos) < 0.5:
                continue
            if _segment_ok(self.pos, candidate, self.config):
                return candidate
        raise RuntimeError("could not place a pursuit waypoint")

    def advance(self, dt):
        remaining = self.config.linear_speed * dt
        while True:
            gap = norm(self.waypoint - self.pos)
            if gap > remaining:
                self.pos = self.pos + (self.waypoint - self.pos) * (remaining / gap)
                return self.pos
            self.pos = self.waypoint
            remaining -= gap
            self.waypoint = self._next_waypoint()


class _ArcTargets:
    """Circular-arc motion at constant angular speed about random centers."""

    def __init__(self, rng, config):
        self.rng = rng
        self.config = config
        self.pos = _sample_cone_point(rng, config.spawn_cone, rng.uniform(3.0, 8.0))
        self._new_arc()

    def _new_arc(self):
        for _ in range(1000):
            axis = normalize(self.rng.normal(size=3))
            radius = self.rng.uniform(0.5, 3.0)
            in_plane = np.cross(axis, self.rng.normal(size=3))
            if np.linalg.norm(in_plane) < 1e-6:
                continue
            u = normalize(in_plane)
            center = self.pos - radius * u
            w = np.cross(axis, u)
            sweep = self.rng.uniform(0.5, 3.0) * (1 if self.rng.uniform() < 0.5 else -1)
            thetas = np.linspace(0.0, sweep, 2048)
            pts = (
                center[None, :]
                + radius * np.cos(thetas)[:, None] * u[None, :]
                + radius * np.sin(thetas)[:, None] * w[None, :]
            )
            if np.min(np.linalg.norm(pts, axis=1)) < 1.5:
                continue
            if not _in_cone(pts, self.config.cone_half_angle - 1.0):
                continue
            self.center = center
            self.radius = radius
            self.u = u
            self.w = w
            self.theta = 0.0
            self.sweep = sweep
            return
        raise RuntimeError("could not place a pursuit arc")

    def _at(self, theta):
        return self.center + self.radius * (math.cos(theta) * self.u + math.sin(theta) * self.w)

    def advance(self, dt):
        remaining = self.config.arc_angular_speed * dt
        while True:
            left = abs(self.sweep) - abs(self.theta)
            if left > remaining:
                self.theta += math.copysign(remaining, self.sweep)
                self.pos = self._at(self.theta)
                return self.pos
            remaining -= left
            self.pos = self._at(self.sweep)
            self._new_arc()


class _RapidTargets:
    """Three cubes approaching the subject; the gazed cube respawns after
    sustained fixation or on reaching the subject. The avoidance variant
    adds distractor cubes that are never gazed at."""

    def __init__(self, rng, config, distractors=0):
        self.rng = rng
        self.config = config
        self.cubes = [self._spawn() for _ in range(3)]
        self.distractors = [self._spawn() for _ in range(distractors)]
        self.active = 0
        self.fixation = 0.0
        self.pos = self.cubes[0]

    def _spawn(self):
        return _sample_cone_point(self.rng, self.config.spawn_cone, self.config.spawn_distance)

    def _approach(self, p, dt):
        dist = norm(p)
        step = self.config.approach_speed * dt
        if dist - step <= self.config.reach_radius:
            return None  # reached the subject
        return p * ((dist - step) / dist)

    def advance(self, dt):
        for i, cube in enumerate(self.cubes):
            moved = self._approach(cube, dt)
            if moved is None:
                self.cubes[i] = self._spawn()
                if i == self.active:
                    self._switch()
            else:
                self.cubes[i] = moved
        for i, cube in enumerate(self.distractors):
            moved = self._approach(cube, dt)
            self.distractors[i] = self._spawn() if moved is None else moved
        self.fixation += dt
        if self.fixation >= self.config.fixation_time:
            self.cubes[self.active] = self._spawn()
            self._switch()
        self.pos = self.cubes[self.active]
        return self.pos

    def _switch(self):
        self.active = (self.active + 1) % len(self.cubes)
        self.fixation = 0.0


def _make_stepper(task, rng, config):
    if task is Task.LINEAR_PURSUIT:
        return _LinearTargets(rng, config)
    if task is Task.ARC_PURSUIT:
        return _ArcTargets(rng, config)
    if task is Task.RAPID_SEARCH:
        return _RapidTargets(rng, config)
    if task is Task.RAPID_AVOIDANCE:
        return _RapidTargets(rng, config, distractors=3)
    raise ValueError(f"unknown task {task!r}")


def _pursuit_rate(angle_deg, config):
    """Head angular velocity (deg/s) toward the gaze: linear in the offset
    far from center, gated to ~0 inside a soft deadzone."""
    t = config.head_deadzone_sharpness * (config.head_deadzone - abs(angle_deg))
    if t > 700.0:
        return 0.0
    return config.head_lag_gain * angle_deg / (1.0 + math.exp(t))


def generate_task(task: Task, config: TaskConfig, seed: int, participant_id: int = 0):
    """Synthesize one trial: the target track and the oracle trajectory.

    The oracle subject stands at the origin. Eyes aim exactly at the
    active target every frame; the head pursues the gaze offset through
    _pursuit_rate. Deterministic for a given seed.
    """
    rng = np.random.default_rng([int(seed), TASK_ORDER.index(task)])
    stepper = _make_stepper(task, rng, config)
    dt = 1.0 / config.rate_hz
    n = round(config.duration * config.rate_hz)
    times = np.arange(n) * dt
    # the target track never depends on the head, so it and the two motor
    # noise draws of each frame come first, in the frame loop's rng order
    positions = np.empty((n, 3))
    draws = np.empty((n, 2))
    target = stepper.pos
    for i in range(n):
        positions[i] = target
        draws[i] = rng.normal(), rng.normal()
        target = stepper.advance(dt)
    head_pos = np.zeros((n, 3))
    # the head pursues the gaze offset for the next frame, with a smooth
    # motor-noise wander on top of the pursuit velocity; pitch and yaw feed
    # back, so this runs frame by frame
    unit = normalize_rows(positions - head_pos)
    rots = np.empty((n, 3, 3))
    pitch, yaw = 0.0, 0.0
    rho = math.exp(-dt / config.motor_noise_tau)
    innovation = config.motor_noise_rms * math.sqrt(1.0 - rho * rho)
    noise_p, noise_y = 0.0, 0.0
    for i, (toward, (draw_p, draw_y)) in enumerate(zip(unit, draws.tolist())):
        rot = rots[i] = head_rotation(pitch, yaw)
        off_pitch, off_yaw = dir_to_pitch_yaw(rot.T @ toward)
        noise_p = rho * noise_p + innovation * draw_p
        noise_y = rho * noise_y + innovation * draw_y
        pitch += math.radians(_pursuit_rate(math.degrees(off_pitch), config) + noise_p) * dt
        yaw += math.radians(_pursuit_rate(math.degrees(off_yaw), config) + noise_y) * dt
    # eyes and gaze of every frame at once: a stacked matvec has the bits of
    # each frame's rot @ v, and the head_pos add turns a -0.0 into 0.0
    head_dir = rots[:, :, 2].copy()
    eyes = []
    for offset in (-EYE_OFFSET, EYE_OFFSET):
        origin = head_pos + (rots @ vec3(offset, 0.0, 0.0)[:, None])[..., 0]
        eyes += [origin, normalize_rows(positions - origin)]
    samples = [
        GazeSample(t, *vectors)
        for t, *vectors in zip(times.tolist(), head_pos, head_dir, *eyes)
    ]
    oracle = Trajectory(participant_id, task, config.rate_hz, samples)
    return TargetTrack(t=times, pos=positions), oracle


def subject_config(participant_id, config: TaskConfig, seed) -> TaskConfig:
    """Per-participant pursuit parameters: gain, deadzone, and sharpness
    drawn uniformly within +/- subject_spread of the population values."""
    if config.subject_spread == 0:
        return config
    rng = np.random.default_rng([int(seed), int(participant_id), 7_031])
    jitter = 1.0 + config.subject_spread * rng.uniform(-1.0, 1.0, size=3)
    return replace(
        config,
        head_lag_gain=config.head_lag_gain * jitter[0],
        head_deadzone=config.head_deadzone * jitter[1],
        head_deadzone_sharpness=config.head_deadzone_sharpness * jitter[2],
    )


def generate_participant(participant_id, tasks, trials_per_task, config, seed):
    """All trials of one synthetic participant; per-trial seeds derive from
    (seed, participant, task index, trial index)."""
    personal = subject_config(participant_id, config, seed)
    out = []
    for task in tasks:
        for trial in range(trials_per_task):
            trial_seed = np.random.default_rng(
                [int(seed), int(participant_id), TASK_ORDER.index(task), trial]
            ).integers(1 << 62)
            _, oracle = generate_task(task, personal, int(trial_seed), participant_id)
            out.append(oracle)
    return out
