"""Trajectories, JSONL storage, blink repair, splits, and synthetic
eye-head task data.

A Trajectory holds one trial as columns: ``t`` (T,), six (T, 3) vector
columns (head position and direction, each eye's origin and gaze; meters,
unit-norm world-frame directions) and ``valid`` (T,), False marking a
blink. The columns are the only copy of the data: ``Trajectory.samples``,
for the benchmark, is a list of rows that read and write them in place.

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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .geometry import (
    EYE_OFFSET,
    dir_to_pitch_yaw,
    head_rotation_entries,
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

# the six vector columns and their JSON keys, in file order
_VECTORS = ("head_pos", "head_dir", "left_origin", "left_dir", "right_origin", "right_dir")
_KEYS = ("head_pos", "head_dir", "lo", "ld", "ro", "rd")
COLUMNS = ("t", *_VECTORS, "valid")


@dataclass(eq=False)  # a field-wise == of arrays has no single truth value
class Trajectory:
    """One trial: its header and its columns (see the module docstring),
    float64 arrays and a bool ``valid``. The columns are its only copy of
    the data (``downsample`` and ``repair_blinks`` may return views)."""

    participant_id: int
    task: Task
    rate_hz: float
    t: np.ndarray
    head_pos: np.ndarray
    head_dir: np.ndarray
    left_origin: np.ndarray
    left_dir: np.ndarray
    right_origin: np.ndarray
    right_dir: np.ndarray
    valid: np.ndarray

    def __len__(self):
        return len(self.t)

    @cached_property
    def samples(self):
        """The samples as rows, for the benchmark: each row reads and
        writes the columns in place."""
        return list(map(_SampleRow, repeat(self), range(len(self.t))))


def _column(name):
    """The row attribute of one column: reads and writes it at the row's
    index; t and valid read as Python scalars."""
    if name in ("t", "valid"):
        def read(row):
            return getattr(row.trajectory, name).item(row.index)
    else:
        def read(row):
            return getattr(row.trajectory, name)[row.index]

    def write(row, value):
        getattr(row.trajectory, name)[row.index] = value

    return property(read, write)


class _SampleRow:
    """One sample of a trajectory: an attribute per column, each a read or
    a write of that column at the row's index."""

    __slots__ = ("trajectory", "index")

    def __init__(self, trajectory, index):
        self.trajectory, self.index = trajectory, index

    t, head_pos, head_dir, left_origin, left_dir, right_origin, right_dir, valid = map(
        _column, COLUMNS
    )


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
        """From decoded ``{"train": [...], "test": [...]}`` JSON; a field
        that is missing or not a list of integer ids raises ValueError
        naming it."""
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        ids = []
        for key in ("train", "test"):
            if key not in payload:
                raise ValueError(f"missing field {key}")
            if not isinstance(payload[key], list) or any(type(i) is not int for i in payload[key]):
                raise ValueError(f"field {key} is not a list of integer ids")
            ids.append(frozenset(payload[key]))
        return cls(*ids)


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

# JSON numbers decode to these; a bool, a string or a null in a numeric
# field is an error, though float() would take some of them. Likewise the
# valid flag must be a JSON bool, not something with a truth value.
_NUMBERS = frozenset((int, float))
_BOOLS = frozenset((bool,))

# a loaded direction this close to unit length counts as unit
UNIT_TOLERANCE = 1e-6


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
            columns = [getattr(traj, name).tolist() for name in COLUMNS]
            for values in zip(*columns):
                f.write(json.dumps(dict(zip(("t", *_KEYS, "valid"), values))) + "\n")


def _check_row(row, line_number):
    """Raises TrajectoryFormatError naming what is malformed in one decoded
    sample row on its own."""
    try:
        float(row["t"])  # float()'s message says why it cannot take a t
        vectors = [np.array(row[key], dtype=float) for key in _KEYS]
        valid = row["valid"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TrajectoryFormatError(f"malformed sample row ({exc})", line_number) from exc
    for name, vector in zip(_VECTORS, vectors):
        if vector.shape != (3,):
            raise TrajectoryFormatError(f"field {name} is not a 3-vector", line_number)
    for name, values in zip(COLUMNS, [[row["t"]], *(row[key] for key in _KEYS)]):
        if not _NUMBERS.issuperset(map(type, values)):
            raise TrajectoryFormatError(f"field {name} is not a number", line_number)
    if type(valid) is not bool:
        raise TrajectoryFormatError("field valid is not a bool", line_number)


def _sample_columns(rows, line_numbers):
    """The columns, in COLUMNS order, of a trajectory's decoded sample rows.

    Raises TrajectoryFormatError for the first bad row: a malformed row, a
    value that is not a number or not finite, a valid flag that is not a
    bool, a direction that is not unit length (head_dir on every row, the
    gaze only on valid rows), or a t not after the previous row's. A valid
    row whose gaze has collapsed (norm below 0.5) is reclassified as a
    blink first.
    """
    n = len(rows)
    try:
        times = [row["t"] for row in rows]
        t = np.array(times, dtype=float)
        raw = [[row[key] for row in rows] for key in _KEYS]
        vectors = [np.array(values, dtype=float) for values in raw]
        flags = [row["valid"] for row in rows]
        malformed = (
            any(column.shape != (n, 3) for column in vectors)
            or not _NUMBERS.issuperset(map(type, chain(times, *map(chain.from_iterable, raw))))
            or not _BOOLS.issuperset(map(type, flags))
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        malformed = True
    if malformed:
        # some row is malformed on its own: name the first, unless the
        # rows before it hold an error
        for m, (row, line_number) in enumerate(zip(rows, line_numbers)):
            try:
                _check_row(row, line_number)
            except TrajectoryFormatError:
                if m:
                    _sample_columns(rows[:m], line_numbers[:m])
                raise
    valid = np.array(flags, dtype=bool)
    # one row per sample: the lengths of head_dir, left_dir and right_dir
    lengths = np.column_stack([norms(vectors[1]), norms(vectors[3]), norms(vectors[5])])
    valid &= ~np.any(lengths[:, 1:] < 0.5, axis=1)
    off_unit = ~(np.abs(lengths - 1.0) <= UNIT_TOLERANCE)
    off_unit[:, 1:] &= valid[:, None]
    # per row, in the order they are reported: t and the six vectors not
    # finite, then head_dir, left_dir and right_dir off unit, then t not
    # after the previous row's
    non_finite = [~np.isfinite(t), *(~np.isfinite(v).all(axis=1) for v in vectors)]
    non_monotonic = np.concatenate([[False], t[1:] <= t[:-1]])
    problems = np.column_stack([*non_finite, off_unit, non_monotonic])
    bad = np.flatnonzero(problems.any(axis=1))
    if len(bad):
        i = bad[0]
        k = int(np.argmax(problems[i]))
        if k < len(non_finite):
            raise TrajectoryFormatError(f"field {COLUMNS[k]} is not finite", line_numbers[i])
        if k == problems.shape[1] - 1:
            raise TrajectoryFormatError("non-monotonic timestamp", line_numbers[i])
        k -= len(non_finite)
        name = ("head_dir", "left_dir", "right_dir")[k]
        raise TrajectoryFormatError(
            f"field {name} is not unit length (norm {float(lengths[i, k])!r})", line_numbers[i]
        )
    return t, *vectors, valid


def load_trajectories(path):
    """Parse a JSONL trajectory file; returns only non-empty trajectories.

    Raises TrajectoryFormatError with the path and the first offending
    line number for a line that is not valid UTF-8, malformed rows, NaN or
    Infinity tokens, numeric fields that hold a bool, a string or a null,
    or that overflow to infinity, a valid flag that is not a bool, a
    participant that is not an integer, a rate_hz that is not a positive
    finite number, non-monotonic timestamps, or a head or (on a valid row)
    gaze direction more than UNIT_TOLERANCE off unit length. Rows whose
    gaze has collapsed load as blinks.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        try:
            return _parse_lines(f)
        except TrajectoryFormatError as exc:
            raise TrajectoryFormatError(exc.reason, exc.line_number, path) from exc


def _parse_lines(f):
    """Trajectories of a JSONL file open with surrogateescape; errors name
    the line only.

    Lines are decoded and headers checked one at a time; a byte that is
    not UTF-8 has been read as a lone surrogate, so only a line that is not
    ASCII is encoded back to find one. A trajectory's sample rows are
    buffered and turned into columns, and checked, together at the next
    header or at the end of the file. Before any error is raised the
    buffered rows are checked as well, so the error names the first bad
    line of the file.
    """
    trajectories = []
    header = None
    rows, line_numbers = [], []
    try:
        for line_number, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TrajectoryFormatError(f"not valid UTF-8 ({exc.reason})", line_number) from exc
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
                    pending = rows, line_numbers
                    rows, line_numbers = [], []
                    trajectories.append(Trajectory(*header, *_sample_columns(*pending)))
                # int() and float() would also take a bool, a fractional
                # participant or a numeric string
                for name, kind, types in (("participant", "an integer", {int}),
                                          ("rate_hz", "a number", _NUMBERS)):
                    if type(row.get(name)) not in types:
                        raise TrajectoryFormatError(
                            f"malformed header (field {name} is not {kind})", line_number
                        )
                try:
                    header = row["participant"], Task(row["task"]), float(row["rate_hz"])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise TrajectoryFormatError(f"malformed header ({exc})", line_number) from exc
                rate_hz = header[2]
                if not (math.isfinite(rate_hz) and rate_hz > 0):
                    raise TrajectoryFormatError(
                        f"rate_hz must be positive and finite, got {rate_hz!r}", line_number
                    )
                continue
            if header is None:
                raise TrajectoryFormatError("sample row before any header", line_number)
            rows.append(row)
            line_numbers.append(line_number)
        if rows:
            pending = rows, line_numbers
            rows = []
            trajectories.append(Trajectory(*header, *_sample_columns(*pending)))
    except TrajectoryFormatError:
        if rows:
            _sample_columns(rows, line_numbers)  # raises for an earlier bad row
        raise
    return trajectories


def repair_blinks(traj: Trajectory) -> Trajectory:
    """Replace blink samples by interpolated gaze between the bracketing
    valid samples; leading/trailing blinks are trimmed.

    The interpolation fraction f is elapsed time over the bracketing span,
    and each gaze is the blend (1 - f) * before + f * after divided by its
    geometry.norms length. Raises ValueError when no valid samples exist,
    or when a blend collapses (antiparallel bracketing gaze).
    """
    kept = np.flatnonzero(traj.valid)
    if not len(kept):
        raise ValueError("trajectory has no valid samples; unrecoverable")
    inside = slice(kept[0], kept[-1] + 1)
    columns = {name: getattr(traj, name)[inside] for name in COLUMNS}
    gaps = np.flatnonzero(~columns["valid"])
    if len(gaps):
        kept = kept - kept[0]
        at = np.searchsorted(kept, gaps)
        before, after = kept[at - 1], kept[at]
        t = columns["t"]
        fraction = ((t[gaps] - t[before]) / (t[after] - t[before]))[:, None]
        for name in ("left_dir", "right_dir"):
            gaze = columns[name].copy()
            blend = (1.0 - fraction) * gaze[before] + fraction * gaze[after]
            gaze[gaps] = normalize_rows(blend)
            columns[name] = gaze
        columns["valid"] = np.ones(len(t), dtype=bool)
    return replace(traj, **columns)


def downsample(traj: Trajectory, factor: int) -> Trajectory:
    """Keep every factor-th sample starting at index 0; the columns are
    strided views of the input's."""
    if int(factor) != factor or factor < 1:
        raise ValueError("downsample factor must be a positive integer")
    factor = int(factor)
    return replace(
        traj,
        rate_hz=traj.rate_hz / factor,
        **{name: getattr(traj, name)[::factor] for name in COLUMNS},
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


# Task geometry and timing, the same for every trial (angles in degrees)
CONE_HALF_ANGLE = 70.0  # per-axis view cone for any target
SPAWN_CONE = 60.0  # per-axis spawn/waypoint cone
LINEAR_SPEED = 5.0  # m/s
ARC_ANGULAR_SPEED = 1.0  # rad/s
SPAWN_DISTANCE = 10.0  # m, rapid-task spawn radius
APPROACH_SPEED = 1.0  # m/s, rapid-task cubes toward the subject
REACH_RADIUS = 0.5  # m; also the cube edge length
FIXATION_TIME = 0.3  # s of fixation before a respawn
_GAZED_CUBES = 3  # rapid tasks: the cubes the subject looks at in turn
# fractional spread of the pursuit parameters across participants; each
# synthetic subject draws its own gain/deadzone/sharpness
SUBJECT_SPREAD = 0.15


@dataclass
class TaskConfig:
    """Trial length and rate, and the head oracle's pursuit and motor noise
    (angles in degrees); the task geometry is the module constants above."""

    duration: float = 90.0  # s
    rate_hz: float = 90.0
    head_lag_gain: float = 4.0  # 1/s, pursuit gain of the head oracle
    head_deadzone: float = 10.0  # deg, soft deadzone of the head oracle
    head_deadzone_sharpness: float = 0.5  # 1/deg
    # smooth head motor noise: stationary RMS (deg/s) and correlation time
    # (s) of an Ornstein-Uhlenbeck angular-velocity wander per axis
    motor_noise_rms: float = 3.0
    motor_noise_tau: float = 0.25

    def __post_init__(self):
        for name in ("duration", "rate_hz"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        frames = round(self.duration * self.rate_hz)  # as generate_task counts them
        if frames < 2:
            raise ValueError(f"duration {self.duration:g} s at rate_hz {self.rate_hz:g} gives "
                             f"{frames} frames; a trial needs at least 2")


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


def _path_ok(pts):
    """Accept a pursuit path, given as (N, 3) points, only if it keeps
    1.5 m from the head and a 1 degree margin inside the view cone."""
    if np.min(np.linalg.norm(pts, axis=1)) < 1.5:
        return False
    return _in_cone(pts, CONE_HALF_ANGLE - 1.0)


class _LinearTargets:
    """Waypoint-to-waypoint straight motion at constant speed, with the
    leftover of a frame step carried into the next segment."""

    def __init__(self, rng):
        self.rng = rng
        self.pos = _sample_cone_point(rng, SPAWN_CONE, rng.uniform(3.0, 8.0))
        self.waypoint = self._next_waypoint()

    def _next_waypoint(self):
        for _ in range(1000):
            candidate = _sample_cone_point(self.rng, SPAWN_CONE, self.rng.uniform(2.0, 10.0))
            if np.linalg.norm(candidate - self.pos) < 0.5:
                continue
            ts = np.linspace(0.0, 1.0, 2048)[:, None]
            if _path_ok(self.pos + ts * (candidate - self.pos)):
                return candidate
        raise RuntimeError("could not place a pursuit waypoint")

    def advance(self, dt):
        remaining = LINEAR_SPEED * dt
        while True:
            delta = self.waypoint - self.pos
            gap = norm(delta)
            if gap > remaining:
                self.pos = self.pos + delta * (remaining / gap)
                return self.pos
            self.pos = self.waypoint
            remaining -= gap
            self.waypoint = self._next_waypoint()


class _ArcTargets:
    """Circular-arc motion at constant angular speed about random centers;
    a position on an arc is a tuple of floats."""

    def __init__(self, rng):
        self.rng = rng
        self.pos = _sample_cone_point(rng, SPAWN_CONE, rng.uniform(3.0, 8.0))
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
            if not _path_ok(pts):
                continue
            self.center = center.tolist()
            self.radius = radius
            self.u = u.tolist()
            self.w = w.tolist()
            self.theta = 0.0
            self.sweep = sweep
            return
        raise RuntimeError("could not place a pursuit arc")

    def _at(self, theta):
        c, s, r = math.cos(theta), math.sin(theta), self.radius
        return tuple(p + r * (c * a + s * b) for p, a, b in zip(self.center, self.u, self.w))

    def advance(self, dt):
        remaining = ARC_ANGULAR_SPEED * dt
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
    adds distractor cubes that are never gazed at. The cubes, then the
    distractors, are the rows of one array; each frame's is a new array,
    so a row handed out as a target is never written again."""

    def __init__(self, rng, distractors=0):
        self.rng = rng
        self.cubes = np.array([self._spawn() for _ in range(_GAZED_CUBES + distractors)])
        self.active = 0
        self.fixation = 0.0
        self.pos = self.cubes[0]

    def _spawn(self):
        return _sample_cone_point(self.rng, SPAWN_CONE, SPAWN_DISTANCE)

    def advance(self, dt):
        dist = norms(self.cubes)
        left = dist - APPROACH_SPEED * dt
        cubes = self.cubes = self.cubes * (left / dist)[:, None]
        # rows that reach the subject respawn in row order, which is the
        # order of their draws
        for i, distance in enumerate(left.tolist()):
            if distance <= REACH_RADIUS:
                cubes[i] = self._spawn()
                if i == self.active:
                    self._switch()
        self.fixation += dt
        if self.fixation >= FIXATION_TIME:
            cubes[self.active] = self._spawn()
            self._switch()
        self.pos = cubes[self.active]
        return self.pos

    def _switch(self):
        self.active = (self.active + 1) % _GAZED_CUBES
        self.fixation = 0.0


def _make_stepper(task, rng):
    if task is Task.LINEAR_PURSUIT:
        return _LinearTargets(rng)
    if task is Task.ARC_PURSUIT:
        return _ArcTargets(rng)
    if task is Task.RAPID_SEARCH:
        return _RapidTargets(rng)
    if task is Task.RAPID_AVOIDANCE:
        return _RapidTargets(rng, distractors=3)
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
    stepper = _make_stepper(task, rng)
    dt = 1.0 / config.rate_hz
    n = round(config.duration * config.rate_hz)
    times = np.arange(n) * dt
    # the target track never depends on the head, so it and the two motor
    # noise draws of each frame come first, in the frame loop's rng order
    # (one standard_normal(2) has the bits of two normal() calls)
    positions, draws = [], []
    target = stepper.pos
    for _ in range(n):
        positions.append(target)
        draws.append(rng.standard_normal(2))
        target = stepper.advance(dt)
    positions = np.array(positions).reshape(n, 3)
    head_pos = np.zeros((n, 3))
    # the head pursues the gaze offset for the next frame, with a smooth
    # motor-noise wander on top of the pursuit velocity; pitch and yaw feed
    # back, so this runs frame by frame, on floats but for the BLAS
    # rot.T @ toward, whose bits a Python sum of products would not keep
    unit = normalize_rows(positions - head_pos)
    rots = np.empty((n, 3, 3))
    pitch, yaw = 0.0, 0.0
    rho = math.exp(-dt / config.motor_noise_tau)
    innovation = config.motor_noise_rms * math.sqrt(1.0 - rho * rho)
    noise_p, noise_y = 0.0, 0.0
    frames = zip(rots, rots.reshape(n, 9), unit, np.array(draws).reshape(n, 2).tolist())
    for rot, entries, toward, (draw_p, draw_y) in frames:
        entries[:] = head_rotation_entries(pitch, yaw)
        off_pitch, off_yaw = dir_to_pitch_yaw((rot.T @ toward).tolist())
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
    oracle = Trajectory(participant_id, task, config.rate_hz, times, head_pos, head_dir, *eyes,
                        np.ones(n, dtype=bool))
    return TargetTrack(t=times, pos=positions), oracle


def subject_config(participant_id, config: TaskConfig, seed) -> TaskConfig:
    """Per-participant pursuit parameters: gain, deadzone, and sharpness
    drawn uniformly within +/- SUBJECT_SPREAD of the population values."""
    rng = np.random.default_rng([int(seed), int(participant_id), 7_031])
    jitter = 1.0 + SUBJECT_SPREAD * rng.uniform(-1.0, 1.0, size=3)
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
