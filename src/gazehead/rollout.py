"""Autoregressive (closed-loop) evaluation of a controller on a recorded
trajectory.

The recorded binocular gaze is first reduced to one focal point per
sample. During the rollout a virtual head starts at the recorded initial
orientation and is rotated only by the controller; each step the virtual
eyes are aimed at the recorded focal point (plus angular noise), the gaze
is expressed in the virtual head's frame, and the controller's command is
applied. The error at each step is the squared Euclidean distance between
the virtual and recorded head direction vectors, so per-step error lies in
[0, 4].

``lockstep`` advances every (controller, trajectory) row of a call together
on (rows, ...) arrays, with the bits each row would get on its own;
``evaluate_suite`` turns its rows into the ``EvalRow``s of an ``EvalTable``,
and ``rollout`` is that for one controller on one trajectory.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controllers import Controller
from .dataset import TASK_ORDER, Trajectory
from .geometry import (EYE_OFFSET, PITCH_LIMIT, crosses, dir_to_pitch_yaw, focal_points,
                       head_rotations, norms, to_head_frame)


@dataclass
class RolloutConfig:
    noise_sigma_deg: float = 0.5  # angular std of per-eye gaze perturbation
    seed: int = 0
    duration_cap_s: float | None = None

    def __post_init__(self):
        sigma, cap, seed = self.noise_sigma_deg, self.duration_cap_s, self.seed
        if not (sigma >= 0 and math.isfinite(sigma)):
            raise ValueError(f"noise_sigma_deg must be nonnegative and finite, got {sigma!r}")
        if cap is not None and not math.isfinite(cap):
            raise ValueError(f"duration_cap_s must be finite, got {cap!r}")
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def precompute_focal_points(traj: Trajectory) -> np.ndarray:
    """One focal point per sample from the recorded world-frame eye rays.

    Samples with parallel gaze inherit the previous focal point; a
    degenerate first sample is an error. Expects a blink-repaired
    trajectory.
    """
    rays = traj.left_origin, traj.left_dir, traj.right_origin, traj.right_dir
    points, degenerate, _ = focal_points(*rays)
    if degenerate[0]:
        raise ValueError("first sample has parallel gaze; no focal point")
    # each degenerate row takes the point of the last row before it that has one
    index = np.arange(len(points))
    index[degenerate] = 0
    return points[np.maximum.accumulate(index)]


def _rollout_rng(config: RolloutConfig, traj: Trajectory):
    return np.random.default_rng(
        [int(config.seed), int(traj.participant_id), TASK_ORDER.index(traj.task)]
    )


def _tick_divisor(controller: Controller, traj: Trajectory) -> int:
    """Samples per step: 1, or for a stateful controller the data rate over
    its trained rate, which must be a whole number."""
    if not controller.stateful:
        return 1
    ratio = traj.rate_hz / controller.train_rate_hz
    if round(ratio) < 1 or not math.isclose(ratio, round(ratio)):
        raise ValueError(f"{controller.name} trained at {controller.train_rate_hz:g} Hz "
                         f"cannot step a whole number of {traj.rate_hz:g} Hz samples")
    return round(ratio)


def _perturb(dirs, z, sigma_rad):
    """Each unit direction rotated by |0.0 + sigma * z[:, 0]| about its axis
    d x z[:, 1:] over its norm (Rodrigues, with the parallel term dropped).
    A raw axis within 1e-9 of parallel to d gives way to d x e_k, e_k the
    basis vector of d's smallest absolute component (the first on ties),
    which reads no value and has norm at least sqrt(2/3)."""
    axis = crosses(dirs, z[:, 1:])
    n = norms(axis)
    flat = np.flatnonzero(n <= 1e-9)
    if flat.size:
        axis[flat] = crosses(dirs[flat], np.eye(3)[np.abs(dirs[flat]).argmin(axis=1)])
        n[flat] = norms(axis[flat])
    angle = np.abs(0.0 + sigma_rad * z[:, 0])
    axis /= n[:, None]
    return dirs * np.cos(angle)[:, None] + crosses(axis, dirs) * np.sin(angle)[:, None]


def _padded(arrays, length):
    """(length, J, width) array of J (n_j, width) arrays, zero past each
    one's end: each sample's rows of every trajectory are one block."""
    out = np.zeros((length, len(arrays), arrays[0].shape[1]))
    for j, a in enumerate(arrays):
        out[: len(a), j] = a
    return out


class _Due:
    """The rows that step at a sample: their trajectories, each one's left
    and then right eye, and each controller's share of them as
    ``(controller, slice of the due rows, tick lengths, its own rows)``."""

    def __init__(self, due, traj_of, controllers, bounds, step_dt):
        self.rows = due
        self.traj = traj_of[due]
        self.eyes = np.repeat(due, 2)
        self.eye_traj = traj_of[self.eyes]
        cuts = np.searchsorted(due, bounds).tolist()
        self.calls = [
            (controller, slice(lo, hi), step_dt[due[lo:hi]], due[lo:hi] - bound)
            for controller, lo, hi, bound in zip(controllers, cuts, cuts[1:], bounds)
            if lo < hi
        ]


def lockstep(controllers, trajs, config: RolloutConfig):
    """Closed-loop rollouts of every controller over every trajectory, all
    advanced together one sample at a time; deterministic for a seed.

    Row ``c * len(trajs) + j`` is controller c on trajectory j. Returns
    each row's (n_j,) per-step squared errors, in that (controller-major)
    order, and the (rows,) mask of rows whose controller faulted; n_j is
    trajectory j's length under the duration cap. Each row gets the bits
    of a rollout on its own: focal points, head data and the noise are per
    trajectory, both eyes of every due row are one (2K, 3) batch, every
    controller steps all of its due rows in one ``step_rows`` call, and
    each row's step is masked by its length and its tick divisor.

    The noise of trajectory j is one ``standard_normal(8 * (n_j - 1))``
    block of its rollout generator, drawn up front; a row's k-th step reads
    values 8k to 8k+7: each eye's angle and raw axis, the left eye first.
    """
    n_traj = len(trajs)
    traj_of = np.tile(np.arange(n_traj), len(controllers))
    every = np.array([_tick_divisor(c, traj) for c in controllers for traj in trajs])
    lengths = [len(traj) for traj in trajs]
    if min(lengths) < 1:
        traj = trajs[lengths.index(0)]
        raise ValueError(f"the trajectory of participant {traj.participant_id} on {traj.task.value} "
                         "has no samples")
    if config.duration_cap_s is not None:
        cap = config.duration_cap_s
        lengths = [min(n, int(cap * traj.rate_hz)) for n, traj in zip(lengths, trajs)]
        if min(lengths) < 1:
            raise ValueError(f"a duration cap of {cap:g} s keeps no sample")
    t_max = max(lengths)
    focal = _padded([precompute_focal_points(traj)[:n] for traj, n in zip(trajs, lengths)], t_max)
    head_pos = _padded([traj.head_pos[:n] for traj, n in zip(trajs, lengths)], t_max)
    head_dir = _padded([traj.head_dir[:n] for traj, n in zip(trajs, lengths)], t_max)
    sigma = math.radians(config.noise_sigma_deg)
    noise = None
    if sigma > 0.0:  # 8 values per step: each eye's angle and raw axis
        noise = _padded([_rollout_rng(config, traj).standard_normal(8 * (n - 1)).reshape(-1, 8)
                         for traj, n in zip(trajs, lengths)], t_max)
    step_dt = np.array([(1.0 / trajs[j].rate_hz) * e for j, e in zip(traj_of, every.tolist())])
    last = np.array(lengths)[traj_of] - 1  # a row steps at t < last

    for controller in controllers:
        controller.reset_rows(n_traj)
    start = [dir_to_pitch_yaw(traj.head_dir[0]) for traj in trajs]
    angles = np.array([start[j] for j in traj_of])  # (rows, 2): pitch, yaw
    # each row's left eye, then its right eye, in the head frame
    eyes = np.tile([[-EYE_OFFSET, 0.0, 0.0], [EYE_OFFSET, 0.0, 0.0]], (len(traj_of), 1))
    eyes = eyes[:, :, None]
    bounds = (np.arange(len(controllers) + 1) * n_traj).tolist()
    # the due rows repeat with the tick phase until a row ends
    period, ends = int(np.lcm.reduce(every)), set(last.tolist())
    plans = {}
    faulted = np.zeros(len(traj_of), dtype=bool)
    errors = np.empty((len(traj_of), t_max))
    for t in range(t_max):
        rot = head_rotations(angles)
        forward = rot[:, :, 2]  # pitch_yaw_to_dir: the same products, commuted
        diff = forward - head_dir[t].take(traj_of, axis=0)
        errors[:, t] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        if t in ends:
            plans.clear()
        due = plans.get(t % period)
        if due is None:
            rows = np.flatnonzero((t < last) & (t % every == 0))
            due = plans[t % period] = _Due(rows, traj_of, controllers, bounds, step_dt)
        command = np.zeros((len(traj_of), 2))
        if due.calls:
            rot2 = rot[due.eyes]
            offsets = (rot2 @ eyes[: len(due.eyes)])[:, :, 0]
            origin = head_pos[t].take(due.eye_traj, axis=0) + offsets
            d = focal[t].take(due.eye_traj, axis=0) - origin
            gaze = d / norms(d)[:, None]
            if noise is not None:
                z = noise[t // every[due.rows], due.traj].reshape(-1, 4)
                gaze = _perturb(gaze, z, sigma)
            x = np.concatenate([to_head_frame(rot2, gaze).reshape(-1, 6), forward[due.rows]], axis=1)
            steps = [controller.step_rows(x[part], dt, rows) for controller, part, dt, rows in due.calls]
            command[due.rows] = np.concatenate([out for out, _ in steps])
            faults = np.concatenate([faults for _, faults in steps])
            if faults.any():
                faulted[due.rows] |= faults
        # every row adds its command, 0.0 when it does not step, as rotate_head does
        angles += command
        np.clip(angles[:, 0], -PITCH_LIMIT, PITCH_LIMIT, out=angles[:, 0])

    return [errors[b, : lengths[j]] for b, j in enumerate(traj_of.tolist())], faulted


@dataclass
class EvalRow:
    controller: str
    task: str
    trajectory: str
    mse: float
    steps: int
    faulted: bool
    # per-step squared errors of a fresh rollout, kept out of the JSON
    step_errors: np.ndarray | None = field(default=None, compare=False, repr=False)


ROW_KEYS = ("controller", "task", "trajectory", "mse", "steps", "faulted")  # JSON row fields


@dataclass
class EvalTable:
    """Per-(controller, task) aggregate MSE plus the per-trajectory rows.

    Aggregates average the per-step errors over all steps of all
    trajectories in the cell.
    """

    rows: list = field(default_factory=list)
    noise_sigma_deg: float = RolloutConfig.noise_sigma_deg
    seed: int = RolloutConfig.seed

    def aggregate(self):
        cells = {}
        for row in self.rows:
            for key in ((row.controller, row.task), (row.controller, "overall")):
                total, steps = cells.get(key, (0.0, 0))
                cells[key] = (total + row.mse * row.steps, steps + row.steps)
        out = {}
        for (controller, task), (total, steps) in sorted(cells.items()):
            out.setdefault(controller, {})[task] = {"mse": total / steps, "steps": steps}
        return out

    def to_json(self):
        return {
            "noise_sigma_deg": self.noise_sigma_deg,
            "seed": self.seed,
            "aggregate": self.aggregate(),
            "trajectories": [{key: getattr(r, key) for key in ROW_KEYS} for r in self.rows],
        }


def _evaluate_shard(job):
    """Rows of every controller over a run of trajectories, one list per
    controller; ``first`` is the index of the run's first trajectory."""
    controllers, trajs, config, first = job
    errors, faulted = lockstep(list(controllers.values()), trajs, config)
    rows = []
    for c, name in enumerate(controllers):
        rows.append([])
        for j, traj in enumerate(trajs):
            b = c * len(trajs) + j
            label = f"p{traj.participant_id:03d}-{traj.task.value}-{first + j:02d}"
            rows[c].append(EvalRow(name, traj.task.value, label, float(np.mean(errors[b])),
                                   len(errors[b]), bool(faulted[b]), errors[b]))
    return rows


def evaluate_suite(controllers, trajs, config: RolloutConfig, jobs=1) -> EvalTable:
    """Roll every controller over every trajectory in lockstep; rows come
    controller-major.

    ``controllers`` maps name -> Controller. Controller state is reset per
    call; the noise stream depends only on (seed, trajectory), not on the
    controller order or on which rows share a call, so ``jobs`` worker
    processes, each given a shard of the trajectories, give the same rows
    as one.
    """
    if not controllers or not trajs:
        raise ValueError("need at least one controller and one trajectory")
    size = -(-len(trajs) // max(1, jobs))
    shards = [(controllers, trajs[i : i + size], config, i) for i in range(0, len(trajs), size)]
    if len(shards) > 1:
        # spawned, not forked: numpy's BLAS threads may already be running
        with ProcessPoolExecutor(len(shards), mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = list(pool.map(_evaluate_shard, shards))
    else:
        parts = [_evaluate_shard(shards[0])]
    rows = [row for c in range(len(controllers)) for part in parts for row in part[c]]
    return EvalTable(rows=rows, noise_sigma_deg=config.noise_sigma_deg, seed=config.seed)


def rollout(controller: Controller, traj: Trajectory, config: RolloutConfig) -> EvalRow:
    """Closed-loop simulation of one trial: ``evaluate_suite`` on one row."""
    return evaluate_suite({controller.name: controller}, [traj], config).rows[0]
