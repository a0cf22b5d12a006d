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
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controllers import Controller
from .dataset import TASK_ORDER, Trajectory
from .geometry import HeadOrientation, cross, focal_points, norm, rotate_head, vec3


@dataclass
class RolloutConfig:
    noise_sigma_deg: float = 0.5  # angular std of per-eye gaze perturbation
    seed: int = 0
    duration_cap_s: float | None = None
    eye_offset: float = 0.03  # m, half interpupillary distance

    def __post_init__(self):
        if self.noise_sigma_deg < 0:
            raise ValueError("noise sigma must be nonnegative")


@dataclass
class RolloutResult:
    imputed: np.ndarray  # (T, 3) virtual head directions
    step_errors: np.ndarray  # (T,)
    mse: float
    task: str
    faulted: bool = False


def precompute_focal_points(traj: Trajectory) -> np.ndarray:
    """One focal point per sample from the recorded world-frame eye rays.

    Samples with parallel gaze inherit the previous focal point; a
    degenerate first sample is an error. Expects a blink-repaired
    trajectory.
    """
    samples = traj.samples
    rays = [np.array([getattr(s, name) for s in samples])
            for name in ("left_origin", "left_dir", "right_origin", "right_dir")]
    points, degenerate, _ = focal_points(*rays)
    if degenerate[0]:
        raise ValueError("first sample has parallel gaze; no focal point")
    # each degenerate row takes the point of the last row before it that has one
    index = np.arange(len(points))
    index[degenerate] = 0
    return points[np.maximum.accumulate(index)]


def _perturb(direction, sigma_rad, rng):
    """Rotate by |N(0, sigma)| about a random axis perpendicular to the
    direction (Rodrigues, with the parallel term dropped)."""
    angle = abs(rng.normal(0.0, sigma_rad))
    while True:
        raw = rng.normal(size=3)
        axis = cross(direction, raw)
        n = norm(axis)
        if n > 1e-9:
            axis /= n
            break
    return direction * math.cos(angle) + cross(axis, direction) * math.sin(angle)


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


def rollout(controller: Controller, traj: Trajectory, config: RolloutConfig) -> RolloutResult:
    """Closed-loop simulation of one trial; deterministic for a given seed."""
    every = _tick_divisor(controller, traj)
    focal = precompute_focal_points(traj)
    rng = _rollout_rng(config, traj)
    sigma = math.radians(config.noise_sigma_deg)
    dt = 1.0 / traj.rate_hz
    n = len(traj.samples)
    if config.duration_cap_s is not None:
        n = min(n, int(config.duration_cap_s * traj.rate_hz))

    controller.reset()
    head = HeadOrientation.from_forward(traj.samples[0].head_dir)
    left_local = vec3(-config.eye_offset, 0.0, 0.0)
    right_local = vec3(config.eye_offset, 0.0, 0.0)
    imputed = np.empty((n, 3))
    errors = np.empty(n)
    faulted = False
    for t in range(n):
        forward = head.forward
        imputed[t] = forward
        diff = forward - traj.samples[t].head_dir
        errors[t] = float(diff @ diff)
        if t == n - 1:
            break
        rot = head.rotation()
        head_pos = traj.samples[t].head_pos
        dpitch, dyaw = 0.0, 0.0
        if t % every == 0:
            left_origin = head_pos + rot @ left_local
            right_origin = head_pos + rot @ right_local
            left_dir = focal[t] - left_origin
            right_dir = focal[t] - right_origin
            left_dir = left_dir / norm(left_dir)
            right_dir = right_dir / norm(right_dir)
            if sigma > 0.0:
                left_dir = _perturb(left_dir, sigma, rng)
                right_dir = _perturb(right_dir, sigma, rng)
            dpitch, dyaw = controller.step(rot.T @ left_dir, rot.T @ right_dir, forward, dt * every)
            if controller.faulted:
                faulted = True
        head = rotate_head(head, dpitch, dyaw)
    return RolloutResult(
        imputed=imputed,
        step_errors=errors,
        mse=float(np.mean(errors)),
        task=traj.task.value,
        faulted=faulted,
    )


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
    noise_sigma_deg: float = 0.5
    seed: int = 0

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


def _evaluate_row(job) -> EvalRow:
    name, controller, traj, config, index = job
    result = rollout(controller, traj, config)
    label = f"p{traj.participant_id:03d}-{traj.task.value}-{index:02d}"
    return EvalRow(name, result.task, label, result.mse, len(result.step_errors),
                   result.faulted, result.step_errors)


def evaluate_suite(controllers, trajs, config: RolloutConfig, jobs=1) -> EvalTable:
    """Roll every controller over every trajectory, controller-major.

    ``controllers`` maps name -> Controller. Controller state is reset per
    rollout; the noise stream depends only on (seed, trajectory), not on
    the controller order, so ``jobs`` worker processes give the same rows
    as one.
    """
    if not controllers or not trajs:
        raise ValueError("need at least one controller and one trajectory")
    work = [
        (name, controller, traj, config, index)
        for name, controller in controllers.items()
        for index, traj in enumerate(trajs)
    ]
    if jobs > 1:
        # spawned, not forked: numpy's BLAS threads may already be running
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(_evaluate_row, work))
    else:
        rows = [_evaluate_row(job) for job in work]
    return EvalTable(rows=rows, noise_sigma_deg=config.noise_sigma_deg, seed=config.seed)
