"""Independent reference computations used by unit and acceptance tests.

These deliberately avoid the closed-form paths in the package: the ray
oracle is a grid search, the control-law oracle is 50-digit arithmetic,
gradients are central finite differences. The Adam and vector-law
gradient oracles evaluate each formula on its own, one fresh array at a
time, and the package's in-place forms must match them bit for bit. The
rollout oracles are the plain per-sample form (np.cross, np.linalg.norm,
one 3x3 solve per sample) that the package's faster rollout must match
bit for bit. The blink-repair oracle is the per-sample loop that the
package's columnar repair must match bit for bit, and the teacher-forced
LSTM oracle is the per-trajectory step loop that the lockstep prediction
must match bit for bit. StepRowsMixin, the per-row ``step_rows`` of the
test controllers, ZeroController, a baseline that never moves the head,
ReplayController, which replays recorded head deltas, and
make_trajectory, a builder of small test trajectories, live here because
only tests use them.
"""

import math

import mpmath
import numpy as np

from gazehead.controllers import Controller, combined_inputs
from gazehead.dataset import COLUMNS, TASK_ORDER, Task, Trajectory
from gazehead.geometry import HeadOrientation, Vec3, norm, rotate_head


class StepRowsMixin:
    """``step_rows`` as ``step`` on each row in turn: right for a test
    controller that keeps no per-row state, or when it steps one row."""

    def step_rows(self, x, dt, rows):
        out = np.empty((len(x), 2))
        faults = np.zeros(len(x), dtype=bool)
        latched = self.faulted
        for k, (row, row_dt) in enumerate(zip(x, dt.tolist())):
            self.faulted = False
            out[k] = self.step(row[0:3], row[3:6], row[6:9], row_dt)
            faults[k] = self.faulted
        self.faulted = latched or bool(faults.any())
        return out, faults


class ZeroController(StepRowsMixin, Controller):
    """Baseline that never moves the head."""

    family = "zero"

    def step(self, left_dir, right_dir, head_dir, dt):
        return 0.0, 0.0

    def predict(self, xs, dts):
        return [np.zeros((x.shape[0], 2)) for x in xs]


class ReplayController(StepRowsMixin, Controller):
    """Replays a precomputed (dpitch, dyaw) sequence in radians, one row
    per step, ignoring gaze; stepping past its end is an IndexError."""

    family = "replay"

    def __init__(self, deltas):
        super().__init__("replay")
        self.deltas = deltas
        self.i = 0

    def reset_rows(self, rows):
        super().reset_rows(rows)
        self.i = 0

    def step(self, left_dir, right_dir, head_dir, dt):
        d = self.deltas[self.i]
        self.i += 1
        return float(d[0]), float(d[1])


def lstm_predict_loop(controller, xs, dts):
    """Teacher-forced LSTM commands one trajectory at a time, one net.step
    per sample from a zero state: the per-sequence form that
    LstmController.predict's lockstep pass must match bit for bit."""
    net = controller.net
    preds = []
    for x, dt in zip(xs, dts):
        if net.input_size == 6:
            x = combined_inputs(x)
        pred = np.empty((x.shape[0], 2))
        hidden, cell = np.zeros((2, net.hidden_size))
        for i in range(x.shape[0]):
            y, hidden, cell = net.step(hidden, cell, x[i])
            pred[i] = y * (dt * controller.train_rate_hz)
        preds.append(pred)
    return preds


def make_trajectory(t, left_dir, right_dir=None, head_dir=(0.0, 0.0, 1.0), valid=True,
                    participant_id=0, task=Task.LINEAR_PURSUIT, rate_hz=90.0):
    """A trajectory with the head at the origin and the eyes 3 cm to either
    side. Each direction is one 3-vector for every sample or a (T, 3)
    array, and valid one flag or a (T,) array; the right gaze defaults to
    the left one."""
    t = np.asarray(t, dtype=float)

    def rows(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (len(t), 3)).copy()

    left = rows(left_dir)
    right = left.copy() if right_dir is None else rows(right_dir)
    return Trajectory(participant_id, task, rate_hz, t, rows((0.0, 0.0, 0.0)), rows(head_dir),
                      rows((-0.03, 0.0, 0.0)), left, rows((0.03, 0.0, 0.0)), right,
                      np.broadcast_to(np.asarray(valid, dtype=bool), t.shape).copy())


def interpolate_blink(before: Vec3, after: Vec3, fraction: float) -> Vec3:
    """Renormalized linear interpolation between two unit directions.

    Raises ValueError when the interpolant collapses (antiparallel inputs),
    which marks the sample as unrecoverable.
    """
    blend = (1.0 - fraction) * before + fraction * after
    n = norm(blend)
    if n < 1e-9:
        raise ValueError("cannot interpolate between antiparallel directions")
    return blend / n


def repair_blinks_loop(traj):
    """Blink repair sample by sample: leading and trailing blinks trimmed,
    each interior blink's gaze interpolate_blink between the last repaired
    sample before its run and the valid sample after it, at elapsed time
    over their span."""
    samples = [dict(zip(COLUMNS, row)) for row in zip(*(getattr(traj, c) for c in COLUMNS))]
    valid_idx = [i for i, s in enumerate(samples) if s["valid"]]
    if not valid_idx:
        raise ValueError("trajectory has no valid samples; unrecoverable")
    samples = samples[valid_idx[0] : valid_idx[-1] + 1]
    repaired = []
    i = 0
    while i < len(samples):
        s = samples[i]
        if s["valid"]:
            repaired.append(s)
            i += 1
            continue
        j = i
        while not samples[j]["valid"]:
            j += 1
        before = repaired[-1]
        after = samples[j]
        span = float(after["t"]) - float(before["t"])
        for k in range(i, j):
            fraction = (float(samples[k]["t"]) - float(before["t"])) / span
            repaired.append({
                **samples[k],
                "left_dir": interpolate_blink(before["left_dir"], after["left_dir"], fraction),
                "right_dir": interpolate_blink(before["right_dir"], after["right_dir"], fraction),
                "valid": True,
            })
        i = j
    columns = [np.array([s[c] for s in repaired]) for c in COLUMNS]
    return Trajectory(traj.participant_id, traj.task, traj.rate_hz, *columns)


def grid_closest_point(o1, d1, o2, d2, lo=-15.0, hi=15.0, rounds=6, n=121):
    """Midpoint of the closest approach of two lines, by zooming grid search.

    Minimizes |L(s) - R(t)| over a dense (s, t) grid, then re-grids around
    the argmin. Returns (midpoint, gap).
    """
    s_lo, s_hi = lo, hi
    t_lo, t_hi = lo, hi
    for _ in range(rounds):
        s = np.linspace(s_lo, s_hi, n)
        t = np.linspace(t_lo, t_hi, n)
        p = o1[None, None, :] + s[:, None, None] * d1[None, None, :]
        q = o2[None, None, :] + t[None, :, None] * d2[None, None, :]
        dist2 = np.sum((p - q) ** 2, axis=2)
        i, j = np.unravel_index(np.argmin(dist2), dist2.shape)
        ds = (s_hi - s_lo) / (n - 1)
        dt = (t_hi - t_lo) / (n - 1)
        s_best, t_best = s[i], t[j]
        s_lo, s_hi = s_best - 2 * ds, s_best + 2 * ds
        t_lo, t_hi = t_best - 2 * dt, t_best + 2 * dt
    a = o1 + s_best * d1
    b = o2 + t_best * d2
    return 0.5 * (a + b), float(np.linalg.norm(a - b))


def control_law_mp(v, a, b, c, x):
    """Sigmoid-gated velocity law evaluated with 50-digit arithmetic."""
    with mpmath.workdps(50):
        v, a, b, c, x = (mpmath.mpf(float(u)) for u in (v, a, b, c, x))
        return float(v * (x - c) / (1 + mpmath.e ** (a * (-(x - c) + b))))


def central_diff(f, x, h=1e-5):
    """Central finite-difference derivative of scalar f at scalar x."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(analytic, numeric, floor=1e-8):
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), floor)


def gradient_check(net, inputs, targets, h=1e-5):
    """Max rel_err of a network's analytic sequence gradients against
    central_diff of its loss, one parameter element at a time."""
    _, grads = net.sequence_loss_grads(inputs, targets)
    worst = 0.0
    for name, arr in net.params().items():
        flat = arr.ravel()  # a view: writes reach the network
        for idx, analytic in enumerate(np.ravel(grads[name])):
            orig = flat[idx]

            def loss(value):
                flat[idx] = value
                return net.sequence_loss_grads(inputs, targets)[0]

            numeric = central_diff(loss, orig, h)
            flat[idx] = orig
            worst = max(worst, rel_err(analytic, numeric))
    return worst


def adam_step_np(params, grads, m, v, step_count, learning_rate):
    """Adam in its out-of-place textbook form (Kingma & Ba), each moment and
    parameter a fresh array: the arithmetic ``nn.adam_step`` must match bit
    for bit. m and v are dicts of accumulators, rebound here; returns the
    new params dict."""
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1**step_count
    bc2 = 1.0 - beta2**step_count
    out = {}
    for k, p in params.items():
        g = np.asarray(grads[k], dtype=float)
        if k not in m:
            m[k] = np.zeros_like(g)
            v[k] = np.zeros_like(g)
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
        m_hat = m[k] / bc1
        v_hat = v[k] / bc2
        out[k] = p - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    return out


def vector_axis_grad_np(theta, x, d, k):
    """The symmetric law's loss gradient with respect to (v, alpha, b, c),
    each formula evaluated on its own: the arithmetic
    ``training.vector_axis_grad`` must match bit for bit."""
    v, alpha, b, c = theta
    a = math.exp(alpha)
    u = np.abs(x - c)
    s = np.sign(x - c)
    t = np.clip(a * (b - u), -700.0, 700.0)
    e = np.exp(t)
    dd = 1.0 + e
    h = s * v * u / dd
    resid = k * h - d
    coeff = 2.0 * k * resid / resid.size
    dh_dv = s * u / dd
    dh_da = -s * v * u * e * (b - u) / dd**2
    dh_db = -s * v * u * e * a / dd**2
    dh_dc = -v * (1.0 / dd + u * a * e / dd**2)
    return np.array([
        float(np.sum(coeff * dh_dv)),
        float(np.sum(coeff * dh_da)) * a,
        float(np.sum(coeff * dh_db)),
        float(np.sum(coeff * dh_dc)),
    ])


def focal_point_scalar(lo, ld, ro, rd):
    """Per-sample focal point: np.cross, one 3x3 solve, segment midpoint.
    Returns (point, gap), or (None, nan) for parallel directions."""
    cross = np.cross(ld, rd)
    cross_norm = np.linalg.norm(cross)
    if cross_norm < 1e-9:
        return None, float("nan")
    m = np.column_stack([ld, -rd, cross])
    c_l, _, c_f = np.linalg.solve(m, ro - lo)
    point = (lo + float(c_l) * ld) + 0.5 * float(c_f) * cross
    return point, abs(float(c_f)) * cross_norm


def focal_points_loop(traj):
    """One focal point per sample; a parallel sample inherits the previous."""
    points = np.empty((len(traj), 3))
    for i in range(len(traj)):
        point, _ = focal_point_scalar(traj.left_origin[i], traj.left_dir[i],
                                      traj.right_origin[i], traj.right_dir[i])
        if point is None:
            if i == 0:
                raise ValueError("first sample has parallel gaze; no focal point")
            points[i] = points[i - 1]
        else:
            points[i] = point
    return points


def perturb_np(direction, sigma_rad, rng):
    """Per-eye gaze perturbation drawn and rotated with np.cross. A raw axis
    within 1e-9 of parallel to the direction is not drawn again: the axis
    becomes the direction crossed with the basis vector of its smallest
    absolute component."""
    angle = abs(rng.normal(0.0, sigma_rad))
    axis = np.cross(direction, rng.normal(size=3))
    n = np.linalg.norm(axis)
    if n <= 1e-9:
        axis = np.cross(direction, np.eye(3)[np.argmin(np.abs(direction))])
        n = np.linalg.norm(axis)
    axis /= n
    return direction * math.cos(angle) + np.cross(axis, direction) * math.sin(angle)


def rollout_loop(controller, traj, noise_sigma_deg, seed, every, n=None, eye_offset=0.03, rng=None):
    """Closed-loop rollout step by step; returns (imputed, step_errors).

    The controller steps every ``every`` samples with that many sample
    periods as dt; ``n`` caps the number of steps. ``rng`` replaces the
    seeded noise generator.
    """
    focal = focal_points_loop(traj)
    if rng is None:
        rng = np.random.default_rng([seed, traj.participant_id, TASK_ORDER.index(traj.task)])
    sigma = math.radians(noise_sigma_deg)
    dt = 1.0 / traj.rate_hz
    n = len(traj) if n is None else n
    controller.reset_rows(1)
    head = HeadOrientation.from_forward(traj.head_dir[0])
    left_local = np.array([-eye_offset, 0.0, 0.0])
    right_local = np.array([eye_offset, 0.0, 0.0])
    imputed = np.empty((n, 3))
    errors = np.empty(n)
    for t in range(n):
        forward = head.forward
        imputed[t] = forward
        diff = forward - traj.head_dir[t]
        errors[t] = float(diff @ diff)
        if t == n - 1:
            break
        rot = head.rotation()
        head_pos = traj.head_pos[t]
        dpitch, dyaw = 0.0, 0.0
        if t % every == 0:
            left_dir = focal[t] - (head_pos + rot @ left_local)
            right_dir = focal[t] - (head_pos + rot @ right_local)
            left_dir = left_dir / np.linalg.norm(left_dir)
            right_dir = right_dir / np.linalg.norm(right_dir)
            if sigma > 0.0:
                left_dir = perturb_np(left_dir, sigma, rng)
                right_dir = perturb_np(right_dir, sigma, rng)
            dpitch, dyaw = controller.step(rot.T @ left_dir, rot.T @ right_dir, forward, dt * every)
        head = rotate_head(head, dpitch, dyaw)
    return imputed, errors
