"""Neck-robot control-loop simulator: EMA gaze filtering at sensor rate,
one controller call per 50 Hz tick, velocity limiting, and workspace
clamping with boundary sliding.

Pose is (pitch, yaw) in degrees with roll fixed at 0; positive pitch is
flexion (chin down). The safety layer runs the velocity limit first and
the boundary clamp last, so the pose can never leave the workspace no
matter what the controller commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import pitch_yaw_to_dir

TICK_RATE_HZ = 50.0  # control loop
SENSOR_RATE_HZ = 200.0  # gaze stream
SAMPLES_PER_TICK = round(SENSOR_RATE_HZ / TICK_RATE_HZ)


@dataclass
class ExoLimits:
    flexion_max: float = 25.0  # deg, forward pitch
    extension_max: float = -3.0  # deg, backward pitch
    yaw_limit: float = 30.0  # deg, symmetric side-to-side
    max_speed: float = 1.0  # rad/s

    def __post_init__(self):
        if self.extension_max >= self.flexion_max:
            raise ValueError("extension_max must be below flexion_max")
        if self.yaw_limit <= 0 or self.max_speed <= 0:
            raise ValueError("yaw_limit and max_speed must be positive")


class EmaFilter:
    """First-order recursive low-pass: y <- alpha*x + (1-alpha)*y.

    The first sample seeds the state.
    """

    alpha = 0.1  # the default smoothing factor

    def __init__(self, alpha=alpha):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self.state = None

    def update(self, sample):
        if self.state is None:
            self.state = float(sample)
        else:
            self.state = self.alpha * float(sample) + (1.0 - self.alpha) * self.state
        return self.state


def clamp_with_slide(pitch, yaw, limits: ExoLimits):
    """Component-wise clamp into the workspace; the unclamped component
    passes through unchanged (the pose slides along the boundary)."""
    pitch = min(max(pitch, limits.extension_max), limits.flexion_max)
    yaw = min(max(yaw, -limits.yaw_limit), limits.yaw_limit)
    return pitch, yaw


def limit_velocity(prev_pitch, prev_yaw, cmd_pitch, cmd_yaw, dt, limits: ExoLimits):
    """Cap the angular step so the joint speed stays within max_speed: the
    Euclidean norm of the (pitch, yaw) step measured in radians is capped,
    preserving its direction."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dp = cmd_pitch - prev_pitch
    dy = cmd_yaw - prev_yaw
    cap_deg = math.degrees(limits.max_speed * dt)
    step = math.hypot(dp, dy)
    if step > cap_deg:
        ratio = cap_deg / step
        dp *= ratio
        dy *= ratio
    return prev_pitch + dp, prev_yaw + dy


@dataclass
class ExoState:
    """Pose and bookkeeping of the simulated device (degrees)."""

    pitch: float = 0.0
    yaw: float = 0.0
    roll: float = 0.0
    tick: int = 0
    pitch_saturated: bool = False
    yaw_saturated: bool = False
    controller_faulted: bool = False


class ExoSim:
    """TICK_RATE_HZ control loop over a SENSOR_RATE_HZ gaze-angle stream.

    Each tick consumes SAMPLES_PER_TICK raw (pitch, yaw) gaze angles,
    EMA-filters them per axis, runs the controller once on the latest
    filtered value (zero-order hold), and applies velocity limiting then
    boundary clamping.
    """

    tick_dt = 1.0 / TICK_RATE_HZ

    def __init__(self, controller, limits=None, alpha=EmaFilter.alpha):
        self.controller = controller
        self.limits = limits or ExoLimits()
        self.pitch_filter = EmaFilter(alpha)
        self.yaw_filter = EmaFilter(alpha)
        self.state = ExoState()
        self.dropped_samples = 0

    def tick(self, gaze_samples):
        """Advance one control tick; gaze_samples is an iterable of
        (pitch_deg, yaw_deg) sensor readings for this tick."""
        state = self.state
        fp, fy = self.pitch_filter.state or 0.0, self.yaw_filter.state or 0.0
        for p, y in gaze_samples:
            fp = self.pitch_filter.update(p)
            fy = self.yaw_filter.update(y)
        gaze_dir = pitch_yaw_to_dir(math.radians(fp), math.radians(fy))
        head_dir = pitch_yaw_to_dir(math.radians(state.pitch), math.radians(state.yaw))
        dpitch, dyaw = self.controller.step(gaze_dir, gaze_dir, head_dir, self.tick_dt)
        if self.controller.faulted:
            # hold pose at zero velocity for this tick
            state.controller_faulted = True
            dpitch, dyaw = 0.0, 0.0
            self.controller.faulted = False
        cmd_pitch = state.pitch + math.degrees(dpitch)
        cmd_yaw = state.yaw + math.degrees(dyaw)
        pitch, yaw = limit_velocity(
            state.pitch, state.yaw, cmd_pitch, cmd_yaw, self.tick_dt, self.limits
        )
        clamped_pitch, clamped_yaw = clamp_with_slide(pitch, yaw, self.limits)
        state.pitch_saturated = clamped_pitch != pitch
        state.yaw_saturated = clamped_yaw != yaw
        state.pitch = clamped_pitch
        state.yaw = clamped_yaw
        state.tick += 1
        return state

    def run(self, gaze_stream):
        """Consume a (N, 2) gaze-angle stream; returns one pose log row
        (t, pitch, yaw, pitch_saturated, yaw_saturated) per tick. A stream
        shorter than one tick is an error. The trailing samples that fall
        short of a whole tick are not read; their count is left in
        ``dropped_samples``."""
        chunk = SAMPLES_PER_TICK
        if len(gaze_stream) < chunk:
            raise ValueError(f"gaze stream of {len(gaze_stream)} samples is shorter than one tick "
                             f"({chunk} samples)")
        self.dropped_samples = len(gaze_stream) % chunk
        log = []
        for start in range(0, len(gaze_stream) - chunk + 1, chunk):
            state = self.tick(gaze_stream[start : start + chunk])
            log.append(
                (
                    state.tick * self.tick_dt,
                    state.pitch,
                    state.yaw,
                    state.pitch_saturated,
                    state.yaw_saturated,
                )
            )
        return log
