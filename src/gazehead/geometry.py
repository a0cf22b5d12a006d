"""Vector, ray, and head-orientation math shared by every other module.

Coordinate convention: right-handed, y up, z forward, x right. The unit
vector (0, 0, 1) is straight ahead; positive pitch looks up, positive yaw
looks right. Head roll is always zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray

# |cross| below this is treated as parallel gaze (double-precision noise
# floor for unit inputs).
PARALLEL_TOL = 1e-9

# Pitch is clamped here so the direction <-> (pitch, yaw) conversion stays
# invertible.
PITCH_LIMIT = math.radians(89.0)


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def norm(v: Vec3) -> float:
    return math.sqrt(float(v @ v))


def normalize(v: Vec3) -> Vec3:
    """Unit vector along v. Raises ValueError for a near-zero vector."""
    n = norm(v)
    if n < 1e-9:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


@dataclass
class Ray:
    """Half-line from an origin (meters) along a unit direction."""

    origin: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        if abs(norm(self.direction) - 1.0) > 1e-9:
            raise ValueError("ray direction must be unit length")

    def at(self, t: float) -> Vec3:
        return self.origin + t * self.direction


@dataclass
class FocalPoint:
    """Midpoint of the shortest segment between two gaze lines.

    ``gap`` is the length of that segment (meters). When the two directions
    are parallel within tolerance no point exists: ``degenerate`` is set,
    ``point`` is None and ``gap`` is NaN.
    """

    point: Vec3 | None
    gap: float
    degenerate: bool


def focal_point(left: Ray, right: Ray) -> FocalPoint:
    """Binocular focal point of two gaze rays.

    The shortest segment between the two lines runs along the cross product
    of their directions; solving

        c_l * d_l - c_r * d_r + c_f * (d_l x d_r) = o_r - o_l

    for (c_l, c_r, c_f) places its endpoints on each line. The returned
    point is the segment midpoint.
    """
    cross = np.cross(left.direction, right.direction)
    cross_norm = norm(cross)
    if cross_norm < PARALLEL_TOL:
        return FocalPoint(point=None, gap=float("nan"), degenerate=True)
    m = np.column_stack([left.direction, -right.direction, cross])
    c_l, _, c_f = np.linalg.solve(m, right.origin - left.origin)
    point = left.at(float(c_l)) + 0.5 * float(c_f) * cross
    return FocalPoint(point=point, gap=abs(float(c_f)) * cross_norm, degenerate=False)


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


def dir_to_pitch_yaw(d: Vec3) -> tuple[float, float]:
    """(pitch, yaw) in radians of a unit direction.

    yaw = atan2(x, z), pitch = asin(y). At the gimbal poles (|pitch| = 90
    degrees) yaw is 0 by convention.
    """
    y = min(1.0, max(-1.0, float(d[1])))
    pitch = math.asin(y)
    if abs(float(d[0])) < 1e-15 and abs(float(d[2])) < 1e-15:
        return pitch, 0.0
    return pitch, math.atan2(float(d[0]), float(d[2]))


def dirs_to_pitch_yaw(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dir_to_pitch_yaw over an (N, 3) array, without the pole convention."""
    pitch = np.arcsin(np.clip(dirs[:, 1], -1.0, 1.0))
    yaw = np.arctan2(dirs[:, 0], dirs[:, 2])
    return pitch, yaw


def pitch_yaw_to_dir(pitch: float, yaw: float) -> Vec3:
    """Unit direction for (pitch, yaw); inverse of dir_to_pitch_yaw."""
    cp = math.cos(pitch)
    return vec3(cp * math.sin(yaw), math.sin(pitch), cp * math.cos(yaw))


def head_rotation(pitch: float, yaw: float) -> np.ndarray:
    """World-from-head rotation matrix for a roll-free head pose."""
    sp, cp = math.sin(pitch), math.cos(pitch)
    sy, cy = math.sin(yaw), math.cos(yaw)
    return np.array(
        [
            [cy, -sy * sp, sy * cp],
            [0.0, cp, sp],
            [-sy, -cy * sp, cy * cp],
        ]
    )


@dataclass
class HeadOrientation:
    """Roll-free head pose, angles in radians.

    ``saturated`` is set by rotate_head when a pitch command ran into the
    +/-89 degree conversion limit.
    """

    pitch: float = 0.0
    yaw: float = 0.0
    roll: float = 0.0
    saturated: bool = False

    @property
    def forward(self) -> Vec3:
        return pitch_yaw_to_dir(self.pitch, self.yaw)

    def rotation(self) -> np.ndarray:
        return head_rotation(self.pitch, self.yaw)

    @classmethod
    def from_forward(cls, d: Vec3) -> "HeadOrientation":
        pitch, yaw = dir_to_pitch_yaw(d)
        return cls(pitch=pitch, yaw=yaw)


def rotate_head(head: HeadOrientation, dpitch: float, dyaw: float) -> HeadOrientation:
    """Additive pitch/yaw update; pitch clamps at +/-89 deg and flags it."""
    pitch = head.pitch + dpitch
    saturated = False
    if pitch > PITCH_LIMIT:
        pitch = PITCH_LIMIT
        saturated = True
    elif pitch < -PITCH_LIMIT:
        pitch = -PITCH_LIMIT
        saturated = True
    return HeadOrientation(pitch=pitch, yaw=head.yaw + dyaw, roll=0.0, saturated=saturated)
