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

# Half the interpupillary distance (m): the eyes sit at (-/+EYE_OFFSET, 0, 0)
# in the head frame, in the synthesized data and in a rollout alike.
EYE_OFFSET = 0.03


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def norm(v: Vec3) -> float:
    """Euclidean length; the same BLAS dot as np.linalg.norm, so the same bits."""
    return math.sqrt(float(v @ v))


def norms(rows: np.ndarray) -> np.ndarray:
    """norm of every row of an (N, 3) array, bit for bit: a stacked matmul
    runs the same BLAS dot per row, where an elementwise sum of squares may
    round differently."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def crosses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of every row pair of two (N, 3) arrays without its axis
    handling: the same formula, written out over the columns, each product
    rounded and then the difference."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    out = np.empty((len(a), 3))
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def normalize(v: Vec3) -> Vec3:
    """Unit vector along v. Raises ValueError for a near-zero vector."""
    n = norm(v)
    if n < 1e-9:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """normalize on every row of an (N, 3) array, bit for bit."""
    n = norms(rows)
    if (n < 1e-9).any():
        raise ValueError("cannot normalize a near-zero vector")
    return rows / n[:, None]


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


def focal_points(lo: np.ndarray, ld: np.ndarray, ro: np.ndarray, rd: np.ndarray):
    """Binocular focal points of N gaze-ray pairs, given as (N, 3) origins
    and unit directions of the left and right rays.

    The shortest segment between two lines runs along the cross product
    of their directions; solving

        c_l * d_l - c_r * d_r + c_f * (d_l x d_r) = o_r - o_l

    for (c_l, c_r, c_f) places its endpoints on each line, and the focal
    point is the segment midpoint. Returns (points, degenerate, gaps):
    rows whose directions are parallel within PARALLEL_TOL are flagged
    degenerate, never reach the solve, and get NaN point and gap. Raises
    ValueError when a direction is not unit length.
    """
    if np.any(np.abs(norms(ld) - 1.0) > 1e-9) or np.any(np.abs(norms(rd) - 1.0) > 1e-9):
        raise ValueError("ray direction must be unit length")
    c = np.cross(ld, rd)
    c_norm = norms(c)
    degenerate = c_norm < PARALLEL_TOL
    points = np.full(ld.shape, np.nan)
    gaps = np.full(len(ld), np.nan)
    ok = ~degenerate
    lo, ld, ro, rd, c = lo[ok], ld[ok], ro[ok], rd[ok], c[ok]
    m = np.stack([ld, -rd, c], axis=2)
    # the trailing axis makes each right-hand side a column, not a matrix
    coeffs = np.linalg.solve(m, (ro - lo)[..., None])[..., 0]
    c_l, c_f = coeffs[:, :1], coeffs[:, 2:]
    points[ok] = lo + c_l * ld + (0.5 * c_f) * c  # in Ray.at's order
    gaps[ok] = np.abs(c_f[:, 0]) * c_norm[ok]
    return points, degenerate, gaps


def focal_point(left: Ray, right: Ray) -> FocalPoint:
    """Binocular focal point of two gaze rays: focal_points on one row."""
    rows = [v[None, :] for v in (left.origin, left.direction, right.origin, right.direction)]
    points, degenerate, gaps = focal_points(*rows)
    if degenerate[0]:
        return FocalPoint(point=None, gap=float("nan"), degenerate=True)
    return FocalPoint(point=points[0], gap=float(gaps[0]), degenerate=False)


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


def head_rotation_entries(pitch: float, yaw: float) -> tuple[float, ...]:
    """The nine entries of head_rotation(pitch, yaw), row by row."""
    sp, cp = math.sin(pitch), math.cos(pitch)
    sy, cy = math.sin(yaw), math.cos(yaw)
    return cy, -sy * sp, sy * cp, 0.0, cp, sp, -sy, -cy * sp, cy * cp


def head_rotation(pitch: float, yaw: float) -> np.ndarray:
    """World-from-head rotation matrix for a roll-free head pose."""
    return np.array(head_rotation_entries(pitch, yaw)).reshape(3, 3)


def head_rotations(angles: np.ndarray) -> np.ndarray:
    """head_rotation of every (pitch, yaw) row of (N, 2) angles, bit for
    bit, as one C-contiguous (N, 3, 3) block: a stacked matmul over the
    transposed view ``entries.T`` would round differently."""
    sp, sy = np.sin(angles).T
    cp, cy = np.cos(angles).T
    entries = np.array([cy, -sy * sp, sy * cp, np.zeros_like(cp), cp, sp, -sy, -cy * sp, cy * cp])
    return np.ascontiguousarray(entries.T).reshape(-1, 3, 3)


def to_head_frame(rot: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(N, 3) world directions in the frames of (N, 3, 3) head_rotations:
    each row has the bits of the one-row ``rot[k].T @ dirs[k]``."""
    return (rot.transpose(0, 2, 1) @ dirs[:, :, None])[:, :, 0]


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
