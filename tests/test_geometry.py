import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazehead.geometry import (
    HeadOrientation,
    Ray,
    crosses,
    dir_to_pitch_yaw,
    focal_point,
    head_rotation,
    norm,
    normalize,
    norms,
    pitch_yaw_to_dir,
    rotate_head,
    vec3,
)
from oracles import grid_closest_point, interpolate_blink


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_focal_point_exact_intersection():
    left = Ray(vec3(-0.03, 0, 0), normalize(vec3(0.03, 0, 2)))
    right = Ray(vec3(0.03, 0, 0), normalize(vec3(-0.03, 0, 2)))
    fp = focal_point(left, right)
    assert not fp.degenerate
    assert np.allclose(fp.point, [0, 0, 2], atol=1e-12)
    assert fp.gap < 1e-12


def test_focal_point_parallel_is_degenerate():
    d = vec3(0, 0, 1)
    fp = focal_point(Ray(vec3(-0.03, 0, 0), d), Ray(vec3(0.03, 0, 0), d))
    assert fp.degenerate
    assert fp.point is None


def test_focal_point_matches_grid_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        o1 = rng.uniform(-1, 1, 3)
        o2 = rng.uniform(-1, 1, 3)
        d1 = random_unit(rng)
        d2 = random_unit(rng)
        if abs(d1 @ d2) > 0.95:
            continue
        fp = focal_point(Ray(o1, d1), Ray(o2, d2))
        expect, gap = grid_closest_point(o1, d1, o2, d2)
        assert not fp.degenerate
        assert np.linalg.norm(fp.point - expect) < 1e-6
        assert abs(fp.gap - gap) < 1e-6
        checked += 1


def test_focal_point_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        left = Ray(rng.uniform(-1, 1, 3), random_unit(rng))
        right = Ray(rng.uniform(-1, 1, 3), random_unit(rng))
        a = focal_point(left, right)
        b = focal_point(right, left)
        if a.degenerate:
            assert b.degenerate
            continue
        assert np.linalg.norm(a.point - b.point) < 1e-9
        assert abs(a.gap - b.gap) < 1e-9


def test_focal_point_through_common_point():
    rng = np.random.default_rng(13)
    for _ in range(50):
        target = rng.uniform(-2, 2, 3)
        o1 = rng.uniform(-1, 1, 3)
        o2 = rng.uniform(-1, 1, 3)
        d1 = normalize(target - o1)
        d2 = normalize(target - o2)
        if abs(d1 @ d2) > 0.999:
            continue
        fp = focal_point(Ray(o1, d1), Ray(o2, d2))
        assert np.linalg.norm(fp.point - target) < 1e-9
        assert fp.gap < 1e-9


# finite components whose products and sums of squares stay finite
vectors = st.lists(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, width=64), min_size=3, max_size=3
).map(np.array)


@given(vectors, vectors)
def test_cross_is_np_cross_bitwise(a, b):
    assert crosses(a[None, :], b[None, :])[0].tobytes() == np.cross(a, b).tobytes()
    rows, others = np.stack([a, b, a]), np.stack([b, a, a])
    assert crosses(rows, others).tobytes() == np.cross(rows, others).tobytes()


@given(vectors, vectors)
def test_norm_is_np_linalg_norm_bitwise(v, w):
    assert norm(v) == np.linalg.norm(v)
    assert norms(v[None, :])[0] == norm(v)
    # six rows, as many as a rapid-avoidance trial's cubes and distractors
    rows = np.stack([v, w, -v, w * 0.5, v, w])
    assert norms(rows).tolist() == [norm(row) for row in rows]


def test_interpolate_blink_constant():
    d = vec3(0, 0, 1)
    assert np.allclose(interpolate_blink(d, d, 0.5), d, atol=1e-15)


def test_interpolate_blink_midpoint():
    out = interpolate_blink(vec3(1, 0, 0), vec3(0, 1, 0), 0.5)
    assert np.allclose(out, [0.7071068, 0.7071068, 0], atol=1e-7)


def test_interpolate_blink_antiparallel_raises():
    with pytest.raises(ValueError):
        interpolate_blink(vec3(0, 0, 1), vec3(0, 0, -1), 0.5)


def test_interpolate_blink_always_unit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_unit(rng)
        b = random_unit(rng)
        if np.linalg.norm(a + b) < 1e-3:
            continue
        out = interpolate_blink(a, b, rng.uniform())
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_dir_to_pitch_yaw_examples():
    assert dir_to_pitch_yaw(vec3(0, 0, 1)) == (0.0, 0.0)
    pitch, yaw = dir_to_pitch_yaw(vec3(1, 0, 0))
    assert pitch == 0.0
    assert abs(yaw - math.pi / 2) < 1e-12
    pitch, yaw = dir_to_pitch_yaw(vec3(0, 0.5, 0.8660254))
    assert abs(pitch - math.radians(30)) < 1e-7
    assert yaw == 0.0


def test_dir_pitch_yaw_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = random_unit(rng)
        pitch, yaw = dir_to_pitch_yaw(d)
        if abs(pitch) >= math.radians(89):
            continue
        back = pitch_yaw_to_dir(pitch, yaw)
        assert np.linalg.norm(back - d) < 1e-9


def test_gimbal_pole_yaw_convention():
    assert dir_to_pitch_yaw(vec3(0, 1, 0))[1] == 0.0
    assert dir_to_pitch_yaw(vec3(0, -1, 0))[1] == 0.0


def test_head_rotation_maps_forward():
    rng = np.random.default_rng(17)
    for _ in range(100):
        pitch = rng.uniform(-1.4, 1.4)
        yaw = rng.uniform(-3, 3)
        r = head_rotation(pitch, yaw)
        assert np.allclose(r @ vec3(0, 0, 1), pitch_yaw_to_dir(pitch, yaw), atol=1e-12)
        # proper rotation
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotate_head_identity_and_additivity():
    h = HeadOrientation()
    assert rotate_head(h, 0.0, 0.0) == HeadOrientation()
    moved = rotate_head(h, 0.1, -0.2)
    assert moved.pitch == 0.1 and moved.yaw == -0.2 and moved.roll == 0.0


def test_rotate_head_accumulates():
    rng = np.random.default_rng(23)
    deltas = rng.uniform(-0.01, 0.01, size=(200, 2))
    h = HeadOrientation()
    for dp, dy in deltas:
        h = rotate_head(h, dp, dy)
    assert abs(h.pitch - deltas[:, 0].sum()) < 1e-9
    assert abs(h.yaw - deltas[:, 1].sum()) < 1e-9
    assert not h.saturated


def test_rotate_head_saturates_pitch():
    h = rotate_head(HeadOrientation(), math.radians(120), 0.0)
    assert h.saturated
    assert abs(h.pitch - math.radians(89)) < 1e-12
    low = rotate_head(HeadOrientation(), -math.radians(120), 0.3)
    assert low.saturated and abs(low.pitch + math.radians(89)) < 1e-12
    assert low.yaw == 0.3
