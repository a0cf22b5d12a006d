import hashlib
import json
import math

import numpy as np
import pytest

from gazehead.dataset import (
    TASK_ORDER,
    GazeSample,
    SplitSpec,
    Task,
    TaskConfig,
    Trajectory,
    TrajectoryFormatError,
    downsample,
    generate_participant,
    generate_task,
    load_trajectories,
    repair_blinks,
    save_trajectories,
    split,
)
from gazehead.geometry import vec3

SHORT = TaskConfig(duration=5.0)


def make_sample(t, left_dir, right_dir=None, valid=True):
    d = np.asarray(left_dir, dtype=float)
    r = d if right_dir is None else np.asarray(right_dir, dtype=float)
    return GazeSample(
        t=t,
        head_pos=vec3(0, 0, 0),
        head_dir=vec3(0, 0, 1),
        left_origin=vec3(-0.03, 0, 0),
        left_dir=d,
        right_origin=vec3(0.03, 0, 0),
        right_dir=r,
        valid=valid,
    )


def test_header_only_file_loads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"participant": 0, "task": "linear-pursuit", "rate_hz": 90.0}\n')
    assert load_trajectories(path) == []


def test_roundtrip_is_bit_exact(tmp_path):
    _, oracle = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=1.0), seed=5)
    path = tmp_path / "traj.jsonl"
    save_trajectories(oracle, path)
    loaded = load_trajectories(path)
    assert len(loaded) == 1
    got = loaded[0]
    assert got.participant_id == oracle.participant_id
    assert got.task == oracle.task
    assert got.rate_hz == oracle.rate_hz
    assert len(got) == len(oracle)
    for a, b in zip(got.samples, oracle.samples):
        assert a.t == b.t and a.valid == b.valid
        for name in ("head_pos", "head_dir", "left_origin", "left_dir", "right_origin", "right_dir"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_invalid_rows_are_kept(tmp_path):
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1]),
        make_sample(1 / 90, [0, 0, 1], valid=False),
        make_sample(2 / 90, [0, 0, 1]),
    ])
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert [s.valid for s in loaded.samples] == [True, False, True]


def test_collapsed_gaze_marked_blink_on_load(tmp_path):
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1]),
        make_sample(1 / 90, [0, 0, 0.1]),  # norm < 0.5 but flagged valid
    ])
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert loaded.samples[1].valid is False


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"participant": 0, "task": "linear-pursuit", "rate_hz": 90.0}\n'
        '{"t": 0.0, "head_pos": [0,0,0]}\n'
    )
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_reports_line(tmp_path, token):
    path = tmp_path / "bad.jsonl"
    save_trajectories(Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1]),
        make_sample(0.5, [0, 0, 1]),
    ]), path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    lines[2] = lines[2].replace(json.dumps(row["t"]), token, 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=token) as err:
        load_trajectories(path)
    assert err.value.line_number == 3


def test_format_error_names_the_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"participant": 0, "task": "linear-pursuit", "rate_hz": 90.0}\n[1, 2]\n')
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.path == path and err.value.line_number == 2
    assert str(err.value) == f"{path}: line 2: expected a JSON object"


@pytest.mark.parametrize("rate", ["0", "-90.0", "\"inf\""])
def test_non_positive_rate_reports_line(tmp_path, rate):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"participant": 0, "task": "linear-pursuit", "rate_hz": 90.0}\n'
        '{"t": 0.0, "head_pos": [0,0,0], "head_dir": [0,0,1], "lo": [0,0,0], '
        '"ld": [0,0,1], "ro": [0,0,0], "rd": [0,0,1], "valid": true}\n'
        f'{{"participant": 1, "task": "linear-pursuit", "rate_hz": {rate}}}\n'
    )
    with pytest.raises(TrajectoryFormatError, match="rate_hz") as err:
        load_trajectories(path)
    assert err.value.line_number == 3


def test_non_monotonic_timestamps_rejected(tmp_path):
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1]),
        make_sample(0.5, [0, 0, 1]),
    ])
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # duplicate t = 0.0 at the end
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.line_number == 4


def test_repair_blinks_identity():
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(i / 90, [0, 0, 1]) for i in range(5)
    ])
    out = repair_blinks(traj)
    assert len(out) == 5
    assert all(s.valid for s in out.samples)
    assert np.array_equal(out.samples[2].left_dir, traj.samples[2].left_dir)


def test_repair_blinks_single_gap():
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [1, 0, 0]),
        make_sample(1.0, [0, 0, 1], valid=False),
        make_sample(2.0, [0, 1, 0]),
    ])
    out = repair_blinks(traj)
    assert np.allclose(out.samples[1].left_dir, [0.7071068, 0.7071068, 0], atol=1e-7)
    assert out.samples[1].valid


def test_repair_blinks_run_fractions():
    before = np.array([1.0, 0.0, 0.0])
    after = np.array([0.0, 1.0, 0.0])
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, before),
        make_sample(1.0, [0, 0, 1], valid=False),
        make_sample(2.0, [0, 0, 1], valid=False),
        make_sample(3.0, [0, 0, 1], valid=False),
        make_sample(4.0, after),
    ])
    out = repair_blinks(traj)
    for k, frac in ((1, 0.25), (2, 0.5), (3, 0.75)):
        expect = (1 - frac) * before + frac * after
        expect /= np.linalg.norm(expect)
        assert np.allclose(out.samples[k].left_dir, expect, atol=1e-12)


def test_repair_blinks_trims_edges():
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1], valid=False),
        make_sample(1.0, [0, 0, 1]),
        make_sample(2.0, [0, 0, 1], valid=False),
    ])
    out = repair_blinks(traj)
    assert len(out) == 1 and out.samples[0].t == 1.0


def test_repair_blinks_all_invalid_unrecoverable():
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [
        make_sample(0.0, [0, 0, 1], valid=False),
    ])
    with pytest.raises(ValueError):
        repair_blinks(traj)


def test_downsample_identity_and_counts():
    samples = [make_sample(i / 90, [0, 0, 1]) for i in range(8100)]
    traj = Trajectory(3, Task.ARC_PURSUIT, 90.0, samples)
    assert downsample(traj, 1).samples == samples
    half = downsample(traj, 2)
    assert len(half) == 4050
    assert half.rate_hz == 45.0
    assert half.task == Task.ARC_PURSUIT
    assert half.participant_id == 3
    assert half.samples[0] is samples[0]


def test_downsample_composes():
    samples = [make_sample(i / 90, [0, 0, 1]) for i in range(100)]
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, samples)
    twice = downsample(downsample(traj, 2), 2)
    once = downsample(traj, 4)
    assert twice.samples == once.samples
    assert twice.rate_hz == once.rate_hz


def test_downsample_rejects_bad_factor():
    traj = Trajectory(0, Task.LINEAR_PURSUIT, 90.0, [make_sample(0.0, [0, 0, 1])])
    with pytest.raises(ValueError):
        downsample(traj, 0)


def test_generate_is_deterministic():
    for task in Task:
        t1, o1 = generate_task(task, SHORT, seed=42)
        t2, o2 = generate_task(task, SHORT, seed=42)
        assert np.array_equal(t1.pos, t2.pos)
        for a, b in zip(o1.samples, o2.samples):
            assert np.array_equal(a.head_dir, b.head_dir)
            assert np.array_equal(a.left_dir, b.left_dir)


def test_linear_pursuit_speed():
    track, _ = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=10.0), seed=1)
    dt = 1.0 / 90.0
    steps = np.linalg.norm(np.diff(track.pos, axis=0), axis=1)
    full = 5.0 * dt
    assert np.all(steps <= full + 1e-6)
    within = np.abs(steps - full) < 1e-6
    assert within.mean() > 0.9  # all frames except waypoint turns


def test_arc_pursuit_angular_speed():
    track, _ = generate_task(Task.ARC_PURSUIT, TaskConfig(duration=10.0), seed=2)
    dt = 1.0 / 90.0
    chords = np.diff(track.pos, axis=0)
    # exterior angle between consecutive chords of uniform circular motion
    # equals the angular step about the center
    turns = []
    for u, w in zip(chords[:-1], chords[1:]):
        cross = np.linalg.norm(np.cross(u, w))
        turns.append(math.atan2(cross, float(u @ w)))
    turns = np.array(turns)
    target = 1.0 * dt
    assert abs(np.median(turns) - target) < 1e-6
    assert (np.abs(turns - target) < 1e-6).mean() > 0.9


def test_targets_stay_in_view_cone():
    limit = math.radians(70.0)
    for task in Task:
        for seed in (0, 9):
            track, _ = generate_task(task, SHORT, seed=seed)
            r = np.linalg.norm(track.pos, axis=1)
            pitch = np.arcsin(np.clip(track.pos[:, 1] / r, -1, 1))
            yaw = np.arctan2(track.pos[:, 0], track.pos[:, 2])
            assert np.all(np.abs(pitch) <= limit)
            assert np.all(np.abs(yaw) <= limit)


def test_rapid_search_fixation_interval():
    config = TaskConfig(duration=5.0)
    track, _ = generate_task(Task.RAPID_SEARCH, config, seed=3)
    jumps = np.linalg.norm(np.diff(track.pos, axis=0), axis=1)
    switch_frames = np.nonzero(jumps > 0.5)[0]
    assert len(switch_frames) > 3
    min_frames = round(config.fixation_time * config.rate_hz)
    assert np.all(np.diff(switch_frames) >= min_frames)


def test_oracle_eyes_intersect_target():
    for task in (Task.LINEAR_PURSUIT, Task.RAPID_AVOIDANCE):
        track, oracle = generate_task(task, SHORT, seed=4)
        assert all(s.valid for s in oracle.samples)
        for i in range(0, len(oracle), 37):
            s = oracle.samples[i]
            target = track.pos[i]
            for origin, direction in ((s.left_origin, s.left_dir), (s.right_origin, s.right_dir)):
                w = target - origin
                miss = np.linalg.norm(w - (w @ direction) * direction)
                assert miss < 1e-6


def test_oracle_head_follows_gaze():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=10.0), seed=6)
    dirs = np.array([s.head_dir for s in oracle.samples])
    assert np.linalg.norm(dirs[0] - [0, 0, 1]) < 1e-12
    moved = np.linalg.norm(dirs - dirs[0], axis=1)
    assert moved.max() > 0.05  # the head actually pursues


def test_split_counts_and_partition():
    stubs = [
        Trajectory(pid, Task.LINEAR_PURSUIT, 90.0, [])
        for pid in range(25)
        for _ in range(12)
    ]
    spec = SplitSpec(frozenset(range(18)), frozenset(range(18, 25)))
    train, test = split(stubs, spec)
    assert len(train) == 18 * 12
    assert len(test) == 7 * 12
    assert {t.participant_id for t in train} & {t.participant_id for t in test} == set()


def test_split_empty_test():
    stubs = [Trajectory(pid, Task.ARC_PURSUIT, 90.0, []) for pid in range(5)]
    spec = SplitSpec(frozenset(range(5)), frozenset())
    train, test = split(stubs, spec)
    assert len(train) == 5 and test == []


def test_split_disjoint_over_random_specs():
    rng = np.random.default_rng(71)
    stubs = [Trajectory(pid, Task.RAPID_SEARCH, 90.0, []) for pid in range(20)]
    for _ in range(20):
        ids = rng.permutation(20)
        cut = rng.integers(1, 19)
        spec = SplitSpec(frozenset(ids[:cut].tolist()), frozenset(ids[cut:].tolist()))
        train, test = split(stubs, spec)
        assert {t.participant_id for t in train}.isdisjoint(t.participant_id for t in test)


def test_split_overlap_rejected():
    with pytest.raises(ValueError):
        SplitSpec(frozenset({1, 2}), frozenset({2, 3}))


def test_split_uncovered_participant_rejected():
    stubs = [Trajectory(9, Task.RAPID_SEARCH, 90.0, [])]
    with pytest.raises(ValueError):
        split(stubs, SplitSpec(frozenset({1}), frozenset({2})))


def test_generate_participant_trial_count():
    trajs = generate_participant(2, [Task.LINEAR_PURSUIT, Task.RAPID_SEARCH], 2, TaskConfig(duration=1.0), seed=11)
    assert len(trajs) == 4
    assert all(t.participant_id == 2 for t in trajs)
    assert [t.task for t in trajs] == [Task.LINEAR_PURSUIT] * 2 + [Task.RAPID_SEARCH] * 2


# The exact bytes of generate_participant's output, laid out as the
# benchmark's fingerprint lays them out: header, then the t and valid
# columns, then the six (T, 3) vector fields. A changed generator bit
# changes a digest.
_FINGERPRINT_FIELDS = ("head_pos", "head_dir", "left_origin", "left_dir", "right_origin", "right_dir")
GENERATOR_DIGESTS = {
    "criterion-5": (
        TaskConfig(duration=2.0, motor_noise_rms=20.0, motor_noise_tau=0.5),
        1,
        "0884fd8bbcf335f2d2fd187132046237a5abb391425f3ad94e1f89fa78c4ade0",
    ),
    "default": (
        TaskConfig(duration=1.0),
        2,
        "a0fe94089a3abd46a316c235bb124b20489cd909bbf393897422412de6d93422",
    ),
}


def generator_digest(config, trials_per_task, seed=1000):
    h = hashlib.sha256()
    for pid in range(3):
        for traj in generate_participant(pid, TASK_ORDER, trials_per_task, config, seed):
            samples = traj.samples
            columns = [np.array([s.t for s in samples]), np.array([s.valid for s in samples])]
            columns += [np.array([getattr(s, f) for s in samples]) for f in _FINGERPRINT_FIELDS]
            h.update(f"{traj.participant_id} {traj.task.value} {traj.rate_hz!r}\n".encode())
            h.update(b"".join(c.tobytes() for c in columns))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_bits_are_pinned(name):
    config, trials_per_task, expected = GENERATOR_DIGESTS[name]
    assert generator_digest(config, trials_per_task) == expected


HEADER = '{"participant": 0, "task": "linear-pursuit", "rate_hz": 90.0}'


def sample_row(t, **fields):
    row = {"t": t, "head_pos": [0.0, 0.0, 0.0], "head_dir": [0.0, 0.0, 1.0],
           "lo": [-0.03, 0.0, 0.0], "ld": [0.0, 0.0, 1.0],
           "ro": [0.03, 0.0, 0.0], "rd": [0.0, 0.0, 1.0], "valid": True}
    row.update(fields)
    return json.dumps(row)


def load_error(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.path == path
    return err.value


def test_first_bad_line_wins_over_a_later_json_error(tmp_path):
    err = load_error(tmp_path, [
        HEADER, sample_row(0.0), sample_row(0.1, ld=[0.0, 1.0]), sample_row(0.2), "{not json",
    ])
    assert err.line_number == 3
    assert err.reason == "field left_dir is not a 3-vector"


def test_non_monotonic_timestamp_wins_over_a_later_missing_key(tmp_path):
    bad = json.loads(sample_row(0.2))
    del bad["rd"]
    err = load_error(tmp_path, [HEADER, sample_row(0.5), sample_row(0.0), json.dumps(bad)])
    assert err.line_number == 3
    assert err.reason == "non-monotonic timestamp"


def test_non_unit_gaze_direction_is_rejected(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0), sample_row(0.1, ld=[0.0, 0.0, 0.8])])
    assert err.line_number == 3
    assert "left_dir" in err.reason and "unit" in err.reason


def test_off_unit_row_is_named_before_a_later_malformed_row(tmp_path):
    err = load_error(tmp_path, [
        HEADER, sample_row(0.0), sample_row(0.1, ld=[0.0, 0.0, 0.8]), sample_row(0.2, rd=[0.0, 1.0]),
    ])
    assert err.line_number == 3 and "left_dir" in err.reason


def test_non_unit_head_direction_is_rejected(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0, head_dir=[0.0, 0.0, 2.0]), sample_row(0.1)])
    assert err.line_number == 2
    assert "head_dir" in err.reason and "unit" in err.reason


def test_off_unit_gaze_on_a_blink_row_loads(tmp_path):
    path = tmp_path / "blink.jsonl"
    path.write_text("\n".join([HEADER, sample_row(0.0), sample_row(0.1, ld=[0.0, 0.0, 0.8], valid=False)]))
    assert [s.valid for s in load_trajectories(path)[0].samples] == [True, False]


def test_null_in_valid_gaze_is_rejected(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0, rd=[0.0, 0.0, None])])
    assert err.line_number == 2 and "right_dir" in err.reason


@pytest.mark.parametrize("header", [
    '{"participant": null, "task": "linear-pursuit", "rate_hz": 90.0}',
    '{"participant": 0, "task": "linear-pursuit", "rate_hz": null}',
])
def test_null_header_field_reports_line(tmp_path, header):
    err = load_error(tmp_path, [header, sample_row(0.0)])
    assert err.line_number == 1 and err.reason.startswith("malformed header")


def test_integer_too_large_for_a_float_reports_line(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0), sample_row(0.1, lo=[10**400, 0, 0])])
    assert err.line_number == 3 and err.reason.startswith("malformed sample row")
