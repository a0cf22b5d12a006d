import hashlib
import json
import math

import numpy as np
import pytest

from gazehead.dataset import (
    COLUMNS,
    FIXATION_TIME,
    TASK_ORDER,
    SplitSpec,
    Task,
    TaskConfig,
    TrajectoryFormatError,
    downsample,
    generate_participant,
    generate_task,
    load_trajectories,
    repair_blinks,
    save_trajectories,
    split,
)
from oracles import make_trajectory, repair_blinks_loop

SHORT = TaskConfig(duration=5.0)


def same_columns(a, b):
    """Every column of two trajectories has the same dtype, shape and bits."""
    return all(
        getattr(a, c).dtype == getattr(b, c).dtype
        and getattr(a, c).shape == getattr(b, c).shape
        and getattr(a, c).tobytes() == getattr(b, c).tobytes()
        for c in COLUMNS
    )


def stub(participant_id, task):
    return make_trajectory([], [0, 0, 1], participant_id=participant_id, task=task)


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
    assert same_columns(got, oracle)


def test_invalid_rows_are_kept(tmp_path):
    traj = make_trajectory([0.0, 1 / 90, 2 / 90], [0, 0, 1], valid=[True, False, True])
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert loaded.valid.tolist() == [True, False, True]


def test_collapsed_gaze_marked_blink_on_load(tmp_path):
    traj = make_trajectory([0.0, 1 / 90], [[0, 0, 1], [0, 0, 0.1]])  # norm < 0.5 but flagged valid
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert loaded.valid.tolist() == [True, False]


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
    save_trajectories(make_trajectory([0.0, 0.5], [0, 0, 1]), path)
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
    traj = make_trajectory([0.0, 0.5], [0, 0, 1])
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # duplicate t = 0.0 at the end
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.line_number == 4


def test_repair_blinks_identity():
    traj = make_trajectory(np.arange(5) / 90, [0, 0, 1])
    out = repair_blinks(traj)
    assert len(out) == 5
    assert out.valid.all()
    assert np.array_equal(out.left_dir[2], traj.left_dir[2])


def test_repair_blinks_single_gap():
    traj = make_trajectory([0.0, 1.0, 2.0], [[1, 0, 0], [0, 0, 1], [0, 1, 0]], valid=[True, False, True])
    out = repair_blinks(traj)
    assert np.allclose(out.left_dir[1], [0.7071068, 0.7071068, 0], atol=1e-7)
    assert out.valid[1]


def test_repair_blinks_run_fractions():
    before = np.array([1.0, 0.0, 0.0])
    after = np.array([0.0, 1.0, 0.0])
    traj = make_trajectory(
        [0.0, 1.0, 2.0, 3.0, 4.0],
        [before, [0, 0, 1], [0, 0, 1], [0, 0, 1], after],
        valid=[True, False, False, False, True],
    )
    out = repair_blinks(traj)
    for k, frac in ((1, 0.25), (2, 0.5), (3, 0.75)):
        expect = (1 - frac) * before + frac * after
        expect /= np.linalg.norm(expect)
        assert np.allclose(out.left_dir[k], expect, atol=1e-12)


def test_repair_blinks_trims_edges():
    traj = make_trajectory([0.0, 1.0, 2.0], [0, 0, 1], valid=[False, True, False])
    out = repair_blinks(traj)
    assert len(out) == 1 and out.t[0] == 1.0


def test_repair_blinks_all_invalid_unrecoverable():
    traj = make_trajectory([0.0], [0, 0, 1], valid=False)
    with pytest.raises(ValueError):
        repair_blinks(traj)


def test_repair_blinks_antiparallel_raises():
    traj = make_trajectory([0.0, 1.0, 2.0], [[0, 0, 1], [0, 0, 1], [0, 0, -1]],
                           valid=[True, False, True])
    with pytest.raises(ValueError, match="near-zero"):
        repair_blinks(traj)


def test_downsample_identity_and_counts():
    traj = make_trajectory(np.arange(8100) / 90, [0, 0, 1], participant_id=3, task=Task.ARC_PURSUIT)
    same = downsample(traj, 1)
    assert same_columns(same, traj)
    half = downsample(traj, 2)
    assert len(half) == 4050
    assert half.rate_hz == 45.0
    assert half.task == Task.ARC_PURSUIT
    assert half.participant_id == 3
    for c in COLUMNS:  # views, not copies
        assert np.shares_memory(getattr(same, c), getattr(traj, c))
        assert np.shares_memory(getattr(half, c), getattr(traj, c))
    assert half.t[1] == traj.t[2]


def test_downsample_composes():
    traj = make_trajectory(np.arange(100) / 90, [0, 0, 1])
    twice = downsample(downsample(traj, 2), 2)
    once = downsample(traj, 4)
    assert same_columns(twice, once)
    assert twice.rate_hz == once.rate_hz


def test_downsample_rejects_bad_factor():
    traj = make_trajectory([0.0], [0, 0, 1])
    with pytest.raises(ValueError):
        downsample(traj, 0)


def test_generate_is_deterministic():
    for task in Task:
        t1, o1 = generate_task(task, SHORT, seed=42)
        t2, o2 = generate_task(task, SHORT, seed=42)
        assert np.array_equal(t1.pos, t2.pos)
        assert same_columns(o1, o2)


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
    min_frames = round(FIXATION_TIME * config.rate_hz)
    assert np.all(np.diff(switch_frames) >= min_frames)


def test_oracle_eyes_intersect_target():
    for task in (Task.LINEAR_PURSUIT, Task.RAPID_AVOIDANCE):
        track, oracle = generate_task(task, SHORT, seed=4)
        assert oracle.valid.all()
        for i in range(0, len(oracle), 37):
            target = track.pos[i]
            for origin, direction in ((oracle.left_origin[i], oracle.left_dir[i]),
                                      (oracle.right_origin[i], oracle.right_dir[i])):
                w = target - origin
                miss = np.linalg.norm(w - (w @ direction) * direction)
                assert miss < 1e-6


def test_oracle_head_follows_gaze():
    _, oracle = generate_task(Task.LINEAR_PURSUIT, TaskConfig(duration=10.0), seed=6)
    dirs = oracle.head_dir
    assert np.linalg.norm(dirs[0] - [0, 0, 1]) < 1e-12
    moved = np.linalg.norm(dirs - dirs[0], axis=1)
    assert moved.max() > 0.05  # the head actually pursues


def test_split_counts_and_partition():
    stubs = [
        stub(pid, Task.LINEAR_PURSUIT)
        for pid in range(25)
        for _ in range(12)
    ]
    spec = SplitSpec(frozenset(range(18)), frozenset(range(18, 25)))
    train, test = split(stubs, spec)
    assert len(train) == 18 * 12
    assert len(test) == 7 * 12
    assert {t.participant_id for t in train} & {t.participant_id for t in test} == set()


def test_split_empty_test():
    stubs = [stub(pid, Task.ARC_PURSUIT) for pid in range(5)]
    spec = SplitSpec(frozenset(range(5)), frozenset())
    train, test = split(stubs, spec)
    assert len(train) == 5 and test == []


def test_split_disjoint_over_random_specs():
    rng = np.random.default_rng(71)
    stubs = [stub(pid, Task.RAPID_SEARCH) for pid in range(20)]
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
    stubs = [stub(9, Task.RAPID_SEARCH)]
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
    # long enough for a rapid-avoidance distractor to reach the subject
    # ((SPAWN_DISTANCE - REACH_RADIUS) / APPROACH_SPEED = 9.5 s) and respawn
    "long-90hz": (
        TaskConfig(duration=12.0),
        1,
        "eb80671b06460fe322f243ed799f834963f45c4cc88099ec09f7d419b1d1a041",
    ),
    "long-200hz": (
        TaskConfig(duration=12.0, rate_hz=200.0),
        1,
        "5e799f87e0f1b4c63f258ddb67f44f302ecd68d253decf89b87b8ab0a0183c0f",
    ),
}


def generator_digest(config, trials_per_task, seed=1000):
    h = hashlib.sha256()
    for pid in range(3):
        for traj in generate_participant(pid, TASK_ORDER, trials_per_task, config, seed):
            columns = [traj.t, traj.valid, *(getattr(traj, f) for f in _FINGERPRINT_FIELDS)]
            h.update(f"{traj.participant_id} {traj.task.value} {traj.rate_hz!r}\n".encode())
            h.update(b"".join(c.tobytes() for c in columns))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_bits_are_pinned(name):
    config, trials_per_task, expected = GENERATOR_DIGESTS[name]
    assert generator_digest(config, trials_per_task) == expected


def test_standard_normal_pair_has_the_bits_of_two_normal_calls():
    # the generator draws each frame's two motor-noise values as one
    # standard_normal(2) between the target stepper's own draws
    for seed in range(20):
        pairs, singles = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            a = pairs.standard_normal(2).tolist() + [pairs.uniform()]
            b = [singles.normal(), singles.normal(), singles.uniform()]
            assert np.array(a).tobytes() == np.array(b).tobytes()


def test_standard_normal_block_has_the_bits_of_per_eye_normal_calls():
    # rollout.lockstep draws a trajectory's noise as one standard_normal(8k)
    # block and reads each step's eyes from it, where the step loop oracle
    # draws each eye's normal(0, sigma) and normal(size=3)
    for seed in range(20):
        sigma = math.radians(0.1 + 0.25 * seed)
        block, calls = np.random.default_rng(seed), np.random.default_rng(seed)
        steps = 1 + 9 * seed
        z = block.standard_normal(8 * steps).reshape(-1, 8)
        for step in z:
            for eye in (step[:4], step[4:]):
                assert (0.0 + sigma * eye[0]).tobytes() == np.float64(calls.normal(0.0, sigma)).tobytes()
                assert eye[1:].tobytes() == calls.normal(size=3).tobytes()
        assert block.standard_normal(4).tobytes() == calls.standard_normal(4).tobytes()


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


def test_non_utf8_line_is_named_after_the_rows_before_it(tmp_path):
    # lines are decoded one at a time, so the error names the line; the
    # bad byte sits well past the first read, and a bad row buffered ahead
    # of it is still named first
    path = tmp_path / "bad.jsonl"
    rows = [sample_row(0.01 * k) for k in range(300)]
    tail = b'{"t": 3.0, "\xff": 0}\n' + sample_row(3.1).encode() + b"\n"
    path.write_bytes("\n".join([HEADER, *rows, ""]).encode() + tail)
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert str(err.value) == f"{path}: line 302: not valid UTF-8 (invalid start byte)"
    rows[1] = sample_row(0.01, ld=[0.0, 0.0, 0.8])
    path.write_bytes("\n".join([HEADER, *rows, ""]).encode() + tail)
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(path)
    assert err.value.line_number == 3 and "left_dir" in err.value.reason
    # a line that is not ASCII but is UTF-8 loads
    row = sample_row(0.0, note="@").replace('"@"', '"café"')
    path.write_text("\n".join([HEADER, row, ""]), encoding="utf-8")
    assert len(load_trajectories(path)[0]) == 1


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
    assert load_trajectories(path)[0].valid.tolist() == [True, False]


def test_null_in_valid_gaze_is_rejected(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0, rd=[0.0, 0.0, None])])
    assert err.line_number == 2 and "right_dir" in err.reason


@pytest.mark.parametrize("header", [
    '{"participant": null, "task": "linear-pursuit", "rate_hz": 90.0}',
    '{"participant": 0, "task": "linear-pursuit", "rate_hz": null}',
    '{"participant": 1e999, "task": "linear-pursuit", "rate_hz": 90.0}',
    '{"participant": 0, "task": "linear-pursuit", "rate_hz": 1%s}' % ("0" * 400),
])
def test_null_header_field_reports_line(tmp_path, header):
    err = load_error(tmp_path, [header, sample_row(0.0)])
    assert err.line_number == 1 and err.reason.startswith("malformed header")


def test_integer_too_large_for_a_float_reports_line(tmp_path):
    err = load_error(tmp_path, [HEADER, sample_row(0.0), sample_row(0.1, lo=[10**400, 0, 0])])
    assert err.line_number == 3 and err.reason.startswith("malformed sample row")


def test_zero_gaze_on_a_blink_row_loads(tmp_path):
    path = tmp_path / "blink.jsonl"
    path.write_text("\n".join([HEADER, sample_row(0.0), sample_row(0.1, ld=[0, 0, 0], rd=[0, 0, 0], valid=False)]))
    loaded = load_trajectories(path)[0]
    assert loaded.valid.tolist() == [True, False] and not loaded.left_dir[1].any()


def raw_row(key, text, **fields):
    """sample_row(0.1, **fields) with the value of key written as raw JSON text."""
    row = json.loads(sample_row(0.1, **fields))
    row[key] = "@"
    return json.dumps(row).replace('"@"', text)


def row_without(key):
    """sample_row(0.1) with key left out."""
    row = json.loads(sample_row(0.1))
    del row[key]
    return json.dumps(row)


@pytest.mark.parametrize("line, reason", [
    (sample_row(0.1, head_pos=[0.0, None, 0.0]), "field head_pos is not a number"),
    (sample_row(0.1, lo=[None, 0.0, 0.0]), "field left_origin is not a number"),
    (sample_row(0.1, ld=[0.0, 0.0, None], valid=False), "field left_dir is not a number"),
    (raw_row("t", "1e999"), "field t is not finite"),
    # -inf is not after the previous t either; not finite is named first
    (raw_row("t", "-1e999"), "field t is not finite"),
    (raw_row("head_pos", "[1e999, 0.0, 0.0]"), "field head_pos is not finite"),
    (raw_row("ro", "[0.0, -1e999, 0.0]"), "field right_origin is not finite"),
    (raw_row("rd", "[0.0, 0.0, 1e999]", valid=False), "field right_dir is not finite"),
    (sample_row("0.1"), "field t is not a number"),
    (sample_row(True), "field t is not a number"),
    (sample_row(0.1, ld=["0", "0", "1"]), "field left_dir is not a number"),
    (sample_row(0.1, head_pos=[True, 0.0, 0.0]), "field head_pos is not a number"),
    (row_without("t"), "malformed sample row ('t')"),
    (sample_row(10**400), "malformed sample row (int too large to convert to float)"),
])
def test_non_numeric_or_non_finite_field_is_rejected(tmp_path, line, reason):
    err = load_error(tmp_path, [HEADER, sample_row(0.0), line, sample_row(0.2)])
    assert err.line_number == 3 and err.reason == reason


def test_off_unit_row_is_named_before_its_own_timestamp(tmp_path):
    # within a row the order is malformed, not finite, off unit, then not
    # after the previous row's t
    err = load_error(tmp_path, [HEADER, sample_row(0.5), sample_row(0.1, rd=[0.0, 0.0, 0.8])])
    assert err.line_number == 3
    assert err.reason == "field right_dir is not unit length (norm 0.8)"


@pytest.mark.parametrize("flag", ['"false"', '"true"', "null", "0", "1", "[]"])
def test_valid_flag_that_is_not_a_bool_is_rejected(tmp_path, flag):
    # by truthiness "false" would load as a valid sample and null as a blink
    err = load_error(tmp_path, [HEADER, sample_row(0.0), raw_row("valid", flag), sample_row(0.2)])
    assert err.line_number == 3 and err.reason == "field valid is not a bool"


def test_bad_valid_flag_keeps_the_first_bad_line(tmp_path):
    off_unit = sample_row(0.1, ld=[0.0, 0.0, 0.8])
    err = load_error(tmp_path, [HEADER, sample_row(0.0), off_unit, raw_row("valid", '"no"')])
    assert err.line_number == 3 and "left_dir" in err.reason
    err = load_error(tmp_path, [HEADER, raw_row("valid", '"no"').replace("0.1", "0.0", 1), off_unit])
    assert err.line_number == 2 and err.reason == "field valid is not a bool"


@pytest.mark.parametrize("value", ["1.7", "0.0", "true", '"0"'])
def test_participant_that_is_not_an_integer_is_rejected(tmp_path, value):
    # int() would load 1.7 as participant 1 and true as participant 1
    header = '{"participant": %s, "task": "linear-pursuit", "rate_hz": 90.0}' % value
    err = load_error(tmp_path, [HEADER, sample_row(0.0), header, sample_row(0.1)])
    assert err.line_number == 3
    assert err.reason == "malformed header (field participant is not an integer)"


@pytest.mark.parametrize("value", ["true", "false", '"90"'])
def test_rate_that_is_not_a_number_is_rejected(tmp_path, value):
    # float() would load true as 1 Hz
    header = '{"participant": 0, "task": "linear-pursuit", "rate_hz": %s}' % value
    err = load_error(tmp_path, [HEADER, sample_row(0.0), header, sample_row(0.1)])
    assert err.line_number == 3 and err.reason == "malformed header (field rate_hz is not a number)"


def test_integer_rate_loads_as_a_float(tmp_path):
    path = tmp_path / "int-rate.jsonl"
    path.write_text(HEADER.replace("90.0", "90") + "\n" + sample_row(0.0) + "\n")
    [traj] = load_trajectories(path)
    assert type(traj.rate_hz) is float and traj.rate_hz == 90.0


def blinked_and_reloaded(tmp_path, seed):
    """A generated trajectory with seeded blink runs (invalid, zero gaze,
    as an eye tracker reports a closed eye) and a few valid rows with
    collapsed gaze, saved and loaded back, so the collapsed rows load as
    blinks. Odd seeds get a leading run, seeds not divisible by 3 a
    trailing one; every trajectory gets an isolated one-sample run."""
    _, traj = generate_task(TASK_ORDER[seed % 4], TaskConfig(duration=1.0), seed=seed)
    rng = np.random.default_rng(seed)
    n = len(traj)
    blink = np.zeros(n, dtype=bool)
    if seed % 2:
        blink[: rng.integers(1, 6)] = True
    if seed % 3:
        blink[n - rng.integers(1, 6) :] = True
    for length in rng.integers(1, 8, size=3):
        begin = rng.integers(8, n - 16)
        blink[begin : begin + length] = True
    blink[n // 2 - 1 : n // 2 + 2] = [False, True, False]
    traj.valid[blink] = False
    traj.left_dir[blink] = 0.0
    traj.right_dir[blink] = 0.0
    collapsed = rng.choice(np.flatnonzero(~blink[8:-8]) + 8, size=2, replace=False)
    traj.right_dir[collapsed] *= 0.1
    path = tmp_path / f"blinked{seed}.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert not loaded.valid[collapsed].any()
    return loaded


@pytest.mark.parametrize("seed", range(6))
def test_repair_blinks_matches_the_per_sample_loop_bitwise(tmp_path, seed):
    traj = blinked_and_reloaded(tmp_path, seed)
    assert traj.valid[0] == (seed % 2 == 0) and traj.valid[-1] == (seed % 3 == 0)
    assert not traj.valid[len(traj) // 2] and traj.valid[len(traj) // 2 + 1]
    repaired = repair_blinks(traj)
    assert repaired.valid.all()
    assert same_columns(repaired, repair_blinks_loop(traj))


def test_samples_view_writes_reach_the_columns_and_the_file(tmp_path):
    # the benchmark's pattern: blinks injected through traj.samples (len,
    # index, attribute write), then saved, loaded and fingerprinted
    # through traj.samples (attribute reads)
    traj = generate_participant(0, TASK_ORDER[:1], 1, TaskConfig(duration=1.0), seed=3)[0]
    n = len(traj.samples)
    assert n == len(traj) and traj.samples is traj.samples
    blinks = [0, 7, 8, 9, n - 1]
    for i in blinks:
        sample = traj.samples[i]
        sample.valid = False
        sample.left_dir = np.zeros(3)
        sample.right_dir = np.zeros(3)
    expect = np.ones(n, dtype=bool)
    expect[blinks] = False
    assert np.array_equal(traj.valid, expect)
    assert not traj.left_dir[blinks].any() and not traj.right_dir[blinks].any()
    assert traj.samples[8].valid is False and not traj.samples[8].right_dir.any()
    path = tmp_path / "t.jsonl"
    save_trajectories(traj, path)
    loaded = load_trajectories(path)[0]
    assert np.array_equal(loaded.valid, expect)

    def fingerprint(traj):
        samples = traj.samples
        columns = [np.array([s.t for s in samples]), np.array([s.valid for s in samples])]
        columns += [np.array([getattr(s, f) for s in samples]) for f in _FINGERPRINT_FIELDS]
        return b"".join(c.tobytes() for c in columns)

    assert fingerprint(loaded) == fingerprint(traj)
    assert fingerprint(traj) == b"".join(getattr(traj, c).tobytes() for c in ("t", "valid", *_FINGERPRINT_FIELDS))


def test_samples_view_reads_column_writes_made_after_it_is_built():
    traj = generate_participant(0, TASK_ORDER[:1], 1, TaskConfig(duration=1.0), seed=3)[0]
    rows = traj.samples
    traj.valid[3] = False
    traj.t[3] = 0.5
    traj.left_dir[3] = 0.0
    assert rows[3].valid is False and rows[4].valid is True
    assert type(rows[3].t) is float and rows[3].t == 0.5
    assert not rows[3].left_dir.any()


def test_downsampled_rows_write_into_the_parent_columns():
    traj = generate_participant(0, TASK_ORDER[:1], 1, TaskConfig(duration=1.0), seed=3)[0]
    coarse = downsample(traj, 3)
    row = coarse.samples[2]
    assert row.t == traj.t[6] and row.valid is True
    row.valid = False
    row.right_dir = np.zeros(3)
    assert np.flatnonzero(~traj.valid).tolist() == [6]
    assert np.flatnonzero(~traj.right_dir.any(axis=1)).tolist() == [6]
    assert traj.samples[6].valid is False
