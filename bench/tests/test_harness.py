"""The benchmark's own arithmetic: span self times, the percentile rule,
seeded blink injection, and agreement with BENCHMARK.json.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
from gazehead import dataset  # noqa: E402
from spans import Tracer, self_times, uncovered_time  # noqa: E402
from stats import beyond, percentile, tail_level  # noqa: E402
from workloads import blink_mask, blink_rng, inject_blinks  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])
    # top-level spans a [0, 10] and e [12, 13] inside the region [0, 15]
    assert uncovered_time([-1, 0, -1], [0.0, 1.0, 12.0], [10.0, 4.0, 13.0], 0.0, 15.0) == 4.0


def test_tracer_records_nesting_and_restores_the_original():
    class Fake:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    original = Fake.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(Fake, "outer", "outer")
    tracer.wrap(Fake, "inner", "inner")
    Fake().outer()
    tracer.unwrap()
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["outer", "inner", "inner"]
    assert parent.tolist() == [-1, 0, 0]
    selfs = self_times(parent, start, end)
    durations = end - start
    assert selfs[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert Fake.__dict__["inner"] is original


@pytest.mark.parametrize(
    "n, level",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_level_is_the_highest_with_ten_beyond(n, level):
    assert tail_level(n) == level
    if level is not None:
        assert beyond(level, n) >= 10


def test_percentile_is_nearest_rank():
    values = np.arange(1.0, 1001.0)[::-1]
    assert percentile(values, 99) == 990.0
    assert beyond(99, 1000) == 10
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0


def _runs(mask):
    """(begin, end) of every run of True."""
    edges = np.diff(np.concatenate([[0], mask.astype(int), [0]]))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))


def test_blink_mask_has_interior_leading_and_trailing_runs():
    rng = np.random.default_rng(5)
    masks = [blink_mask(rng, 180, 90.0) for _ in range(40)]
    assert any(m[0] for m in masks) and any(m[-1] for m in masks)
    for mask in masks:
        interior = [(b, e) for b, e in _runs(mask) if b > 0 and e < mask.size]
        assert interior, "every trajectory gets an interior blink"
        assert all(not mask[b - 1] and not mask[e] for b, e in interior)
    again = np.random.default_rng(5)
    assert all(np.array_equal(m, blink_mask(again, 180, 90.0)) for m in masks)


def test_inject_blinks_is_seeded_and_repair_removes_every_blink():
    config = dataset.TaskConfig(duration=1.0)

    def injected(seed):
        trajs = dataset.generate_participant(0, dataset.TASK_ORDER, 1, config, seed=3)
        inject_blinks(trajs, blink_rng(seed))
        return trajs

    first, same, other = injected(0), injected(0), injected(1)
    flags = [[s.valid for s in t.samples] for t in first]
    assert flags == [[s.valid for s in t.samples] for t in same]
    assert flags != [[s.valid for s in t.samples] for t in other]
    for traj in first:
        blinks = [s for s in traj.samples if not s.valid]
        assert blinks and all(not s.left_dir.any() and not s.right_dir.any() for s in blinks)
        assert all(s.valid for s in dataset.repair_blinks(traj).samples)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
