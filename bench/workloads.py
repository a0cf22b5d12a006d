"""The four benchmark workloads: ingest, train, evaluate and exosim.

Every workload follows the criterion-5 fixture of the acceptance suite: 25
synthetic participants, one trial per task, motor_noise_rms=20,
motor_noise_tau=0.5, and an 18/7 participant split. Trial durations,
epochs and tick counts are scaled down so that one operation takes a few
seconds; the work ratios stay those of the fixture.

A workload has ``setup()``, which builds its inputs from the seed;
``op(checks, pause)``, one closed-loop operation, made of parts (a
participant, a fit, a batch, a robot session) with ``pause()`` called
between them so the harness can sample the machine's speed outside the
timed parts; and ``end_to_end(ops)``, which turns the operations of
a timed region into ``op_s`` and the workload's own named figures, with
every time multiplied by its operation's ``factor`` (see harness.py). The
package is always
called through its modules (``training.fit``, not a copied name), so that
the tracer's wrappers see every call.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import shutil
import time
from array import array
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from gazehead import cli, dataset, exosim, rollout, training
from stats import percentile

clock = time.perf_counter

PARTICIPANTS = 25
TRAIN_IDS = frozenset(range(18))
TEST_IDS = frozenset(range(18, 25))
# data seeds sit beside the acceptance fixture's seed 1000
DATA_SEED_BASE = 1000

# The criterion-5 family mix at 1/20 of the fixture's work. Vector
# iterations : MLP epochs : LSTM epochs stay 3000 : 60 : 20. At most five
# epochs means early stopping (a five-epoch window) can never fire, so
# every operation does the same work.
MIX = (
    training.TrainConfig(family="vector", vector_iterations=150, seed=0, name="vector"),
    training.TrainConfig(family="mlp", hidden=(8,), epochs=3, learning_rate=1e-2, seed=0, name="mlp-8"),
    training.TrainConfig(family="mlp", hidden=(16, 16), epochs=3, learning_rate=1e-2, seed=0, name="mlp-16_16"),
    training.TrainConfig(family="lstm", hidden=(2,), epochs=1, learning_rate=1e-2, seed=0, name="lstm-h2"),
    training.TrainConfig(family="lstm", hidden=(128,), epochs=1, learning_rate=1e-2, seed=0, name="lstm-h128"),
)
QUADRANT = training.TrainConfig(family="quadrant", name="quadrant")
EVAL_CONTROLLERS = (QUADRANT.name, *(c.name for c in MIX))

INGEST_DURATION_S = 2.0
TRAIN_DURATION_S = 2.0
EVAL_DURATION_RANGE_S = (0.5, 1.5)  # drawn per trajectory from the seed
EXOSIM_FIT_DURATION_S = 1.0
EXOSIM_TICKS = 1500  # per controller and operation: 30 s of robot time

# seeded blinks: interior runs at this rate, 0.1-0.3 s long; a leading and
# a trailing run each with probability one half
BLINK_RATE_HZ = 0.5
BLINK_LENGTH_S = (0.1, 0.3)


@dataclass
class Op:
    """One closed-loop operation: the seconds spent inside the program,
    raw figures for the named metrics, per-layer values, and the factor
    that scales its times to the reference machine."""

    seconds: float
    values: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    factor: float = 1.0


def scaled(ops, seconds=lambda op: op.seconds):
    """Median over the operations of a time scaled by each one's factor."""
    return median(seconds(op) * op.factor for op in ops)


class Checks:
    """Checked operations and their failures; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


def fixture_config(duration):
    return dataset.TaskConfig(duration=duration, motor_noise_rms=20.0, motor_noise_tau=0.5)


def generate(data_seed, durations):
    """The fixture's trajectories; ``durations[pid][task_index]`` in s."""
    trajs = []
    for pid in range(PARTICIPANTS):
        for index, task in enumerate(dataset.TASK_ORDER):
            trajs.extend(
                dataset.generate_participant(
                    pid, [task], 1, fixture_config(durations[pid][index]), data_seed
                )
            )
    return trajs


def uniform_durations(duration):
    return [[duration] * len(dataset.TASK_ORDER)] * PARTICIPANTS


def fixture_split(trajs):
    return dataset.split(trajs, dataset.SplitSpec(TRAIN_IDS, TEST_IDS))


def blink_mask(rng, n, rate_hz):
    """Seeded blink mask of one trajectory with n samples.

    Interior runs keep at least one valid sample on each side, so repair
    interpolates them; the optional leading and trailing runs are trimmed.
    """
    lo = round(BLINK_LENGTH_S[0] * rate_hz)
    hi = round(BLINK_LENGTH_S[1] * rate_hz)
    margin = hi + 1
    if n < 2 * margin + hi:
        raise ValueError(f"{n} samples are too few for a blink run of {hi}")
    mask = np.zeros(n, dtype=bool)
    if rng.random() < 0.5:
        mask[: rng.integers(lo, hi + 1)] = True
    if rng.random() < 0.5:
        mask[n - rng.integers(lo, hi + 1) :] = True
    for _ in range(1 + rng.poisson(BLINK_RATE_HZ * n / rate_hz)):
        length = rng.integers(lo, hi + 1)
        begin = rng.integers(margin, n - margin - length + 1)
        mask[begin : begin + length] = True
    return mask


def blink_rng(seed):
    return np.random.default_rng([int(seed), 0xB1])


def inject_blinks(trajs, rng):
    """Mark seeded blink runs invalid, with collapsed (zero) gaze, as an
    eye tracker reports a closed eye."""
    for traj in trajs:
        for i in np.flatnonzero(blink_mask(rng, len(traj.samples), traj.rate_hz)):
            sample = traj.samples[i]
            sample.valid = False
            sample.left_dir = np.zeros(3)
            sample.right_dir = np.zeros(3)


_VECTOR_FIELDS = ("head_pos", "head_dir", "left_origin", "left_dir", "right_origin", "right_dir")


def fingerprint(traj):
    """Header plus the exact bytes of every sample field."""
    samples = traj.samples
    columns = [np.array([s.t for s in samples]), np.array([s.valid for s in samples])]
    columns += [np.array([getattr(s, f) for s in samples]) for f in _VECTOR_FIELDS]
    return (
        traj.participant_id, traj.task, traj.rate_hz,
        b"".join(c.tobytes() for c in columns),
    )


def repaired_ok(traj):
    """All samples valid, unit gaze, strictly increasing timestamps."""
    samples = traj.samples
    t = np.array([s.t for s in samples])
    gaze = np.array([[s.left_dir, s.right_dir] for s in samples])
    norms = np.linalg.norm(gaze, axis=2)
    return (
        all(s.valid for s in samples)
        and bool(np.all(np.diff(t) > 0))
        and bool(np.all(np.abs(norms - 1.0) < 1e-9))
    )


def _resident_bytes():
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _release_free_memory():
    """Collect garbage and hand free heap pages back to the system, so the
    next resident-size delta counts live data only."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: freed heap stays resident
        pass


class Ingest:
    """Per participant: synthesize, inject blinks, save one JSONL file per
    trajectory as ``gazehead generate`` does; then load every file back and
    repair its blinks, as ``gazehead train`` does."""

    name = "ingest"

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.data_seed = DATA_SEED_BASE + seed
        self.dir = os.path.join(out_dir, f"ingest-seed{seed}-{os.getpid()}")

    def setup(self):
        # one warm-up cycle over one participant, so first-call costs land
        # here and not in the first timed operation
        self._cycle(range(1), Checks(), lambda: None)

    def op(self, checks, pause):
        return self._cycle(range(PARTICIPANTS), checks, pause)

    def _cycle(self, participants, checks, pause):
        os.makedirs(self.dir, exist_ok=True)
        config = fixture_config(INGEST_DURATION_S)
        rng = blink_rng(self.seed)
        generated, paths = {}, {}
        generate_s = save_s = 0.0
        for pid in participants:
            t0 = clock()
            trajs = dataset.generate_participant(pid, dataset.TASK_ORDER, 1, config, self.data_seed)
            t1 = clock()
            inject_blinks(trajs, rng)
            files = [os.path.join(self.dir, f"p{pid:03d}_{t.task.value}.jsonl") for t in trajs]
            t2 = clock()
            for traj, path in zip(trajs, files):
                dataset.save_trajectories(traj, path)
            t3 = clock()
            generate_s += t1 - t0
            save_s += t3 - t2
            generated[pid], paths[pid] = trajs, files
            pause()
        samples = sum(len(t.samples) for trajs in generated.values() for t in trajs)
        file_bytes = sum(os.path.getsize(p) for files in paths.values() for p in files)

        _release_free_memory()
        rss_before = _resident_bytes()
        repaired = []
        load_s = 0.0
        for pid in participants:
            t0 = clock()
            loaded = [t for path in paths[pid] for t in dataset.load_trajectories(path)]
            t1 = clock()
            same = len(loaded) == len(generated[pid]) and all(
                fingerprint(a) == fingerprint(b) for a, b in zip(generated[pid], loaded)
            )
            t2 = clock()
            fixed = [dataset.repair_blinks(t) for t in loaded]
            t3 = clock()
            load_s += (t1 - t0) + (t3 - t2)
            del loaded
            for traj in fixed:
                checks.record(same and repaired_ok(traj),
                              f"ingest: participant {pid} not bit-exact or not repaired")
            repaired += fixed
            pause()
        resident = _resident_bytes() - rss_before
        kept = sum(len(t.samples) for t in repaired)
        return Op(
            seconds=generate_s + save_s + load_s,
            values={"samples": samples, "generate_s": generate_s, "save_s": save_s,
                    "load_s": load_s, "resident_bytes_per_sample": resident / kept},
            layer={
                "dataset.save.file_bytes_per_sample": file_bytes / samples,
                "dataset.load.resident_bytes_per_sample": resident / kept,
            },
        )

    def end_to_end(self, ops):
        measured = {"op_s": (scaled(ops), "s")}
        samples = ops[0].values["samples"]
        for key, stage in (("generate_samples_per_s", "generate_s"),
                           ("save_samples_per_s", "save_s"),
                           ("load_samples_per_s", "load_s")):
            measured[key] = (samples / scaled(ops, lambda op: op.values[stage]), "samples/s")
        measured["resident_bytes_per_sample"] = (
            median(op.values["resident_bytes_per_sample"] for op in ops), "B")
        return measured

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Train:
    """Fit the criterion-5 family mix teacher-forced, held-out loss inside
    ``fit``; one part per family."""

    name = "train"

    def __init__(self, seed, out_dir):
        self.data_seed = DATA_SEED_BASE + seed

    def setup(self):
        trajs = generate(self.data_seed, uniform_durations(TRAIN_DURATION_S))
        self.train, self.test = fixture_split(trajs)

    def op(self, checks, pause):
        seconds = 0.0
        for config in MIX:
            t0 = clock()
            _, report = training.fit(config, self.train, self.test)
            seconds += clock() - t0
            expected = config.epochs if config.family in ("mlp", "lstm") else 1
            checks.record(
                all(math.isfinite(v) for v in report.train_mse)
                and math.isfinite(report.test_mse)
                and report.test_mse < report.zero_baseline_test_mse
                and report.epochs_run == expected,
                f"train: {config.name} test_mse={report.test_mse!r} "
                f"zero={report.zero_baseline_test_mse!r} epochs={report.epochs_run}",
            )
            pause()
        return Op(seconds=seconds)

    def end_to_end(self, ops):
        train_s = scaled(ops)
        return {"op_s": (train_s, "s"), "train_s": (train_s, "s")}

    def close(self):
        pass


class Evaluate:
    """Closed-loop rollout of every family over the held-out trajectories,
    whose durations differ per trajectory; one ``evaluate_suite`` call per
    held-out participant, so each call mixes four unequal lengths."""

    name = "evaluate"

    def __init__(self, seed, out_dir):
        self.data_seed = DATA_SEED_BASE + seed
        rng = np.random.default_rng([int(seed), 0xE7A1])
        durations = rng.uniform(*EVAL_DURATION_RANGE_S, size=(PARTICIPANTS, len(dataset.TASK_ORDER)))
        # lengths differ per trajectory, but each split is rescaled to the
        # range's mean, so every seed does the same total work
        for ids in (TRAIN_IDS, TEST_IDS):
            rows = sorted(ids)
            durations[rows] *= np.mean(EVAL_DURATION_RANGE_S) / durations[rows].mean()
        self.durations = durations.tolist()
        self.config = rollout.RolloutConfig(noise_sigma_deg=0.5, seed=7 + seed)
        self._step_errors_ok = []

    def setup(self):
        trajs = generate(self.data_seed, self.durations)
        train, self.test = fixture_split(trajs)
        self.batches = [[t for t in self.test if t.participant_id == pid] for pid in sorted(TEST_IDS)]
        self.controllers, self.teacher_forced = {}, {}
        for config in (QUADRANT, *MIX):
            controller, report = training.fit(config, train, self.test)
            self.controllers[controller.name] = controller
            self.teacher_forced[controller.name] = report.test_mse

    def _checked_rollout(self, inner):
        """Sees every step error while evaluate_suite goes through
        ``rollout.rollout``; the row checks in ``op`` hold either way."""

        def checked(controller, traj, config):
            result = inner(controller, traj, config)
            errors = result.step_errors
            self._step_errors_ok.append(
                bool(np.all(np.isfinite(errors)) and errors.min() >= 0.0 and errors.max() <= 4.0)
            )
            return result

        return checked

    def op(self, checks, pause):
        self._step_errors_ok.clear()
        rows = []
        seconds = 0.0
        inner = rollout.rollout
        rollout.rollout = self._checked_rollout(inner)
        try:
            for batch in self.batches:
                t0 = clock()
                table = rollout.evaluate_suite(self.controllers, batch, self.config)
                seconds += clock() - t0
                rows += table.rows
                pause()
        finally:
            rollout.rollout = inner
        expected = len(self.controllers) * len(self.test)
        checks.record(len(rows) == expected, f"evaluate: {len(rows)} rows for {expected} rollouts")
        for row in rows:
            checks.record(math.isfinite(row.mse) and 0.0 <= row.mse <= 4.0,
                          f"evaluate: {row.controller} {row.trajectory} mse={row.mse!r}")
        for ok in self._step_errors_ok:
            checks.record(ok, "evaluate: a step error is non-finite or outside [0, 4]")
        for name, cells in rollout.EvalTable(rows=rows).aggregate().items():
            ar = cells["overall"]["mse"]
            tf = self.teacher_forced[name]
            checks.record(ar > tf, f"evaluate: {name} rollout MSE {ar!r} <= teacher-forced {tf!r}")
        return Op(seconds=seconds, values={"steps": sum(row.steps for row in rows)})

    def end_to_end(self, ops):
        op_s = scaled(ops)
        return {
            "op_s": (op_s, "s"),
            "rollout_steps_per_s": (ops[0].values["steps"] / op_s, "steps/s"),
        }

    def close(self):
        pass


class Exosim:
    """The 50 Hz robot loop over the seeded 200 Hz synthetic gaze stream:
    one session per controller, every tick timed."""

    name = "exosim"
    controller_configs = (
        QUADRANT,
        next(c for c in MIX if c.name == "mlp-16_16"),
        next(c for c in MIX if c.name == "lstm-h128"),
    )

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.data_seed = DATA_SEED_BASE + seed
        self.limits = exosim.ExoLimits()

    def setup(self):
        trajs = generate(self.data_seed, uniform_durations(EXOSIM_FIT_DURATION_S))
        train, _ = fixture_split(trajs)
        self.controllers = [training.fit(c, train)[0] for c in self.controller_configs]
        self.stream = [
            (float(p), float(y)) for p, y in cli._synthetic_gaze(EXOSIM_TICKS * 4, self.seed)
        ]

    def _check(self, checks, sim, log, latencies, rolls_ok):
        """Checks every tick; returns (clamped, velocity-capped) counts."""
        limits = self.limits
        cap = limits.max_speed * sim.tick_dt + 1e-12  # rad per tick
        name = sim.controller.name
        prev_pitch, prev_yaw = 0.0, 0.0
        clamped = capped = 0
        for (_, pitch, yaw, pitch_sat, yaw_sat), latency, roll_ok in zip(log, latencies, rolls_ok):
            step = math.hypot(math.radians(pitch - prev_pitch), math.radians(yaw - prev_yaw))
            clamped += bool(pitch_sat or yaw_sat)
            capped += step >= cap - 1e-9
            checks.record(
                limits.extension_max <= pitch <= limits.flexion_max
                and -limits.yaw_limit <= yaw <= limits.yaw_limit
                and roll_ok
                and step <= cap
                and latency <= sim.tick_dt,
                f"exosim: {name} tick at pose ({pitch!r}, {yaw!r}) step {step!r} "
                f"latency {latency!r} s",
            )
            prev_pitch, prev_yaw = pitch, yaw
        return clamped, capped

    def op(self, checks, pause):
        # single precision: a run keeps every tick, and its memory shows
        # in peak_rss_mb
        latencies = array("f")
        seconds = 0.0
        clamped = capped = 0
        for controller in self.controllers:
            controller.reset()
            sim = exosim.ExoSim(controller, limits=self.limits)
            start = len(latencies)
            rolls_ok = []
            inner = sim.tick

            def timed_tick(samples, inner=inner, rolls_ok=rolls_ok):
                t0 = clock()
                state = inner(samples)
                latencies.append(clock() - t0)
                rolls_ok.append(state.roll == 0.0)
                return state

            sim.tick = timed_tick
            t0 = clock()
            log = sim.run(self.stream)
            seconds += clock() - t0
            counts = self._check(checks, sim, log, latencies[start:], rolls_ok)
            clamped += counts[0]
            capped += counts[1]
            pause()
        return Op(
            seconds=seconds,
            values={"ticks_s": latencies},
            layer={"exosim.clamped_ticks": clamped, "exosim.velocity_capped_ticks": capped},
        )

    @staticmethod
    def tick_latencies(ops):
        """Every tick's latency in seconds, scaled by its operation's factor."""
        return np.concatenate(
            [np.frombuffer(op.values["ticks_s"], dtype=np.float32) * op.factor for op in ops]
        )

    def end_to_end(self, ops):
        ticks = self.tick_latencies(ops)
        if ticks.size < 1000:
            raise RuntimeError(f"{ticks.size} ticks are too few for a p99 with 10 beyond it")
        return {
            "op_s": (scaled(ops), "s"),
            "tick_p50_us": (percentile(ticks, 50) * 1e6, "us"),
            "tick_p99_us": (percentile(ticks, 99) * 1e6, "us"),
        }

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (Ingest, Train, Evaluate, Exosim)}
