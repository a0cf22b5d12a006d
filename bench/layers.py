"""Per-layer metrics: which package functions are traced, and how the
spans of a traced region become the metrics named in BENCHMARK.json.

Layers are the package modules. ``cli`` has none of its own: it parses
arguments and forwards to the others. A ``self_s`` metric is the layer's
self time per workload operation; ``calls`` and event counts are per
operation too; rates divide the work a span did by its total duration.
A layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

import inspect
from statistics import mean

import numpy as np

from gazehead import controllers, dataset, exosim, geometry, nn, rollout, training
from spans import Tracer, summarize, uncovered_time
from workloads import EVAL_CONTROLLERS, MIX

FAMILIES = ("quadrant", "vector", "mlp", "lstm")
LSTM_HIDDEN = sorted({c.hidden[0] for c in MIX if c.family == "lstm"})


def _samples(trajs):
    return sum(len(t.samples) for t in trajs)


def _work(count):
    def after(tracer, name, args, kwargs, result):
        tracer.work[name] += count(args, kwargs, result)

    return after


def _focal_point(tracer, name, args, kwargs, result):
    if result.degenerate:
        tracer.counts[name + ".degenerate"] += 1


def _repair_blinks(tracer, name, args, kwargs, result):
    before = args[0].samples
    trimmed = len(before) - len(result.samples)
    tracer.work[name] += len(before)
    tracer.counts[name + ".trimmed"] += trimmed
    tracer.counts[name + ".interpolated"] += sum(not s.valid for s in before) - trimmed


def _controller_step(tracer, name, args, kwargs, result):
    if args[0].faulted:
        tracer.counts["controllers.faulted"] += 1


def _fit(tracer, name, args, kwargs, result):
    tracer.counts[name + ".epochs_run"] += result[1].epochs_run


def _saved(args, kwargs, result):
    trajs = args[0]
    return _samples([trajs] if isinstance(trajs, dataset.Trajectory) else trajs)


def install(tracer: Tracer):
    """Wrap the public functions of every layer."""
    wrap = tracer.wrap
    vector_signature = inspect.signature(training.fit_vector_axis)

    def vector_iterations(args, kwargs, result):
        bound = vector_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["iterations"]

    wrap(geometry, "focal_point", "geometry.focal_point", _focal_point)
    wrap(geometry, "rotate_head", "geometry.rotate_head")
    wrap(dataset, "generate_participant", "dataset.generate_participant",
         _work(lambda a, k, r: _samples(r)))
    wrap(dataset, "save_trajectories", "dataset.save_trajectories", _work(_saved))
    wrap(dataset, "load_trajectories", "dataset.load_trajectories",
         _work(lambda a, k, r: _samples(r)))
    wrap(dataset, "repair_blinks", "dataset.repair_blinks", _repair_blinks)
    wrap(dataset, "downsample", "dataset.downsample")
    wrap(nn.DenseNet, "sequence_loss_grads", "nn.dense.sequence_loss_grads",
         _work(lambda a, k, r: len(a[1])))
    wrap(nn.DenseNet, "forward_batch", "nn.dense.forward_batch")
    wrap(nn.LstmNet, "sequence_loss_grads",
         lambda a: f"nn.lstm.sequence_loss_grads.h{a[0].hidden_size}",
         _work(lambda a, k, r: len(a[1])))
    wrap(nn.LstmNet, "step", "nn.lstm.step")
    wrap(nn, "adam_step", "nn.adam_step")
    for cls in (controllers.QuadrantController, controllers.VectorController,
                controllers.MlpController, controllers.LstmController):
        wrap(cls, "step", f"controllers.{cls.family}.step", _controller_step)
    wrap(training, "fit", lambda a: f"training.fit.{a[0].resolved_name()}", _fit)
    wrap(training, "fit_vector_axis", "training.fit_vector_axis", _work(vector_iterations))
    wrap(training, "dataset_loss", "training.dataset_loss")
    wrap(training, "net_inputs", "training.net_inputs", _work(lambda a, k, r: len(r)))
    wrap(rollout, "precompute_focal_points", "rollout.precompute_focal_points",
         _work(lambda a, k, r: len(r)))
    wrap(rollout, "rollout", lambda a: f"rollout.rollout.{a[0].name}",
         _work(lambda a, k, r: len(r.step_errors)))
    wrap(exosim.ExoSim, "tick", "exosim.tick")


def _names():
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [
        ("geometry.focal_point.calls", "count", "lower"),
        ("geometry.focal_point.self_s", "s", "lower"),
        ("geometry.focal_point.degenerate", "count", "lower"),
        ("geometry.rotate_head.self_s", "s", "lower"),
        ("dataset.generate_participant.samples_per_s", "samples/s", "higher"),
        ("dataset.save_trajectories.samples_per_s", "samples/s", "higher"),
        ("dataset.save.file_bytes_per_sample", "B", "lower"),
        ("dataset.load_trajectories.samples_per_s", "samples/s", "higher"),
        ("dataset.load.resident_bytes_per_sample", "B", "lower"),
        ("dataset.repair_blinks.samples_per_s", "samples/s", "higher"),
        ("dataset.repair_blinks.interpolated", "count", "lower"),
        ("dataset.repair_blinks.trimmed", "count", "lower"),
        ("dataset.downsample.self_s", "s", "lower"),
        ("rollout.precompute_focal_points.samples_per_s", "samples/s", "higher"),
        ("rollout.rollout.self_s", "s", "lower"),
    ]
    rows += [(f"rollout.rollout.steps_per_s.{c}", "steps/s", "higher") for c in EVAL_CONTROLLERS]
    for family in FAMILIES:
        rows += [
            (f"controllers.{family}.step.calls", "count", "lower"),
            (f"controllers.{family}.step_p50_us", "us", "lower"),
        ]
    rows += [
        ("controllers.faulted", "count", "lower"),
        ("nn.dense.sequence_loss_grads.steps_per_s", "steps/s", "higher"),
    ]
    rows += [
        (f"nn.lstm.sequence_loss_grads.steps_per_s.h{h}", "steps/s", "higher") for h in LSTM_HIDDEN
    ]
    rows += [
        ("nn.adam_step.self_s", "s", "lower"),
        ("nn.lstm.step_p50_us", "us", "lower"),
        ("nn.dense.forward_batch.self_s", "s", "lower"),
    ]
    for config in MIX:
        rows += [
            (f"training.fit.{config.name}.self_s", "s", "lower"),
            (f"training.fit.{config.name}.epochs_run", "count", "higher"),
        ]
    rows += [
        ("training.fit_vector_axis.iters_per_s", "1/s", "higher"),
        ("training.dataset_loss.self_s", "s", "lower"),
        ("training.net_inputs.samples_per_s", "samples/s", "higher"),
        ("exosim.tick.self_us", "us", "lower"),
        ("exosim.clamped_ticks", "count", "lower"),
        ("exosim.velocity_capped_ticks", "count", "lower"),
        ("trace.overhead_ratio", "fraction", "lower"),
        ("trace.uncovered_share", "fraction", "lower"),
    ]
    return rows


PER_LAYER = _names()


def per_layer(tracer: Tracer, traced_ops, region, overhead):
    """Every per-layer metric of one traced region, as name -> value;
    ``overhead`` is the traced over the untraced operation time, minus 1."""
    spans = summarize(tracer)
    n_ops = len(traced_ops)

    def matching(prefix):
        return [v for k, v in spans.items() if k == prefix or k.startswith(prefix + ".")]

    def self_per_op(prefix):
        return sum(v["self_s"] for v in matching(prefix)) / n_ops

    def calls(prefix):
        return sum(v["calls"] for v in matching(prefix))

    def rate(name):
        total = spans[name]["total_s"] if name in spans else 0.0
        return tracer.work[name] / total if total > 0 else 0.0

    def p50_us(name, key="durations"):
        return float(np.median(spans[name][key])) * 1e6 if name in spans else 0.0

    def layer_mean(key):
        return mean(op.layer.get(key, 0.0) for op in traced_ops)

    m = {
        "geometry.focal_point.calls": calls("geometry.focal_point") / n_ops,
        "geometry.focal_point.self_s": self_per_op("geometry.focal_point"),
        "geometry.focal_point.degenerate": tracer.counts["geometry.focal_point.degenerate"] / n_ops,
        "geometry.rotate_head.self_s": self_per_op("geometry.rotate_head"),
        "dataset.save.file_bytes_per_sample": layer_mean("dataset.save.file_bytes_per_sample"),
        "dataset.load.resident_bytes_per_sample": layer_mean("dataset.load.resident_bytes_per_sample"),
        "dataset.repair_blinks.interpolated": tracer.counts["dataset.repair_blinks.interpolated"] / n_ops,
        "dataset.repair_blinks.trimmed": tracer.counts["dataset.repair_blinks.trimmed"] / n_ops,
        "dataset.downsample.self_s": self_per_op("dataset.downsample"),
        "rollout.rollout.self_s": self_per_op("rollout.rollout"),
        "controllers.faulted": tracer.counts["controllers.faulted"] / n_ops,
        "nn.adam_step.self_s": self_per_op("nn.adam_step"),
        "nn.lstm.step_p50_us": p50_us("nn.lstm.step"),
        "nn.dense.forward_batch.self_s": self_per_op("nn.dense.forward_batch"),
        "training.dataset_loss.self_s": self_per_op("training.dataset_loss"),
        "exosim.tick.self_us": p50_us("exosim.tick", "selfs"),
        "exosim.clamped_ticks": layer_mean("exosim.clamped_ticks"),
        "exosim.velocity_capped_ticks": layer_mean("exosim.velocity_capped_ticks"),
    }
    for name in ("dataset.generate_participant", "dataset.save_trajectories",
                 "dataset.load_trajectories", "dataset.repair_blinks",
                 "rollout.precompute_focal_points", "training.net_inputs"):
        m[name + ".samples_per_s"] = rate(name)
    m["nn.dense.sequence_loss_grads.steps_per_s"] = rate("nn.dense.sequence_loss_grads")
    for h in LSTM_HIDDEN:
        m[f"nn.lstm.sequence_loss_grads.steps_per_s.h{h}"] = rate(f"nn.lstm.sequence_loss_grads.h{h}")
    m["training.fit_vector_axis.iters_per_s"] = rate("training.fit_vector_axis")
    for c in EVAL_CONTROLLERS:
        m[f"rollout.rollout.steps_per_s.{c}"] = rate(f"rollout.rollout.{c}")
    for family in FAMILIES:
        name = f"controllers.{family}.step"
        m[name + ".calls"] = calls(name) / n_ops
        m[name.replace(".step", ".step_p50_us")] = p50_us(name)
    for config in MIX:
        name = f"training.fit.{config.name}"
        fits = calls(name)
        m[name + ".self_s"] = self_per_op(name)
        m[name + ".epochs_run"] = tracer.counts[name + ".epochs_run"] / fits if fits else 0.0

    m["trace.overhead_ratio"] = overhead
    _, parent, start, end = tracer.arrays()
    m["trace.uncovered_share"] = uncovered_time(parent, start, end, *region) / (region[1] - region[0])
    return m
