"""In-memory span tracer that wraps package functions from outside.

A span is (name, start, end, parent). Spans live in flat arrays while the
traced region runs and are written out once it ends. ``Tracer.wrap`` swaps
a function or method for a timing wrapper wherever the package binds it:
on its class, in its defining module, and in every gazehead module that
imported it by name (``from .geometry import focal_point`` makes a second
binding that must be patched too).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # work units (samples, steps, iterations) per span name, and event
        # counters; both are filled after a span has closed
        self.work: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, fn, name, after=None):
        """Timing wrapper around ``fn``.

        ``name`` is a span name or a callable of the call's positional
        arguments that returns one. ``after(tracer, span_name, args,
        kwargs, result)`` runs once the span is closed, so its bookkeeping
        is not charged to the span.
        """
        static = self.name_of(name) if isinstance(name, str) else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = static if static is not None else self.name_of(name(args))
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                after(self, self.names[nid], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (a class or module attribute) by a traced
        wrapper, plus every gazehead-module binding of the same object."""
        original = owner.__dict__[attr]
        wrapper = self.traced(original, name, after)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for key, module in sys.modules.items()
                if key.startswith("gazehead.") and module is not owner
                and module.__dict__.get(attr) is original
            ]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapper)

    def unwrap(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(
            path, names=np.array(self.names, dtype=str), name_id=name_id,
            parent=parent, start=start, end=end,
        )


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap
    and the covered time is the sum of their durations.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


def uncovered_time(parent, start, end, region_start, region_end):
    """Part of [region_start, region_end] that no top-level span covers."""
    top = np.asarray(parent) < 0
    lo = np.clip(np.asarray(start)[top], region_start, region_end)
    hi = np.clip(np.asarray(end)[top], region_start, region_end)
    return (region_end - region_start) - float(np.sum(hi - lo))


def summarize(tracer: Tracer):
    """Per span name that has spans: call count, total and self seconds,
    and the durations and self times of its spans."""
    name_id, parent, start, end = tracer.arrays()
    selfs = self_times(parent, start, end)
    durations = end - start
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = name_id == nid
        if not mask.any():
            continue
        out[name] = {
            "calls": int(mask.sum()),
            "total_s": float(durations[mask].sum()),
            "self_s": float(selfs[mask].sum()),
            "durations": durations[mask],
            "selfs": selfs[mask],
        }
    return out
