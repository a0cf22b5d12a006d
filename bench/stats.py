"""Percentiles by nearest rank, and the tail rule for reporting them."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LEVELS = (50, 90, 99, 99.9, 99.99, 99.999)


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (exact)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Smallest sample with at least p % of all samples at or below it."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("no samples")
    return float(ordered[_rank(p, ordered.size) - 1])


def beyond(p, n):
    """How many of n samples lie above the p-th percentile's rank."""
    return n - _rank(p, n)


def tail_level(n, min_beyond=10):
    """Highest of LEVELS with at least ``min_beyond`` samples beyond it,
    or None when even the median has fewer."""
    qualifying = [p for p in LEVELS if beyond(p, n) >= min_beyond]
    return qualifying[-1] if qualifying else None
