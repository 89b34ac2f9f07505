"""Seeded probe-point generation for pointwise identity checks."""

from __future__ import annotations

import random

import numpy as np


def sample_points(dimension: int, count: int, seed: int) -> np.ndarray:
    """Uniform points in [-1, 1]^dimension, shape (count, dimension).

    Entry (i, j) is -1 + 2*u[i*dimension + j], where u[k] is the k-th value of
    `random.Random(seed).random()`.  Python documents that stream as the same
    for a seed on every version; rows fill in order, so a draw's first rows
    equal a smaller draw with the same seed.
    """
    u = random.Random(seed).random
    return np.array([-1.0 + 2.0 * u() for _ in range(count * dimension)]).reshape(count, dimension)


def first_point(flags, points) -> tuple[float, ...] | None:
    """The first of `points` whose row of `flags` (one row per point) holds a True, or None."""
    rows = np.asarray(flags).reshape(len(points), -1).any(axis=1)
    return tuple(np.asarray(points, dtype=float)[rows.argmax()].tolist()) if rows.any() else None
