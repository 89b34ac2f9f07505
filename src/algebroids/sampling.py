"""Seeded probe-point generation for pointwise identity checks."""

from __future__ import annotations

import numpy as np


def sample_points(dimension: int, count: int, seed: int) -> np.ndarray:
    """Uniform points in [-1, 1]^dimension from a seeded generator, shape (count, dimension)."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, dimension))


def first_point(flags, points) -> tuple[float, ...] | None:
    """The first of `points` whose row of `flags` (one row per point) holds a True, or None."""
    rows = np.asarray(flags).reshape(len(points), -1).any(axis=1)
    return tuple(np.asarray(points, dtype=float)[rows.argmax()].tolist()) if rows.any() else None
