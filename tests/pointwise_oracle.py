"""Reference versions of the metric, kernel-flatness and adapted-frame checks.

These are the per-point loops that `algebroids.connections` replaced with
array operations on all probe points at once: each value comes from the
scalar tree walk (`ScalarField.eval`), one probe point at a time.  They are
kept unchanged, as functions of the object they were methods of, and draw
their probe points as tuples of Python floats, as the library did while it
used them, so the scalar walk raises on overflow as it did then.  Tests
require the array route to give the same residuals.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from algebroids.connections import adapted_frame, curvature, kernel_frame_on_S
from algebroids.expressions import max_abs_finite
from algebroids.reports import CheckRecord


def sample_points(dimension: int, count: int, seed: int) -> list[tuple[float, ...]]:
    """Uniform points in [-1, 1]^dimension from a seeded generator."""
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-1.0, 1.0, (count, dimension))
    return [tuple(float(v) for v in row) for row in grid]


def eval_on(matrix, frame_indices: tuple[int, ...], point) -> np.ndarray:
    """Numeric matrix of entry values on a frame tuple at a point."""
    out = np.zeros((matrix.size, matrix.size))
    for u in range(matrix.size):
        for t in range(matrix.size):
            coeff = matrix.entries[u][t].data.coeff_signed(frame_indices)
            if not coeff.is_zero():
                out[u, t] = coeff.eval(point)
    return out


def metric_eval(g, point) -> np.ndarray:
    """`QuasiMetric.eval`: the metric matrix at one point."""
    return np.array([[e.eval(point) for e in row] for row in g.matrix])


def symmetry_residual(g, points) -> float:
    worst = 0.0
    for point in points:
        m = metric_eval(g, point)
        worst = max(worst, max_abs_finite(m - g.sign * m.T))
    return worst


def k_flatness_check(conn_S, phi, ker_rows, coker_rows, n_points: int = 100,
                     seed: int = 42, tol: float = 1e-10) -> CheckRecord:
    """Curvature of the sum connection applied to the annihilator frame."""
    chart = conn_S.chart
    vectors = kernel_frame_on_S(phi, ker_rows, coker_rows)
    points = sample_points(chart.dim, n_points, seed)
    omega = curvature(conn_S)
    worst = 0.0
    evaluated = 0
    for i, j in combinations(range(chart.rank), 2):
        for point in points:
            matrix = eval_on(omega, (i, j), point)
            if not matrix.any():
                continue
            for vec in vectors:
                values = np.array([c.eval(point) for c in vec])
                image = values @ matrix
                worst = max(worst, max_abs_finite(image))
                evaluated += 1
    return CheckRecord("k_flatness", worst, tol, n_points,
                       {"seed": seed, "kernel_vectors": len(vectors)})


def quasi_metric_frame_check(conn, g, kernel_vectors, n_points: int = 50,
                             seed: int = 42, tol: float = 1e-9) -> list[CheckRecord]:
    """Pointwise checks in an adapted frame for a quasi-metric connection."""
    chart = conn.chart
    points = sample_points(chart.dim, n_points, seed)
    s_frame, canonical, t_frame = adapted_frame(g, kernel_vectors, points)
    frame = np.vstack([s_frame, t_frame]) if len(t_frame) else s_frame
    frame_inv = np.linalg.inv(frame)
    q = len(s_frame)
    omega = conn.matrix
    curv = curvature(conn)
    worst_kernel = 0.0
    worst_algebra = 0.0
    worst_curv_kernel = 0.0
    worst_curv_algebra = 0.0
    for point in points:
        for i in range(chart.rank):
            w = eval_on(omega, (i,), point)
            adapted = frame @ w @ frame_inv
            if len(t_frame) and q:
                worst_kernel = max(worst_kernel, max_abs_finite(adapted[q:, :q]))
            if q:
                block = adapted[:q, :q]
                defect = block @ canonical + canonical @ block.T
                worst_algebra = max(worst_algebra, max_abs_finite(defect))
        for i, j in combinations(range(chart.rank), 2):
            w = eval_on(curv, (i, j), point)
            adapted = frame @ w @ frame_inv
            if len(t_frame) and q:
                worst_curv_kernel = max(worst_curv_kernel,
                                        max_abs_finite(adapted[q:, :q]))
            if q:
                block = adapted[:q, :q]
                defect = block @ canonical + canonical @ block.T
                worst_curv_algebra = max(worst_curv_algebra, max_abs_finite(defect))
    label = "orthogonal" if g.sign == 1 else "symplectic"
    return [
        CheckRecord("adapted_frame_kernel_block", worst_kernel, tol, n_points),
        CheckRecord(f"adapted_frame_{label}_block", worst_algebra, tol, n_points),
        CheckRecord("adapted_frame_curvature_kernel_block", worst_curv_kernel,
                    tol, n_points),
        CheckRecord(f"adapted_frame_curvature_{label}_block", worst_curv_algebra,
                    tol, n_points),
    ]
