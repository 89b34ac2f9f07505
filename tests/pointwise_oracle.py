"""Reference versions of the metric, kernel-flatness and adapted-frame checks.

These are the per-point loops that `algebroids.connections` replaced with
array operations on all probe points at once: each value comes from the
scalar tree walk (`expression_oracle.scalar_eval`), one probe point at a
time.  They are kept unchanged, as functions of the object they were
methods of, and take their probe points as lists of Python floats, as the
library did while it used them, so the scalar walk raises on overflow as it
did then.  Tests require the array route to give the same residuals:

- `eval_on` guards `FormMatrix.eval_on`;
- `metric_eval` guards `QuasiMetric.values`;
- `k_flatness_check` guards `connections.k_flatness_check`;
- `quasi_metric_frame_check` guards `connections.quasi_metric_frame_check`
  and the `adapted_frame` it builds;
- `pivoting_adapted_frame` is the frame construction `connections.adapted_frame`
  replaced, kept verbatim: a complement of the kernel from the identity
  columns that pass a rank test one at a time, then an orthonormal eigenframe
  for a symmetric g and for a skew g `symplectic_basis`, a pivoting
  symplectic Gram-Schmidt.  `adapted_frame` now takes an orthonormal
  complement from one SVD and one Hermitian eigendecomposition for both
  signs.  The two routes pick different complements, so their frames differ;
  tests require both to give the canonical Gram and an invertible frame, and
  the same canonical Gram (Sylvester's law of inertia), and require the SVD
  complement to meet the bound on a case the identity columns miss.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from algebroids.connections import (QuasiMetric, adapted_frame, curvature,
                                    kernel_frame_on_S)
from algebroids.expressions import ScalarField, evaluate, max_abs_finite
from algebroids.reports import CheckRecord
from algebroids.sampling import sample_points
from expression_oracle import scalar_eval


def eval_on(matrix, frame_indices: tuple[int, ...], point) -> np.ndarray:
    """Numeric matrix of entry values on a frame tuple at a point."""
    out = np.zeros((matrix.size, matrix.size))
    for u in range(matrix.size):
        for t in range(matrix.size):
            coeff = matrix.entries[u][t].coeff_signed(frame_indices)
            if not coeff.is_zero():
                out[u, t] = scalar_eval(coeff, point)
    return out


def metric_eval(g, point) -> np.ndarray:
    """`QuasiMetric.eval`: the metric matrix at one point."""
    return np.array([[scalar_eval(e, point) for e in row] for row in g.matrix])


def k_flatness_check(conn_S, phi, ker_rows, coker_rows, n_points: int = 100,
                     seed: int = 42, tol: float = 1e-10) -> CheckRecord:
    """Curvature of the sum connection applied to the annihilator frame."""
    chart = conn_S.chart
    vectors = kernel_frame_on_S(phi, ker_rows, coker_rows)
    points = sample_points(chart.dim, n_points, seed).tolist()
    omega = curvature(conn_S)
    worst = 0.0
    evaluated = 0
    for i, j in combinations(range(chart.rank), 2):
        for point in points:
            matrix = eval_on(omega, (i, j), point)
            if not matrix.any():
                continue
            for vec in vectors:
                values = np.array([scalar_eval(c, point) for c in vec])
                image = values @ matrix
                worst = max(worst, max_abs_finite(image))
                evaluated += 1
    return CheckRecord("k_flatness", worst, tol, n_points,
                       {"seed": seed, "kernel_vectors": len(vectors)})


def quasi_metric_frame_check(conn, g, kernel_vectors, n_points: int = 50,
                             seed: int = 42, tol: float = 1e-9) -> list[CheckRecord]:
    """Pointwise checks in an adapted frame for a quasi-metric connection."""
    chart = conn.chart
    points = sample_points(chart.dim, n_points, seed).tolist()
    s_frame, canonical, t_frame = adapted_frame(g, kernel_vectors, points)
    frame = np.vstack([s_frame, t_frame]) if len(t_frame) else s_frame
    frame_inv = np.linalg.inv(frame)
    q = len(s_frame)
    omega = conn
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


def pivoting_adapted_frame(g: QuasiMetric,
                           kernel_vectors: Sequence[Sequence[ScalarField]],
                           probe_points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical constant frame (s_h | t_l) for a constant-coefficient quasi-metric,
    by the route `connections.adapted_frame` replaced, on a complement of
    identity columns picked greedily.

    Returns (s_frame rows, canonical Gram of the s part, t_frame rows).  The
    s-part Gram is diag(+/-1) in the symmetric case and the standard block
    skew form in the skew case.  Raises if g is not constant over the probes.
    """
    r = g.rank
    metric = g.values(probe_points)
    g0 = metric[0]
    t_frame = evaluate([c for vec in kernel_vectors for c in vec],
                       probe_points[:1]).reshape(len(kernel_vectors), r)
    if not (np.isfinite(g0).all() and np.isfinite(t_frame).all()):
        raise ValueError("adapted frame: the metric or a kernel vector is not finite at "
                         f"probe point {tuple(float(v) for v in probe_points[0])}")
    if max_abs_finite(metric - g0) > 1e-10:
        raise ValueError("adapted frames are only computed for constant metrics")
    q = r - len(t_frame)
    # Complement of the kernel: columns of the identity completing t_frame.
    basis = list(t_frame)
    complement = []
    for e in np.eye(r):
        trial = np.array(basis + complement + [e])
        if np.linalg.matrix_rank(trial, tol=1e-9) == len(trial):
            complement.append(e)
    complement = np.array(complement[:q]) if complement else np.zeros((0, r))
    if len(complement) != q:
        raise ValueError("kernel vectors do not span the annihilator")
    if q == 0:
        return np.zeros((0, r)), np.zeros((0, 0)), t_frame
    gram = complement @ g0 @ complement.T
    if g.sign == 1:
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(-eigvals)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        if np.min(np.abs(eigvals)) < 1e-10:
            raise ValueError("metric is degenerate beyond the supplied kernel")
        s_frame = (eigvecs / np.sqrt(np.abs(eigvals))).T @ complement
        canonical = np.diag(np.sign(eigvals))
    else:
        s_frame, canonical = symplectic_basis(gram, complement)
    return s_frame, canonical, t_frame


def symplectic_basis(gram: np.ndarray, complement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = len(gram)
    if q % 2:
        raise ValueError("skew metric has odd rank on the complement")
    remaining = list(range(q))
    pairs = []
    work = gram.copy()
    basis = np.eye(q)
    while remaining:
        a = remaining[0]
        row = [(abs(work[a, b]), b) for b in remaining[1:]]
        _, b = max(row)
        if abs(work[a, b]) < 1e-10:
            raise ValueError("skew metric is degenerate beyond the supplied kernel")
        e = basis[a] / work[a, b]
        f = basis[b]
        pairs.append((e, f))
        remaining.remove(a)
        remaining.remove(b)
        for c in list(remaining):
            coeff_e = float(basis[c] @ gram @ f)
            coeff_f = float(basis[c] @ gram @ e)
            basis[c] = basis[c] - coeff_e * e + coeff_f * f
        work = basis @ gram @ basis.T
    rows = [vec for pair in pairs for vec in pair]
    s_frame = np.array(rows) @ complement
    half = len(pairs)
    canonical = np.zeros((q, q))
    for p in range(half):
        canonical[2 * p, 2 * p + 1] = 1.0
        canonical[2 * p + 1, 2 * p] = -1.0
    return s_frame, canonical
