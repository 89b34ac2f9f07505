"""Connections along algebroid sections: a connection is a `FormMatrix` of 1-forms.

`FormMatrix.zero(chart, r, 1)` is the flat connection on a rank-r bundle, and
`connection_from_coefficients` builds one from its coefficients on the frame;
`curvature` and `bott_delta` reject a matrix of any other degree.  Every
bracket-induced connection, the bracket and the flat jet connections among
them, is `morphism_target_connection(phi)`: nabla_{b_i} b'_u = [phi b_i, b'_u],
read off the target's structure functions and anchor in closed form,

  omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t),

plus, on a jet source, the Leibniz term -rho'_u^h phi(j1 b_i) on each row
dx^h (x) b_i of the split jet frame.  The jet class of phi is `relative_mu` on
the chain (pi, phi), with pi: J1 A -> A the jet projection.

Conventions fixed once and used everywhere:
  * matrix wedge product (A ^ B)_u^t = A_u^s ^ B_s^t,
  * curvature Omega = d(omega) - omega ^ omega,
  * metric compatibility dG - omega ^ G - G ^ omega^T = 0, with G the
    0-form matrix of the metric (`FormMatrix.of_functions`),
  * dual connection matrix = -omega^T, the negative transpose in dual frames.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from .algebroid import (
    AlgebroidChart,
    JetChart,
    Morphism,
    _frame_derivative,
    d_A,
)
from .expressions import (Const, ScalarField, ZERO, add, div, evaluate,
                          max_abs_finite, mul, residual, square_root, sub)
from .forms import AForm, _accumulate, _form, _trusted_form
from .sampling import first_point


class FormMatrix:
    """Square matrix of forms of one homogeneous degree on a shared chart.

    The constructor checks every entry.  The matrix's own operations (sums,
    scalings, `wedge`, `d`, `transpose`) build valid matrices by construction
    and skip those checks.  Products are row-sparse: the nonzero entries of
    each row of the right factor are listed once, and A_u^s ^ B_s^t is added
    into the table of (AB)_u^t by ascending s, over nonzero pairs only, so
    each entry has the coefficient trees of `acc = acc + a.wedge(b)`.
    """

    __slots__ = ("chart", "size", "degree", "entries")

    def __init__(self, chart: AlgebroidChart, entries: Sequence[Sequence[AForm]],
                 degree: int):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("form matrix must be square")
        for row in entries:
            for entry in row:
                if entry.chart is not chart:
                    raise ValueError("all entries must live on the shared chart")
                if not entry.is_zero() and entry.degree != degree:
                    raise ValueError("entries must share one degree")
        self._set(chart, entries, degree)

    def _set(self, chart: AlgebroidChart, entries: Sequence[Sequence[AForm]],
             degree: int) -> "FormMatrix":
        self.chart, self.size, self.degree = chart, len(entries), degree
        self.entries = tuple(tuple(row) for row in entries)
        return self

    def _result(self, entries: Sequence[Sequence[AForm]], degree: int) -> "FormMatrix":
        """A matrix on this chart from entries that are valid by construction."""
        return FormMatrix.__new__(FormMatrix)._set(self.chart, entries, degree)

    @classmethod
    def zero(cls, chart: AlgebroidChart, size: int, degree: int) -> "FormMatrix":
        zero = chart.zero_form(degree)
        return cls(chart, [[zero] * size for _ in range(size)], degree)

    @classmethod
    def of_functions(cls, chart: AlgebroidChart,
                     rows: Sequence[Sequence[ScalarField]]) -> "FormMatrix":
        """The matrix of 0-forms with these scalar fields as entries."""
        return cls(chart, [[chart.function_form(f) for f in row] for row in rows], 0)

    def transpose(self) -> "FormMatrix":
        return self._result(list(zip(*self.entries)), self.degree)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_compatible(other)
        return self._result(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.degree,
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_compatible(other)
        return self._result(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.degree,
        )

    def scale(self, factor) -> "FormMatrix":
        return self._result([[e.scale(factor) for e in row] for row in self.entries],
                            self.degree)

    def wedge(self, other: "FormMatrix") -> "FormMatrix":
        """Matrix product with entrywise wedge: (AB)_u^t = A_u^s ^ B_s^t; zero,
        with nothing built, when the degree exceeds the chart rank."""
        self._check_compatible(other, same_degree=False)
        degree = self.degree + other.degree
        zero = self.chart.zero_form(degree)
        if degree > self.chart.rank:
            return self._result([[zero] * self.size] * self.size, degree)
        rows = [[(t, b) for t, b in enumerate(row) if b.table] for row in other.entries]
        out = []
        for row in self.entries:
            tables: dict[int, dict[tuple[int, ...], ScalarField]] = {}
            for a, nonzero in zip(row, rows):
                if a.table:
                    for t, b in nonzero:
                        a.wedge_into(b, tables.setdefault(t, {}))
            out.append([_form(self.chart, degree, tables[t]) if t in tables else zero
                        for t in range(self.size)])
        return self._result(out, degree)

    def d(self) -> "FormMatrix":
        return self._result([[d_A(e) for e in row] for row in self.entries], self.degree + 1)

    def trace(self) -> AForm:
        table: dict[tuple[int, ...], ScalarField] = {}
        for u in range(self.size):
            for key, coeff in self.entries[u][u].table.items():
                _accumulate(table, key, coeff)
        return _form(self.chart, self.degree, table)

    def trace_wedge(self, other: "FormMatrix") -> AForm:
        """tr(self ^ other), building only the diagonal of the product: the
        products A_u^s ^ B_s^u of nonzero pairs, added by ascending (u, s)."""
        self._check_compatible(other, same_degree=False)
        degree = self.degree + other.degree
        table: dict[tuple[int, ...], ScalarField] = {}
        if degree <= self.chart.rank:
            for u, row in enumerate(self.entries):
                for a, b_row in zip(row, other.entries):
                    if a.table and b_row[u].table:
                        a.wedge_into(b_row[u], table)
        return _form(self.chart, degree, table)

    def eval_on(self, frames: Sequence[tuple[int, ...]], points) -> np.ndarray:
        """Entry values on each frame tuple at each point, shape (frames, N, size, size)."""
        values = evaluate([entry.coeff_signed(frame) for frame in frames
                           for row in self.entries for entry in row], points)
        shape = (len(frames), self.size, self.size, len(points))
        return np.ascontiguousarray(values.reshape(shape).transpose(0, 3, 1, 2))

    def max_abs(self, points) -> float:
        """Largest coefficient magnitude of any entry; inf if any is non-finite."""
        return residual([coeff for row in self.entries for entry in row
                         for coeff in entry.table.values()], points)

    def _check_compatible(self, other: "FormMatrix", same_degree: bool = True):
        if self.chart is not other.chart or self.size != other.size:
            raise ValueError("form matrices are not compatible")
        if same_degree and self.degree != other.degree:
            raise ValueError("form matrices must share a degree")


def connection_from_coefficients(chart: AlgebroidChart, rank: int, coeff) -> FormMatrix:
    """The rank x rank connection matrix with coeff(i, u, t) -> omega_u^t on b_i."""
    return FormMatrix(chart, [[_trusted_form(chart, 1, {(i,): coeff(i, u, t)
                                                        for i in range(chart.rank)})
                               for t in range(rank)] for u in range(rank)], 1)


def _require_connection(conn: FormMatrix) -> None:
    if conn.degree != 1:
        raise ValueError("connection matrices must hold 1-forms")


def curvature(conn: FormMatrix) -> FormMatrix:
    """Omega = d(omega) - omega ^ omega."""
    _require_connection(conn)
    return conn.d() - conn.wedge(conn)


def dual_connection(conn: FormMatrix) -> FormMatrix:
    """Connection induced on the dual bundle: negative transpose matrix."""
    return conn.transpose().scale(-1.0)


def direct_sum(c1: FormMatrix, c2: FormMatrix) -> FormMatrix:
    """Block-diagonal connection on the sum of the two bundles."""
    if c1.chart is not c2.chart:
        raise ValueError("chart mismatch in connection sum")
    size = c1.size + c2.size
    zero = c1.chart.zero_form(1)
    out = [[zero] * size for _ in range(size)]
    for u, row in enumerate(c1.entries):
        out[u][:c1.size] = row
    for u, row in enumerate(c2.entries):
        out[c1.size + u][c1.size:] = row
    return FormMatrix(c1.chart, out, 1)


def bracket_connection(chart: AlgebroidChart) -> FormMatrix:
    """The connection nabla_{b_i} b_j = [b_i, b_j] on the algebroid itself."""
    return morphism_target_connection(Morphism.identity(chart))


def morphism_target_connection(phi: Morphism) -> FormMatrix:
    """Source-algebroid connection on the target bundle via [phi b_i, b'_u].

    omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t): the frame
    bracket terms by ascending s, then the anchor term.  The one
    bracket-induced builder; `bracket_connection` is its identity case.  On
    a jet source each row E = dx^h (x) b_i = j1(x^h b_i) - x^h j1(b_i) also
    carries the Leibniz term -rho'_u^h phi(j1 b_i), so that the connection
    along j1(x^h b_i) is [phi j1(x^h b_i), b'_u] like along every holonomic
    frame section."""
    target = phi.target
    columns = []
    for u in range(target.rank):
        column = []
        for row in phi.matrix:  # phi b_i = phi_i^s b'_s
            values = [ZERO] * target.rank
            for s, entry in enumerate(row):
                if entry.is_zero():
                    continue
                for t, coeff in target.structure.get((s, u), {}).items():
                    values[t] = add(values[t], mul(entry, coeff))
            column.append([sub(value, _frame_derivative(target, u, entry))
                           for value, entry in zip(values, row)])
        columns.append(column)
    if isinstance(phi.source, JetChart):
        for p, h, q in phi.source.cotangent_rows:
            for u, column in enumerate(columns):
                rho = target.anchor[u][h]
                if rho.is_zero():
                    continue
                column[p] = [sub(value, mul(rho, image))
                             for value, image in zip(column[p], phi.matrix[q])]
    return connection_from_coefficients(
        phi.source, target.rank, lambda i, u, t: columns[u][i][t]
    )


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


class QuasiMetric:
    """Possibly degenerate symmetric (sign +1) or skew (sign -1) 2-tensor."""

    __slots__ = ("rank", "sign", "matrix")

    def __init__(self, rank: int, sign: int, matrix: Sequence[Sequence[ScalarField]]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 (symmetric) or -1 (skew)")
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise ValueError("metric matrix shape mismatch")
        self.rank = rank
        self.sign = sign
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def identity(cls, rank: int) -> "QuasiMetric":
        return cls(rank, 1, [[Const(1.0) if i == j else ZERO for j in range(rank)]
                             for i in range(rank)])

    def values(self, points) -> np.ndarray:
        """The matrix at each point, shape (N, rank, rank)."""
        flat = evaluate([e for row in self.matrix for e in row], points)
        return flat.T.reshape(len(points), self.rank, self.rank)

    def validate(self, points) -> None:
        """Raise ValueError at the first probe point where the matrix is not
        finite, not symmetric, or not positive definite."""
        g = self.values(points)
        point = first_point(~np.isfinite(g), points)
        if point is not None:
            raise ValueError(f"not finite at probe point {point}")
        point = first_point(np.abs(g - np.swapaxes(g, 1, 2)) > 1e-9, points)
        if point is not None:
            raise ValueError(f"not symmetric at probe point {point}")
        point = first_point(np.linalg.eigvalsh(g)[:, 0] <= 1e-12, points)
        if point is not None:
            raise ValueError(f"not positive definite at probe point {point}")


def orthogonal_connection(chart: AlgebroidChart, g: QuasiMetric) -> FormMatrix:
    """Metric connection: zero matrix in the orthonormal frame G = L^-1.

    L is the Cholesky factor of g = L L^T, built symbolically row by row:
    L_ut = (g_ut - sum_{s<t} L_us L_ts) / L_tt, L_uu = sqrt(g_uu - sum_{s<u} L_us^2),
    and G by forward substitution, G_u = (e_u - sum_{t<u} L_ut G_t) / L_uu.  Then
    omega = -G^-1 dG = dL ^ G satisfies nabla g = 0.  `g` must be positive
    definite (`QuasiMetric.validate`); elsewhere L is not finite.
    """
    if g.sign != 1:
        raise ValueError("orthogonal connections need a symmetric metric")
    rank = g.rank
    factor: list[list[ScalarField]] = []  # factor[u][t] is L_u^t
    frame: list[list[ScalarField]] = []  # frame[u][t] is G_u^t
    for u in range(rank):
        row = [ZERO] * rank
        factor.append(row)
        for t in range(u + 1):
            acc = g.matrix[u][t]
            for s in range(t):
                acc = sub(acc, mul(row[s], factor[t][s]))
            row[t] = square_root(acc) if t == u else div(acc, factor[t][t])
        vec = [Const(1.0) if a == u else ZERO for a in range(rank)]
        for t in range(u):
            if not row[t].is_zero():
                vec = [sub(v, mul(row[t], w)) for v, w in zip(vec, frame[t])]
        frame.append([div(v, row[u]) for v in vec])
    return (FormMatrix.of_functions(chart, factor).d()
            .wedge(FormMatrix.of_functions(chart, frame)))


# --------------------------------------------------------------------------
# Quasi-metrics on A + A'* and the flatness checks they support
# --------------------------------------------------------------------------


def quasi_metric_on_S(phi: Morphism) -> tuple[QuasiMetric, QuasiMetric]:
    """The symmetric and skew pairings induced by a morphism on A + A'*.

    g((v1, nu1), (v2, nu2)) = <nu2, phi v1> +/- <nu1, phi v2>.
    """
    s, sp = phi.source.rank, phi.target.rank
    total = s + sp

    def build(sign: int) -> QuasiMetric:
        matrix = [[ZERO] * total for _ in range(total)]
        for i in range(s):
            for u in range(sp):
                entry = phi.matrix[i][u]
                if not entry.is_zero():
                    matrix[i][s + u] = entry
                    matrix[s + u][i] = entry if sign == 1 else mul(Const(-1.0), entry)
        return QuasiMetric(total, sign, matrix)

    return build(1), build(-1)


def metric_compat_check(conn: FormMatrix, g: QuasiMetric) -> FormMatrix:
    """The residual matrix dG - omega ^ G - G ^ omega^T, G the 0-form matrix of g.

    On b_i its (a, b) entry is anchor(g(b_a, b_b)) - g(nabla b_a, b_b) -
    g(b_a, nabla b_b) with nabla_{b_i} b_a = omega_a^c(b_i) b_c.
    """
    G = FormMatrix.of_functions(conn.chart, g.matrix)
    return G.d() - conn.wedge(G) - G.wedge(conn.transpose())


def kernel_frame_on_S(phi: Morphism, ker_rows: Sequence[Sequence[ScalarField]],
                      coker_rows: Sequence[Sequence[ScalarField]]) -> list[list[ScalarField]]:
    """Embed kernel sections of phi and of its transpose into A + A'*."""
    s, sp = phi.source.rank, phi.target.rank
    vectors = []
    for row in ker_rows:
        if len(row) != s:
            raise ValueError("kernel rows must have source rank length")
        vectors.append(list(row) + [ZERO] * sp)
    for row in coker_rows:
        if len(row) != sp:
            raise ValueError("cokernel rows must have target rank length")
        vectors.append([ZERO] * s + list(row))
    return vectors


def k_flatness_check(conn_S: FormMatrix, phi: Morphism,
                     ker_rows: Sequence[Sequence[ScalarField]],
                     coker_rows: Sequence[Sequence[ScalarField]],
                     points) -> float:
    """Largest entry of the sum connection's curvature applied to the annihilator
    frame, at the probe points; inf if any value is non-finite."""
    chart = conn_S.chart
    vectors = kernel_frame_on_S(phi, ker_rows, coker_rows)
    omega = curvature(conn_S).eval_on(list(combinations(range(chart.rank), 2)), points)
    values = evaluate([c for vec in vectors for c in vec], points)
    values = values.T.reshape(len(points), len(vectors), conn_S.size)
    with np.errstate(all="ignore"):  # a non-finite value makes the residual inf
        return max_abs_finite(values @ omega)


def adapted_frame(g: QuasiMetric, kernel_vectors: Sequence[Sequence[ScalarField]],
                  probe_points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical constant frame (s_h | t_l) for a constant-coefficient quasi-metric.

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
        s_frame, canonical = _symplectic_basis(gram, complement)
    return s_frame, canonical, t_frame


def _symplectic_basis(gram: np.ndarray, complement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def quasi_metric_frame_check(conn: FormMatrix, g: QuasiMetric,
                             kernel_vectors: Sequence[Sequence[ScalarField]],
                             points) -> dict[str, float]:
    """Pointwise residuals in an adapted frame for a quasi-metric connection.

    The worst value at the probe points of each block, by name: the kernel
    blocks, which vanish when derivatives of the kernel frame stay in the
    kernel, and the algebra defects, which vanish when the complement blocks
    of the connection and curvature matrices preserve the canonical Gram
    (orthogonal/symplectic valued).  A non-finite value counts as inf.
    """
    chart = conn.chart
    s_frame, canonical, t_frame = adapted_frame(g, kernel_vectors, points)
    frame = np.vstack([s_frame, t_frame])
    frame_inv = np.linalg.inv(frame)
    q = len(s_frame)

    def worst_blocks(matrix: FormMatrix, frames) -> tuple[float, float]:
        """Largest kernel-block entry and algebra defect in the adapted frame."""
        with np.errstate(all="ignore"):  # a non-finite value makes the residual inf
            adapted = frame @ matrix.eval_on(frames, points) @ frame_inv
            block = adapted[..., :q, :q]
            defect = block @ canonical + canonical @ np.swapaxes(block, -1, -2)
        return max_abs_finite(adapted[..., q:, :q]), max_abs_finite(defect)

    worst_kernel, worst_algebra = worst_blocks(
        conn, [(i,) for i in range(chart.rank)])
    worst_curv_kernel, worst_curv_algebra = worst_blocks(
        curvature(conn), list(combinations(range(chart.rank), 2)))
    label = "orthogonal" if g.sign == 1 else "symplectic"
    return {
        "adapted_frame_kernel_block": worst_kernel,
        f"adapted_frame_{label}_block": worst_algebra,
        "adapted_frame_curvature_kernel_block": worst_curv_kernel,
        f"adapted_frame_curvature_{label}_block": worst_curv_algebra,
    }
