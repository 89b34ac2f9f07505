"""Connections along algebroid sections, stored as matrices of 1-forms.

Conventions fixed once and used everywhere:
  * matrix wedge product (A ^ B)_u^t = A_u^s ^ B_s^t,
  * curvature Omega = d(omega) - omega ^ omega,
  * frame change omega -> P^-1 omega P + P^-1 dP,
  * dual connection matrix = negative transpose in dual frames.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from .algebroid import (
    AForm,
    AlgebroidChart,
    JetChart,
    Morphism,
    Section,
    anchor_apply,
    bracket,
    build_link_chart,
    d_A,
    extend_with_parameters,
)
from .expressions import (Const, ScalarField, ZERO, add, div, evaluate, max_abs_finite,
                          mul, residual, square_root, sub)
from .forms import AFormData
from .reports import CheckRecord
from .sampling import first_point, sample_points


def lift_form(form: AForm, chart: AlgebroidChart) -> AForm:
    """Reinterpret a form on a sub-frame as a form on an extended chart."""
    if form.chart.rank > chart.rank:
        raise ValueError("target chart has smaller rank")
    return AForm(chart, AFormData(form.degree, chart.rank, dict(form.data.table)))


class FormMatrix:
    """Square matrix of forms of one homogeneous degree on a shared chart."""

    __slots__ = ("chart", "size", "degree", "entries")

    def __init__(self, chart: AlgebroidChart, entries: Sequence[Sequence[AForm]],
                 degree: int | None = None):
        self.chart = chart
        self.size = len(entries)
        if any(len(row) != self.size for row in entries):
            raise ValueError("form matrix must be square")
        if degree is None:
            degree = 0
            for row in entries:
                for entry in row:
                    if not entry.is_zero():
                        degree = entry.degree
        self.degree = degree
        for row in entries:
            for entry in row:
                if entry.chart is not chart:
                    raise ValueError("all entries must live on the shared chart")
                if not entry.is_zero() and entry.degree != degree:
                    raise ValueError("entries must share one degree")
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def zero(cls, chart: AlgebroidChart, size: int, degree: int) -> "FormMatrix":
        zero = chart.zero_form(degree)
        return cls(chart, [[zero] * size for _ in range(size)], degree)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_compatible(other)
        return FormMatrix(
            self.chart,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.degree,
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        self._check_compatible(other)
        return FormMatrix(
            self.chart,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.degree,
        )

    def scale(self, factor) -> "FormMatrix":
        return FormMatrix(
            self.chart,
            [[e.scale(factor) for e in row] for row in self.entries],
            self.degree,
        )

    def wedge(self, other: "FormMatrix") -> "FormMatrix":
        """Matrix product with entrywise wedge: (AB)_u^t = A_u^s ^ B_s^t."""
        self._check_compatible(other, same_degree=False)
        degree = self.degree + other.degree
        zero = self.chart.zero_form(degree)
        out = []
        for u in range(self.size):
            row = []
            for t in range(self.size):
                acc = zero
                for s in range(self.size):
                    a = self.entries[u][s]
                    b = other.entries[s][t]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a.wedge(b)
                row.append(acc)
            out.append(row)
        return FormMatrix(self.chart, out, degree)

    def d(self) -> "FormMatrix":
        return FormMatrix(
            self.chart,
            [[d_A(e) for e in row] for row in self.entries],
            self.degree + 1,
        )

    def transpose_negate(self) -> "FormMatrix":
        return FormMatrix(
            self.chart,
            [[self.entries[t][u].scale(-1.0) for t in range(self.size)]
             for u in range(self.size)],
            self.degree,
        )

    def trace(self) -> AForm:
        acc = self.chart.zero_form(self.degree)
        for u in range(self.size):
            acc = acc + self.entries[u][u]
        return acc

    @staticmethod
    def block_diag(a: "FormMatrix", b: "FormMatrix") -> "FormMatrix":
        if a.chart is not b.chart:
            raise ValueError("chart mismatch in block sum")
        degree = a.degree if not _matrix_is_zero(a) else b.degree
        size = a.size + b.size
        zero = a.chart.zero_form(degree)
        out = [[zero] * size for _ in range(size)]
        for u in range(a.size):
            for t in range(a.size):
                out[u][t] = a.entries[u][t]
        for u in range(b.size):
            for t in range(b.size):
                out[a.size + u][a.size + t] = b.entries[u][t]
        return FormMatrix(a.chart, out, degree)

    def eval_on(self, frames: Sequence[tuple[int, ...]], points) -> np.ndarray:
        """Entry values on each frame tuple at each point, shape (frames, N, size, size)."""
        values = evaluate([entry.data.coeff_signed(frame) for frame in frames
                           for row in self.entries for entry in row], points)
        shape = (len(frames), self.size, self.size, len(points))
        return np.ascontiguousarray(values.reshape(shape).transpose(0, 3, 1, 2))

    def pure_part(self, frame_rank: int) -> "FormMatrix":
        """Drop components whose multi-index touches frame slots >= frame_rank."""
        out = []
        for row in self.entries:
            new_row = []
            for entry in row:
                table = {
                    idx: c for idx, c in entry.data.table.items()
                    if all(i < frame_rank for i in idx)
                }
                new_row.append(AForm(self.chart, AFormData(entry.degree, self.chart.rank, table)))
            out.append(new_row)
        return FormMatrix(self.chart, out, self.degree)

    def max_abs(self, points) -> float:
        """Largest coefficient magnitude of any entry; inf if any is non-finite."""
        return residual([coeff for row in self.entries for entry in row
                         for coeff in entry.data.table.values()], points)

    def _check_compatible(self, other: "FormMatrix", same_degree: bool = True):
        if self.chart is not other.chart or self.size != other.size:
            raise ValueError("form matrices are not compatible")
        if same_degree and self.degree != other.degree:
            raise ValueError("form matrices must share a degree")


def _matrix_is_zero(m: FormMatrix) -> bool:
    return all(e.is_zero() for row in m.entries for e in row)


class AConnection:
    """Connection on a rank-r bundle, as an r x r matrix of 1-forms."""

    __slots__ = ("chart", "rank", "matrix", "frame")

    def __init__(self, chart: AlgebroidChart, rank: int, matrix: FormMatrix,
                 frame: str = "standard"):
        if matrix.size != rank or matrix.chart is not chart:
            raise ValueError("connection matrix shape or chart mismatch")
        if not _matrix_is_zero(matrix) and matrix.degree != 1:
            raise ValueError("connection matrix entries must be 1-forms")
        self.chart = chart
        self.rank = rank
        self.matrix = matrix
        self.frame = frame

    @classmethod
    def flat(cls, chart: AlgebroidChart, rank: int, frame: str = "standard") -> "AConnection":
        return cls(chart, rank, FormMatrix.zero(chart, rank, 1), frame)

    @classmethod
    def from_coefficients(cls, chart: AlgebroidChart, rank: int, coeff, frame: str = "standard"):
        """Build from coeff(i, u, t) -> ScalarField of omega_u^t on b_i."""
        rows = []
        for u in range(rank):
            row = []
            for t in range(rank):
                table = {}
                for i in range(chart.rank):
                    c = coeff(i, u, t)
                    if not c.is_zero():
                        table[(i,)] = c
                row.append(AForm(chart, AFormData(1, chart.rank, table)))
            rows.append(row)
        return cls(chart, rank, FormMatrix(chart, rows, 1), frame)

    def omega(self, u: int, t: int) -> AForm:
        return self.matrix.entries[u][t]

    def __repr__(self):
        return f"AConnection(rank={self.rank} on {self.chart.name!r})"


def covariant_derivative(conn: AConnection, a: Section,
                         v: Sequence[ScalarField] | Section) -> list[ScalarField]:
    """(nabla_a v)^t = anchor(a)(v^t) + v^u omega_u^t(a)."""
    comps = v.comps if isinstance(v, Section) else tuple(v)
    if len(comps) != conn.rank:
        raise ValueError("bundle section has wrong rank")
    out = []
    for t in range(conn.rank):
        acc = anchor_apply(a, comps[t])
        for u in range(conn.rank):
            if comps[u].is_zero():
                continue
            entry = conn.omega(u, t)
            pairing = ZERO
            for (i,), c in entry.data.table.items():
                pairing = add(pairing, mul(a.comps[i], c))
            acc = add(acc, mul(comps[u], pairing))
        out.append(acc)
    return out


def curvature(conn: AConnection) -> FormMatrix:
    """Omega = d(omega) - omega ^ omega."""
    return conn.matrix.d() - conn.matrix.wedge(conn.matrix)


def dual_connection(conn: AConnection) -> AConnection:
    """Connection induced on the dual bundle: negative transpose matrix."""
    return AConnection(conn.chart, conn.rank, conn.matrix.transpose_negate(),
                       frame=f"{conn.frame}*")


def direct_sum(c1: AConnection, c2: AConnection) -> AConnection:
    if c1.chart is not c2.chart:
        raise ValueError("chart mismatch in connection sum")
    matrix = FormMatrix.block_diag(c1.matrix, c2.matrix)
    return AConnection(c1.chart, c1.rank + c2.rank, matrix,
                       frame=f"{c1.frame}+{c2.frame}")


def bracket_connection(chart: AlgebroidChart) -> AConnection:
    """The connection nabla_{b_i} b_j = [b_i, b_j] on the algebroid itself."""
    return AConnection.from_coefficients(
        chart, chart.rank, lambda i, u, t: chart.gamma(i, u, t)
    )


def morphism_target_connection(phi: Morphism) -> AConnection:
    """Source-algebroid connection on the target bundle via [phi b_i, b'_u]."""
    source, target = phi.source, phi.target
    columns = []
    for u in range(target.rank):
        per_direction = []
        for i in range(source.rank):
            image = phi.apply(source.basis_section(i))
            per_direction.append(bracket(image, target.basis_section(u)).comps)
        columns.append(per_direction)
    return AConnection.from_coefficients(
        source, target.rank, lambda i, u, t: columns[u][i][t]
    )


def distinguished_pair(phi: Morphism) -> tuple[AConnection, AConnection]:
    """Bracket connection on the source and the induced one on the target."""
    return bracket_connection(phi.source), morphism_target_connection(phi)


def morphism_sum_connection(phi: Morphism) -> AConnection:
    """The compatible connection on A + A'* built from a distinguished pair."""
    nabla, nabla_prime = distinguished_pair(phi)
    return direct_sum(nabla, dual_connection(nabla_prime))


def jet_bracket_connection(jet: JetChart) -> AConnection:
    """Flat jet-algebroid connection on the underlying bundle.

    Covariant derivative along each jet frame element is the bracket with its
    defining section.
    """
    base = jet.base_chart
    table = []
    for sec in jet.defining:
        table.append([bracket(sec, base.basis_section(j)).comps for j in range(base.rank)])
    return AConnection.from_coefficients(
        jet, base.rank, lambda p, u, t: table[p][u][t]
    )


def jet_morphism_connection(jet: JetChart, phi: Morphism) -> AConnection:
    """Flat jet-algebroid connection on the morphism target bundle."""
    if phi.source is not jet.base_chart:
        raise ValueError("morphism must start at the jet's underlying chart")
    target = phi.target
    table = []
    for sec in jet.defining:
        image = phi.apply(sec)
        table.append([bracket(image, target.basis_section(u)).comps
                      for u in range(target.rank)])
    return AConnection.from_coefficients(
        jet, target.rank, lambda p, u, t: table[p][u][t]
    )


def pullback_connection(phi: Morphism, conn: AConnection) -> AConnection:
    """Connection with matrix pulled back along a base-preserving morphism."""
    from .algebroid import pullback

    if conn.chart is not phi.target:
        raise ValueError("connection must live on the morphism target algebroid")
    rows = [[pullback(phi, e) for e in row] for row in conn.matrix.entries]
    return AConnection(phi.source, conn.rank,
                       FormMatrix(phi.source, rows, 1), frame=conn.frame)


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

    def pairing(self, v: Sequence[ScalarField], w: Sequence[ScalarField]) -> ScalarField:
        acc = ZERO
        for a in range(self.rank):
            if v[a].is_zero():
                continue
            for b in range(self.rank):
                if w[b].is_zero() or self.matrix[a][b].is_zero():
                    continue
                acc = add(acc, mul(v[a], mul(self.matrix[a][b], w[b])))
        return acc

    def values(self, points) -> np.ndarray:
        """The matrix at each point, shape (N, rank, rank)."""
        flat = evaluate([e for row in self.matrix for e in row], points)
        return flat.T.reshape(len(points), self.rank, self.rank)

    def symmetry_residual(self, points) -> float:
        g = self.values(points)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN: an infinite residual
            return max_abs_finite(g - self.sign * np.swapaxes(g, 1, 2))


def orthogonal_connection(chart: AlgebroidChart, g: QuasiMetric) -> AConnection:
    """Metric connection: zero matrix in the orthonormalized frame.

    Gram-Schmidt runs symbolically on the metric coefficients; the resulting
    frame-change matrix G (lower triangular) gives omega = -G^-1 dG in the
    working frame, which satisfies nabla g = 0.
    """
    if g.sign != 1:
        raise ValueError("orthogonal connections need a symmetric metric")
    rank = g.rank
    points = sample_points(chart.dim, 8, 7)
    values = g.values(points)
    point = first_point(~np.isfinite(values), points)
    if point is not None:
        raise ValueError(f"metric on {chart.name!r} cannot be evaluated at probe "
                         f"point {point}: value is not finite")
    point = first_point(np.linalg.eigvalsh(values)[:, 0] <= 1e-12, points)
    if point is not None:
        raise ValueError(f"metric is not positive definite at probe point {point}")
    frame: list[list[ScalarField]] = []
    for u in range(rank):
        vec = [Const(1.0) if a == u else ZERO for a in range(rank)]
        for prev in frame:
            proj = g.pairing(vec, prev)
            if not proj.is_zero():
                vec = [sub(v, mul(proj, p)) for v, p in zip(vec, prev)]
        norm = square_root(g.pairing(vec, vec))
        frame.append([div(v, norm) for v in vec])
    # frame[u][t] is G_u^t; invert the lower triangular system.
    inverse = _invert_lower_triangular(frame)
    rows = []
    for u in range(rank):
        row = []
        for t in range(rank):
            acc = chart.zero_form(1)
            for s in range(rank):
                dG = d_A(chart.function_form(frame[s][t]))
                if dG.is_zero() or inverse[u][s].is_zero():
                    continue
                acc = acc + dG.scale(inverse[u][s])
            row.append(acc.scale(-1.0))
        rows.append(row)
    return AConnection(chart, rank, FormMatrix(chart, rows, 1), frame="orthogonal")


def _invert_lower_triangular(m: list[list[ScalarField]]) -> list[list[ScalarField]]:
    n = len(m)
    inv = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = div(Const(1.0), m[i][i])
        for j in range(i - 1, -1, -1):
            acc = ZERO
            for k in range(j, i):
                acc = add(acc, mul(m[i][k], inv[k][j]))
            inv[i][j] = div(mul(Const(-1.0), acc), m[i][i])
    return inv


def invert_field_matrix(m: Sequence[Sequence[ScalarField]]) -> list[list[ScalarField]]:
    """Gauss-Jordan inverse over scalar fields; pivots must be structurally nonzero."""
    n = len(m)
    work = [list(row) for row in m]
    inv = [[Const(1.0) if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("matrix is structurally singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = work[col][col]
        work[col] = [div(e, pivot) for e in work[col]]
        inv[col] = [div(e, pivot) for e in inv[col]]
        for r in range(n):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [sub(a, mul(factor, b)) for a, b in zip(work[r], work[col])]
            inv[r] = [sub(a, mul(factor, b)) for a, b in zip(inv[r], inv[col])]
    return inv


def conjugate_connection(conn: AConnection, p: Sequence[Sequence[ScalarField]]) -> AConnection:
    """Connection matrix in the frame whose rows over the old frame are P.

    With the fixed index layout (bundle index as row, wedge order
    (AB)_u^t = A_u^s ^ B_s^t) the transformation law is
    omega -> P omega P^-1 + dP P^-1, under which the curvature conjugates to
    P Omega P^-1 and every Chern form is unchanged.
    """
    chart = conn.chart
    n = conn.rank
    p_inv = invert_field_matrix(p)
    conj = conjugate_form_matrix(conn.matrix, p)
    d_p = [[d_A(chart.function_form(p[a][b])) for b in range(n)] for a in range(n)]
    rows = []
    for u in range(n):
        row = []
        for t in range(n):
            acc = conj.entries[u][t]
            for a in range(n):
                if d_p[u][a].is_zero() or p_inv[a][t].is_zero():
                    continue
                acc = acc + d_p[u][a].scale(p_inv[a][t])
            row.append(acc)
        rows.append(row)
    return AConnection(chart, n, FormMatrix(chart, rows, 1), frame=f"{conn.frame}|P")


def conjugate_form_matrix(m: FormMatrix, p: Sequence[Sequence[ScalarField]]) -> FormMatrix:
    """P M P^-1 for a scalar-field frame change."""
    n = m.size
    p_inv = invert_field_matrix(p)
    zero = m.chart.zero_form(m.degree)
    rows = []
    for u in range(n):
        row = []
        for t in range(n):
            acc = zero
            for a in range(n):
                for b in range(n):
                    entry = m.entries[a][b]
                    if entry.is_zero():
                        continue
                    factor = mul(p[u][a], p_inv[b][t])
                    if factor.is_zero():
                        continue
                    acc = acc + entry.scale(factor)
            row.append(acc)
        rows.append(row)
    return FormMatrix(m.chart, rows, m.degree)


def glue(connections: Sequence[AConnection], weights: Sequence[ScalarField]) -> AConnection:
    """Convex combination of connections by a partition of unity."""
    if len(connections) != len(weights) or not connections:
        raise ValueError("need matching nonempty connections and weights")
    chart = connections[0].chart
    rank = connections[0].rank
    for conn in connections:
        if conn.chart is not chart or conn.rank != rank:
            raise ValueError("glued connections must share chart and rank")
    points = sample_points(chart.dim, 16, 11)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN sum, rejected below
        totals = evaluate(weights, points).sum(axis=0)
    for point, total in zip(points.tolist(), totals):
        if not abs(total - 1.0) <= 1e-9:  # a NaN weight is not a partition of unity
            raise ValueError(f"weights sum to {total} at {tuple(point)}, not a partition of unity")
    matrix = FormMatrix.zero(chart, rank, 1)
    for conn, weight in zip(connections, weights):
        matrix = matrix + conn.matrix.scale(weight)
    return AConnection(chart, rank, matrix, frame=connections[0].frame)


# --------------------------------------------------------------------------
# One-parameter links and simplex families
# --------------------------------------------------------------------------


class ConnectionFamily:
    """Family of connections over a parameter cell, as a matrix on the product chart.

    `omega` carries only base-frame components: the family has no transverse
    (parameter-direction) components.
    """

    def __init__(self, base_chart: AlgebroidChart, product_chart: AlgebroidChart,
                 rank: int, omega: FormMatrix):
        self.base_chart = base_chart
        self.product_chart = product_chart
        self.rank = rank
        self.omega = omega
        self.n_params = product_chart.rank - base_chart.rank

    @classmethod
    def affine_link(cls, c0: AConnection, c1: AConnection) -> "ConnectionFamily":
        """(1 - tau) c0 + tau c1."""
        if c0.chart is not c1.chart or c0.rank != c1.rank:
            raise ValueError("link endpoints must share chart and rank")
        chart = c0.chart
        link = build_link_chart(chart, "tau")
        tau = link.coordinate_field(chart.dim)
        one_minus = sub(Const(1.0), tau)
        m0 = lift_matrix(c0.matrix, link)
        m1 = lift_matrix(c1.matrix, link)
        omega = m0.scale(one_minus) + m1.scale(tau)
        return cls(chart, link, c0.rank, omega)

    @classmethod
    def barycentric(cls, connections: Sequence[AConnection]) -> "ConnectionFamily":
        """Convex simplex family sum_a t^a nabla^a with t^0 = 1 - sum t^c."""
        k = len(connections) - 1
        chart = connections[0].chart
        for conn in connections:
            if conn.chart is not chart or conn.rank != connections[0].rank:
                raise ValueError("family endpoints must share chart and rank")
        names = [f"t{c}" for c in range(1, k + 1)]
        product = extend_with_parameters(chart, names)
        lifted = [lift_matrix(c.matrix, product) for c in connections]
        omega = lifted[0]
        for c in range(1, k + 1):
            t_c = product.coordinate_field(chart.dim + c - 1)
            omega = omega + (lifted[c] - lifted[0]).scale(t_c)
        return cls(chart, product, connections[0].rank, omega)

    def full_connection(self) -> AConnection:
        """The family as one connection on the product chart."""
        product = self.product_chart
        return AConnection(product, self.rank, FormMatrix(product, self.omega.entries, 1),
                           frame="family")

    def slice_at(self, values: Sequence[float]) -> AConnection:
        """The member connection at fixed parameter values."""
        base = self.base_chart
        rows = []
        for u in range(self.rank):
            row = []
            for t in range(self.rank):
                entry = self.omega.entries[u][t]
                table = {}
                for idx, coeff in entry.data.table.items():
                    if any(i >= base.rank for i in idx):
                        continue
                    for c, value in enumerate(values):
                        coeff = coeff.subs(base.dim + c, value)
                    if not coeff.is_zero():
                        table[idx] = coeff
                row.append(AForm(base, AFormData(1, base.rank, table)))
            rows.append(row)
        return AConnection(base, self.rank, FormMatrix(base, rows, 1))


def lift_matrix(m: FormMatrix, chart: AlgebroidChart) -> FormMatrix:
    """Entrywise `lift_form` of a form matrix onto an extended chart."""
    rows = [[lift_form(e, chart) for e in row] for row in m.entries]
    return FormMatrix(chart, rows, m.degree)


def link_curvature(family: ConnectionFamily) -> tuple[FormMatrix, FormMatrix]:
    """Per-parameter curvature and transverse curvature of a 1-parameter link.

    Returns (Omega_tau, Lambda) with Lambda = d(omega)/d(tau).  Under this
    library's ordering of the product frame the full product curvature
    carries -Lambda on the transverse slots; the pure base part is Omega_tau.
    """
    if family.n_params != 1:
        raise ValueError("link curvature needs a 1-parameter family")
    chart = family.product_chart
    tau_index = family.base_chart.dim
    omega = family.omega
    omega_tau = omega.d().pure_part(family.base_chart.rank) - omega.wedge(omega)
    rows = []
    for row in omega.entries:
        out = []
        for entry in row:
            table = {}
            for idx, c in entry.data.table.items():
                derivative = c.diff(tau_index)
                if not derivative.is_zero():
                    table[idx] = derivative
            out.append(AForm(chart, AFormData(1, chart.rank, table)))
        rows.append(out)
    return omega_tau, FormMatrix(chart, rows, 1)


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
                if entry.is_zero():
                    continue
                matrix[i][s + u] = add(matrix[i][s + u], entry)
                signed = entry if sign == 1 else mul(Const(-1.0), entry)
                matrix[s + u][i] = add(matrix[s + u][i], signed)
        return QuasiMetric(total, sign, matrix)

    return build(1), build(-1)


def metric_compat_check(conn: AConnection, g: QuasiMetric, n_points: int = 100,
                        seed: int = 42, tol: float = 1e-9,
                        name: str = "metric_compatibility") -> CheckRecord:
    """Residual of anchor(g(v,w)) - g(nabla v, w) - g(v, nabla w) on frame pairs."""
    chart = conn.chart
    points = sample_points(chart.dim, n_points, seed)
    fields = []
    for i in range(chart.rank):
        direction = chart.basis_section(i)
        for a in range(conn.rank):
            for b in range(conn.rank):
                field = anchor_apply(direction, g.matrix[a][b])
                for c in range(conn.rank):
                    w_ac = conn.omega(a, c).data.coeff((i,))
                    if not w_ac.is_zero() and not g.matrix[c][b].is_zero():
                        field = sub(field, mul(w_ac, g.matrix[c][b]))
                    w_bc = conn.omega(b, c).data.coeff((i,))
                    if not w_bc.is_zero() and not g.matrix[a][c].is_zero():
                        field = sub(field, mul(w_bc, g.matrix[a][c]))
                fields.append(field)
    return CheckRecord(name, residual(fields, points), tol, n_points, {"seed": seed})


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


def k_flatness_check(conn_S: AConnection, phi: Morphism,
                     ker_rows: Sequence[Sequence[ScalarField]],
                     coker_rows: Sequence[Sequence[ScalarField]],
                     n_points: int = 100, seed: int = 42,
                     tol: float = 1e-10) -> CheckRecord:
    """Curvature of the sum connection applied to the annihilator frame."""
    chart = conn_S.chart
    vectors = kernel_frame_on_S(phi, ker_rows, coker_rows)
    points = sample_points(chart.dim, n_points, seed)
    omega = curvature(conn_S).eval_on(list(combinations(range(chart.rank), 2)), points)
    values = evaluate([c for vec in vectors for c in vec], points)
    values = values.T.reshape(len(points), len(vectors), conn_S.rank)
    with np.errstate(all="ignore"):  # a non-finite value makes the residual inf
        worst = max_abs_finite(values @ omega)
    return CheckRecord("k_flatness", worst, tol, n_points,
                       {"seed": seed, "kernel_vectors": len(vectors)})


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


def quasi_metric_frame_check(conn: AConnection, g: QuasiMetric,
                             kernel_vectors: Sequence[Sequence[ScalarField]],
                             n_points: int = 50, seed: int = 42,
                             tol: float = 1e-9) -> list[CheckRecord]:
    """Pointwise checks in an adapted frame for a quasi-metric connection.

    Verifies that derivatives of the kernel frame stay in the kernel, and that
    the complement blocks of the connection and curvature matrices preserve
    the canonical Gram (orthogonal/symplectic valued).
    """
    chart = conn.chart
    points = sample_points(chart.dim, n_points, seed)
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
        conn.matrix, [(i,) for i in range(chart.rank)])
    worst_curv_kernel, worst_curv_algebra = worst_blocks(
        curvature(conn), list(combinations(range(chart.rank), 2)))
    label = "orthogonal" if g.sign == 1 else "symplectic"
    return [
        CheckRecord("adapted_frame_kernel_block", worst_kernel, tol, n_points),
        CheckRecord(f"adapted_frame_{label}_block", worst_algebra, tol, n_points),
        CheckRecord("adapted_frame_curvature_kernel_block", worst_curv_kernel,
                    tol, n_points),
        CheckRecord(f"adapted_frame_curvature_{label}_block", worst_curv_algebra,
                    tol, n_points),
    ]
