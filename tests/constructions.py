"""Constructions that the tests exercise but no command of the CLI reaches.

Frame changes of connections, covariant derivatives of bundle sections,
partition-of-unity gluing, the vanishing of odd Chern classes on o(q) and
sp(q), 1-jets of sections, covectors of a frame, values of forms on sections
at a point, and the connection on A + A'* of a morphism alone.  Tests use them to check what `algebroids` builds: that
Chern forms do not change under a frame change, that glued metric connections
stay metric, and so on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from algebroids.algebroid import AlgebroidChart, JetChart, Morphism, d_A
from algebroids.connections import FormMatrix, QuasiMetric, chain_connection, invert_field_matrix
from algebroids.expressions import Const, ScalarField, ZERO, add, evaluate, max_abs_finite, mul
from algebroids.forms import AForm, _require_same_chart
from algebroids.sampling import sample_points
from dense_oracle import Section, alternating_assignments, anchor_apply
from expression_oracle import scalar_eval


def chern_scalar(matrix: np.ndarray, h: int) -> float:
    """c_h(F), the sum of principal h-minors, by Newton's identities.

    k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i with the power sums
    p_i = tr(F^i).
    """
    matrix = np.asarray(matrix, dtype=float)
    r = matrix.shape[0]
    if matrix.shape != (r, r):
        raise ValueError("chern_scalar needs a square matrix")
    if not 1 <= h <= r:
        raise ValueError(f"c_{h} is out of range for {r}x{r} matrices")
    power = np.eye(r)
    power_sums = []
    elementary = [1.0]
    for k in range(1, h + 1):
        power = power @ matrix
        power_sums.append(float(np.trace(power)))
        elementary.append(sum((-1) ** (i - 1) * elementary[k - i] * power_sums[i - 1]
                              for i in range(1, k + 1)) / k)
    return elementary[h]


def odd_vanishing_check(matrix: np.ndarray, l: int, algebra: str = "o",
                        membership_tol: float = 1e-9) -> float:
    """|c_{2l-1}| of a matrix in o(q) or sp(q, R); rejects foreign input."""
    matrix = np.asarray(matrix, dtype=float)
    r = matrix.shape[0]
    if algebra == "o":
        residual = max_abs_finite(matrix + matrix.T)
    elif algebra == "sp":
        if r % 2:
            raise ValueError("sp(q) needs even dimension")
        half = r // 2
        j = np.block([[np.zeros((half, half)), np.eye(half)],
                      [-np.eye(half), np.zeros((half, half))]])
        residual = max_abs_finite(matrix.T @ j + j @ matrix)
    else:
        raise ValueError("algebra must be 'o' or 'sp'")
    if residual > membership_tol:
        raise ValueError(f"matrix is not in {algebra}({r}) (residual {residual:.3g})")
    return abs(chern_scalar(matrix, 2 * l - 1))


def sum_connection(phi: Morphism) -> FormMatrix:
    """The connection on A + A'* of phi: `chain_connection` of the chain (id, phi)."""
    return chain_connection(Morphism.identity(phi.source), phi)


def covariant_derivative(conn: FormMatrix, a: Section,
                         v: Sequence[ScalarField] | Section) -> list[ScalarField]:
    """(nabla_a v)^t = anchor(a)(v^t) + v^u omega_u^t(a)."""
    comps = v.comps if isinstance(v, Section) else tuple(v)
    if len(comps) != conn.size:
        raise ValueError("bundle section has wrong rank")
    out = []
    for t in range(conn.size):
        acc = anchor_apply(a, comps[t])
        for u in range(conn.size):
            if comps[u].is_zero():
                continue
            pairing = ZERO
            for (i,), c in conn.entries[u][t].table.items():
                pairing = add(pairing, mul(a.comps[i], c))
            acc = add(acc, mul(comps[u], pairing))
        out.append(acc)
    return out


def conjugate_connection(conn: FormMatrix, p: Sequence[Sequence[ScalarField]]) -> FormMatrix:
    """Connection matrix in the frame whose rows over the old frame are P.

    With the fixed index layout (bundle index as row, wedge order
    (AB)_u^t = A_u^s ^ B_s^t) the transformation law is
    omega -> P omega P^-1 + dP P^-1, under which the curvature conjugates to
    P Omega P^-1 and every Chern form is unchanged.
    """
    chart = conn.chart
    n = conn.size
    p_inv = invert_field_matrix(p)
    conj = conjugate_form_matrix(conn, p)
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
    return FormMatrix(chart, rows, 1)


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


def glue(connections: Sequence[FormMatrix], weights: Sequence[ScalarField]) -> FormMatrix:
    """Convex combination of connections by a partition of unity."""
    if len(connections) != len(weights) or not connections:
        raise ValueError("need matching nonempty connections and weights")
    chart = connections[0].chart
    rank = connections[0].size
    for conn in connections:
        if conn.chart is not chart or conn.size != rank:
            raise ValueError("glued connections must share chart and rank")
    points = sample_points(chart.dim, 16, 11)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN sum, rejected below
        totals = evaluate(weights, points).sum(axis=0)
    for point, total in zip(points.tolist(), totals):
        if not abs(total - 1.0) <= 1e-9:  # a NaN weight is not a partition of unity
            raise ValueError(f"weights sum to {total} at {tuple(point)}, not a partition of unity")
    matrix = FormMatrix.zero(chart, rank, 1)
    for conn, weight in zip(connections, weights):
        matrix = matrix + conn.scale(weight)
    return matrix


def symmetry_residual(g: QuasiMetric, points) -> float:
    """Largest |g - sign * g^T| over the points; inf if any entry is non-finite."""
    values = g.values(points)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: an infinite residual
        return max_abs_finite(values - g.sign * np.swapaxes(values, 1, 2))


def lift(jet: JetChart, a: Section) -> Section:
    """The 1-jet of a section on the split jet frame:
    j1(xi^i b_i) = xi^i j1(b_i) + (dxi^i/dx^h) dx^h (x) b_i."""
    _require_same_chart(a.chart, jet.base_chart)
    comps = list(a.comps) + [ZERO] * (jet.rank - a.chart.rank)
    for p, h, q in jet.cotangent_rows:
        comps[p] = a.comps[q].diff(h)
    return Section(jet, comps)


def basis_covector(chart: AlgebroidChart, i: int) -> AForm:
    """The 1-form dual to frame section i."""
    return AForm(chart, 1, {(i,): Const(1.0)})


def evaluate_on(form: AForm, sections: Sequence[Section], point) -> float:
    """Value on a tuple of sections at a point (multilinear expansion)."""
    values = [[scalar_eval(c, point) for c in s.comps] for s in sections]
    total = 0.0
    for index, coeff in form.table.items():
        base = scalar_eval(coeff, point)
        for assignment, sign in alternating_assignments(index):
            term = base * sign
            for slot, frame_idx in enumerate(assignment):
                term *= values[slot][frame_idx]
            total += term
    return total
