"""Constructions that the tests exercise but no command of the CLI reaches.

Each one guards the `algebroids` route named after it:

- `chern_scalar`: c_h of a numeric matrix, the sum of its principal minors;
  guards `chern.chern_polarized` on constant matrices.
- `sum_connection`: the connection on A + A'* of a morphism alone; it is
  `ClassBuilder.chain_connection` of the chain (id, phi), the input of most
  class and transgression tests.
- `covariant_derivative`: a connection acting on bundle sections; guards the
  compatibility of `connections.bracket_connection` and
  `morphism_target_connection` with a morphism.
- `conjugate_connection` and `conjugate_form_matrix`: frame changes; guard
  `connections.curvature` (it conjugates) and `chern.chern_polarized` (it
  does not change).
- `invert_field_matrix`: the Gauss-Jordan inverse over scalar fields, the
  inverse frame of the two frame changes above and of
  `dense_oracle.orthogonal_connection`, which guards the Cholesky route of
  `connections.orthogonal_connection`.
- `lift`: the 1-jet of a section; guards the split frame of
  `algebroid.jet_prolong` (`JetChart.cotangent_rows`).
- `basis_covector`: the 1-form dual to a frame section, an input of the
  `algebroid.d_A`, `algebroid.pullback` and `classes.modular_form` tests.
- `evaluate_on`: the value of a form on sections at a point; guards
  `algebroid.pullback` on the images of frame sections.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from algebroids.algebroid import AlgebroidChart, JetChart, Morphism, d_A
from algebroids.classes import ClassBuilder
from algebroids.connections import FormMatrix
from algebroids.expressions import Const, ScalarField, ZERO, add, div, mul, sub
from algebroids.forms import AForm, _require_same_chart
from dense_oracle import Section, alternating_assignments, anchor_apply
from expression_oracle import scalar_eval


def chern_scalar(matrix: np.ndarray, h: int) -> float:
    """c_h(F) by its definition: the sum of the principal h x h minors of F."""
    return sum(np.linalg.det(matrix[np.ix_(rows, rows)])
               for rows in combinations(range(len(matrix)), h))


def sum_connection(phi: Morphism) -> FormMatrix:
    """The connection on A + A'* of phi: `chain_connection` of the chain (id, phi)."""
    return ClassBuilder().chain_connection(Morphism.identity(phi.source), phi)


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
