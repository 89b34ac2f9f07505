"""Dense and section-by-section reference versions of `algebroids` routes.

`algebroids` has no section algebra: it reads the bracket-induced
connection off the structure functions in closed form, omega_u^t(b_i) =
sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t), and builds the jet class as
`relative_mu` on the chain (pi, phi).  This module keeps the general section
algebra and the dense loops that the sparse routes replaced.  Each function
guards the route named with it:

- `generalized_delta` and `alternating_assignments`: the multi-index
  Kronecker delta and the signed orderings of a key; guard
  `forms.shuffle_sign` and `AForm.coeff_signed`, and are the signs of the
  permutation sums here and in `chern_oracle`.
- `pullback`: the multilinear expansion over all k! orderings of each key;
  guards `algebroid.pullback` (same keys, equal values).
- `Section`, `basis_section`, `apply` and `section_sum`: sections xi^i b_i,
  frame sections, the image phi(a) and the sum (the former
  `Morphism.apply` and `Section.__add__`); the section algebra under the
  references below, and the input of the jet and covariant-derivative tests.
- `gamma`: c_ij^k with antisymmetry; guards `AlgebroidChart.structure`.
- `anchor_apply`: rho(a) acting on a function, every partial derivative
  taken before the anchor is read; guards the anchor terms of
  `algebroid.d_A` through `d_A` below.  `test_algebroid.TestAnchorApply`
  pins it to values known by hand.
- `bracket`: the Leibniz extension of the frame brackets over every frame
  index and anchor entry; guards `morphism_target_connection` through
  `target_connection` below, and the brackets of `algebroid.jet_prolong`;
  `test_algebroid.TestBracket` pins it to brackets known by hand.
  `sparse_bracket` is the same over the nonzero terms of `structure` only,
  the same trees about ten times faster on J1(sa3); it stays for that speed
  in the axiom checks and `HolonomicJet`.
- `d_A`: the Cartan coefficient formula over every key; guards
  `algebroid.d_A` (same trees).
- `frame_jacobiators`, `verify_axioms` and `check_morphism`: the
  frame-by-frame axiom checks (the anchor loop over every frame pair and
  coordinate, the Jacobiator of every frame triple, the bracket of morphism
  images on every frame pair); guard the d_A^2 = 0 and phi^* d = d phi^*
  routes of `algebroid.verify_axioms` and `algebroid.check_morphism` (same
  passed flags and failing triples, residuals equal up to rounding).
- `modular_form`: the dense scan through `gamma`; guards
  `classes.modular_form` (same trees).
- `target_connection`: [phi b_i, b'_u] by the dense `bracket`; guards
  `connections.morphism_target_connection` (same trees): the bracket
  connection (phi the identity), a target with its own anchor and brackets,
  and the flat jet connections (phi a `HolonomicJet` projection, alone and
  composed with a morphism).
- `morphism_sum_connection`: the former builder of the connection on
  A + A'*; guards `connections.chain_connection` of the chain (id, phi).
- `HolonomicJet`, `_section_anchor_row` and `jet_decompose_section`: the
  former `JetChart`, in the frame of holonomic sections j1(b_i), j1(x^h b_i),
  built by bracketing those sections and decomposing the result; guard the
  split frame of `algebroid.jet_prolong` under
  dx^h (x) b_i = j1(x^h b_i) - x^h j1(b_i) (same anchors, brackets and flat
  jet connections, pointwise).
- `metric_compat_check` and `dual_connection`: the former entry-by-entry
  loops of the metric layer; guard the `FormMatrix` products of
  `connections` that replaced them (equal residuals, same trees).
- `pairing` and `orthogonal_connection`: the former metric connection,
  modified Gram-Schmidt through the pairing of g, then the Gauss-Jordan
  inverse of the frame (`constructions.invert_field_matrix`) and
  omega = -G^-1 dG entry by entry; guard the Cholesky route of
  `connections.orthogonal_connection` (same keys, values within relative
  1e-12).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from algebroids.algebroid import AlgebroidChart, Morphism, _require_same_chart
from algebroids.connections import (FormMatrix, QuasiMetric, connection_from_coefficients,
                                    direct_sum, morphism_target_connection)
from algebroids.expressions import (Const, ScalarField, ZERO, add, div, field_maxima, mul,
                                    residual, square_root, sub)
from algebroids.forms import AForm, permutation_sign
from algebroids.reports import CheckRecord


def generalized_delta(upper: Iterable[int], lower: Iterable[int]) -> int:
    """Multi-index Kronecker delta: the sign of the permutation upper -> lower.

    Returns +1/-1 when `lower` is an even/odd rearrangement of `upper` with all
    entries distinct, and 0 otherwise (repeats, or different index sets).
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("index tuples must have equal length")
    if len(set(upper)) != len(upper) or len(set(lower)) != len(lower):
        return 0
    if set(upper) != set(lower):
        return 0
    position = {v: i for i, v in enumerate(upper)}
    perm = [position[v] for v in lower]
    return permutation_sign(perm)


def alternating_assignments(index: tuple[int, ...]):
    """All orderings of an increasing tuple with their permutation signs."""
    for perm in permutations(index):
        yield perm, generalized_delta(index, perm)


def pullback(phi: Morphism, omega: AForm) -> AForm:
    """Pull a form on the target back to the source by multilinear expansion."""
    _require_same_chart(omega.chart, phi.target)
    chart = phi.source
    k = omega.degree
    if k == 0:
        return AForm(chart, 0, omega.table)
    if k > chart.rank:
        return chart.zero_form(k)
    table: dict[tuple[int, ...], ScalarField] = {}
    for index in combinations(range(chart.rank), k):
        total = ZERO
        for target_index, coeff in omega.table.items():
            # Expand omega(phi b_{i_1}, ..., phi b_{i_k}) over orderings of the key.
            for assignment, sign in alternating_assignments(target_index):
                factor = Const(float(sign))
                dead = False
                for slot, u in zip(index, assignment):
                    entry = phi.matrix[slot][u]
                    if entry.is_zero():
                        dead = True
                        break
                    factor = mul(factor, entry)
                if not dead:
                    total = add(total, mul(factor, coeff))
        if not total.is_zero():
            table[index] = total
    return AForm(chart, k, table)


class Section:
    """Cross section xi^i b_i with scalar-field components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: AlgebroidChart, comps: Sequence[ScalarField]):
        if len(comps) != chart.rank:
            raise ValueError("section component count must match chart rank")
        self.chart = chart
        self.comps = tuple(comps)

    def scale(self, factor: ScalarField | float) -> "Section":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return Section(self.chart, [mul(factor, c) for c in self.comps])

    def __repr__(self):
        body = ", ".join(str(c) for c in self.comps)
        return f"Section[{body}]"


def basis_section(chart: AlgebroidChart, i: int) -> Section:
    """The frame section b_i."""
    comps = [ZERO] * chart.rank
    comps[i] = Const(1.0)
    return Section(chart, comps)


def gamma(chart: AlgebroidChart, i: int, j: int, k: int) -> ScalarField:
    """Structure function of [b_i, b_j] on b_k, antisymmetry included."""
    if i == j:
        return ZERO
    if i < j:
        return chart.brackets.get((i, j), {}).get(k, ZERO)
    coeff = chart.brackets.get((j, i), {}).get(k, ZERO)
    return mul(Const(-1.0), coeff) if not coeff.is_zero() else ZERO


def anchor_apply(a: Section, f: ScalarField) -> ScalarField:
    """The anchor image of `a` acting on a base function: xi^i rho_i^j df/dx^j."""
    chart = a.chart
    result = ZERO
    partials = [f.diff(j) for j in range(chart.dim)]
    for i in range(chart.rank):
        xi = a.comps[i]
        if xi.is_zero():
            continue
        for j in range(chart.dim):
            rho = chart.anchor[i][j]
            if rho.is_zero() or partials[j].is_zero():
                continue
            result = add(result, mul(xi, mul(rho, partials[j])))
    return result


def bracket(a1: Section, a2: Section) -> Section:
    """Leibniz extension of the frame brackets to arbitrary sections."""
    _require_same_chart(a1.chart, a2.chart)
    chart = a1.chart
    comps = [ZERO] * chart.rank
    for i in range(chart.rank):
        xi = a1.comps[i]
        if xi.is_zero():
            continue
        for j in range(chart.rank):
            eta = a2.comps[j]
            if eta.is_zero():
                continue
            for k, coeff in chart.brackets.get((i, j) if i < j else (j, i), {}).items():
                signed = coeff if i < j else mul(Const(-1.0), coeff)
                comps[k] = add(comps[k], mul(mul(xi, eta), signed))
    for k in range(chart.rank):
        comps[k] = add(comps[k], anchor_apply(a1, a2.comps[k]))
        comps[k] = sub(comps[k], anchor_apply(a2, a1.comps[k]))
    return Section(chart, comps)


def sparse_bracket(a1: Section, a2: Section) -> Section:
    """`bracket` over the nonzero components of both arguments and the signed
    structure functions `chart.structure` only, with the Leibniz terms
    skipped on a chart with zero anchor: the same trees, about ten times
    faster on J1(sa3)."""
    _require_same_chart(a1.chart, a2.chart)
    chart = a1.chart
    comps = [ZERO] * chart.rank
    etas = [(j, eta) for j, eta in enumerate(a2.comps) if not eta.is_zero()]
    for i, xi in enumerate(a1.comps):
        if xi.is_zero():
            continue
        for j, eta in etas:
            for k, coeff in chart.structure.get((i, j), {}).items():
                comps[k] = add(comps[k], mul(mul(xi, eta), coeff))
    if any(chart.anchor_terms):
        for k in range(chart.rank):
            comps[k] = add(comps[k], anchor_apply(a1, a2.comps[k]))
            comps[k] = sub(comps[k], anchor_apply(a2, a1.comps[k]))
    return Section(chart, comps)


def d_A(omega: AForm) -> AForm:
    """Exterior differential from the Cartan coefficient formula."""
    chart = omega.chart
    k = omega.degree
    if k + 1 > chart.rank:
        return chart.zero_form(k + 1)
    table: dict[tuple[int, ...], ScalarField] = {}
    for index in combinations(range(chart.rank), k + 1):
        total = ZERO
        for r, i_r in enumerate(index):
            rest = index[:r] + index[r + 1:]
            inner = omega.coeff(rest) if k else omega.coeff(())
            if inner.is_zero():
                continue
            term = anchor_apply(basis_section(chart, i_r), inner)
            if r % 2:
                term = mul(Const(-1.0), term)
            total = add(total, term)
        if k:
            for r in range(k + 1):
                for t in range(r + 1, k + 1):
                    i_r, i_t = index[r], index[t]
                    rest = tuple(v for p, v in enumerate(index) if p not in (r, t))
                    pair_sign = -1.0 if (r + t) % 2 else 1.0
                    for m in range(chart.rank):
                        coeff = gamma(chart, i_r, i_t, m)
                        if coeff.is_zero():
                            continue
                        value = omega.coeff_signed((m,) + rest)
                        if value.is_zero():
                            continue
                        total = add(total, mul(Const(pair_sign), mul(coeff, value)))
        if not total.is_zero():
            table[index] = total
    return AForm(chart, k + 1, table)


def section_sum(a: Section, b: Section) -> Section:
    _require_same_chart(a.chart, b.chart)
    return Section(a.chart, [add(x, y) for x, y in zip(a.comps, b.comps)])


def apply(phi: Morphism, a: Section) -> Section:
    """phi(a): the section xi^i phi_i^u b'_u of the target."""
    _require_same_chart(a.chart, phi.source)
    comps = [ZERO] * phi.target.rank
    for i, xi in enumerate(a.comps):
        if xi.is_zero():
            continue
        for u in range(phi.target.rank):
            entry = phi.matrix[i][u]
            if not entry.is_zero():
                comps[u] = add(comps[u], mul(xi, entry))
    return Section(phi.target, comps)


def frame_jacobiators(chart: AlgebroidChart):
    """Each frame triple (i, j, k) in `combinations` order with its Jacobiator

    [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]; the inner
    brackets are built once per ordered pair.
    """
    basis = [basis_section(chart, t) for t in range(chart.rank)]
    inner = cache(lambda a, b: sparse_bracket(basis[a], basis[b]))
    for i, j, k in combinations(range(chart.rank), 3):
        yield (i, j, k), section_sum(section_sum(sparse_bracket(inner(i, j), basis[k]),
                                                 sparse_bracket(inner(j, k), basis[i])),
                                     sparse_bracket(inner(k, i), basis[j]))


def verify_axioms(chart: AlgebroidChart, points,
                  tol: float = 1e-9) -> list[CheckRecord]:
    """Numerically test the algebroid axioms at the probe points, shape (N, dim).

    Checks (a) the anchor sends frame brackets to vector-field brackets and
    (b) the Jacobiator of every frame triple vanishes.  A non-finite value
    counts as an infinite residual.
    """
    deltas = []
    for i, j in combinations(range(chart.rank), 2):
        terms = chart.brackets.get((i, j), {})
        for l in range(chart.dim):
            lhs = ZERO
            for k, coeff in terms.items():
                lhs = add(lhs, mul(coeff, chart.anchor[k][l]))
            rhs = ZERO
            for m in range(chart.dim):
                rhs = add(rhs, mul(chart.anchor[i][m], chart.anchor[j][l].diff(m)))
                rhs = sub(rhs, mul(chart.anchor[j][m], chart.anchor[i][l].diff(m)))
            deltas.append(sub(lhs, rhs))
    worst_anchor = residual(deltas, points)
    worst_jacobi = 0.0
    worst_triple = None
    for (i, j, k), jacobiator in frame_jacobiators(chart):
        for value in field_maxima(jacobiator.comps, points):
            if value > worst_jacobi:
                worst_jacobi = value
                worst_triple = (i, j, k)
    records = [
        CheckRecord("anchor_bracket_morphism", worst_anchor, tol, len(points),
                    {"chart": chart.name}),
        CheckRecord("jacobi_identity", worst_jacobi, tol, len(points),
                    {"chart": chart.name}),
    ]
    if worst_triple is not None and worst_jacobi > tol:
        records[1].details["failing_triple"] = list(worst_triple)
    return records


def check_morphism(phi: Morphism, points, tol: float = 1e-9) -> CheckRecord:
    """Test anchor and bracket preservation on frame sections at the probe points.

    A non-finite value counts as an infinite residual.
    """
    source, target = phi.source, phi.target
    deltas = []
    for i in range(source.rank):
        for j in range(source.dim):
            pushed = ZERO
            for u in range(target.rank):
                pushed = add(pushed, mul(phi.matrix[i][u], target.anchor[u][j]))
            deltas.append(sub(pushed, source.anchor[i][j]))
    for i, j in combinations(range(source.rank), 2):
        lhs = apply(phi, sparse_bracket(basis_section(source, i), basis_section(source, j)))
        rhs = sparse_bracket(apply(phi, basis_section(source, i)),
                             apply(phi, basis_section(source, j)))
        deltas.extend(sub(a, b) for a, b in zip(lhs.comps, rhs.comps))
    return CheckRecord(
        f"morphism_{phi.name}", residual(deltas, points), tol, len(points),
        {"from": source.name, "to": target.name},
    )


def modular_form(chart: AlgebroidChart) -> AForm:
    """Coefficient on b*^i: sum_k gamma_ik^k + sum_j d(rho_i^j)/dx^j (unchecked)."""
    table = {}
    for i in range(chart.rank):
        coeff = ZERO
        for k in range(chart.rank):
            coeff = add(coeff, gamma(chart, i, k, k))
        for j in range(chart.dim):
            coeff = add(coeff, chart.anchor[i][j].diff(j))
        if not coeff.is_zero():
            table[(i,)] = coeff
    return AForm(chart, 1, table)


def target_connection(phi: Morphism) -> FormMatrix:
    """nabla_{b_i} b'_u = [phi b_i, b'_u], by the dense `bracket` of sections."""
    target = phi.target
    table = [[bracket(apply(phi, basis_section(phi.source, i)), basis_section(target, u)).comps
              for u in range(target.rank)] for i in range(phi.source.rank)]
    return connection_from_coefficients(
        phi.source, target.rank, lambda i, u, t: table[i][u][t]
    )


def morphism_sum_connection(phi: Morphism) -> FormMatrix:
    """The compatible connection on A + A'*: the bracket connection on the
    source and the dual of the one induced on the target."""
    return direct_sum(target_connection(Morphism.identity(phi.source)),
                      dual_connection(morphism_target_connection(phi)))


class HolonomicJet(AlgebroidChart):
    """The first jet prolongation in the frame of holonomic sections.

    Frame ordering: the jets j1(b_i) of the frame sections first, then the
    jets j1(x^h b_i) of each coordinate multiple, grouped by coordinate.
    Anchors are those of the defining sections, and brackets are the
    brackets of the defining sections decomposed on the jet frame.  The
    projection back to the underlying chart is the coordinate map on the
    defining sections.
    """

    def __init__(self, base_chart: AlgebroidChart):
        s, m = base_chart.rank, base_chart.dim
        basis = [f"j.{name}" for name in base_chart.basis]
        defining: list[Section] = [basis_section(base_chart, i) for i in range(s)]
        for h in range(m):
            x_h = base_chart.coordinate_field(h)
            for i in range(s):
                basis.append(f"j.{base_chart.coords[h]}.{base_chart.basis[i]}")
                defining.append(basis_section(base_chart, i).scale(x_h))
        anchor = [list(_section_anchor_row(sec)) for sec in defining]
        rank = s * (1 + m)
        brackets: dict[tuple[int, int], dict[int, ScalarField]] = {}
        for p in range(rank):
            for q in range(p + 1, rank):
                value = sparse_bracket(defining[p], defining[q])
                coeffs = jet_decompose_section(base_chart, value)
                cleaned = {r: c for r, c in coeffs.items() if not c.is_zero()}
                if cleaned:
                    brackets[(p, q)] = cleaned
        super().__init__(f"J1({base_chart.name})", base_chart.coords, basis,
                         anchor, brackets)
        self.base_chart = base_chart
        self.defining = defining

    def projection(self) -> Morphism:
        """Jet-to-value projection as a base-preserving morphism."""
        base = self.base_chart
        matrix = []
        for sec in self.defining:
            matrix.append(list(sec.comps))
        return Morphism(self, base, matrix, name=f"proj_{base.name}")


def _section_anchor_row(a: Section) -> list[ScalarField]:
    chart = a.chart
    row = []
    for j in range(chart.dim):
        acc = ZERO
        for i in range(chart.rank):
            if not a.comps[i].is_zero():
                acc = add(acc, mul(a.comps[i], chart.anchor[i][j]))
        row.append(acc)
    return row


def jet_decompose_section(base: AlgebroidChart, a: Section) -> dict[int, ScalarField]:
    """Coefficients of j1(a) on the holonomic jet frame.

    j1(xi^k b_k) = (xi^k - x^h dxi^k/dx^h) j1(b_k) + (dxi^k/dx^h) j1(x^h b_k).
    """
    s, m = base.rank, base.dim
    coeffs: dict[int, ScalarField] = {}
    for k in range(s):
        xi = a.comps[k]
        if xi.is_zero():
            continue
        leading = xi
        for h in range(m):
            partial = xi.diff(h)
            if partial.is_zero():
                continue
            leading = sub(leading, mul(base.coordinate_field(h), partial))
            slot = s + h * s + k
            coeffs[slot] = add(coeffs.get(slot, ZERO), partial)
        if not leading.is_zero():
            coeffs[k] = add(coeffs.get(k, ZERO), leading)
    return coeffs


def metric_compat_check(conn: FormMatrix, g: QuasiMetric, points,
                        tol: float = 1e-9) -> CheckRecord:
    """Residual of anchor(g(v,w)) - g(nabla v, w) - g(v, nabla w) on frame pairs."""
    chart = conn.chart
    fields = []
    for i in range(chart.rank):
        direction = basis_section(chart, i)
        for a in range(conn.size):
            for b in range(conn.size):
                field = anchor_apply(direction, g.matrix[a][b])
                for c in range(conn.size):
                    w_ac = conn.entries[a][c].coeff((i,))
                    if not w_ac.is_zero() and not g.matrix[c][b].is_zero():
                        field = sub(field, mul(w_ac, g.matrix[c][b]))
                    w_bc = conn.entries[b][c].coeff((i,))
                    if not w_bc.is_zero() and not g.matrix[a][c].is_zero():
                        field = sub(field, mul(w_bc, g.matrix[a][c]))
                fields.append(field)
    return CheckRecord("metric_compatibility", residual(fields, points), tol,
                       len(points))


def pairing(g: QuasiMetric, v: Sequence[ScalarField], w: Sequence[ScalarField]) -> ScalarField:
    """g(v, w) = v^a g_ab w^b over the nonzero terms, by ascending a then b."""
    acc = ZERO
    for a in range(g.rank):
        if v[a].is_zero():
            continue
        for b in range(g.rank):
            if w[b].is_zero() or g.matrix[a][b].is_zero():
                continue
            acc = add(acc, mul(v[a], mul(g.matrix[a][b], w[b])))
    return acc


def orthogonal_connection(chart: AlgebroidChart, g: QuasiMetric) -> FormMatrix:
    """Metric connection: zero matrix in the orthonormalized frame.

    Modified Gram-Schmidt runs symbolically through `pairing`; the resulting
    frame-change matrix G (lower triangular) is inverted by Gauss-Jordan and
    gives omega = -G^-1 dG in the working frame, which satisfies nabla g = 0.
    `g` must be positive definite (`QuasiMetric.validate`).
    """
    # constructions imports this module, so its Gauss-Jordan is imported here.
    from constructions import invert_field_matrix

    if g.sign != 1:
        raise ValueError("orthogonal connections need a symmetric metric")
    rank = g.rank
    frame: list[list[ScalarField]] = []
    for u in range(rank):
        vec = [Const(1.0) if a == u else ZERO for a in range(rank)]
        for prev in frame:
            proj = pairing(g, vec, prev)
            if not proj.is_zero():
                vec = [sub(v, mul(proj, p)) for v, p in zip(vec, prev)]
        norm = square_root(pairing(g, vec, vec))
        frame.append([div(v, norm) for v in vec])
    inverse = invert_field_matrix(frame)  # frame[u][t] is G_u^t
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
    return FormMatrix(chart, rows, 1)


def dual_connection(conn: FormMatrix) -> FormMatrix:
    """Connection induced on the dual bundle: negative transpose matrix."""
    return FormMatrix(conn.chart, [[e.scale(-1.0) for e in column]
                                   for column in zip(*conn.entries)], conn.degree)
