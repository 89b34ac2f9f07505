"""Lie algebroid charts: anchors, brackets, the exterior differential, jets.

Everything lives over a single global coordinate chart (desk scale); an
algebroid is its rank, an anchor matrix of scalar fields, and antisymmetric
structure functions.  Conformance with the algebroid axioms is checked
numerically by `verify_axioms`, never assumed by constructors.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Sequence

from .expressions import (Const, Coord, ScalarField, ZERO, add, field_maxima, mul,
                          residual, sub)
from .forms import AFormData, generalized_delta
from .reports import CheckRecord
from .sampling import sample_points


class AlgebroidChart:
    """Local presentation: base coordinates, frame, anchor rows, brackets.

    anchor[i][j] is the coefficient of d/dx^j in the image of the i-th frame
    section; brackets are stored canonically on pairs i < j as sparse maps
    k -> nonzero coefficient, in ascending k.  `anchor_terms[i]` lists the
    nonzero entries (j, rho) of anchor row i in ascending j.  `d_A`, `bracket`,
    `anchor_apply` and `verify_axioms` iterate only these sparse terms, in the
    order of the dense loops over every frame and coordinate index, so they
    build the same coefficient trees.
    """

    def __init__(
        self,
        name: str,
        coords: Sequence[str],
        basis: Sequence[str],
        anchor: Sequence[Sequence[ScalarField]],
        brackets: dict[tuple[int, int], dict[int, ScalarField]] | None = None,
    ):
        self.name = name
        self.coords = tuple(coords)
        self.basis = tuple(basis)
        self.rank = len(self.basis)
        self.dim = len(self.coords)
        if len(anchor) != self.rank or any(len(row) != self.dim for row in anchor):
            raise ValueError(
                f"anchor must be {self.rank}x{self.dim} for chart {name!r}"
            )
        self.anchor = tuple(tuple(row) for row in anchor)
        table: dict[tuple[int, int], dict[int, ScalarField]] = {}
        for (i, j), coeffs in (brackets or {}).items():
            if i == j:
                raise ValueError("bracket pairs must be distinct")
            if not (0 <= i < self.rank and 0 <= j < self.rank):
                raise ValueError(f"bracket pair {(i, j)} out of range")
            flip = i > j
            key = (j, i) if flip else (i, j)
            row = table.setdefault(key, {})
            for k, coeff in coeffs.items():
                if not (0 <= k < self.rank):
                    raise ValueError(f"bracket target {k} out of range")
                signed = mul(Const(-1.0), coeff) if flip else coeff
                row[k] = add(row.get(k, ZERO), signed)
        self.brackets = {
            key: {k: c for k, c in sorted(row.items()) if not c.is_zero()}
            for key, row in table.items()
        }
        self.anchor_terms = tuple(
            tuple((j, rho) for j, rho in enumerate(row) if not rho.is_zero())
            for row in self.anchor
        )

    def gamma(self, i: int, j: int, k: int) -> ScalarField:
        """Structure function of [b_i, b_j] on b_k, antisymmetry included."""
        if i == j:
            return ZERO
        if i < j:
            return self.brackets.get((i, j), {}).get(k, ZERO)
        coeff = self.brackets.get((j, i), {}).get(k, ZERO)
        return mul(Const(-1.0), coeff) if not coeff.is_zero() else ZERO

    def bracket_basis(self, i: int, j: int) -> list[ScalarField]:
        return [self.gamma(i, j, k) for k in range(self.rank)]

    def coordinate_field(self, index: int) -> ScalarField:
        return Coord(index, self.coords[index])

    def basis_section(self, i: int) -> "Section":
        comps = [ZERO] * self.rank
        comps[i] = Const(1.0)
        return Section(self, comps)

    def zero_form(self, degree: int) -> "AForm":
        return AForm(self, AFormData.zero(degree, self.rank))

    def form(self, data: AFormData) -> "AForm":
        return AForm(self, data)

    def basis_covector(self, i: int) -> "AForm":
        return AForm(self, AFormData.basis((i,), self.rank))

    def function_form(self, field: ScalarField) -> "AForm":
        return AForm(self, AFormData.function(field, self.rank))

    def __repr__(self):
        return f"AlgebroidChart({self.name!r}, rank={self.rank}, dim={self.dim})"


class Section:
    """Cross section xi^i b_i with scalar-field components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: AlgebroidChart, comps: Sequence[ScalarField]):
        if len(comps) != chart.rank:
            raise ValueError("section component count must match chart rank")
        self.chart = chart
        self.comps = tuple(comps)

    def eval(self, point) -> list[float]:
        return [c.eval(point) for c in self.comps]

    def __add__(self, other: "Section") -> "Section":
        _require_same_chart(self.chart, other.chart)
        return Section(self.chart, [add(a, b) for a, b in zip(self.comps, other.comps)])

    def scale(self, factor: ScalarField | float) -> "Section":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return Section(self.chart, [mul(factor, c) for c in self.comps])

    def __repr__(self):
        body = ", ".join(str(c) for c in self.comps)
        return f"Section[{body}]"


class AForm:
    """A degree-k form on an algebroid chart."""

    __slots__ = ("chart", "data")

    def __init__(self, chart: AlgebroidChart, data: AFormData):
        if data.rank != chart.rank:
            raise ValueError("form rank must match chart rank")
        self.chart = chart
        self.data = data

    @property
    def degree(self) -> int:
        return self.data.degree

    def coeff(self, index) -> ScalarField:
        return self.data.coeff(index)

    def is_zero(self) -> bool:
        return self.data.is_zero()

    def __add__(self, other: "AForm") -> "AForm":
        _require_same_chart(self.chart, other.chart)
        return AForm(self.chart, self.data + other.data)

    def __sub__(self, other: "AForm") -> "AForm":
        _require_same_chart(self.chart, other.chart)
        return AForm(self.chart, self.data - other.data)

    def scale(self, factor) -> "AForm":
        return AForm(self.chart, self.data.scale(factor))

    def wedge(self, other: "AForm") -> "AForm":
        _require_same_chart(self.chart, other.chart)
        return AForm(self.chart, self.data.wedge(other.data))

    def evaluate_on(self, sections: Sequence[Section], point) -> float:
        """Value on a tuple of sections at a point (multilinear expansion)."""
        values = [s.eval(point) for s in sections]
        total = 0.0
        for index, coeff in self.data.table.items():
            base = coeff.eval(point)
            for assignment, sign in _alternating_assignments(index):
                term = base * sign
                for slot, frame_idx in enumerate(assignment):
                    term *= values[slot][frame_idx]
                total += term
        return total

    def max_abs(self, points) -> float:
        return self.data.max_abs(points)

    def __repr__(self):
        return f"AForm({self.chart.name!r}, {self.data!r})"


def _alternating_assignments(index: tuple[int, ...]):
    """All orderings of an increasing tuple with their permutation signs."""
    from itertools import permutations

    for perm in permutations(index):
        yield perm, generalized_delta(index, perm)


def _require_same_chart(a: AlgebroidChart, b: AlgebroidChart) -> None:
    if a is not b:
        raise ValueError(f"chart mismatch: {a.name!r} vs {b.name!r}")


def anchor_apply(a: Section, f: ScalarField) -> ScalarField:
    """The anchor image of `a` acting on a base function: xi^i rho_i^j df/dx^j.

    Only nonzero anchor entries are visited, i-major and j-minor; each partial
    derivative of `f` is taken once, when first needed.
    """
    if isinstance(f, Const):
        return ZERO
    chart = a.chart
    partials: dict[int, ScalarField] = {}
    result = ZERO
    for xi, terms in zip(a.comps, chart.anchor_terms):
        if xi.is_zero():
            continue
        for j, rho in terms:
            partial = partials.get(j)
            if partial is None:
                partial = partials[j] = f.diff(j)
            if not partial.is_zero():
                result = add(result, mul(xi, mul(rho, partial)))
    return result


def _frame_derivative(chart: AlgebroidChart, i: int, f: ScalarField) -> ScalarField:
    """rho(b_i) f, the tree `anchor_apply(chart.basis_section(i), f)` builds."""
    result = ZERO
    for j, rho in chart.anchor_terms[i]:
        partial = f.diff(j)
        if not partial.is_zero():
            result = add(result, mul(rho, partial))
    return result


def bracket(a1: Section, a2: Section) -> Section:
    """Leibniz extension of the frame brackets to arbitrary sections.

    Visits only the nonzero components of both arguments and the stored
    bracket terms of each frame pair; on a chart with zero anchor the
    anchor (Leibniz) terms are all zero and are skipped.
    """
    _require_same_chart(a1.chart, a2.chart)
    chart = a1.chart
    comps = [ZERO] * chart.rank
    etas = [(j, eta) for j, eta in enumerate(a2.comps) if not eta.is_zero()]
    for i, xi in enumerate(a1.comps):
        if xi.is_zero():
            continue
        for j, eta in etas:
            for k, coeff in chart.brackets.get((i, j) if i < j else (j, i), {}).items():
                signed = coeff if i < j else mul(Const(-1.0), coeff)
                comps[k] = add(comps[k], mul(mul(xi, eta), signed))
    if any(chart.anchor_terms):
        for k in range(chart.rank):
            comps[k] = add(comps[k], anchor_apply(a1, a2.comps[k]))
            comps[k] = sub(comps[k], anchor_apply(a2, a1.comps[k]))
    return Section(chart, comps)


def d_A(omega: AForm) -> AForm:
    """Exterior differential from the Cartan coefficient formula.

    The anchor terms visit only nonzero anchor entries and non-constant
    coefficients; the bracket terms visit only the stored terms of each pair,
    by ascending target index.  Both keep the summation order of the dense
    formula over every frame index.
    """
    chart = omega.chart
    k = omega.degree
    if k + 1 > chart.rank or omega.is_zero():
        return chart.zero_form(k + 1)
    table: dict[tuple[int, ...], ScalarField] = {}
    for index in combinations(range(chart.rank), k + 1):
        total = ZERO
        for r, i_r in enumerate(index):
            inner = omega.data.coeff(index[:r] + index[r + 1:])
            if isinstance(inner, Const):
                continue
            term = _frame_derivative(chart, i_r, inner)
            if r % 2:
                term = mul(Const(-1.0), term)
            total = add(total, term)
        if k:
            for r in range(k + 1):
                for t in range(r + 1, k + 1):
                    terms = chart.brackets.get((index[r], index[t]))
                    if not terms:
                        continue
                    rest = tuple(v for p, v in enumerate(index) if p not in (r, t))
                    pair_sign = -1.0 if (r + t) % 2 else 1.0
                    for m, coeff in terms.items():
                        value = omega.data.coeff_signed((m,) + rest)
                        if value.is_zero():
                            continue
                        total = add(total, mul(Const(pair_sign), mul(coeff, value)))
        if not total.is_zero():
            table[index] = total
    return AForm(chart, AFormData(k + 1, chart.rank, table))


class Morphism:
    """Base-preserving bundle morphism phi(b_i) = phi_i^u b'_u."""

    def __init__(self, source: AlgebroidChart, target: AlgebroidChart,
                 matrix: Sequence[Sequence[ScalarField]], name: str = "phi"):
        if source.coords != target.coords:
            raise ValueError("morphisms require a shared base chart")
        if len(matrix) != source.rank or any(len(row) != target.rank for row in matrix):
            raise ValueError(
                f"morphism matrix must be {source.rank}x{target.rank}"
            )
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        self.name = name

    @classmethod
    def identity(cls, chart: AlgebroidChart, name: str = "id") -> "Morphism":
        matrix = [
            [Const(1.0) if i == j else ZERO for j in range(chart.rank)]
            for i in range(chart.rank)
        ]
        return cls(chart, chart, matrix, name)

    def apply(self, a: Section) -> Section:
        _require_same_chart(a.chart, self.source)
        comps = [ZERO] * self.target.rank
        for i, xi in enumerate(a.comps):
            if xi.is_zero():
                continue
            for u in range(self.target.rank):
                entry = self.matrix[i][u]
                if not entry.is_zero():
                    comps[u] = add(comps[u], mul(xi, entry))
        return Section(self.target, comps)

    def compose(self, inner: "Morphism") -> "Morphism":
        """self o inner, i.e. inner maps into self's source."""
        if inner.target is not self.source:
            raise ValueError("morphisms are not composable")
        matrix = []
        for i in range(inner.source.rank):
            row = []
            for w in range(self.target.rank):
                acc = ZERO
                for t in range(self.source.rank):
                    acc = add(acc, mul(inner.matrix[i][t], self.matrix[t][w]))
                row.append(acc)
            matrix.append(row)
        return Morphism(inner.source, self.target,
                        matrix, f"{self.name}.{inner.name}")

    def __repr__(self):
        return f"Morphism({self.name!r}: {self.source.name} -> {self.target.name})"


def pullback(phi: Morphism, omega: AForm) -> AForm:
    """Pull a form on the target back to the source by multilinear expansion."""
    _require_same_chart(omega.chart, phi.target)
    chart = phi.source
    k = omega.degree
    if k == 0:
        return AForm(chart, AFormData(0, chart.rank, dict(omega.data.table)))
    if k > chart.rank:
        return chart.zero_form(k)
    table: dict[tuple[int, ...], ScalarField] = {}
    for index in combinations(range(chart.rank), k):
        total = ZERO
        for target_index, coeff in omega.data.table.items():
            # Expand omega(phi b_{i_1}, ..., phi b_{i_k}) over orderings of the key.
            for assignment, sign in _alternating_assignments(target_index):
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
    return AForm(chart, AFormData(k, chart.rank, table))


def verify_axioms(chart: AlgebroidChart, n_points: int = 100, seed: int = 42,
                  tol: float = 1e-9) -> list[CheckRecord]:
    """Numerically test the algebroid axioms at seeded sample points.

    Checks (a) the anchor sends frame brackets to vector-field brackets and
    (b) the Jacobiator of every frame triple vanishes.  A non-finite value
    counts as an infinite residual.
    """
    points = sample_points(chart.dim, n_points, seed)
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
    basis = [chart.basis_section(t) for t in range(chart.rank)]
    inner = cache(lambda a, b: bracket(basis[a], basis[b]))  # once per ordered pair
    for i, j, k in combinations(range(chart.rank), 3):
        jacobiator = (bracket(inner(i, j), basis[k]) + bracket(inner(j, k), basis[i])
                      + bracket(inner(k, i), basis[j]))
        for value in field_maxima(jacobiator.comps, points):
            if value > worst_jacobi:
                worst_jacobi = value
                worst_triple = (i, j, k)
    records = [
        CheckRecord("anchor_bracket_morphism", worst_anchor, tol, n_points,
                    {"chart": chart.name, "seed": seed}),
        CheckRecord("jacobi_identity", worst_jacobi, tol, n_points,
                    {"chart": chart.name, "seed": seed}),
    ]
    if worst_triple is not None and worst_jacobi > tol:
        records[1].details["failing_triple"] = list(worst_triple)
    return records


def check_morphism(phi: Morphism, n_points: int = 100, seed: int = 42,
                   tol: float = 1e-9) -> CheckRecord:
    """Test anchor preservation and bracket preservation on frame sections.

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
        lhs = phi.apply(bracket(source.basis_section(i), source.basis_section(j)))
        rhs = bracket(phi.apply(source.basis_section(i)),
                      phi.apply(source.basis_section(j)))
        deltas.extend(sub(a, b) for a, b in zip(lhs.comps, rhs.comps))
    worst = residual(deltas, sample_points(source.dim, n_points, seed))
    return CheckRecord(
        f"morphism_{phi.name}", worst, tol, n_points,
        {"from": source.name, "to": target.name, "seed": seed},
    )


def extend_with_parameters(chart: AlgebroidChart, names: Sequence[str]) -> AlgebroidChart:
    """Direct product with the tangent algebroid of a parameter cube.

    Base coordinates gain the parameter names; the frame gains one section per
    parameter whose anchor is the corresponding coordinate derivative and whose
    brackets with everything vanish.
    """
    extra = len(names)
    coords = chart.coords + tuple(names)
    basis = chart.basis + tuple(f"d_{n}" for n in names)
    anchor = []
    for row in chart.anchor:
        anchor.append(list(row) + [ZERO] * extra)
    for c in range(extra):
        row = [ZERO] * (chart.dim + extra)
        row[chart.dim + c] = Const(1.0)
        anchor.append(row)
    brackets = {pair: dict(coeffs) for pair, coeffs in chart.brackets.items()}
    return AlgebroidChart(f"{chart.name}*{'*'.join(names)}", coords, basis,
                          anchor, brackets)


def build_link_chart(chart: AlgebroidChart, parameter: str = "tau") -> AlgebroidChart:
    """Product of the chart with the unit-interval tangent algebroid."""
    return extend_with_parameters(chart, [parameter])


class JetChart(AlgebroidChart):
    """First jet prolongation of an algebroid chart.

    Frame ordering: the jets of the frame sections first, then the jets of
    each coordinate multiple, grouped by coordinate.  The projection back to
    the underlying chart is the coordinate map on the first block.
    """

    def __init__(self, base_chart: AlgebroidChart):
        s, m = base_chart.rank, base_chart.dim
        basis = [f"j.{name}" for name in base_chart.basis]
        defining: list[Section] = [base_chart.basis_section(i) for i in range(s)]
        for h in range(m):
            x_h = base_chart.coordinate_field(h)
            for i in range(s):
                basis.append(f"j.{base_chart.coords[h]}.{base_chart.basis[i]}")
                defining.append(base_chart.basis_section(i).scale(x_h))
        anchor = [list(_section_anchor_row(sec)) for sec in defining]
        rank = s * (1 + m)
        brackets: dict[tuple[int, int], dict[int, ScalarField]] = {}
        for p in range(rank):
            for q in range(p + 1, rank):
                value = bracket(defining[p], defining[q])
                coeffs = _jet_decompose_section(base_chart, value)
                cleaned = {r: c for r, c in coeffs.items() if not c.is_zero()}
                if cleaned:
                    brackets[(p, q)] = cleaned
        super().__init__(f"J1({base_chart.name})", base_chart.coords, basis,
                         anchor, brackets)
        self.base_chart = base_chart
        self.defining = defining

    def lift(self, a: Section) -> Section:
        """The 1-jet of a section, decomposed on the jet frame."""
        _require_same_chart(a.chart, self.base_chart)
        comps = [ZERO] * self.rank
        lifted = _jet_decompose_section(self.base_chart, a)
        for r, coeff in lifted.items():
            comps[r] = coeff
        return Section(self, comps)

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


def _jet_decompose_section(base: AlgebroidChart, a: Section) -> dict[int, ScalarField]:
    """Coefficients of j1(a) on the jet frame.

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


def jet_prolong(chart: AlgebroidChart) -> JetChart:
    """Build the first jet algebroid of a chart."""
    return JetChart(chart)


def jet_lift(jet: JetChart, a: Section) -> Section:
    return jet.lift(a)
