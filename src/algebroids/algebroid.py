"""Lie algebroid charts: anchors, brackets, the exterior differential, jets.

Everything lives over a single global coordinate chart (desk scale); an
algebroid is its rank, an anchor matrix of scalar fields, and antisymmetric
structure functions.  The whole structure is encoded in the differential
`d_A`: the algebroid axioms are d_A^2 = 0 on the coordinate functions and the
dual frame, and a morphism is a phi with phi^* d_B = d_A phi^* on the same
generators.  `verify_axioms` and `check_morphism` give the residuals of exactly
these (the command line records them); constructors never assume them.

A chart is its anchor rho_i^h and its structure functions c_ij^k; nothing
here brackets general sections.  The bracket-induced connection reads
omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t) off
`AlgebroidChart.structure` and `_frame_derivative`, `JetChart` builds J1 A in
closed form from the same data, and the jet class of phi is `relative_mu` on
the chain (pi, phi) with pi: J1 A -> A the jet projection.
"""

from __future__ import annotations

from typing import Sequence

from .expressions import (Const, Coord, ScalarField, ZERO, add, field_maxima, mul,
                          residual)
from .forms import AForm, _require_same_chart, _trusted_form


class AlgebroidChart:
    """Local presentation: base coordinates, frame, anchor rows, brackets.

    anchor[i][j] is the coefficient of d/dx^j in the image of the i-th frame
    section; brackets are stored canonically on pairs i < j as sparse maps
    k -> nonzero coefficient, in ascending k.  `structure[i, j]` is the same
    map of c_ij^k for every ordered pair, c_ji^k = -c_ij^k.  `anchor_terms[i]`
    lists the nonzero entries (j, rho) of anchor row i in ascending j, and
    `bracket_sources[m]` the pairs (a, b) whose bracket has a nonzero m-term.
    `d_A` and `_frame_derivative` iterate only these sparse terms, in the
    order of the dense loops over every frame and coordinate index, so they
    build the same coefficient trees; `d_A` visits only the output keys that
    some term reaches.
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
        self.structure: dict[tuple[int, int], dict[int, ScalarField]] = {}
        for (i, j), terms in self.brackets.items():
            self.structure[i, j] = terms
            self.structure[j, i] = {k: mul(Const(-1.0), c) for k, c in terms.items()}
        self.anchor_terms = tuple(
            tuple((j, rho) for j, rho in enumerate(row) if not rho.is_zero())
            for row in self.anchor
        )
        sources: dict[int, list[tuple[int, int]]] = {}
        for pair, terms in self.brackets.items():
            for m in terms:
                sources.setdefault(m, []).append(pair)
        self.bracket_sources = {m: tuple(pairs) for m, pairs in sources.items()}

    def coordinate_field(self, index: int) -> ScalarField:
        return Coord(index, self.coords[index])

    def zero_form(self, degree: int) -> AForm:
        return AForm(self, degree)

    def function_form(self, field: ScalarField) -> AForm:
        return AForm(self, 0, {(): field})

    def __repr__(self):
        return f"AlgebroidChart({self.name!r}, rank={self.rank}, dim={self.dim})"


def _frame_derivative(chart: AlgebroidChart, i: int, f: ScalarField) -> ScalarField:
    """rho(b_i) f = rho_i^j df/dx^j, over the nonzero anchor entries in ascending j.

    The one route for a frame section acting on a base function: `d_A` reads
    it for its anchor terms and `morphism_target_connection` for its
    -rho'(b'_u)(phi_i^t) term.
    """
    result = ZERO
    for j, rho in chart.anchor_terms[i]:
        partial = f.diff(j)
        if not partial.is_zero():
            result = add(result, mul(rho, partial))
    return result


def d_A(omega: AForm) -> AForm:
    """Exterior differential from the Cartan coefficient formula.

    The anchor terms visit only nonzero anchor entries and non-constant
    coefficients; the bracket terms visit only the stored terms of each pair,
    by ascending target index.  Both keep the summation order of the dense
    formula over every frame index.  Only the output keys that some term
    reaches are visited, in the order of `combinations`: K + {i} for a
    non-constant coefficient on K and an anchored i not in K, and
    (K - {m}) + {a, b} for m in K and a pair (a, b) in `bracket_sources[m]`.
    """
    chart = omega.chart
    k = omega.degree
    if k + 1 > chart.rank or omega.is_zero():
        return chart.zero_form(k + 1)
    table: dict[tuple[int, ...], ScalarField] = {}
    for index in sorted(_reached_keys(omega)):
        total = ZERO
        for r, i_r in enumerate(index):
            inner = omega.coeff(index[:r] + index[r + 1:])
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
                        value = omega.coeff_signed((m,) + rest)
                        if value.is_zero():
                            continue
                        total = add(total, mul(Const(pair_sign), mul(coeff, value)))
        if not total.is_zero():
            table[index] = total
    return _trusted_form(chart, k + 1, table)


def _reached_keys(omega: AForm) -> set[tuple[int, ...]]:
    """The keys of d_A(omega) on which some Cartan term can be nonzero."""
    chart = omega.chart
    anchored = [i for i, terms in enumerate(chart.anchor_terms) if terms]
    keys = set()
    for key, coeff in omega.table.items():
        if not isinstance(coeff, Const):
            keys.update(tuple(sorted(key + (i,))) for i in anchored if i not in key)
        for p, m in enumerate(key):
            rest = key[:p] + key[p + 1:]
            keys.update(tuple(sorted(rest + pair))
                        for pair in chart.bracket_sources.get(m, ())
                        if pair[0] not in rest and pair[1] not in rest)
    return keys


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

    def compose(self, inner: "Morphism") -> "Morphism":
        """self o inner, i.e. inner maps into self's source.  Entry (i, w) adds
        inner_i^t self_t^w by ascending t where both factors are nonzero."""
        if inner.target is not self.source:
            raise ValueError("morphisms are not composable")
        rows = [[(w, e) for w, e in enumerate(row) if not e.is_zero()] for row in self.matrix]
        matrix = []
        for inner_row in inner.matrix:
            row = [ZERO] * self.target.rank
            for a, nonzero in zip(inner_row, rows):
                if not a.is_zero():
                    for w, b in nonzero:
                        row[w] = add(row[w], mul(a, b))
            matrix.append(row)
        return Morphism(inner.source, self.target,
                        matrix, f"{self.name}.{inner.name}")

    def __repr__(self):
        return f"Morphism({self.name!r}: {self.source.name} -> {self.target.name})"


def pullback(phi: Morphism, omega: AForm) -> AForm:
    """Pull a form on the target back to the source, key by key of `omega`.

    phi^*(f theta^{u_1} ^ ... ^ theta^{u_k}) = f phi^*theta^{u_1} ^ ... ^
    phi^*theta^{u_k}, where phi^*theta^u = sum_i phi_i^u theta^i is column u
    of the matrix, read as a sparse 1-form.  A key whose wedge chain is zero
    before its last factor adds nothing.
    """
    _require_same_chart(omega.chart, phi.target)
    chart = phi.source
    k = omega.degree
    if k == 0:
        return AForm(chart, 0, omega.table)
    if k > chart.rank:
        return chart.zero_form(k)
    needed = {u for key in omega.table for u in key}
    columns = {u: _trusted_form(chart, 1, {(i,): row[u] for i, row in enumerate(phi.matrix)})
               for u in needed}
    total = chart.zero_form(k)
    for key, coeff in omega.table.items():
        chain = columns[key[0]]
        for u in key[1:]:
            if chain.is_zero():
                break
            chain = chain.wedge(columns[u])
        else:
            total = total + chain.scale(coeff)
    return total


def _coordinate(chart: AlgebroidChart, l: int) -> AForm:
    """The coordinate function x^l as a 0-form."""
    return chart.function_form(chart.coordinate_field(l))


def _dual_frame(chart: AlgebroidChart, m: int) -> AForm:
    """theta^m, the 1-form dual to the frame section b_m."""
    return AForm(chart, 1, {(m,): Const(1.0)})


def verify_axioms(chart: AlgebroidChart, points) -> tuple[float, float, tuple[int, ...] | None]:
    """The algebroid axioms as d_A^2 = 0 on generators, at the probe points (N, dim).

    (a) The (i, j) coefficient of d_A(d_A x^l) is rho_i(rho_j^l) - rho_j(rho_i^l)
    - sum_k c_ij^k rho_k^l, so the anchor sends frame brackets to vector-field
    brackets exactly when it vanishes for every coordinate l.  (b) The
    (i, j, k) coefficient of d_A(d_A theta^m) is theta^m of the Jacobiator
    [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j], whether or not
    (a) holds; one walk per m.  Returns (worst anchor value, worst Jacobiator
    value, the smallest triple that reaches the worst Jacobiator value, or None
    when d_A^2 leaves no triple).  A non-finite value counts as inf.
    """
    anchor_fields = [c for l in range(chart.dim)
                     for c in d_A(d_A(_coordinate(chart, l))).table.values()]
    worst_anchor = residual(anchor_fields, points)
    maxima: dict[tuple[int, ...], float] = {}
    for m in range(chart.rank):
        table = d_A(d_A(_dual_frame(chart, m))).table
        for key, value in zip(table, field_maxima(table.values(), points)):
            maxima[key] = max(maxima.get(key, 0.0), value)
    worst_jacobi = max(maxima.values(), default=0.0)
    triple = min((key for key, value in maxima.items() if value == worst_jacobi),
                 default=None)
    return worst_anchor, worst_jacobi, triple


def check_morphism(phi: Morphism) -> list[AForm]:
    """The forms that vanish exactly when phi^* d_B = d_A phi^* on generators.

    On the coordinates, d_A x^l - phi^*(d_B x^l) vanishes exactly when phi
    preserves anchors; on the dual frame, d_A(phi^* theta^u) - phi^*(d_B
    theta^u) then vanishes exactly when it preserves frame brackets.
    """
    source, target = phi.source, phi.target
    differences = [d_A(_coordinate(source, l)) - pullback(phi, d_A(_coordinate(target, l)))
                   for l in range(source.dim)]
    for u in range(target.rank):
        theta = _dual_frame(target, u)
        differences.append(d_A(pullback(phi, theta)) - pullback(phi, d_A(theta)))
    return differences


class JetChart(AlgebroidChart):
    """First jet prolongation J1 A of an algebroid chart, in the split frame.

    The frame is J_i = j1(b_i), then E_{h,i} = dx^h (x) b_i = j1(x^h b_i) -
    x^h j1(b_i), grouped by coordinate: E_{h,i} is row s + h s + i, with s
    the rank of A.  Its data follows in closed form from the anchor rho_i^h
    and the structure functions c_ij^k of A:

      rho(J_i) = rho_i,  rho(E_{h,i}) = 0,
      [J_i, J_j] = c_ij^k J_k + d_m c_ij^k E_{m,k},
      [J_i, E_{h,j}] = c_ij^k E_{h,k} + d_m rho_i^h E_{m,j},
      [E_{g,i}, E_{h,j}] = rho_i^h E_{g,j} - rho_j^g E_{h,i},

    and the projection pi: J1 A -> A sends J_i to b_i and every E_{h,i} to
    zero.  `cotangent_rows` lists (p, h, q) for each E row p = E_{h,i}, with
    q = J_i the row of the same b_i: all a connection builder needs of the
    layout.
    """

    def __init__(self, base_chart: AlgebroidChart):
        s, m = base_chart.rank, base_chart.dim

        def e(h: int, i: int) -> int:
            return s + h * s + i

        cotangent = tuple((e(h, i), h, i) for h in range(m) for i in range(s))
        brackets: dict[tuple[int, int], dict[int, ScalarField]] = {}

        def put(p: int, q: int, r: int, coeff: ScalarField) -> None:
            if not coeff.is_zero():
                row = brackets.setdefault((p, q), {})
                row[r] = add(row.get(r, ZERO), coeff)

        for (i, j), terms in base_chart.brackets.items():  # [J_i, J_j]
            for k, coeff in terms.items():
                put(i, j, k, coeff)
                for n in range(m):
                    put(i, j, e(n, k), coeff.diff(n))
        for i in range(s):  # [J_i, E_{h,j}]
            for h in range(m):
                partials = [(n, base_chart.anchor[i][h].diff(n)) for n in range(m)]
                for j in range(s):
                    for k, coeff in base_chart.structure.get((i, j), {}).items():
                        put(i, e(h, j), e(h, k), coeff)
                    for n, partial in partials:
                        put(i, e(h, j), e(n, j), partial)
        for p, g, i in cotangent:  # [E_{g,i}, E_{h,j}]
            for q, h, j in cotangent:
                if p < q:
                    put(p, q, e(g, j), base_chart.anchor[i][h])
                    put(p, q, e(h, i), mul(Const(-1.0), base_chart.anchor[j][g]))
        basis = [f"j.{name}" for name in base_chart.basis]
        basis += [f"d{coord}.{name}" for coord in base_chart.coords
                  for name in base_chart.basis]
        anchor = list(base_chart.anchor) + [[ZERO] * m] * (s * m)
        super().__init__(f"J1({base_chart.name})", base_chart.coords, basis,
                         anchor, brackets)
        self.base_chart = base_chart
        self.cotangent_rows = cotangent

    def projection(self) -> Morphism:
        """pi: J_i -> b_i, E_{h,i} -> 0, as a base-preserving morphism."""
        base = self.base_chart
        matrix = [[Const(1.0) if u == p else ZERO for u in range(base.rank)]
                  for p in range(self.rank)]
        return Morphism(self, base, matrix, name=f"proj_{base.name}")


def jet_prolong(chart: AlgebroidChart) -> JetChart:
    """Build the first jet algebroid of a chart."""
    return JetChart(chart)

