"""The parameter-chart reference route for the difference forms Delta(c0, ..., ck)c_h.

`algebroids.chern.bott_delta` works on the base chart only: it slices the
link omega0 + sum t_i alpha_i at the nodes of a Gauss rule on the k-simplex.
This module keeps the parameter-chart route it replaced: product charts with
extra tau (or t1, t2) coordinates, connection families on them, polynomial
degrees inferred from the coefficient trees, and coefficient trees rebuilt at
every Gauss node.  `bott_delta_reference` is the old `bott_delta` for k = 0,
1 and 2; tests require the two routes to give the same values.  Every other
function here is a step of it and guards `chern.bott_delta` through it:

- `substitute` and `integrate_unit_interval`: coefficients at the Gauss
  nodes of a parameter, and their weighted sum;
- `tau_degree` (with `_degree`) and `_parameter_degree`: the polynomial
  degree in a parameter, which sets the node count;
- `extend_with_parameters`, `lift_matrix`, `pure_part` and
  `ConnectionFamily`: the product chart and the affine (k = 1) and
  barycentric (k = 2) families on it;
- `link_curvature`: the base part of the curvature of a 1-parameter family;
- `fiber_integrate`: the integral over the 2-simplex.
"""

from __future__ import annotations

import math
from typing import Sequence

from algebroids.algebroid import AlgebroidChart
from algebroids.chern import chern_polarized, gauss_legendre_01
from algebroids.connections import FormMatrix, curvature
from algebroids.expressions import (
    Add,
    Const,
    Coord,
    Cos,
    Div,
    Exp,
    Mul,
    Pow,
    ScalarField,
    Sin,
    Sqrt,
    Sub,
    ZERO,
    _Unary,
    _children,
    _release,
    _schedule,
    add,
    cosine,
    div,
    exponential,
    mul,
    power,
    sine,
    square_root,
    sub,
)
from algebroids.forms import AForm


# --------------------------------------------------------------------------
# Substitution and polynomial degree: memoized walks over distinct nodes
# --------------------------------------------------------------------------


_REBUILD = {Add: add, Sub: sub, Mul: mul, Div: div,
            Sin: sine, Cos: cosine, Exp: exponential, Sqrt: square_root}


def substitute(field: ScalarField, index: int,
               values: Sequence[float]) -> list[ScalarField]:
    """`field` with each of `values` in turn for coordinate `index`, folding constants.

    One walk serves every value.  A node without the coordinate is kept as it
    is; every other distinct node is rebuilt once per value through the
    folding constructors, so each result is the tree a node-by-node rebuild
    folds to, with shared subtrees kept shared.
    """
    order, pending = _schedule((field,))
    # node -> None where the coordinate does not occur, else one result per value
    memo: dict[ScalarField, list[ScalarField] | None] = {}
    for node in order:  # the last node is `field`
        kind = type(node)
        kids = _children(node)
        results = [memo[kid] for kid in kids]
        _release(kids, pending, memo)
        if kind is Coord and node.index == index:
            result = [Const(value) for value in values]
        elif all(r is None for r in results):
            result = None
        else:
            columns = [[kid] * len(values) if r is None else r
                       for kid, r in zip(kids, results)]
            if kind is Pow:
                result = [power(base, node.exponent) for base in columns[0]]
            else:
                result = [_REBUILD[kind](*args) for args in zip(*columns)]
        if pending[node]:
            memo[node] = result
    return result or [field] * len(values)


def tau_degree(field: ScalarField, index: int) -> int | None:
    """Polynomial degree of `field` in coordinate `index`, or None if not polynomial.

    Each distinct node is measured once.
    """
    return _degree(field, index, {})


def _degree(node: ScalarField, index: int, memo: dict) -> int | None:
    if node in memo:
        return memo[node]
    kind = type(node)
    if kind is Const:
        degree = 0
    elif kind is Coord:
        degree = 1 if node.index == index else 0
    elif kind is Pow:
        a = _degree(node.base, index, memo)
        if a is None:
            degree = None
        elif node.exponent >= 0:
            degree = a * node.exponent
        else:
            degree = None if a != 0 else 0
    elif isinstance(node, _Unary):
        degree = 0 if _degree(node.arg, index, memo) == 0 else None
    else:
        a = _degree(node.left, index, memo)
        b = _degree(node.right, index, memo)
        if a is None or b is None:
            degree = None
        elif kind is Mul:
            degree = a + b
        elif kind is Div:
            degree = a if b == 0 else None
        else:
            degree = max(a, b)
    memo[node] = degree
    return degree


# --------------------------------------------------------------------------
# Parameter charts and connection families on them
# --------------------------------------------------------------------------


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


def lift_matrix(m: FormMatrix, chart: AlgebroidChart) -> FormMatrix:
    """A form matrix on a sub-frame, entry by entry on an extended chart."""
    rows = [[AForm(chart, e.degree, dict(e.table)) for e in row] for row in m.entries]
    return FormMatrix(chart, rows, m.degree)


def pure_part(matrix: FormMatrix, frame_rank: int) -> FormMatrix:
    """Drop components whose multi-index touches frame slots >= frame_rank."""
    out = []
    for row in matrix.entries:
        new_row = []
        for entry in row:
            table = {
                idx: c for idx, c in entry.table.items()
                if all(i < frame_rank for i in idx)
            }
            new_row.append(AForm(matrix.chart, entry.degree, table))
        out.append(new_row)
    return FormMatrix(matrix.chart, out, matrix.degree)


class ConnectionFamily:
    """Family of connections over a parameter cell, as a matrix on the product chart.

    `omega` carries only base-frame components: the family has no transverse
    (parameter-direction) components.
    """

    def __init__(self, base_chart: AlgebroidChart, product_chart: AlgebroidChart,
                 omega: FormMatrix):
        self.base_chart = base_chart
        self.product_chart = product_chart
        self.omega = omega
        self.n_params = product_chart.rank - base_chart.rank

    @classmethod
    def affine_link(cls, c0: FormMatrix, c1: FormMatrix) -> "ConnectionFamily":
        """(1 - tau) c0 + tau c1."""
        if c0.chart is not c1.chart or c0.size != c1.size:
            raise ValueError("link endpoints must share chart and rank")
        chart = c0.chart
        link = extend_with_parameters(chart, ["tau"])
        tau = link.coordinate_field(chart.dim)
        one_minus = sub(Const(1.0), tau)
        m0 = lift_matrix(c0, link)
        m1 = lift_matrix(c1, link)
        omega = m0.scale(one_minus) + m1.scale(tau)
        return cls(chart, link, omega)

    @classmethod
    def barycentric(cls, connections: Sequence[FormMatrix]) -> "ConnectionFamily":
        """Convex simplex family sum_a t^a nabla^a with t^0 = 1 - sum t^c."""
        k = len(connections) - 1
        chart = connections[0].chart
        for conn in connections:
            if conn.chart is not chart or conn.size != connections[0].size:
                raise ValueError("family endpoints must share chart and rank")
        names = [f"t{c}" for c in range(1, k + 1)]
        product = extend_with_parameters(chart, names)
        lifted = [lift_matrix(c, product) for c in connections]
        omega = lifted[0]
        for c in range(1, k + 1):
            t_c = product.coordinate_field(chart.dim + c - 1)
            omega = omega + (lifted[c] - lifted[0]).scale(t_c)
        return cls(chart, product, omega)


def link_curvature(family: ConnectionFamily) -> FormMatrix:
    """Omega_tau, the curvature of a 1-parameter link on the base frame at each tau."""
    if family.n_params != 1:
        raise ValueError("link curvature needs a 1-parameter family")
    omega = family.omega
    return pure_part(omega.d(), family.base_chart.rank) - omega.wedge(omega)


# --------------------------------------------------------------------------
# Fiber integration over the parameter simplex
# --------------------------------------------------------------------------


def integrate_unit_interval(field: ScalarField, coord_index: int,
                            nodes: int) -> ScalarField:
    """Exact Gauss integral over the coordinate `coord_index` in [0, 1]."""
    xs, ws = gauss_legendre_01(nodes)
    acc = ZERO
    for w, sample in zip(ws, substitute(field, coord_index, [float(x) for x in xs])):
        acc = add(acc, mul(Const(float(w)), sample))
    return acc


def _parameter_degree(form: AForm, coord_indices: Sequence[int]) -> int:
    worst = 0
    for coeff in form.table.values():
        for index in coord_indices:
            degree = tau_degree(coeff, index)
            if degree is None:
                raise ValueError(
                    f"coefficient {coeff} is not polynomial in parameter {index}"
                )
            worst = max(worst, degree)
    return worst


def fiber_integrate(form: AForm, base_chart: AlgebroidChart) -> AForm:
    """Integrate the component along both parameter slots over the 2-simplex.

    Components without both parameter slots integrate to zero.  The
    collapsed-square transform t1 = u, t2 = v(1 - u) has Jacobian (1 - u).
    Coefficients must be polynomial in the parameters; their degree, inferred
    exactly from the expression trees, sets the node counts.
    """
    s, m = base_chart.rank, base_chart.dim
    param_slots, param_coords = (s, s + 1), (m, m + 1)
    degree = _parameter_degree(form, param_coords)
    us, wus = gauss_legendre_01(max(1, math.ceil((degree + 2) / 2)))
    vs, wvs = gauss_legendre_01(max(1, math.ceil((degree + 1) / 2)))
    table: dict[tuple[int, ...], ScalarField] = {}
    for index, coeff in form.table.items():
        if index[-2:] != param_slots or any(i >= s for i in index[:-2]):
            continue
        acc = ZERO
        rows = substitute(coeff, param_coords[0], [float(u) for u in us])
        for u, wu, row in zip(us, wus, rows):
            t2s = [float(v * (1.0 - u)) for v in vs]
            for wv, sample in zip(wvs, substitute(row, param_coords[1], t2s)):
                weight = float(wu * wv * (1.0 - u))
                acc = add(acc, mul(Const(weight), sample))
        if not acc.is_zero():
            key = index[:-2]
            table[key] = add(table.get(key, ZERO), acc)
    return AForm(base_chart, form.degree - 2, table)


# --------------------------------------------------------------------------
# Difference forms on parameter charts
# --------------------------------------------------------------------------


def bott_delta_reference(connections: Sequence[FormMatrix], h: int,
                         nodes: int | None = None) -> AForm:
    """Difference homomorphism on k+1 connections evaluated on c_h.

    k = 0 is the closed characteristic form c_h(Omega); k = 1 is the
    transgression h * integral of c_h(alpha, Omega_tau, ...) over [0, 1];
    k = 2 integrates c_h of the barycentric family curvature over the
    2-simplex with the alternating-sign prefactor.
    """
    k = len(connections) - 1
    if k == 0:
        return chern_polarized([curvature(connections[0])] * h)
    if k == 1:
        c0, c1 = connections
        family = ConnectionFamily.affine_link(c0, c1)
        link = family.product_chart
        alpha = lift_matrix(c1 - c0, link)
        omega_tau = link_curvature(family)
        integrand = chern_polarized([alpha] + [omega_tau] * (h - 1))
        base = family.base_chart
        if integrand.is_zero():
            return base.zero_form(2 * h - 1)
        tau_coord = base.dim
        degree = _parameter_degree(integrand, (tau_coord,))
        n = nodes if nodes is not None else max(1, math.ceil((degree + 1) / 2))
        table = {}
        for index, coeff in integrand.table.items():
            if any(i >= base.rank for i in index):
                continue
            value = integrate_unit_interval(coeff, tau_coord, n)
            if not value.is_zero():
                table[index] = value
        return AForm(base, 2 * h - 1, table).scale(float(h))
    if k == 2:
        family = ConnectionFamily.barycentric(list(connections))
        base = family.base_chart
        omega_tilde = curvature(family.omega)
        integrand = chern_polarized([omega_tilde] * h)
        sign = -1.0 if ((k + 1) // 2) % 2 else 1.0
        return fiber_integrate(integrand, base).scale(sign)
    raise ValueError("bott_delta supports k in {0, 1, 2}")
