"""Chern polynomials, fiber integration over simplices, and difference forms.

The polarized Chern evaluation keeps the single odd-degree argument first, so
all signs in mixed contractions are pinned by one convention.  Parameter
integrals use Gauss-Legendre rules sized from exact per-coefficient polynomial
degrees, so quadrature is exact, never adaptive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .algebroid import AForm, AlgebroidChart, d_A
from .connections import (AConnection, ConnectionFamily, FormMatrix, curvature, lift_matrix,
                          link_curvature)
from .expressions import (Const, ScalarField, ZERO, add, balanced_sum, max_abs_finite, mul,
                          substitute)
from .forms import AFormData, generalized_delta
from .reports import CheckRecord
from .sampling import sample_points


@dataclass(frozen=True)
class InvariantPolynomial:
    """A Chern polynomial c_h on r x r matrices."""

    degree: int
    dimension: int

    def __post_init__(self):
        if not 1 <= self.degree <= self.dimension:
            raise ValueError(
                f"c_{self.degree} is out of range for {self.dimension}x{self.dimension} matrices"
            )


def chern_scalar(matrix: np.ndarray, h: int) -> float:
    """c_h(F) = (1/h!) delta^{v...}_{u...} F^u_v ... = sum of principal h-minors."""
    matrix = np.asarray(matrix, dtype=float)
    r = matrix.shape[0]
    if matrix.shape != (r, r):
        raise ValueError("chern_scalar needs a square matrix")
    InvariantPolynomial(h, r)
    total = 0.0
    for sigma in permutations(range(r), h):
        for kappa in permutations(sigma):
            sign = generalized_delta(sigma, kappa)
            term = float(sign)
            for s, k in zip(sigma, kappa):
                term *= matrix[s, k]
            total += term
    return total / math.factorial(h)


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


def chern_polarized(args: Sequence[FormMatrix]) -> AForm:
    """Polarized Chern evaluation on matrices of forms.

    (1/h!) delta^{sigma...}_{kappa...} (A_1)_{sigma_1}^{kappa_1} ^ ... with the
    arguments wedged in the given order; callers place the odd-degree argument
    first.
    """
    if not args:
        raise ValueError("need at least one matrix argument")
    chart = args[0].chart
    r = args[0].size
    for m in args:
        if m.chart is not chart or m.size != r:
            raise ValueError("polarized arguments must share chart and dimension")
    h = len(args)
    degree = sum(m.degree for m in args)
    if h > r or degree > chart.rank:
        return chart.zero_form(degree)
    pending: dict[tuple[int, ...], list[ScalarField]] = {}
    for sigma in permutations(range(r), h):
        for kappa in permutations(sigma):
            sign = generalized_delta(sigma, kappa)
            product = None
            dead = False
            for matrix, s, k in zip(args, sigma, kappa):
                entry = matrix.entries[s][k]
                if entry.is_zero():
                    dead = True
                    break
                product = entry.data if product is None else product.wedge(entry.data)
                if product.is_zero():
                    dead = True
                    break
            if dead:
                continue
            for key, coeff in product.table.items():
                term = coeff if sign > 0 else mul(Const(-1.0), coeff)
                pending.setdefault(key, []).append(term)
    scale = 1.0 / math.factorial(h)
    table = {
        key: mul(Const(scale), balanced_sum(terms))
        for key, terms in pending.items()
    }
    return AForm(chart, AFormData(degree, chart.rank, table))


def chern_form(matrix: FormMatrix, h: int) -> AForm:
    """c_h evaluated with all arguments equal to the given matrix."""
    return chern_polarized([matrix] * h)


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact to degree 2n - 1."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return (nodes + 1.0) / 2.0, weights / 2.0


def integrate_unit_interval(field: ScalarField, coord_index: int,
                            nodes: int) -> ScalarField:
    """Exact Gauss integral over the coordinate `coord_index` in [0, 1]."""
    xs, ws = gauss_legendre_01(nodes)
    acc = ZERO
    for w, sample in zip(ws, substitute(field, coord_index, [float(x) for x in xs])):
        acc = add(acc, mul(Const(float(w)), sample))
    return acc


class NonPolynomialError(ValueError):
    """Raised when coefficients are not polynomial in the simplex parameters."""


def _parameter_degree(form: AForm, coord_indices: Sequence[int]) -> int:
    worst = 0
    for coeff in form.data.table.values():
        for index in coord_indices:
            degree = coeff.tau_degree(index)
            if degree is None:
                raise NonPolynomialError(
                    f"coefficient {coeff} is not polynomial in parameter {index}"
                )
            worst = max(worst, degree)
    return worst


def fiber_integrate(form: AForm, k: int, base_chart: AlgebroidChart,
                    nodes: int | None = None) -> AForm:
    """Integrate the full-simplex-volume component of a form over the k-simplex.

    Components without all k parameter slots integrate to zero.  Coefficients
    must be polynomial in the parameters; their degree is inferred exactly
    from the expression trees.
    """
    if k == 0:
        table = {idx: c for idx, c in form.data.table.items()
                 if all(i < base_chart.rank for i in idx)}
        return AForm(base_chart, AFormData(form.degree, base_chart.rank, table))
    if k not in (1, 2):
        raise ValueError("fiber integration is implemented for k in {0, 1, 2}")
    s = base_chart.rank
    m = base_chart.dim
    param_slots = tuple(s + c for c in range(k))
    param_coords = tuple(m + c for c in range(k))
    degree = _parameter_degree(form, param_coords)
    table: dict[tuple[int, ...], ScalarField] = {}
    if k == 1:
        n = nodes if nodes is not None else max(1, math.ceil((degree + 1) / 2))
        for index, coeff in form.data.table.items():
            if index[-1:] != (param_slots[0],) or any(i >= s for i in index[:-1]):
                continue
            value = integrate_unit_interval(coeff, param_coords[0], n)
            if not value.is_zero():
                key = index[:-1]
                table[key] = add(table.get(key, ZERO), value)
        return AForm(base_chart, AFormData(form.degree - 1, s, table))
    # k == 2: collapsed-square transform t1 = u, t2 = v(1 - u), Jacobian (1 - u).
    n_u = nodes if nodes is not None else max(1, math.ceil((degree + 2) / 2))
    n_v = nodes if nodes is not None else max(1, math.ceil((degree + 1) / 2))
    us, wus = gauss_legendre_01(n_u)
    vs, wvs = gauss_legendre_01(n_v)
    for index, coeff in form.data.table.items():
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
    return AForm(base_chart, AFormData(form.degree - 2, s, table))


def bott_delta(connections: Sequence[AConnection], h: int,
               nodes: int | None = None) -> AForm:
    """Difference homomorphism on k+1 connections evaluated on c_h.

    k = 0 is the closed characteristic form c_h(Omega); k = 1 is the
    transgression h * integral of c_h(alpha, Omega_tau, ...) over [0, 1];
    k = 2 integrates c_h of the barycentric family curvature over the
    2-simplex with the alternating-sign prefactor.
    """
    k = len(connections) - 1
    if k == 0:
        return chern_form(curvature(connections[0]), h)
    if k == 1:
        c0, c1 = connections
        family = ConnectionFamily.affine_link(c0, c1)
        link = family.product_chart
        alpha = lift_matrix(c1.matrix - c0.matrix, link)
        omega_tau, _ = link_curvature(family)
        integrand = chern_polarized([alpha] + [omega_tau] * (h - 1))
        base = family.base_chart
        if integrand.is_zero():
            return base.zero_form(2 * h - 1)
        tau_coord = base.dim
        degree = _parameter_degree(integrand, (tau_coord,))
        n = nodes if nodes is not None else max(1, math.ceil((degree + 1) / 2))
        table = {}
        for index, coeff in integrand.data.table.items():
            if any(i >= base.rank for i in index):
                continue
            value = integrate_unit_interval(coeff, tau_coord, n)
            if not value.is_zero():
                table[index] = value
        return AForm(base, AFormData(2 * h - 1, base.rank, table)).scale(float(h))
    if k == 2:
        family = ConnectionFamily.barycentric(list(connections))
        base = family.base_chart
        full = family.full_connection()
        omega_tilde = curvature(full)
        integrand = chern_polarized([omega_tilde] * h)
        sign = -1.0 if ((k + 1) // 2) % 2 else 1.0
        return fiber_integrate(integrand, 2, base, nodes=nodes).scale(sign)
    raise ValueError("bott_delta supports k in {0, 1, 2}")


def transgression_check(c0: AConnection, c1: AConnection, h: int,
                        n_points: int = 100, seed: int = 42,
                        tol: float = 1e-8) -> CheckRecord:
    """Residual of Delta(c1)c_h - Delta(c0)c_h = d Delta(c0, c1)c_h."""
    chart = c0.chart
    lhs = bott_delta([c1], h) - bott_delta([c0], h)
    rhs = d_A(bott_delta([c0, c1], h))
    points = sample_points(chart.dim, n_points, seed)
    residual = (lhs - rhs).max_abs(points)
    return CheckRecord(f"transgression_c{h}", residual, tol, n_points,
                       {"seed": seed})


def cocycle_check(c0: AConnection, c1: AConnection, c2: AConnection, h: int,
                  n_points: int = 100, seed: int = 42,
                  tol: float = 1e-8) -> CheckRecord:
    """Simplicial coboundary identity for three connections.

    d Delta(c0, c1, c2)c_h = Delta(c1, c2)c_h - Delta(c0, c2)c_h
                             + Delta(c0, c1)c_h.
    """
    chart = c0.chart
    lhs = d_A(bott_delta([c0, c1, c2], h))
    rhs = (bott_delta([c1, c2], h) - bott_delta([c0, c2], h)
           + bott_delta([c0, c1], h))
    points = sample_points(chart.dim, n_points, seed)
    residual = (lhs - rhs).max_abs(points)
    return CheckRecord(f"cocycle_c{h}", residual, tol, n_points, {"seed": seed})
