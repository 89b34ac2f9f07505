"""Chern polynomials and Bott difference forms on the base chart.

The polarized Chern evaluation keeps the single odd-degree argument first, so
all signs in mixed contractions are pinned by one convention.  Difference
forms never leave the base chart: the transgression slices the affine link at
h Gauss-Legendre nodes, which is exact because its integrand is a polynomial
of known degree 2(h - 1) in the link parameter, and the three-connection form
is Bott's simplex formula in closed form.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .algebroid import d_A
from .connections import FormMatrix, _require_connection, curvature
from .expressions import Const, ScalarField, balanced_sum, max_abs_finite, mul
from .forms import AForm, generalized_delta
from .reports import CheckRecord


def chern_scalar(matrix: np.ndarray, h: int) -> float:
    """c_h(F) = (1/h!) delta^{v...}_{u...} F^u_v ... = sum of principal h-minors."""
    matrix = np.asarray(matrix, dtype=float)
    r = matrix.shape[0]
    if matrix.shape != (r, r):
        raise ValueError("chern_scalar needs a square matrix")
    if not 1 <= h <= r:
        raise ValueError(f"c_{h} is out of range for {r}x{r} matrices")
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
                product = entry if product is None else product.wedge(entry)
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
    return AForm(chart, degree, table)


def chern_form(matrix: FormMatrix, h: int) -> AForm:
    """c_h evaluated with all arguments equal to the given matrix."""
    return chern_polarized([matrix] * h)


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact to degree 2n - 1."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return (nodes + 1.0) / 2.0, weights / 2.0


def bott_delta(connections: Sequence[FormMatrix], h: int) -> AForm:
    """Difference homomorphism on k+1 connections evaluated on c_h.

    k = 0 is the closed characteristic form c_h(Omega).  k = 1 is the
    transgression h * integral over [0, 1] of c_h(alpha, Omega_x, ..., Omega_x),
    with alpha = omega1 - omega0 and Omega_x the curvature of the affine link
    omega0 + x alpha; the integrand has degree 2(h - 1) in x, so h Gauss nodes
    integrate it exactly.  k = 2 is Bott's simplex formula in closed form: zero
    for h = 1 and c_2(omega1 - omega0, omega2 - omega0) for h = 2.
    """
    if h < 1:
        raise ValueError(f"c_{h} is not a Chern polynomial: the degree must be at least 1")
    for conn in connections:
        _require_connection(conn)
    k = len(connections) - 1
    if k == 0:
        return chern_form(curvature(connections[0]), h)
    c0 = connections[0]
    chart = c0.chart
    if k == 1:
        alpha = connections[1] - c0
        if h == 1:  # c_1(alpha) does not depend on the link parameter
            return chern_polarized([alpha])
        total = chart.zero_form(2 * h - 1)
        for x, w in zip(*gauss_legendre_01(h)):
            omega_x = curvature(c0 + alpha.scale(float(x)))
            total = total + chern_polarized([alpha] + [omega_x] * (h - 1)).scale(float(w))
        return total.scale(float(h))
    if k == 2:
        if h == 1:
            return chart.zero_form(0)
        if h == 2:
            return chern_polarized([c - c0 for c in connections[1:]])
        raise ValueError(f"Delta on three connections is implemented for c_1 and c_2, not c_{h}")
    raise ValueError("bott_delta supports k in {0, 1, 2}")


def transgression_check(c0: FormMatrix, c1: FormMatrix, h: int, points,
                        tol: float = 1e-8) -> CheckRecord:
    """Residual of Delta(c1)c_h - Delta(c0)c_h = d Delta(c0, c1)c_h at the probe points."""
    lhs = bott_delta([c1], h) - bott_delta([c0], h)
    rhs = d_A(bott_delta([c0, c1], h))
    return CheckRecord(f"transgression_c{h}", (lhs - rhs).max_abs(points), tol,
                       len(points))


def cocycle_check(c0: FormMatrix, c1: FormMatrix, c2: FormMatrix, h: int,
                  points, tol: float = 1e-8) -> CheckRecord:
    """Simplicial coboundary identity for three connections.

    d Delta(c0, c1, c2)c_h = Delta(c1, c2)c_h - Delta(c0, c2)c_h
                             + Delta(c0, c1)c_h.
    """
    lhs = d_A(bott_delta([c0, c1, c2], h))
    rhs = (bott_delta([c1, c2], h) - bott_delta([c0, c2], h)
           + bott_delta([c0, c1], h))
    return CheckRecord(f"cocycle_c{h}", (lhs - rhs).max_abs(points), tol, len(points))
