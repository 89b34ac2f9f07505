"""Reference routes for the Chern polynomials and the difference forms.

- `chern_polarized_reference` guards `chern.chern_polarized`.  It is the
  generalized-delta sum that the cycle expansion over S_h replaced: every
  injective index map sigma and every rearrangement kappa of it,
  r!/(r - h)! * h! pairs, each with its own Kronecker-delta sign and wedge
  chain.  Tests require equal values.
- `koszul_sign_reference` guards `chern._koszul_sign`.  It is the double
  loop over pairs of wedge factors that the parity of the odd-degree factors'
  inversions replaced.  Tests require the same sign for every order and
  degree vector up to h = 5.
- `form_matrix_wedge_reference` and `trace_wedge_reference` guard
  `FormMatrix.wedge` and `FormMatrix.trace_wedge` (`self` is the left
  factor).  They are the old products, which built an intermediate form per
  summand by folding `acc = acc + a.wedge(b)`.  Tests require the same
  coefficient trees.
- `bott_delta_branch_reference` guards `chern.bott_delta`.  It is the whole
  `bott_delta` that had one branch per simplex: c_h(Omega) for k = 0, the
  Gauss-node transgression for k = 1 (with c_1(alpha) as a shortcut), and the
  closed forms 0 and c_2(alpha_1, alpha_2) for k = 2.  Tests require the
  simplex formula to build the same trees for k = 0 and k = 1, and the same
  values for k = 2.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

from algebroids.chern import chern_polarized, gauss_legendre_01
from algebroids.connections import FormMatrix, _require_connection, curvature
from algebroids.expressions import Const, ScalarField, balanced_sum, mul
from algebroids.forms import AForm
from dense_oracle import generalized_delta


def chern_polarized_reference(args: Sequence[FormMatrix]) -> AForm:
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


def koszul_sign_reference(order: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of reordering wedge factors of these degrees from 0, 1, ... into `order`."""
    sign = 1
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            if order[p] > order[q] and degrees[order[p]] * degrees[order[q]] % 2:
                sign = -sign
    return sign


def form_matrix_wedge_reference(self: FormMatrix, other: FormMatrix) -> FormMatrix:
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


def trace_wedge_reference(self: FormMatrix, other: FormMatrix) -> AForm:
    """tr(self ^ other), building only the diagonal of the product."""
    self._check_compatible(other, same_degree=False)
    acc = self.chart.zero_form(self.degree + other.degree)
    for u in range(self.size):
        for s in range(self.size):
            a = self.entries[u][s]
            b = other.entries[s][u]
            if a.is_zero() or b.is_zero():
                continue
            acc = acc + a.wedge(b)
    return acc


def bott_delta_branch_reference(connections: Sequence[FormMatrix], h: int) -> AForm:
    """Difference homomorphism on k+1 connections evaluated on c_h.

    k = 0 is the closed characteristic form c_h(Omega).  k = 1 is the
    transgression h * integral over [0, 1] of c_h(alpha, Omega_x, ..., Omega_x),
    with alpha = omega1 - omega0 and Omega_x the curvature of the affine link
    omega0 + x alpha; the integrand has degree 2(h - 1) in x, so h Gauss nodes
    integrate it exactly.  d(omega0) and d(alpha) are taken once for all the
    nodes.  k = 2 is Bott's simplex formula in closed form: zero
    for h = 1 and c_2(omega1 - omega0, omega2 - omega0) for h = 2.
    """
    if h < 1:
        raise ValueError(f"c_{h} is not a Chern polynomial: the degree must be at least 1")
    for conn in connections:
        _require_connection(conn)
    k = len(connections) - 1
    if k == 0:
        return chern_polarized([curvature(connections[0])] * h)
    c0 = connections[0]
    chart = c0.chart
    if k == 1:
        alpha = connections[1] - c0
        if h == 1:  # c_1(alpha) does not depend on the link parameter
            return chern_polarized([alpha])
        total = chart.zero_form(2 * h - 1)
        d0, dalpha = c0.d(), alpha.d()  # d is linear: d(link) = d0 + x dalpha
        for x, w in zip(*gauss_legendre_01(h)):
            link = c0 + alpha.scale(float(x))
            omega_x = (d0 + dalpha.scale(float(x))) - link.wedge(link)
            total = total + chern_polarized([alpha] + [omega_x] * (h - 1)).scale(float(w))
        return total.scale(float(h))
    if k == 2:
        if h == 1:
            return chart.zero_form(0)
        if h == 2:
            return chern_polarized([c - c0 for c in connections[1:]])
        raise ValueError(f"Delta on three connections is implemented for c_1 and c_2, not c_{h}")
    raise ValueError("bott_delta supports k in {0, 1, 2}")
