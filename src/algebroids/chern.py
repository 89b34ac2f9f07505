"""Chern polynomials and Bott difference forms on the base chart.

Chern polynomials are computed from traces.  `chern_polarized` is the cycle
expansion over S_h: traces of matrix words, each term with the Koszul sign of
moving its wedge factors from argument order into cycle order, so it is exact
for arguments of any degree and costs at most h! terms whatever the rank.  The
polarized evaluation keeps the single odd-degree argument first, so all signs
in mixed contractions are pinned by one convention.  Difference
forms never leave the base chart: the transgression slices the affine link
omega0 + x alpha at h Gauss-Legendre nodes, which is exact because its
integrand is a polynomial of known degree 2(h - 1) in x, and the
three-connection form is Bott's simplex formula in closed form.  Since d is
linear, the link curvature at each node is d(omega0) + x d(alpha) - link ^ link
with the two d's taken once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebroid import d_A
from .connections import FormMatrix, _require_connection, curvature
from .expressions import Const, ScalarField, balanced_sum, mul
from .forms import AForm
from .reports import CheckRecord


def chern_polarized(args: Sequence[FormMatrix]) -> AForm:
    """Polarized Chern evaluation c_h(A_1, ..., A_h) on matrices of forms.

    The generalized-delta contraction (1/h!) delta^{sigma...}_{kappa...}
    (A_1)_{sigma_1}^{kappa_1} ^ ... ^ (A_h)_{sigma_h}^{kappa_h}, with the
    arguments wedged in the given order (callers place the odd-degree argument
    first), evaluated as the cycle expansion

        (1/h!) sum over pi in S_h of sgn(pi) eps(pi) prod_{cycles} tr(A_i1 ^ ... ^ A_ik),

    each cycle read (i, pi(i), pi^2(i), ...) from its smallest index.  eps(pi)
    is the Koszul sign of moving the wedge factors from argument order into
    cycle order.  The sum over all index maps, not only injective ones, is
    exact: a repeated index pairs pi with a transposition of it, and the two
    terms cancel because their wedge order is fixed by argument position.
    Permutations with the same trace words are summed before any wedge, and
    matrix words are built once per call, keyed by which arguments are the
    same object, so the work does not grow like r^h.
    """
    if not args:
        raise ValueError("need at least one matrix argument")
    chart = args[0].chart
    r = args[0].size
    for m in args:
        if m.chart is not chart or m.size != r:
            raise ValueError("polarized arguments must share chart and dimension")
    h = len(args)
    degrees = [m.degree for m in args]
    degree = sum(degrees)
    if h > r or degree > chart.rank:
        return chart.zero_form(degree)
    label = [next(j for j, m in enumerate(args) if m is a) for a in args]
    weights: dict[tuple[tuple[int, ...], ...], int] = {}
    for cycles in _cycle_forms(tuple(range(h))):
        order = [i for cycle in cycles for i in cycle]
        sign = (-1) ** (h - len(cycles)) * _koszul_sign(order, degrees)
        words = tuple(tuple(label[i] for i in cycle) for cycle in cycles)
        weights[words] = weights.get(words, 0) + sign
    products: dict[tuple[int, ...], FormMatrix] = {}
    traces: dict[tuple[int, ...], AForm] = {}
    pending: dict[tuple[int, ...], list[ScalarField]] = {}
    for words, weight in weights.items():
        if weight == 0:
            continue
        term = None
        for word in words:
            if word not in traces:
                traces[word] = _word_trace(args, word, products)
            term = traces[word] if term is None else term.wedge(traces[word])
            if term.is_zero():
                break
        for key, coeff in term.table.items():
            pending.setdefault(key, []).append(mul(Const(float(weight)), coeff))
    scale = 1.0 / math.factorial(h)
    table = {
        key: mul(Const(scale), balanced_sum(terms))
        for key, terms in pending.items()
    }
    return AForm(chart, degree, table)


def _word_trace(args: Sequence[FormMatrix], word: tuple[int, ...],
                products: dict[tuple[int, ...], FormMatrix]) -> AForm:
    """tr(A_w1 ^ ... ^ A_wk), building only the diagonal of the last product.

    The proper prefixes of the word are looked up in, or added to, `products`.
    """
    if len(word) == 1:
        return args[word[0]].trace()
    prefix = args[word[0]]
    for k in range(2, len(word)):
        if word[:k] not in products:
            products[word[:k]] = prefix.wedge(args[word[k - 1]])
        prefix = products[word[:k]]
    return prefix.trace_wedge(args[word[-1]])


def _cycle_forms(indices: tuple[int, ...]):
    """Every permutation of `indices` once, as its list of cycles.

    Each cycle (i, pi(i), pi^2(i), ...) starts at its smallest index, and the
    cycles come in order of their smallest index.
    """
    if not indices:
        yield []
        return

    def grow(cycle, remaining):
        yield cycle, remaining
        for j, i in enumerate(remaining):
            yield from grow(cycle + (i,), remaining[:j] + remaining[j + 1:])

    for cycle, remaining in grow(indices[:1], indices[1:]):
        for others in _cycle_forms(remaining):
            yield [cycle] + others


def _koszul_sign(order: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of reordering wedge factors of these degrees from 0, 1, ... into `order`."""
    sign = 1
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            if order[p] > order[q] and degrees[order[p]] * degrees[order[q]] % 2:
                sign = -sign
    return sign


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
        return chern_form(curvature(connections[0]), h)
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
