"""Chern polynomials and Bott difference forms on the base chart.

Chern polynomials are computed from traces.  `chern_polarized` is the cycle
expansion over S_h: traces of matrix words, each term with the Koszul sign of
moving its wedge factors from argument order into cycle order (the
`permutation_sign` of the odd-degree factors in cycle order), so it is exact
for arguments of any degree and costs at most h! terms whatever the rank.  The
polarized evaluation keeps the single odd-degree argument first, so all signs
in mixed contractions are pinned by one convention.  Difference forms
Delta(omega0, ..., omegak)c_h are Bott's simplex formula on the base chart:
the link omega0 + sum t_i alpha_i is sliced at the nodes of a Gauss rule on
the k-simplex, exact for the integrand's degree 2(h - k) in t, and its
curvature d(omega0) + sum t_i d(alpha_i) - link ^ link takes each d once.
The rule is numpy's Gauss-Legendre algorithm, computed here by its own steps,
so no command imports `numpy.polynomial`.  `coboundary_check` builds the one
residual form of Bott's cocycle identity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebroid import d_A
from .connections import FormMatrix, _require_connection
from .expressions import Const, ScalarField, balanced_sum, mul
from .forms import AForm, _form, permutation_sign


def chern_polarized(args: Sequence[FormMatrix]) -> AForm:
    """Polarized Chern evaluation c_h(A_1, ..., A_h) on matrices of forms.

    The generalized-delta contraction (1/h!) delta^{sigma...}_{kappa...}
    (A_1)_{sigma_1}^{kappa_1} ^ ... ^ (A_h)_{sigma_h}^{kappa_h}, with the
    arguments wedged in the given order (callers place the odd-degree argument
    first), evaluated as the cycle expansion

        (1/h!) sum over pi in S_h of sgn(pi) eps(pi) prod_{cycles} tr(A_i1 ^ ... ^ A_ik),

    each cycle read (i, pi(i), pi^2(i), ...) from its smallest index.  eps(pi)
    is the Koszul sign of moving the wedge factors from argument order into
    cycle order: only two odd factors passing each other change the sign, so
    it is `permutation_sign` of the odd-degree arguments in cycle order.  The
    sum over all index maps, not only injective ones, is exact: a repeated
    index pairs pi with a transposition of it, and the two terms cancel
    because their wedge order is fixed by argument position.
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
    table = {key: value for key, terms in pending.items()
             if not (value := mul(Const(scale), balanced_sum(terms))).is_zero()}
    return _form(chart, degree, table)


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
    return permutation_sign([i for i in order if degrees[i] % 2])


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact to degree 2n - 1: numpy's
    `leggauss` algorithm step for step (companion eigenvalues of P_n, one Newton
    step, weights 1 / (P_n' P_(n-1)) summing to 2, symmetrization).  The Clenshaw
    sums round as numpy 2.4's `legval` does, so on numpy 2.4 (the oldest release
    checked) and later the rule is numpy's bit for bit; elsewhere it may differ in
    the last bit."""
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scale[:n - 1] * scale[1:n]
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * n + [1.0]
    slope = _legendre_series(nodes, [(n - k) % 2 * (2.0 * k + 1) for k in range(n)])
    nodes -= _legendre_series(nodes, p_n) / slope
    below = _legendre_series(nodes, p_n[1:])
    weights = 1 / (below / np.abs(below).max() * (slope / np.abs(slope).max()))
    weights = (weights + weights[::-1]) / 2
    nodes = (nodes - nodes[::-1]) / 2
    weights *= 2. / weights.sum()
    return (nodes + 1.0) / 2.0, weights / 2.0


def _legendre_series(x: np.ndarray, c: Sequence[float]) -> np.ndarray:
    """sum_k c_k P_k(x) by the Clenshaw recursion of numpy 2.4's `legval`, op for op."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def simplex_rule(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on the k-simplex, n nodes per axis, exact to degree 2n - k.

    Collapsed: t = (u, (1 - u) s) with s on the (k - 1)-simplex, Jacobian (1 - u)^(k - 1).
    The nodes are the rows of an (n^k, k) array; k = 1 is `gauss_legendre_01(n)`.
    """
    us, ws = gauss_legendre_01(n)
    shrink = 1.0 - us
    nodes, weights = np.empty((1, 0)), np.ones(1)
    for m in range(1, k + 1):
        nodes = np.hstack([np.repeat(us, len(weights))[:, None],
                           np.kron(shrink[:, None], nodes)])
        weights = np.kron(ws * shrink ** (m - 1), weights)
    return nodes, weights


def bott_delta(connections: Sequence[FormMatrix], h: int) -> AForm:
    """Bott's difference form Delta(omega0, ..., omegak)c_h by the simplex formula

        (h!/(h - k)!) int_{Delta^k} c_h(alpha_1, ..., alpha_k, Omega_t, ..., Omega_t) dt,

    alpha_i = omega_i - omega0, Omega_t the curvature of omega0 + sum t_i alpha_i:
    degree 2(h - k) in t, exact on `simplex_rule(k, h - floor(k/2))`.  Omega_t and
    the d's, each taken once, are built only when h > k; at h = k the constant
    integrand is evaluated once, times the rule's weight sum.  The degree 2h - k form
    is zero, with nothing built, for k > h, h above the bundle rank or 2h - k
    above the chart rank.  k = 0 is c_h(Omega) and k = 1 the transgression.
    """
    if h < 1:
        raise ValueError(f"c_{h} is not a Chern polynomial: the degree must be at least 1")
    k = len(connections) - 1
    if k > 2 * h:
        raise ValueError(f"Delta on {k + 1} connections has negative degree on c_{h}")
    for conn in connections:
        _require_connection(conn)
    c0 = connections[0]
    degree = 2 * h - k
    if k > h or h > c0.size or degree > c0.chart.rank:
        return c0.chart.zero_form(degree)
    alphas = [c - c0 for c in connections[1:]]
    nodes, weights = simplex_rule(k, h - k // 2)
    total = c0.chart.zero_form(degree)
    if h == k:  # a constant integrand: one evaluation times the simplex volume
        total = total + chern_polarized(alphas).scale(float(weights.sum()))
    else:
        d0, dalphas = c0.d(), [alpha.d() for alpha in alphas]
        for t, w in zip(nodes, weights):
            link, dlink = c0, d0
            for ti, alpha, dalpha in zip(t, alphas, dalphas):
                link = link + alpha.scale(float(ti))
                dlink = dlink + dalpha.scale(float(ti))
            args = alphas + [dlink - link.wedge(link)] * (h - k)
            total = total + chern_polarized(args).scale(float(w))
    return total.scale(math.factorial(h) / math.factorial(h - k))


def coboundary_check(connections: Sequence[FormMatrix], h: int,
                     delta=bott_delta) -> AForm:
    """The residual form of Bott's cocycle identity on k + 1 connections, sum_i (-1)^i
    Delta(..., c_i omitted, ...)c_h - d Delta(c0, ..., ck)c_h.  k = 1 is the
    transgression Delta(c1)c_h - Delta(c0)c_h = d Delta(c0, c1)c_h, and k = 0,
    with no faces, the closedness of c_h(Omega).  Each Delta is `delta(list, h)`,
    so a caller that builds its forms once passes its own."""
    k = len(connections) - 1
    total = connections[0].chart.zero_form(2 * h - k + 1)
    for i in range(k + 1 if k else 0):
        face = delta([c for j, c in enumerate(connections) if j != i], h)
        total = total - face if i % 2 else total + face
    return total - d_A(delta(connections, h))
