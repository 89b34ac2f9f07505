"""Reference routes for the Chern polynomials: the generalized-delta sums.

`algebroids.chern` evaluates c_h by traces: Newton's identities on matrix
powers for `chern_scalar`, and the cycle expansion over S_h with graded signs
for `chern_polarized`.  This module keeps the permutation sums they replaced,
unchanged: every injective index map sigma and every rearrangement kappa of
it, r!/(r - h)! * h! pairs, each with its own Kronecker-delta sign and wedge
chain.  `chern_polarized_reference` is the old `chern_polarized` and
`chern_scalar_reference` the old `chern_scalar`.  Tests require the routes to
agree.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from algebroids.connections import FormMatrix
from algebroids.expressions import Const, ScalarField, balanced_sum, mul
from algebroids.forms import AForm, generalized_delta


def chern_scalar_reference(matrix: np.ndarray, h: int) -> float:
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
