"""The per-call Cartan differential that the per-chart stencils replaced.

- `d_A` guards `algebroid.d_A`.  It is that function before the bracket
  terms of each output key were read from `AlgebroidChart.cartan`: every
  call re-derives, for every reached key, the rest tuples, the bracket
  lookups of its pairs, the sorted source keys and their parities, reads
  the form through `AForm.coeff_signed`, and reads a coefficient on every
  slot of a key, anchored or not.  Tests require the same keys in the same
  order and the same trees, on random charts, on jets, and through
  `verify --suite all` on every bundled fixture.
- `_reached_keys` is the key set `d_A` visits, the anchor half and the
  bracket half together; `AlgebroidChart.reach` now holds the bracket half
  per input key.
"""

from __future__ import annotations

from algebroids.algebroid import _frame_derivative
from algebroids.expressions import Const, ScalarField, ZERO, add, mul
from algebroids.forms import AForm, _form


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
    return _form(chart, k + 1, table)


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
