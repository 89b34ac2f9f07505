"""The tree-only form and form-matrix arithmetic that unboxed constants replaced.

`FormMatrix` now runs sums, scalings, products, traces and `d` on number
tables when every coefficient of its operands is a `Const` or a number, and
`AForm`'s sums, scalings and wedges go through the table kernels of `forms`.
These are the routes they replaced, kept verbatim as functions of `self`;
each builds `Const` trees by folding, with the `AForm` arithmetic of this
module, never the kernels of `forms` (but for the `d_A` that `matrix_d`
calls).

- `matrix_add`, `matrix_sub`, `matrix_scale`, `matrix_wedge`, `matrix_trace`
  and `matrix_trace_wedge` guard `FormMatrix.__add__`, `__sub__`, `scale`,
  `wedge`, `trace` and `trace_wedge`.
- `matrix_d` guards `FormMatrix.d`, which runs `forms.d_numbers` on number
  tables: it is `d_A` of each entry, read as `algebroid.d_A` when called,
  so that a bound d_A oracle serves it too.
- `form_add`, `form_sub`, `form_scale`, `form_wedge` and `wedge_into` guard
  `AForm.__add__`, `AForm.__sub__`, `AForm.scale`, `AForm.wedge` and the table
  kernel `forms.wedge_into` (`AForm.wedge_into` before it became that kernel);
  `_add_scaled` is the old `AForm._add_scaled` and `_accumulate` the
  tree-only `forms._accumulate`.

Tests require the same keys in the same order and the same trees, every
constant to the bit; and byte-identical `verify` and `mu` reports with these
functions bound in place of the methods.
"""

from __future__ import annotations

from algebroids import algebroid
from algebroids.connections import FormMatrix
from algebroids.expressions import Const, MINUS_ONE, ScalarField, _folded, add, balanced_sum, mul
from algebroids.forms import MERGES, AForm, _form, _require_same_chart


# --------------------------------------------------------------------------
# AForm
# --------------------------------------------------------------------------


def form_add(self: AForm, other: AForm) -> AForm:
    return _add_scaled(self, other, None)


def form_sub(self: AForm, other: AForm) -> AForm:
    """One pass with the trees of `self + other.scale(-1.0)`."""
    return _add_scaled(self, other, MINUS_ONE)


def _add_scaled(self: AForm, other: AForm, factor: Const | None) -> AForm:
    """self + factor * other (None: 1); a zero summand returns the other
    form itself, whose trees are those the sum would build."""
    _require_same_chart(self.chart, other.chart)
    if self.degree != other.degree:
        raise ValueError("cannot add forms of different degree")
    if not other.table:
        return self
    if not self.table and factor is None:
        return other
    table = dict(self.table)
    for index, coeff in other.table.items():
        _accumulate(table, index, coeff if factor is None else mul(factor, coeff))
    return _form(self.chart, self.degree, table)


def form_scale(self: AForm, factor: ScalarField | float) -> AForm:
    if not isinstance(factor, ScalarField):
        factor = Const(factor)
    return _form(self.chart, self.degree, {k: value for k, c in self.table.items()
                                           if not (value := mul(factor, c)).is_zero()})


def form_wedge(self: AForm, other: AForm) -> AForm:
    """Exterior product (signed shuffle convolution of the tables)."""
    table: dict[tuple[int, ...], ScalarField] = {}
    wedge_into(self, other, table)
    return _form(self.chart, self.degree + other.degree, table)


def wedge_into(self: AForm, other: AForm, table: dict[tuple[int, ...], ScalarField]) -> None:
    """table += self ^ other, with the trees of `acc + self.wedge(other)`:
    each key's signed products f * g (a constant product folded with its
    sign in one step) summed by `balanced_sum`, then added with `__add__`'s
    rule.  Nothing is added when the degree exceeds the rank."""
    _require_same_chart(self.chart, other.chart)
    if self.degree + other.degree > self.chart.rank:
        return
    pending: dict[tuple[int, ...], list[ScalarField]] = {}
    for left, f in self.table.items():
        f_const = type(f) is Const
        merges = MERGES[left]
        for right, g in other.table.items():
            merged = merges[right]
            if merged is None:
                continue
            sign, key = merged
            if f_const and type(g) is Const:
                value = f.value * g.value
                term = _folded(-1.0 * value if sign < 0 else value)
            else:
                term = mul(f, g)
                if sign < 0:
                    term = mul(MINUS_ONE, term)
            pending.setdefault(key, []).append(term)
    for key, terms in pending.items():
        _accumulate(table, key, terms[0] if len(terms) == 1 else balanced_sum(terms))


def _accumulate(table: dict[tuple[int, ...], ScalarField], key: tuple[int, ...],
                term: ScalarField) -> None:
    """table[key] += term, dropping the key when the sum is zero."""
    if type(term) is Const and term.value == 0.0:
        return
    total = table.get(key)
    if total is None:
        table[key] = term  # the tree that add(ZERO, term) builds
        return
    total = add(total, term)
    if type(total) is Const and total.value == 0.0:
        del table[key]
    else:
        table[key] = total


# --------------------------------------------------------------------------
# FormMatrix
# --------------------------------------------------------------------------


def matrix_add(self: FormMatrix, other: FormMatrix) -> FormMatrix:
    self._check_compatible(other)
    return FormMatrix(
        self.chart,
        [[form_add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        self.degree,
    )


def matrix_sub(self: FormMatrix, other: FormMatrix) -> FormMatrix:
    self._check_compatible(other)
    return FormMatrix(
        self.chart,
        [[form_sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        self.degree,
    )


def matrix_scale(self: FormMatrix, factor) -> FormMatrix:
    return FormMatrix(self.chart, [[form_scale(e, factor) for e in row] for row in self.entries],
                      self.degree)


def matrix_d(self: FormMatrix) -> FormMatrix:
    return FormMatrix(self.chart, [[algebroid.d_A(e) for e in row] for row in self.entries],
                      self.degree + 1)


def matrix_wedge(self: FormMatrix, other: FormMatrix) -> FormMatrix:
    """Matrix product with entrywise wedge: (AB)_u^t = A_u^s ^ B_s^t; zero,
    with nothing built, when the degree exceeds the chart rank."""
    self._check_compatible(other, same_degree=False)
    degree = self.degree + other.degree
    zero = self.chart.zero_form(degree)
    if degree > self.chart.rank:
        return FormMatrix(self.chart, [[zero] * self.size] * self.size, degree)
    rows = [[(t, b) for t, b in enumerate(row) if b.table] for row in other.entries]
    out = []
    for row in self.entries:
        tables: dict[int, dict[tuple[int, ...], ScalarField]] = {}
        for a, nonzero in zip(row, rows):
            if a.table:
                for t, b in nonzero:
                    wedge_into(a, b, tables.setdefault(t, {}))
        out.append([_form(self.chart, degree, tables[t]) if t in tables else zero
                    for t in range(self.size)])
    return FormMatrix(self.chart, out, degree)


def matrix_trace(self: FormMatrix) -> AForm:
    table: dict[tuple[int, ...], ScalarField] = {}
    for u in range(self.size):
        for key, coeff in self.entries[u][u].table.items():
            _accumulate(table, key, coeff)
    return _form(self.chart, self.degree, table)


def matrix_trace_wedge(self: FormMatrix, other: FormMatrix) -> AForm:
    """tr(self ^ other), building only the diagonal of the product: the
    products A_u^s ^ B_s^u of nonzero pairs, added by ascending (u, s)."""
    self._check_compatible(other, same_degree=False)
    degree = self.degree + other.degree
    table: dict[tuple[int, ...], ScalarField] = {}
    if degree <= self.chart.rank:
        for u, row in enumerate(self.entries):
            for a, b_row in zip(row, other.entries):
                if a.table and b_row[u].table:
                    wedge_into(a, b_row[u], table)
    return _form(self.chart, degree, table)

