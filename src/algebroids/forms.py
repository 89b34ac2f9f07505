"""Forms on an algebroid chart: `AForm`, a chart, a degree and a sparse table.

A degree-k form maps increasing k-tuples of frame indices (0-based) to scalar
fields; absent keys are zero.  The determinant convention is used throughout:
the stored coefficient *is* the value on the increasing frame tuple, with no
1/k! normalization anywhere.

Sums, scalings and products are table kernels shared with `FormMatrix`:
`_sum_tables`, `_scaled_table` and `wedge_into` (a ^ b added into a table with
the trees of `acc + a.wedge(b)`, each key pair's merge read from `MERGES`).
A table holds trees, or, in an all-constant `FormMatrix`, floats: the values
of the `Const` nodes that the tree route would fold.  These are the only two
constant routes: on trees a constant folds only in the `expressions`
constructors (`add`, `mul`), and on floats each kernel does the IEEE
operations of those folds, in the same order, and drops and re-inserts the
same keys, so boxing a float table into `Const` coefficients gives the tree
route's table bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .expressions import (Const, MINUS_ONE, ONE, ScalarField, ZERO, add, balanced_sum, mul,
                          residual)

if TYPE_CHECKING:
    from .algebroid import AlgebroidChart


def permutation_sign(perm: Iterable[int]) -> int:
    """Parity of the inversions of a sequence of distinct integers: the sign
    of the permutation that sorts it."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def shuffle_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of interleaving two disjoint increasing tuples into sorted order."""
    inversions = 0
    for i in left:
        for j in right:
            if j < i:
                inversions += 1
    return -1 if inversions % 2 else 1


def merge_indices(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge disjoint increasing tuples; None if they share an index."""
    if set(left) & set(right):
        return None
    return shuffle_sign(left, right), tuple(sorted(left + right))


class _Memo(dict):
    """A dict that computes each missing value from its key, once."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


# MERGES[left][right] is merge_indices(left, right): one lookup per key pair.
MERGES = _Memo(lambda left: _Memo(lambda right: merge_indices(left, right)))


def check_multi_index(index: tuple[int, ...], rank: int) -> None:
    for a, b in zip(index, index[1:]):
        if a >= b:
            raise ValueError(f"multi-index {index} is not strictly increasing")
    if index and (index[0] < 0 or index[-1] >= rank):
        raise ValueError(f"multi-index {index} out of range for rank {rank}")


class AForm:
    """A degree-k form on an algebroid chart: a sparse alternating table.

    Keys are increasing k-tuples of frame indices below `chart.rank`; zero
    coefficients are dropped on construction.
    """

    __slots__ = ("chart", "degree", "table")

    def __init__(self, chart: "AlgebroidChart", degree: int,
                 table: Mapping[tuple[int, ...], ScalarField] | None = None):
        self.chart = chart
        self.degree = degree
        clean: dict[tuple[int, ...], ScalarField] = {}
        if table:
            for index, coeff in table.items():
                index = tuple(index)
                if len(index) != degree:
                    raise ValueError(f"key {index} has wrong length for degree {degree}")
                check_multi_index(index, chart.rank)
                if not coeff.is_zero():
                    clean[index] = coeff
        self.table = clean

    def coeff(self, index: tuple[int, ...]) -> ScalarField:
        return self.table.get(tuple(index), ZERO)

    def coeff_signed(self, index: tuple[int, ...]) -> ScalarField:
        """Value on an arbitrary (possibly unsorted) frame tuple: the stored
        coefficient times the sign of the order, `permutation_sign(index)`."""
        base = self.table.get(tuple(sorted(index)))  # stored keys never repeat an index
        if base is None:
            return ZERO
        return mul(MINUS_ONE if permutation_sign(index) < 0 else ONE, base)

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "AForm") -> "AForm":
        return self._add(other, False)

    def __sub__(self, other: "AForm") -> "AForm":
        """One pass with the trees of `self + other.scale(-1.0)`."""
        return self._add(other, True)

    def _add(self, other: "AForm", negate: bool) -> "AForm":
        """self - other when `negate`, else self + other; a zero summand returns
        the other form itself, whose trees are those the sum would build."""
        _require_same_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        table = _sum_tables(self.table, other.table, negate)
        if table is self.table:
            return self
        if table is other.table:
            return other
        return _form(self.chart, self.degree, table)

    def scale(self, factor: ScalarField | float) -> "AForm":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return _form(self.chart, self.degree, _scaled_table(self.table, factor))

    def wedge(self, other: "AForm") -> "AForm":
        """Exterior product (signed shuffle convolution of the tables); zero, with
        nothing built, when the degree exceeds the rank."""
        _require_same_chart(self.chart, other.chart)
        degree = self.degree + other.degree
        table: dict[tuple[int, ...], ScalarField] = {}
        if degree <= self.chart.rank:
            wedge_into(self.table, other.table, table)
        return _form(self.chart, degree, table)

    def max_abs(self, points) -> float:
        """Largest coefficient magnitude over the sample points; inf if any is non-finite."""
        return residual(self.table.values(), points)

    def __repr__(self):
        if not self.table:
            return f"AForm({self.chart.name!r}, degree={self.degree}, 0)"
        parts = ", ".join(f"{k}: {c}" for k, c in sorted(self.table.items()))
        return f"AForm({self.chart.name!r}, degree={self.degree}, {{{parts}}})"


def _trusted_form(chart: "AlgebroidChart", degree: int,
                  table: Mapping[tuple[int, ...], ScalarField]) -> AForm:
    """An `AForm` from keys taken from valid forms of this degree: no key checks.

    Zero coefficients are still dropped.
    """
    return _form(chart, degree, {k: c for k, c in table.items() if not c.is_zero()})


def _form(chart: "AlgebroidChart", degree: int,
          table: dict[tuple[int, ...], ScalarField]) -> AForm:
    """An `AForm` owning `table`: valid keys, no zero coefficient (`_accumulate`'s)."""
    form = AForm.__new__(AForm)
    form.chart = chart
    form.degree = degree
    form.table = table
    return form


def _accumulate(table: dict[tuple[int, ...], ScalarField | float], key: tuple[int, ...],
                term: ScalarField | float) -> None:
    """table[key] += term, dropping the key when the sum is zero (a float
    table's sum is the value of the folded `Const` of a tree table's)."""
    if type(term) is float:
        if term == 0.0:
            return
        total = table.get(key)
        if total is None:
            table[key] = term
            return
        total += term
        if total == 0.0:
            del table[key]
        else:
            table[key] = total
        return
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


def _sum_tables(x: dict, y: dict, negate: bool) -> dict:
    """x - y when `negate`, else x + y: x copied, then each term of y (times -1)
    added by `_accumulate`.  A zero summand returns the other table itself."""
    if not y:
        return x
    if not x and not negate:
        return y
    table = dict(x)
    for key, coeff in y.items():
        if negate:
            coeff = -1.0 * coeff if type(coeff) is float else mul(MINUS_ONE, coeff)
        _accumulate(table, key, coeff)
    return table


def _scaled_table(table: dict, factor: ScalarField | float) -> dict:
    """factor * each coefficient, zero products dropped: a float factor for a
    float table, a field for a tree table."""
    if type(factor) is float:
        return {key: value for key, coeff in table.items()
                if (value := factor * coeff) != 0.0}
    return {key: value for key, coeff in table.items()
            if not (value := mul(factor, coeff)).is_zero()}


def wedge_into(left: dict, right: dict, table: dict) -> None:
    """table += left ^ right for the tables of two forms whose degrees sum to at
    most the rank, with the trees of `acc + a.wedge(b)`: each key's signed
    products f * g summed by `balanced_sum`, then added by `_accumulate`.

    Two float tables multiply and sum their floats; tree tables build
    `mul(f, g)`, times `MINUS_ONE` for a negative merge sign, so a product of
    two constants folds in `mul` through the IEEE operations of the float
    route."""
    pending: dict[tuple[int, ...], list] = {}
    for lkey, f in left.items():
        merges = MERGES[lkey]
        if type(f) is float:
            for rkey, g in right.items():
                merged = merges[rkey]
                if merged is not None:
                    sign, key = merged
                    value = f * g
                    pending.setdefault(key, []).append(-1.0 * value if sign < 0 else value)
            continue
        for rkey, g in right.items():
            merged = merges[rkey]
            if merged is None:
                continue
            sign, key = merged
            term = mul(f, g)
            if sign < 0:
                term = mul(MINUS_ONE, term)
            pending.setdefault(key, []).append(term)
    for key, terms in pending.items():
        if len(terms) == 1:
            total = terms[0]
        elif type(terms[0]) is float:
            total = _float_sum(terms)
        else:
            total = balanced_sum(terms)
        _accumulate(table, key, total)


def _float_sum(terms: list[float]) -> float:
    """`balanced_sum` on floats: zero terms dropped, then adjacent pairs added."""
    terms = [term for term in terms if term != 0.0]
    if not terms:
        return 0.0
    while len(terms) > 1:
        paired = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


def _require_same_chart(a: "AlgebroidChart", b: "AlgebroidChart") -> None:
    if a is not b:
        raise ValueError(f"chart mismatch: {a.name!r} vs {b.name!r}")
