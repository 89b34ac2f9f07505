"""Forms on an algebroid chart: `AForm`, a chart, a degree and a sparse table.

A degree-k form maps increasing k-tuples of frame indices (0-based) to scalar
fields; absent keys are zero.  The determinant convention is used throughout:
the stored coefficient *is* the value on the increasing frame tuple, with no
1/k! normalization anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

from .expressions import Const, ScalarField, ZERO, add, balanced_sum, mul, residual

if TYPE_CHECKING:
    from .algebroid import AlgebroidChart


def permutation_sign(perm: Iterable[int]) -> int:
    """Parity of a permutation given as a list of positions."""
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


@lru_cache(maxsize=None)
def merge_indices(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge disjoint increasing tuples; None if they share an index."""
    if set(left) & set(right):
        return None
    return shuffle_sign(left, right), tuple(sorted(left + right))


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
        """Value on an arbitrary (possibly unsorted) frame tuple.

        `d_A` asks for (m,) + rest with `rest` increasing; the sign of that
        order is the parity of m's position in the sorted tuple.  Other orders
        count inversions.
        """
        index = tuple(index)
        ordered = tuple(sorted(index))
        base = self.table.get(ordered)  # stored keys never repeat an index
        if base is None:
            return ZERO
        position = ordered.index(index[0]) if index else 0
        if ordered[:position] + ordered[position + 1:] == index[1:]:
            sign = -1.0 if position % 2 else 1.0
        else:
            sign = float(permutation_sign([ordered.index(v) for v in index]))
        return mul(Const(sign), base)

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "AForm") -> "AForm":
        _require_same_chart(self.chart, other.chart)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        table = dict(self.table)
        for index, coeff in other.table.items():
            _accumulate(table, index, coeff)
        return _trusted_form(self.chart, self.degree, table)

    def __sub__(self, other: "AForm") -> "AForm":
        return self + other.scale(Const(-1.0))

    def scale(self, factor: ScalarField | float) -> "AForm":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return _trusted_form(self.chart, self.degree,
                             {k: mul(factor, c) for k, c in self.table.items()})

    def wedge(self, other: "AForm") -> "AForm":
        """Exterior product (signed shuffle convolution of the tables)."""
        pending: dict[tuple[int, ...], list[ScalarField]] = {}
        self.wedge_terms(other, pending)
        table = {key: balanced_sum(terms) for key, terms in pending.items()}
        return _trusted_form(self.chart, self.degree + other.degree, table)

    def wedge_terms(self, other: "AForm",
                    pending: dict[tuple[int, ...], list[ScalarField]]) -> None:
        """Append the signed products f * g of `self ^ other` to `pending[key]`.

        Nothing is appended when the degree of the product exceeds the rank.
        """
        _require_same_chart(self.chart, other.chart)
        if self.degree + other.degree > self.chart.rank:
            return
        for left, f in self.table.items():
            for right, g in other.table.items():
                merged = merge_indices(left, right)
                if merged is None:
                    continue
                sign, key = merged
                term = mul(f, g)
                if sign < 0:
                    term = mul(Const(-1.0), term)
                pending.setdefault(key, []).append(term)

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
    form = AForm.__new__(AForm)
    form.chart = chart
    form.degree = degree
    form.table = {index: coeff for index, coeff in table.items() if not coeff.is_zero()}
    return form


def _accumulate(table: dict[tuple[int, ...], ScalarField], key: tuple[int, ...],
                term: ScalarField) -> None:
    """table[key] += term, dropping the key when the sum is zero."""
    if term.is_zero():
        return
    total = add(table.get(key, ZERO), term)
    if total.is_zero():
        table.pop(key, None)
    else:
        table[key] = total


def _require_same_chart(a: "AlgebroidChart", b: "AlgebroidChart") -> None:
    if a is not b:
        raise ValueError(f"chart mismatch: {a.name!r} vs {b.name!r}")
