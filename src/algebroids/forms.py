"""Forms on an algebroid chart: `AForm`, a chart, a degree and a sparse table.

A degree-k form maps increasing k-tuples of frame indices (0-based) to scalar
fields; absent keys are zero.  The determinant convention is used throughout:
the stored coefficient *is* the value on the increasing frame tuple, with no
1/k! normalization anywhere.

Products go through `AForm.wedge_into`: a ^ b added into a table with the
trees of `acc + a.wedge(b)`, each key pair's merge read from `MERGES`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .expressions import (Const, MINUS_ONE, ONE, ScalarField, ZERO, _folded, add, balanced_sum,
                          mul, residual)

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
        """Value on an arbitrary (possibly unsorted) frame tuple.

        For (m,) + rest with `rest` increasing, the sign of that order is the
        parity of m's position in the sorted tuple.  Other orders count
        inversions.
        """
        index = tuple(index)
        ordered = tuple(sorted(index))
        base = self.table.get(ordered)  # stored keys never repeat an index
        if base is None:
            return ZERO
        position = ordered.index(index[0]) if index else 0
        if ordered[:position] + ordered[position + 1:] == index[1:]:
            odd = position % 2
        else:
            odd = permutation_sign([ordered.index(v) for v in index]) < 0
        return mul(MINUS_ONE if odd else ONE, base)

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "AForm") -> "AForm":
        return self._add_scaled(other, None)

    def __sub__(self, other: "AForm") -> "AForm":
        """One pass with the trees of `self + other.scale(-1.0)`."""
        return self._add_scaled(other, MINUS_ONE)

    def _add_scaled(self, other: "AForm", factor: Const | None) -> "AForm":
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

    def scale(self, factor: ScalarField | float) -> "AForm":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return _trusted_form(self.chart, self.degree,
                             {k: mul(factor, c) for k, c in self.table.items()})

    def wedge(self, other: "AForm") -> "AForm":
        """Exterior product (signed shuffle convolution of the tables)."""
        table: dict[tuple[int, ...], ScalarField] = {}
        self.wedge_into(other, table)
        return _form(self.chart, self.degree + other.degree, table)

    def wedge_into(self, other: "AForm", table: dict[tuple[int, ...], ScalarField]) -> None:
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


def _require_same_chart(a: "AlgebroidChart", b: "AlgebroidChart") -> None:
    if a is not b:
        raise ValueError(f"chart mismatch: {a.name!r} vs {b.name!r}")
