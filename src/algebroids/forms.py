"""Sparse alternating coefficient tables over strictly increasing multi-indices.

A degree-k table maps increasing k-tuples of frame indices (0-based) to scalar
fields; absent keys are zero.  The determinant convention is used throughout:
the stored coefficient *is* the value on the increasing frame tuple, with no
1/k! normalization anywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .expressions import Const, ScalarField, ZERO, add, balanced_sum, mul, residual


def generalized_delta(upper: Iterable[int], lower: Iterable[int]) -> int:
    """Multi-index Kronecker delta: the sign of the permutation upper -> lower.

    Returns +1/-1 when `lower` is an even/odd rearrangement of `upper` with all
    entries distinct, and 0 otherwise (repeats, or different index sets).
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("index tuples must have equal length")
    if len(set(upper)) != len(upper) or len(set(lower)) != len(lower):
        return 0
    if set(upper) != set(lower):
        return 0
    position = {v: i for i, v in enumerate(upper)}
    perm = [position[v] for v in lower]
    return permutation_sign(perm)


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


def check_multi_index(index: tuple[int, ...], rank: int) -> None:
    for a, b in zip(index, index[1:]):
        if a >= b:
            raise ValueError(f"multi-index {index} is not strictly increasing")
    if index and (index[0] < 0 or index[-1] >= rank):
        raise ValueError(f"multi-index {index} out of range for rank {rank}")


class AFormData:
    """Degree-k alternating coefficient table on a rank-s frame."""

    __slots__ = ("degree", "rank", "table")

    def __init__(self, degree: int, rank: int, table: Mapping[tuple[int, ...], ScalarField] | None = None):
        self.degree = degree
        self.rank = rank
        clean: dict[tuple[int, ...], ScalarField] = {}
        if table:
            for index, coeff in table.items():
                index = tuple(index)
                if len(index) != degree:
                    raise ValueError(f"key {index} has wrong length for degree {degree}")
                check_multi_index(index, rank)
                if not coeff.is_zero():
                    clean[index] = coeff
        self.table = clean

    @classmethod
    def zero(cls, degree: int, rank: int) -> "AFormData":
        return cls(degree, rank, None)

    @classmethod
    def basis(cls, index: tuple[int, ...], rank: int, coeff: ScalarField = Const(1.0)) -> "AFormData":
        """The form coeff * b*^{i1} ^ ... ^ b*^{ik} for an increasing tuple."""
        return cls(len(index), rank, {tuple(index): coeff})

    @classmethod
    def function(cls, field: ScalarField, rank: int) -> "AFormData":
        return cls(0, rank, {(): field})

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

    def map_coeffs(self, fn: Callable[[ScalarField], ScalarField]) -> "AFormData":
        return AFormData(self.degree, self.rank, {k: fn(c) for k, c in self.table.items()})

    def __add__(self, other: "AFormData") -> "AFormData":
        if self.degree != other.degree or self.rank != other.rank:
            raise ValueError("cannot add forms of different degree or rank")
        table = dict(self.table)
        for index, coeff in other.table.items():
            table[index] = add(table.get(index, ZERO), coeff)
        return AFormData(self.degree, self.rank, table)

    def __sub__(self, other: "AFormData") -> "AFormData":
        return self + other.scale(Const(-1.0))

    def scale(self, factor: ScalarField | float) -> "AFormData":
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return self.map_coeffs(lambda c: mul(factor, c))

    def wedge(self, other: "AFormData") -> "AFormData":
        if self.rank != other.rank:
            raise ValueError("wedge requires forms on frames of equal rank")
        degree = self.degree + other.degree
        if degree > self.rank:
            return AFormData.zero(degree, self.rank)
        pending: dict[tuple[int, ...], list[ScalarField]] = {}
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
        table = {key: balanced_sum(terms) for key, terms in pending.items()}
        return AFormData(degree, self.rank, table)

    def max_abs(self, points) -> float:
        """Largest coefficient magnitude over the sample points; inf if any is non-finite."""
        return residual(self.table.values(), points)

    def __repr__(self):
        if not self.table:
            return f"AFormData(degree={self.degree}, 0)"
        parts = ", ".join(f"{k}: {c}" for k, c in sorted(self.table.items()))
        return f"AFormData(degree={self.degree}, {{{parts}}})"


def wedge(alpha: AFormData, beta: AFormData) -> AFormData:
    """Exterior product of coefficient tables (signed shuffle convolution)."""
    return alpha.wedge(beta)
