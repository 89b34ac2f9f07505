"""Forms on an algebroid chart: `AForm`, a chart, a degree and a sparse table.

A degree-k form maps increasing k-tuples of frame indices (0-based) to scalar
fields; absent keys are zero.  The determinant convention is used throughout:
the stored coefficient *is* the value on the increasing frame tuple, with no
1/k! normalization anywhere.

Sums, scalings, products and the differential on a constant chart are table
kernels shared with `FormMatrix`: `_sum_tables`, `_scaled_table`, `wedge_into`
(a ^ b added into a table with the trees of `acc + a.wedge(b)`, each key
pair's merge read from `MERGES`) and `d_numbers`.  A table holds trees or
numbers, never both.  A number is a float, the value of the `Const` node
that the tree route would fold, or an (N,) float64 array, the values at a
run's N probe points of a tree that is not a `Const`.  Trees and number
tables are the only two routes: on trees a constant folds only in the
`expressions` constructors (`add`, `mul`), and on numbers each kernel does
the IEEE operations of those folds and of the walk that evaluates the
trees, in the same order, and drops and re-inserts the same keys.  The zero
rule is `add`'s and `mul`'s: a number is zero only when it is the float 0.0,
and an array, like a tree that is not a `Const`, is never zero, so no
kernel drops it (`_plus`, `_times`).  Boxing a float table into `Const`
coefficients gives the tree route's table bit for bit, and each array is
the tree route's values at the probe points bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .expressions import Const, MINUS_ONE, ONE, ScalarField, ZERO, balanced_sum, mul, residual

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
    # `permutation_sign(left + right)` gives the same sign at 0.6-1.8 us a call
    # against 0.16-0.37 us here (keys of 1 to 3 indices), and every `MERGES`
    # miss pays it: about 0.5 ms more of a 17 ms `mu sa3 --h 2`, no line saved.
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
    coefficients are dropped on construction.  The kernels also run on a
    form whose table holds numbers (see the module docstring), built by
    `_form`: `+`, `-`, `wedge`, `max_abs` and `algebroid.d_A`.
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
        """Largest coefficient magnitude over the sample points, of trees or
        numbers (`residual`); inf if any is non-finite."""
        return residual(self.table.values(), points)

    def __repr__(self):
        if not self.table:
            return f"AForm({self.chart.name!r}, degree={self.degree}, 0)"
        parts = ", ".join(f"{k}: {c}" for k, c in sorted(self.table.items()))
        return f"AForm({self.chart.name!r}, degree={self.degree}, {{{parts}}})"


def _form(chart: "AlgebroidChart", degree: int,
          table: dict[tuple[int, ...], ScalarField]) -> AForm:
    """An `AForm` owning `table`: valid keys, no zero coefficient (`_accumulate`'s)."""
    form = AForm.__new__(AForm)
    form.chart = chart
    form.degree = degree
    form.table = table
    return form


def _accumulate(table: dict, key: tuple[int, ...], term) -> None:
    """table[key] += term, dropping the key when the sum is zero (a number
    table's sum is the value of the folded `Const` or the values of the tree
    of a tree table's)."""
    if _is_zero(term):
        return
    total = table.get(key)
    if total is None:
        table[key] = term  # the tree that add(ZERO, term) builds
    elif _is_zero(total := total + term):  # `add` on trees, through `ScalarField.__add__`
        del table[key]
    else:
        table[key] = total


def _is_zero(value) -> bool:
    """A number table's zero, the float 0.0, or a tree table's, a folded `Const`
    of value 0; an array is never zero."""
    return value == 0.0 if type(value) is float else type(value) is Const and value.value == 0.0


def _plus(a, b):
    """a + b on numbers by `add`'s rule: a zero summand gives the other one."""
    if type(a) is float and a == 0.0:
        return b
    if type(b) is float and b == 0.0:
        return a
    return a + b


def _times(a, b):
    """a * b by `mul`'s rule: on trees `mul`; on numbers the IEEE product,
    except that a float 0.0 times an array is 0.0, as `mul` folds a tree
    times `ZERO` to `ZERO` (a float times a float folds, NaN included)."""
    if type(a) is not type(b) and (_is_zero(a) or _is_zero(b)):
        return 0.0
    return a * b


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
            coeff = mul(MINUS_ONE, coeff) if isinstance(coeff, ScalarField) else -1.0 * coeff
        _accumulate(table, key, coeff)
    return table


def _scaled_table(table: dict, factor) -> dict:
    """factor * each coefficient, zero products dropped: a float factor for a
    number table (`_times`), a field for a tree table (`mul`, through
    `ScalarField.__mul__`)."""
    return {key: value for key, coeff in table.items()
            if not _is_zero(value := _times(factor, coeff))}


def wedge_into(left: dict, right: dict, table: dict) -> None:
    """table += left ^ right for the tables of two forms whose degrees sum to at
    most the rank, with the trees of `acc + a.wedge(b)`: each key's signed
    products f * g summed by `balanced_sum`, then added by `_accumulate`.

    Two number tables multiply and sum their numbers (`_number_sum`); tree
    tables build `mul(f, g)`, times `MINUS_ONE` for a negative merge sign, so a
    product of two constants folds in `mul` through the IEEE operations of the
    number route."""
    pending: dict[tuple[int, ...], list] = {}
    for lkey, f in left.items():
        merges = MERGES[lkey]
        if not isinstance(f, ScalarField):
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
        elif isinstance(terms[0], ScalarField):
            total = balanced_sum(terms)
        else:
            total = _number_sum(terms)
        _accumulate(table, key, total)


def _number_sum(terms: list):
    """`balanced_sum` on numbers: zero terms dropped, then adjacent pairs added
    by `_plus`, whose zero rule is that of `add` on a pair that cancelled."""
    terms = [term for term in terms if not _is_zero(term)]
    if not terms:
        return 0.0
    while len(terms) > 1:
        paired = [_plus(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


def d_numbers(chart: "AlgebroidChart", table: dict) -> dict:
    """The table of d_A of a number table on a constant chart (`chart.constant`).

    There d_A has no anchor term and every bracket term of an output key has
    its `signed` product in `chart.cartan`, so each key in `chart.reach` of
    an input key sums signed * coefficient in d_A's order, by `_plus`, and is
    dropped when the sum is zero.  Each sign is +-1, so the products are
    those of d_A's trees to the bit."""
    keys = set()
    for key in table:
        keys.update(chart.reach[key])
    out = {}
    for index in sorted(keys):
        total = 0.0
        for source, _, _, _, signed in chart.cartan[index]:
            base = table.get(source)
            if base is not None:
                total = _plus(total, signed * base)
        if not _is_zero(total):
            out[index] = total
    return out


def _boxed(table: dict) -> dict:
    """A float table with its values as `Const` nodes.  Probe values have no
    tree to box, so a table that holds an array is a ValueError."""
    boxed = {key: Const(value) for key, value in table.items() if type(value) is float}
    if len(boxed) < len(table):
        raise ValueError("a table of probe values cannot be boxed into Const coefficients")
    return boxed


def _require_same_chart(a: "AlgebroidChart", b: "AlgebroidChart") -> None:
    if a is not b:
        raise ValueError(f"chart mismatch: {a.name!r} vs {b.name!r}")
