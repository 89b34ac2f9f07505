"""Number tables against the tree route at probe points.

On a constant chart (no anchored slot, constant structure functions) a table
of numbers stands for a table of trees: a float for a `Const`, and an (N,)
array for the values of any other tree at the N probe points, as
`cli._probe_values` hands random data over.  The number kernels of `forms`
(the sum, difference and scaling of tables, `wedge_into`, `_number_sum` and
`d_numbers`), reached through `AForm`, `FormMatrix` and `d_A`, must give the
tree route's keys in the same order, each float bit for bit the value of the
tree route's `Const`, and each array bit for bit the tree route's values at
the points.  The tree route is the oracles': `cartan_oracle.d_A` and the
tree-only arithmetic of `matrix_oracle`.  NaNs compare as NaNs, whatever
their payload.
"""

from itertools import combinations, permutations
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cartan_oracle
import matrix_oracle
from algebroids.algebroid import AlgebroidChart, d_A
from algebroids.cli import _probe_values
from algebroids.connections import FormMatrix
from algebroids.expressions import ZERO, Const, balanced_sum, evaluate, parse_expression
from algebroids.fixtures import resolve_fixture
from algebroids.forms import AForm, _form, _number_sum, _scaled_table
from algebroids.sampling import sample_points

COORDS = ("x", "y")
POINTS = np.vstack([sample_points(2, 4, 42), [[0.0, 1.0]]])
# Constants (units, cancelling pairs, tiny ones whose products underflow and
# huge ones whose products overflow) and fields whose values need a walk.
TEXTS = ["1", "-1", "2", "-2", "0.5", "1e-200", "1e300",
         "x", "y", "x*y - 2", "x^2 + 3*y", "2*x", "-x", "1e300*y"]
STRUCTURE = [1.0, -1.0, 2.0, -0.5, 3.0, sqrt(2.0)]
FACTORS = [0.0, 1.0, -1.0, 2.0, -0.5, 1e-200, 1e300]


@st.composite
def constant_charts(draw):
    """A chart of rank 1-6 over (x, y) with zero anchor and constant brackets;
    most break the Jacobi identity."""
    rank = draw(st.integers(1, 6))
    brackets = {}
    for pair in combinations(range(rank), 2):
        targets = draw(st.lists(st.integers(0, rank - 1), max_size=2, unique=True))
        if targets:
            brackets[pair] = {m: Const(draw(st.sampled_from(STRUCTURE))) for m in targets}
    return AlgebroidChart("constant", COORDS, [f"b{i}" for i in range(rank)],
                          [[ZERO, ZERO] for _ in range(rank)], brackets)


def _tree_form(data, chart, degree: int) -> AForm:
    keys = list(combinations(range(chart.rank), degree))
    fields = st.sampled_from(TEXTS).map(lambda text: parse_expression(text, COORDS))
    return AForm(chart, degree, data.draw(st.dictionaries(st.sampled_from(keys), fields,
                                                          max_size=5)))


def _bits(value) -> bytes:
    """The float64 bytes of a number, every NaN the same NaN."""
    value = np.asarray(value, dtype=float)
    return np.where(np.isnan(value), np.nan, value).tobytes()


def _assert_numbers_match(numbers: dict, trees: dict) -> None:
    """The tree table's keys in the same order; a float for each `Const`, with
    its bits, and for each other tree an array of its values at `POINTS`."""
    assert list(numbers) == list(trees)
    for key, tree in trees.items():
        number = numbers[key]
        if type(tree) is Const:
            assert type(number) is float and _bits(number) == _bits(tree.value), key
        else:
            assert type(number) is np.ndarray, key
            assert _bits(number) == _bits(evaluate([tree], POINTS)[0]), key


def _assert_matrices_match(numbers: FormMatrix, trees: FormMatrix) -> None:
    assert numbers._numbers and numbers.degree == trees.degree
    for number_row, tree_row in zip(numbers._rows, trees.entries, strict=True):
        for table, entry in zip(number_row, tree_row, strict=True):
            _assert_numbers_match(table, entry.table)


def _tree_d(matrix: FormMatrix) -> FormMatrix:
    return FormMatrix(matrix.chart, [[cartan_oracle.d_A(e) for e in row]
                                     for row in matrix.entries], matrix.degree + 1)


def _assert_kernels_match(chart, data) -> None:
    """d, wedge, sum, difference and scaling of random forms and 1x1 or 2x2
    matrices, on number tables and on trees, and a matrix's values on frames.
    The number route runs under numpy's errstate as the CLI runs it: an
    overflow is an inf, as in a walk."""
    low, high = (data.draw(st.integers(0, min(3, chart.rank))) for _ in range(2))
    a, c = _tree_form(data, chart, low), _tree_form(data, chart, low)
    b = _tree_form(data, chart, high)
    factor = data.draw(st.sampled_from(FACTORS))
    d_a = cartan_oracle.d_A(a)
    size = data.draw(st.integers(1, 2))
    forms = [[[_tree_form(data, chart, degree) for _ in range(size)] for _ in range(size)]
             for degree in (low, low, high)]
    t, t2, u = (FormMatrix(chart, rows, degree) for rows, degree in zip(forms, (low, low, high)))
    with np.errstate(all="ignore"):
        na, nb, nc = _probe_values(POINTS, [a, b, c])
        d_na = d_A(na)
        n, n2, m = (FormMatrix(chart, [_probe_values(POINTS, row) for row in rows], degree)
                    for rows, degree in zip(forms, (low, low, high)))
        forms_new = [d_na, d_A(d_na), na.wedge(nb), na + nc, na - nc,
                     _form(chart, low, _scaled_table(na.table, factor))]
        matrices_new = [n.d(), n.d().d(), n.wedge(m), n + n2, n - n2, n.scale(factor),
                        n.d().wedge(m) - n.wedge(m.d())]
    forms_old = [d_a, cartan_oracle.d_A(d_a), matrix_oracle.form_wedge(a, b),
                 matrix_oracle.form_add(a, c), matrix_oracle.form_sub(a, c),
                 matrix_oracle.form_scale(a, factor)]
    for new, old in zip(forms_new, forms_old, strict=True):
        assert new.degree == old.degree
        _assert_numbers_match(new.table, old.table)
    oracle = matrix_oracle
    matrices_old = [_tree_d(t), _tree_d(_tree_d(t)), oracle.matrix_wedge(t, u),
                    oracle.matrix_add(t, t2), oracle.matrix_sub(t, t2),
                    oracle.matrix_scale(t, factor),
                    oracle.matrix_sub(oracle.matrix_wedge(_tree_d(t), u),
                                      oracle.matrix_wedge(t, _tree_d(u)))]
    for new, old in zip(matrices_new, matrices_old, strict=True):
        _assert_matrices_match(new, old)
    # Values on frames in any order, and on one that repeats an index.
    frames = [frame for key in combinations(range(chart.rank), low)
              for frame in permutations(key)][:8] + [(0,) * low]
    values = evaluate([entry.coeff_signed(frame) for frame in frames
                       for row in t.entries for entry in row], POINTS)
    assert _bits(n.eval_on(frames, POINTS)) == _bits(values.reshape(
        len(frames), size, size, len(POINTS)).transpose(0, 3, 1, 2))


@given(constant_charts(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_number_kernels_match_the_tree_route(chart, data):
    _assert_kernels_match(chart, data)


@pytest.mark.parametrize("name", ["broken_jacobi", "so3", "solvable2d"])
@given(data=st.data())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_number_kernels_match_on_bundled_constant_charts(name, data):
    # broken_jacobi's chart fails the Jacobi identity, so d_A^2 is not zero.
    # d_A never differentiates on a constant chart, so the fields of
    # `TEXTS`, over (x, y), serve on a chart over any coordinates.
    for chart in resolve_fixture(name).charts.values():
        assert chart.constant
        _assert_kernels_match(chart, data)


def _number(tree):
    return tree.value if type(tree) is Const else evaluate([tree], POINTS)[0]


# Terms of one key of a product: cancelling constants, and +-0.0 as a product
# of tiny constants underflows to.
_TERMS = ["1", "-1", "2", "-2", "1e-200", ZERO, Const(-0.0), "x", "y", "2*x",
          "x*y - 2", "1e300*y"]


@given(st.lists(st.sampled_from(_TERMS), min_size=2, max_size=9))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_number_sums_pair_as_balanced_sum(terms):
    # The number route drops the zero terms that `balanced_sum` drops, and
    # keeps, as a term of the next round, each pair that cancelled.
    trees = [term if type(term) is Const else parse_expression(term, COORDS)
             for term in terms]
    _assert_numbers_match({(): _number_sum([_number(tree) for tree in trees])},
                          {(): balanced_sum(trees)})


def test_a_cancelled_pair_keeps_its_place_in_the_pairing():
    # 1 - 1 cancels in the first round and its 0.0 is paired on with x + x,
    # so the sum is (x + x) + ((x + 1e-16 x) + 3e-16 x) = 3 at x = 1.  A route
    # that dropped that zero would pair ((x + x) + (x + 1e-16 x)) + 3e-16 x,
    # which rounds to 3 + 2^-51.
    x = parse_expression("x", COORDS)
    trees = [Const(1.0), Const(-1.0), x, x, x, parse_expression("1e-16*x", COORDS),
             parse_expression("3e-16*x", COORDS)]
    point = np.array([[1.0, 0.0]])
    numbers = [tree.value if type(tree) is Const else evaluate([tree], point)[0]
               for tree in trees]
    total = _number_sum(numbers)
    assert _bits(total) == _bits(evaluate([balanced_sum(trees)], point)[0])
    assert total[0] == 3.0
    assert ((1.0 + 1.0) + (1.0 + 1e-16)) + 3e-16 == 3.0 + 2.0 ** -51


def test_probe_values_are_never_boxed():
    # A number matrix that holds arrays has no trees for `entries` to box;
    # its residual and its values on frames are read from the numbers.
    chart = AlgebroidChart("flat", COORDS, ["b0", "b1"], [[ZERO, ZERO], [ZERO, ZERO]])
    form = AForm(chart, 1, {(0,): parse_expression("x", COORDS), (1,): Const(-2.0)})
    [numbers] = _probe_values(POINTS, [form])
    matrix = FormMatrix(chart, [[numbers]], 1)
    with pytest.raises(ValueError, match="probe values"):
        matrix.entries
    with pytest.raises(ValueError, match="probe values"):
        matrix.trace()
    assert matrix.max_abs(POINTS) == numbers.max_abs(POINTS) == form.max_abs(POINTS)
    assert _bits(matrix.eval_on([(1, 0)], POINTS)) == _bits(
        FormMatrix(chart, [[form]], 1).eval_on([(1, 0)], POINTS))
