"""The vectorized residual reducer and the walks over expression DAGs.

`residual`/`field_maxima` are checked against the scalar tree walk
(`expression_oracle.scalar_eval`) at every point, `ScalarField.diff` against
the recursive tree derivative (`expression_oracle.recursive_diff`), and
`_schedule` and `str` against their recursive versions, and the memoized
`substitute` of `transgression_oracle` for the sharing it keeps.  Random DAGs
share subtrees and use every node kind, built through the folding constructors
as the library builds them.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import expressions
from algebroids.algebroid import AlgebroidChart
from algebroids.connections import FormMatrix
from algebroids.reports import CheckRecord
from algebroids.expressions import (
    Const,
    Coord,
    ONE,
    ZERO,
    add,
    cosine,
    div,
    exponential,
    field_maxima,
    max_abs_finite,
    mul,
    parse_expression,
    power,
    residual,
    sine,
    square_root,
    sub,
)
from algebroids.forms import AForm
from algebroids.sampling import sample_points
from expression_oracle import (recursive_diff, recursive_schedule, recursive_str, same_tree,
                               scalar_eval)
from transgression_oracle import substitute

X, Y = Coord(0, "x"), Coord(1, "y")
POINTS = sample_points(2, 25, 42)
SMALL = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                  allow_infinity=False).map(lambda v: round(v, 3))
# 1e300 * (1e300 * (x + 2)) overflows to inf at every probe (x >= -1), so
# HUGE - HUGE is NaN there; the scalar walk raises on neither.
HUGE = mul(Const(1e300), mul(Const(1e300), add(X, Const(2.0))))
NAN = sub(HUGE, HUGE)
BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}
UNARY = {"sin": sine, "cos": cosine, "exp": exponential, "sqrt": square_root}


MAX_TREE = 400  # the oracles walk trees, which can be exponentially larger than DAGs


def _tree_size(node, sizes: dict) -> int:
    if id(node) not in sizes:
        sizes[id(node)] = 1 + sum(_tree_size(kid, sizes)
                                  for kid in expressions._children(node))
    return sizes[id(node)]


@st.composite
def dags(draw, kinds=("const", "pow", *BINARY, *UNARY), max_nodes=30):
    """A list of roots over a pool of nodes that later nodes reuse."""
    pool = [X, Y, Const(draw(SMALL))]
    sizes: dict = {}
    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.sampled_from(pool))
        try:
            if kind == "const":
                node = Const(draw(SMALL))
            elif kind == "pow":
                node = power(a, draw(st.integers(-3, 4)))
            elif kind in BINARY:
                node = BINARY[kind](a, draw(st.sampled_from(pool)))
            else:
                node = UNARY[kind](a)
        except (ArithmeticError, ValueError):  # constant folding overflowed
            continue
        if _tree_size(node, sizes) <= MAX_TREE:
            pool.append(node)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def _subtree(field):
    """Every node of the tree under `field`, shared subtrees once per use."""
    stack, nodes = [field], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(expressions._children(node))
    return nodes


def _scalar_maximum(field, points) -> float:
    """max |field| by the scalar walk; inf if any node raises or is non-finite."""
    worst = 0.0
    for point in np.asarray(points).tolist():  # Python floats, which raise on overflow
        for node in _subtree(field):
            try:
                value = scalar_eval(node, point)
            except (ArithmeticError, ValueError):
                return math.inf
            if not math.isfinite(value):
                return math.inf
        worst = max(worst, abs(scalar_eval(field, point)))
    return worst


class TestResidualAgainstScalarWalk:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dags())
    def test_field_maxima_match_scalar_walk(self, roots):
        for new, field in zip(field_maxima(roots, POINTS), roots):
            old = _scalar_maximum(field, POINTS)
            if math.isinf(old):
                assert new == math.inf
            else:
                assert new == pytest.approx(old, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dags(kinds=("const", *BINARY)))
    def test_rational_dags_are_bit_identical(self, roots):
        # +, -, *, / round the same in numpy and in Python floats.
        for new, field in zip(field_maxima(roots, POINTS), roots):
            old = _scalar_maximum(field, POINTS)
            assert new == old

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dags())
    def test_each_distinct_node_is_evaluated_once(self, roots):
        calls = []
        original = expressions._eval_node

        def counting(node, values, columns):
            calls.append(id(node))
            return original(node, values, columns)

        expressions._eval_node = counting
        try:
            field_maxima(roots, POINTS)
        finally:
            expressions._eval_node = original
        distinct = {id(node) for root in roots for node in _subtree(root)}
        assert sorted(calls) == sorted(distinct)

    def test_no_points_is_rejected(self):
        # A maximum over no points would let any check pass.
        for reducer in (field_maxima, residual, expressions.evaluate):
            with pytest.raises(ValueError, match="no probe points"):
                reducer([X, ONE], [])
            with pytest.raises(ValueError, match="no probe points"):
                reducer([X], np.zeros((0, 2)))
        assert residual([], POINTS) == 0.0

    def test_constant_field(self):
        assert residual([Const(-2.5)], POINTS) == 2.5

    def test_accepts_a_point_array(self):
        field = parse_expression("x*y - sin(x)", ["x", "y"])
        assert residual([field], np.array(POINTS)) == residual([field], POINTS)

    def test_one_call_leaves_no_garbage_cycles(self):
        field = parse_expression("(x + y)^3 * exp(x) / (2 + cos(y))", ["x", "y"])
        fields = [field, mul(field, field), sub(field, X)]
        gc.collect()
        gc.disable()
        try:
            residual(fields, POINTS)
            field_maxima(fields, POINTS)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNonFiniteFailsClosed:
    def test_division_by_zero_at_a_probe(self):
        field = div(ONE, X)
        assert residual([field], [(0.0, 0.0), (1.0, 0.0)]) == math.inf

    def test_hidden_division_by_zero(self):
        # 1/(1/x) is finite in numpy at x = 0; the scalar walk raises there.
        field = div(ONE, div(ONE, X))
        assert residual([field], [(0.0, 0.0), (1.0, 0.0)]) == math.inf

    def test_square_root_of_negative(self):
        field = square_root(sub(X, Const(2.0)))
        assert residual([field], POINTS) == math.inf

    def test_exponential_of_minus_infinity(self):
        # exp(-inf) is 0 in numpy.
        assert residual([exponential(sub(ZERO, HUGE))], POINTS) == math.inf

    def test_negative_power_of_infinity(self):
        assert residual([power(HUGE, -1)], POINTS) == math.inf

    def test_nan_coefficient_in_a_form(self):
        # max(0.0, nan) used to report 0.0.
        chart = AlgebroidChart("plane", ["x", "y"], ["b0", "b1"], [[ZERO, ZERO]] * 2)
        form = AForm(chart, 1, {(0,): X, (1,): NAN})
        assert form.max_abs(POINTS) == math.inf

    def test_nan_entry_in_a_form_matrix(self):
        chart = AlgebroidChart("plane", ["x", "y"], ["b0"], [[ZERO, ZERO]])
        good = AForm(chart, 1, {(0,): X})
        bad = AForm(chart, 1, {(0,): NAN})
        matrix = FormMatrix(chart, [[good, good], [good, bad]], 1)
        assert matrix.max_abs(POINTS) == math.inf
        ok = FormMatrix(chart, [[good, good], [good, good]], 1)
        assert ok.max_abs(POINTS) == pytest.approx(max(abs(p[0]) for p in POINTS))

    def test_max_abs_finite(self):
        assert max_abs_finite(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
        assert max_abs_finite(np.array([1.0, np.nan])) == math.inf
        assert max_abs_finite(np.array([-np.inf])) == math.inf
        assert max_abs_finite(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("residual_value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("tolerance", [1e-9, math.inf, math.nan])
    def test_non_finite_residual_fails_whatever_the_tolerance(self, residual_value,
                                                              tolerance):
        record = CheckRecord("check", residual_value, tolerance, 1)
        assert record.passed is False
        assert record.to_dict()["passed"] is False
        assert CheckRecord("check", 0.0, 1e-9, 1).passed


class TestSubsKeepsSharing:
    def test_unchanged_subtrees_are_kept(self):
        shared = mul(sine(Y), Y)
        field = add(mul(X, shared), shared)
        (new,) = substitute(field, 0, [2.0])
        assert new.left.right is shared and new.right is shared
        assert substitute(field, 2, [1.0])[0] is field

    def test_shared_subtree_is_copied_once(self):
        shared = add(X, Y)
        field = mul(shared, shared)
        (new,) = substitute(field, 1, [3.0])
        assert new.left is new.right
        assert str(new) == "(x + 3)*(x + 3)"


class TestDiffOverDistinctNodes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dags())
    def test_diff_builds_the_recursive_trees(self, roots):
        for root in roots:
            for j in (0, 1):
                new, old = root.diff(j), recursive_diff(root, j)
                assert same_tree(new, old)

    def test_cost_is_linear_in_distinct_nodes(self):
        # As a tree, f has about 2^60 nodes; as a DAG, 121.
        field = X
        for _ in range(60):
            field = mul(sine(field), field)
        distinct = len(expressions._schedule([field])[0])
        assert len(expressions._schedule([field.diff(0)])[0]) <= 4 * distinct


class TestWalksWithoutRecursion:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dags())
    def test_schedule_matches_the_recursive_registration(self, roots):
        order, pending = expressions._schedule(roots)
        old_order, old_pending = recursive_schedule(roots)
        assert [id(node) for node in order] == [id(node) for node in old_order]
        assert pending == old_pending

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dags())
    def test_text_matches_the_recursive_printer(self, roots):
        for root in roots:
            assert str(root) == recursive_str(root)

    def test_text_matches_the_recursive_printer_on_every_pair_of_kinds(self):
        e = expressions
        kids = [Const(-2.0), X, e.Add(X, Y), e.Sub(X, Y), e.Mul(X, Y), e.Div(X, Y),
                e.Pow(X, 2), e.Sqrt(X)]
        for a in kids:
            for b in kids:
                for node in (e.Add(a, b), e.Sub(a, b), e.Mul(a, b), e.Div(a, b),
                             e.Pow(a, -3), e.Cos(a)):
                    assert str(node) == recursive_str(node)

    def test_depth_is_not_bounded_by_the_interpreter_stack(self):
        # 20000 levels, twenty times Python's default recursion limit.
        term = mul(X, Y)
        field = X
        for _ in range(20000):
            field = add(field, term)
        assert len(expressions._schedule([field])[0]) == 20003
        assert str(field) == " + ".join(["x"] + ["x*y"] * 20000)
        slope = field.diff(0)  # 1 + y + ... + y
        assert str(slope) == " + ".join(["1"] + ["y"] * 20000)
        expected = np.abs(1.0 + 20000.0 * POINTS[:, 1]).max()
        assert field_maxima([slope], POINTS)[0] == pytest.approx(expected, rel=1e-9)
