"""Parser and exact-differentiation tests for the coefficient DSL."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids.expressions import (
    ONE,
    ZERO,
    Add,
    Const,
    Coord,
    MAX_NESTING,
    Mul,
    Sub,
    ExpressionError,
    _format_number,
    add,
    balanced_sum,
    cosine,
    div,
    evaluate,
    exponential,
    mul,
    parse_expression,
    power,
    sine,
    square_root,
    sub,
)
from expression_oracle import plain_add, plain_mul, plain_sub, same_tree, scalar_eval
from transgression_oracle import substitute, tau_degree

COORDS = ["x", "y"]

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                   allow_infinity=False)


def test_parse_zero_constant():
    field = parse_expression("0", COORDS)
    assert scalar_eval(field, (0.7, -0.3)) == 0.0


def test_parse_polynomial_evaluation():
    field = parse_expression("x^2*y", COORDS)
    assert scalar_eval(field, (2.0, 3.0)) == pytest.approx(12.0)


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionError, match="unknown identifier 'q'"):
        parse_expression("sin(x)+q", COORDS)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x + * y", COORDS)
    assert err.value.position == 4


def test_unary_minus_and_powers():
    field = parse_expression("-x^2 + 2*x", COORDS)
    assert scalar_eval(field, (3.0, 0.0)) == pytest.approx(-3.0)
    inv = parse_expression("x^-2", COORDS)
    assert scalar_eval(inv, (2.0, 0.0)) == pytest.approx(0.25)


def test_functions_and_division():
    field = parse_expression("sin(x)*cos(y) + exp(x)/2", COORDS)
    expected = math.sin(0.5) * math.cos(-1.0) + math.exp(0.5) / 2.0
    assert scalar_eval(field, (0.5, -1.0)) == pytest.approx(expected)


def test_division_by_zero_is_an_evaluation_error():
    field = parse_expression("1/x", COORDS)
    with pytest.raises(ZeroDivisionError):
        scalar_eval(field, (0.0, 0.0))


def test_derivative_of_product_by_hand():
    field = parse_expression("x^2*y", COORDS)
    assert scalar_eval(field.diff(0), (2.0, 3.0)) == pytest.approx(12.0)


def test_derivative_of_constant_is_zero():
    assert scalar_eval(Const(4.5).diff(0), (1.0, 1.0)) == 0.0


def test_derivative_of_sine_at_origin():
    field = parse_expression("sin(x)", COORDS)
    assert scalar_eval(field.diff(0), (0.0, 0.0)) == pytest.approx(1.0)


def test_quotient_and_chain_rules():
    field = parse_expression("exp(2*x)/(1+x^2)", COORDS)
    x = 0.4

    def reference(t):
        return math.exp(2 * t) / (1 + t * t)

    h = 1e-6
    numeric = (reference(x + h) - reference(x - h)) / (2 * h)
    assert scalar_eval(field.diff(0), (x, 0.0)) == pytest.approx(numeric, rel=1e-8)


@given(finite, finite, finite)
@settings(max_examples=60, deadline=None)
def test_product_rule_pointwise(px, py, shift):
    f = parse_expression("x^2 + sin(y)", COORDS)
    g = parse_expression("cos(x)*y + 2", COORDS)
    product = f * g
    point = (px, py + shift)
    lhs = scalar_eval(product.diff(0), point)
    rhs = scalar_eval(f.diff(0) * g + f * g.diff(0), point)
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(px, py):
    f = parse_expression("exp(x*y) + x^3*y^2 - cos(x+y)", COORDS)
    point = (px / 3.0, py / 3.0)
    one = scalar_eval(f.diff(0).diff(1), point)
    two = scalar_eval(f.diff(1).diff(0), point)
    assert one == pytest.approx(two, rel=1e-12, abs=1e-12)


def test_substitution_folds_constants():
    f = parse_expression("x*y + y^2", COORDS)
    (g,) = substitute(f, 1, [2.0])
    assert scalar_eval(g, (3.0, 999.0)) == pytest.approx(10.0)


def test_polynomial_degree_tracking():
    f = parse_expression("x^3*y + x", COORDS)
    assert tau_degree(f, 0) == 3
    assert tau_degree(f, 1) == 1
    assert tau_degree(parse_expression("sin(x)", COORDS), 0) is None
    assert tau_degree(parse_expression("sin(y)", COORDS), 0) == 0


def test_balanced_sum_matches_sequential_sum():
    terms = [parse_expression(f"x^{k}", COORDS) for k in range(1, 40)]
    total = balanced_sum(terms)
    expected = sum(0.9 ** k for k in range(1, 40))
    assert scalar_eval(total, (0.9, 0.0)) == pytest.approx(expected)


def test_balanced_sum_of_one_term_is_that_term():
    term = parse_expression("x*y", COORDS)
    assert balanced_sum([term]) is term
    assert balanced_sum([Const(-0.0)]) is ZERO
    assert balanced_sum([Const(0.0)]) is ZERO


def test_exact_zero_folds_to_the_shared_node():
    assert add(ONE, Const(-1.0)) is ZERO
    assert add(ZERO, ZERO) is ZERO
    for value in (0.0, -0.0, 2.5, -3.0, 1e300):
        x = Const(value)
        assert sub(x, x) is ZERO
    assert mul(Const(0.0), Const(4.0)) is ZERO
    assert div(Const(0.0), Const(2.0)) is ZERO
    assert power(Const(0.0), 3) is ZERO
    assert sine(Const(0.0)) is ZERO
    assert square_root(Const(0.0)) is ZERO
    assert exponential(Const(-1000.0)) is ZERO  # underflows to +0.0


def test_negative_zero_and_other_folds_keep_their_bits():
    negative = mul(Const(-1.0), ZERO)
    assert negative is not ZERO and repr(negative.value) == "-0.0"
    for folded in (add(Const(-0.0), Const(-0.0)), div(Const(-0.0), Const(2.0)),
                   sine(Const(-0.0))):
        assert folded is not ZERO and math.copysign(1.0, folded.value) == -1.0
    for folded, value in ((add(Const(0.5), Const(0.25)), 0.75),
                          (sub(Const(0.1), Const(0.3)), 0.1 - 0.3),
                          (mul(Const(3.0), Const(1.5)), 4.5),
                          (cosine(Const(0.0)), 1.0)):
        assert repr(folded) == repr(Const(value))
        assert repr(folded.value) == repr(value)


def test_sign_factors_fold_into_the_constructors():
    x, y = Coord(0, "x"), Coord(1, "y")
    minus_x = mul(Const(-1.0), x)
    assert same_tree(minus_x, Mul(Const(-1.0), x))
    # A factor of +-1 next to a constant factor, either one on either side.
    for outer, inner in ((-1.0, 2.0), (2.0, -1.0), (-1.0, -3.0), (1e308, -1.0)):
        expected = Mul(Const(outer * inner), x)
        assert same_tree(mul(Const(outer), Mul(Const(inner), x)), expected)
        assert same_tree(mul(Mul(x, Const(inner)), Const(outer)), expected)
    assert mul(Const(-1.0), minus_x) is x
    assert same_tree(mul(Const(2.0), Mul(Const(3.0), x)), Mul(Const(2.0), Mul(Const(3.0), x)))
    # Mul(Const(-1), x) in a sum or a difference becomes its sign.
    assert same_tree(add(y, minus_x), Sub(y, x))
    assert same_tree(add(minus_x, y), Sub(y, x))
    assert same_tree(sub(y, minus_x), Add(y, x))
    # A zero operand keeps its own fold: 0 - x would turn -0.0 into +0.0.
    assert add(ZERO, minus_x) is minus_x and add(minus_x, Const(-0.0)) is minus_x


SIGN_CONSTANTS = (1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, 1e308, -1e308,
                  math.inf, -math.inf, math.nan)
SIGN_POINTS = np.array(list(itertools.product(
    (0.0, -0.0, 1.5, -3.0, 1e308, math.inf, -math.inf), repeat=2)))
CONSTRUCTORS = {"add": (add, plain_add), "sub": (sub, plain_sub),
                "mul": (mul, plain_mul), "div": (div, div)}


def _assert_same_bits(new_values, old_values):
    nan = np.isnan(old_values)
    np.testing.assert_array_equal(np.isnan(new_values), nan)
    np.testing.assert_array_equal(new_values[~nan].view(np.uint64),
                                  old_values[~nan].view(np.uint64))


def test_sign_rules_keep_every_value_of_the_small_trees():
    # Each of add, sub and mul on every pair of small trees: the constants, x,
    # and x times each constant on either side, through both constructor sets.
    x = Coord(0, "x")
    values = []
    for constructors in (0, 1):
        times = CONSTRUCTORS["mul"][constructors]
        small = [Const(c) for c in SIGN_CONSTANTS] + [x]
        small += [product for c in SIGN_CONSTANTS for product in (times(Const(c), x),
                                                                  times(x, Const(c)))]
        values.append(evaluate([CONSTRUCTORS[name][constructors](a, b)
                                for name in ("add", "sub", "mul") for a in small for b in small],
                               SIGN_POINTS))
    _assert_same_bits(*values)


# A node is x (0), y (1) or, for k < 0, the one built -k steps back; an
# operand is a node or a constant.  Repeats weight -1 and the last node, of
# which the sign rules read products Mul(Const(-1), x).
NODES = st.sampled_from((-1, -1, -1, -2, 0, 1))
OPERANDS = st.sampled_from((*SIGN_CONSTANTS, *[-1.0] * 6, 1.0, 1.0, 0.0, -0.0, -1, -1, -2, 0, 1))


def _built(recipe, constructors: int) -> list:
    """Each step puts a constructor (0: folding, 1: plain) to a node and an
    operand, swapped or not."""
    nodes = [Coord(0, "x"), Coord(1, "y")]
    for name, k, operand, swap in recipe:
        left = nodes[k % len(nodes)]
        right = Const(operand) if isinstance(operand, float) else nodes[operand % len(nodes)]
        if swap:
            left, right = right, left
        nodes.append(CONSTRUCTORS[name][constructors](left, right))
    return nodes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(("add", "sub", "mul", "mul", "div")), NODES,
                          OPERANDS, st.booleans()), min_size=10, max_size=40))
def test_sign_rules_keep_every_value_to_the_bit(recipe):
    # The same recipe through the folding constructors and the plain ones.
    _assert_same_bits(evaluate(_built(recipe, 0), SIGN_POINTS),
                      evaluate(_built(recipe, 1), SIGN_POINTS))


def test_rendering_round_trips_through_parser():
    source = "(x + 2*y)^3 / (1 + x^2) - sin(x)*exp(y)"
    field = parse_expression(source, COORDS)
    again = parse_expression(str(field), COORDS)
    for point in [(0.3, -0.7), (1.1, 0.2)]:
        assert scalar_eval(field, point) == pytest.approx(scalar_eval(again, point), rel=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_constant_round_trips(value):
    # repr prints exponents (1e+16, 1.1564823173178719e-17); the grammar reads them.
    again = parse_expression(str(Const(value)), COORDS)
    assert again.value == value


def test_square_root_and_exponent_numbers_parse():
    field = parse_expression("sqrt(x + 1e+16) - 1.5E-3*y/2e2", COORDS)
    expected = math.sqrt(0.25 + 1e16) - 1.5e-3 * -0.5 / 200.0
    assert scalar_eval(field, (0.25, -0.5)) == expected
    assert str(field) == "sqrt(x + 1e+16) - 0.0015*y/200"


@pytest.mark.parametrize("source,message,position", [
    ("x^1e2", "exponent must be an integer", 2),
    ("x^2.0", "exponent must be an integer", 2),
    ("1e400*x", "number out of range", 0),
    ("1.2.3", "malformed number", 3),
    ("x*\u00b2", "malformed number", 2),  # a digit to str.isdigit, not to float
    ("2e*x", "unexpected trailing input 'e'", 1),
    ("sqrt x", "sqrt must be followed by '('", 5),
])
def test_number_and_call_errors_are_located(source, message, position):
    with pytest.raises(ExpressionError, match=re.escape(message)) as err:
        parse_expression(source, COORDS)
    assert err.value.position == position


@pytest.mark.parametrize("depth", [100, MAX_NESTING])
def test_nesting_up_to_the_limit_parses(depth):
    assert str(parse_expression("(" * depth + "x" + ")" * depth, COORDS)) == "x"
    assert str(parse_expression("sin(" * depth + "x" + ")" * depth, COORDS)).count("sin") == depth


def test_a_run_of_signs_is_not_nesting():
    field = parse_expression("-" * 5001 + "x", COORDS)
    assert evaluate([field], [(2.0, 0.0)]).tolist() == [[-2.0]]


@pytest.mark.parametrize("source", ["(" * 300 + "x" + ")" * 300,
                                    "exp(" * 300 + "x" + ")" * 300,
                                    "-(" * 300 + "x" + ")" * 300])
def test_nesting_past_the_limit_is_located(source):
    # The recursive-descent parser would run out of Python's stack near 245 levels.
    with pytest.raises(ExpressionError,
                       match=f"parentheses nest deeper than {MAX_NESTING} levels") as err:
        parse_expression(source, COORDS)
    assert 0 < err.value.position < len(source)


@pytest.mark.parametrize("value,text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (2.0, "2"), (0.5, "0.5"), (1e20, "1e+20"),
])
def test_non_finite_constants_print(value, text):
    # int(inf) used to raise OverflowError while printing the constant.
    assert _format_number(value) == text
    assert str(Const(value)) == text


@pytest.mark.parametrize("source,error", [
    ("10^400", OverflowError), ("exp(1000)", OverflowError),
    ("0^-1", ZeroDivisionError),
])
def test_constant_folding_overflow_raises_arithmetic_error(source, error):
    with pytest.raises(error):
        parse_expression(source, COORDS)
