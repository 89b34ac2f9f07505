"""Multi-index tables, the generalized Kronecker delta, and wedge products."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.algebroid import AlgebroidChart
from algebroids.expressions import ZERO, Const, mul, parse_expression
from algebroids.forms import AForm, shuffle_sign
from constructions import basis_covector
from dense_oracle import generalized_delta
from expression_oracle import scalar_eval

COORDS = ["x", "y"]


def _field(text):
    return parse_expression(text, COORDS)


@cache
def _chart(rank):
    """A zero-anchor, bracket-free chart of the given rank over (x, y)."""
    return AlgebroidChart(f"R{rank}", COORDS, [f"e{i}" for i in range(rank)],
                          [[ZERO] * len(COORDS) for _ in range(rank)])


class TestGeneralizedDelta:
    def test_identity_permutation(self):
        assert generalized_delta((1, 2), (1, 2)) == 1

    def test_transposition(self):
        assert generalized_delta((1, 2), (2, 1)) == -1

    def test_repeated_index_vanishes(self):
        assert generalized_delta((1, 1), (1, 2)) == 0

    def test_disjoint_sets_vanish(self):
        assert generalized_delta((1, 2), (1, 3)) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generalized_delta((1, 2), (1, 2, 3))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=40, deadline=None)
    def test_composition_with_swap_flips_sign(self, perm):
        upper = tuple(range(5))
        swapped = list(perm)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert generalized_delta(upper, tuple(perm)) == -generalized_delta(
            upper, tuple(swapped)
        )


class TestWedge:
    def test_basis_wedge(self):
        a = basis_covector(_chart(3), 0)
        b = basis_covector(_chart(3), 1)
        result = a.wedge(b)
        assert set(result.table) == {(0, 1)}
        assert scalar_eval(result.coeff((0, 1)), (0, 0)) == 1.0

    def test_repeated_factor_vanishes(self):
        a = basis_covector(_chart(3), 0)
        assert a.wedge(a).is_zero()

    def test_shuffle_expansion_by_hand(self):
        # (x b*1) ^ (y b*2 + b*3) = x y on (1,2) and x on (1,3)
        a = AForm(_chart(3), 1, {(0,): _field("x")})
        b = AForm(_chart(3), 1, {(1,): _field("y"), (2,): Const(1.0)})
        result = a.wedge(b)
        point = (2.0, 5.0)
        assert scalar_eval(result.coeff((0, 1)), point) == pytest.approx(10.0)
        assert scalar_eval(result.coeff((0, 2)), point) == pytest.approx(2.0)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            basis_covector(_chart(2), 0).wedge(basis_covector(_chart(3), 0))

    def test_degree_above_rank_is_zero(self):
        a = AForm(_chart(2), 1, {(0,): Const(1.0)})
        b = AForm(_chart(2), 2, {(0, 1): Const(1.0)})
        assert a.wedge(b).is_zero()


def _random_form(draw_coeffs, degree, rank):
    keys = {
        (): [()],
        1: [(i,) for i in range(rank)],
        2: [(i, j) for i in range(rank) for j in range(i + 1, rank)],
    }
    table = {}
    index_set = keys[degree] if degree else keys[()]
    for index, value in zip(index_set, draw_coeffs):
        if value:
            table[index] = Const(float(value))
    return AForm(_chart(rank), degree if degree else 0, table)


small_ints = st.lists(st.integers(min_value=-3, max_value=3), min_size=4,
                      max_size=4)


@given(small_ints, small_ints)
@settings(max_examples=60, deadline=None)
def test_graded_commutativity_degree_one(ca, cb):
    rank = 4
    a = _random_form(ca, 1, rank)
    b = _random_form(cb, 1, rank)
    lhs = a.wedge(b)
    rhs = b.wedge(a).scale(-1.0)  # (-1)^{1*1}
    diff = lhs - rhs
    assert all(abs(scalar_eval(c, ())) < 1e-12 for c in diff.table.values())


@given(small_ints, small_ints, small_ints)
@settings(max_examples=60, deadline=None)
def test_wedge_associativity(ca, cb, cc):
    rank = 4
    a = _random_form(ca, 1, rank)
    b = _random_form(cb, 1, rank)
    c = _random_form(cc, 1, rank)
    left = a.wedge(b).wedge(c)
    right = a.wedge(b.wedge(c))
    diff = left - right
    assert all(abs(scalar_eval(coeff, ())) < 1e-12 for coeff in diff.table.values())


def test_even_degree_commutes():
    a = AForm(_chart(4), 2, {(0, 1): Const(2.0), (2, 3): Const(-1.0)})
    b = AForm(_chart(4), 2, {(0, 2): Const(3.0), (1, 3): Const(1.0)})
    diff = a.wedge(b) - b.wedge(a)
    assert all(abs(scalar_eval(c, ())) < 1e-12 for c in diff.table.values())


def test_graded_commutativity_mixed_degrees():
    # deg 1 against deg 2: the sign (-1)^{pq} is +1
    a = AForm(_chart(4), 1, {(0,): _field("x"), (3,): Const(2.0)})
    b = AForm(_chart(4), 2, {(1, 2): _field("y"), (0, 1): Const(-1.0)})
    diff = a.wedge(b) - b.wedge(a)
    for point in [(0.5, -0.25), (1.0, 2.0)]:
        assert all(abs(scalar_eval(c, point)) < 1e-12 for c in diff.table.values())


class TestAFormDataInvariants:
    """Construction invariants of an `AForm`'s coefficient table."""

    def test_keys_must_be_increasing(self):
        with pytest.raises(ValueError):
            AForm(_chart(3), 2, {(1, 0): Const(1.0)})

    def test_keys_must_fit_rank(self):
        with pytest.raises(ValueError):
            AForm(_chart(2), 1, {(5,): Const(1.0)})

    def test_key_length_must_match_degree(self):
        with pytest.raises(ValueError):
            AForm(_chart(3), 2, {(0,): Const(1.0)})

    @pytest.mark.parametrize("key", [(2, 0), (1, 1), (0, 3), (-1, 0), (0,), (0, 1, 2)],
                             ids=["unsorted", "repeated", "above_rank", "negative",
                                  "short", "long"])
    def test_public_constructor_checks_every_key(self, key):
        # The public constructor is the input boundary; only products and sums
        # of valid forms skip the checks.
        with pytest.raises(ValueError):
            AForm(_chart(3), 2, {(0, 1): Const(1.0), key: Const(2.0)})

    def test_trusted_constructor_is_not_exported(self):
        import algebroids

        assert not any("trusted" in name for name in dir(algebroids))
        assert not any("trusted" in name for name in dir(AForm))

    def test_zero_coefficients_are_dropped(self):
        data = AForm(_chart(2), 1, {(0,): Const(0.0)})
        assert data.is_zero()

    def test_degree_zero_uses_empty_key(self):
        data = _chart(2).function_form(Const(3.0))
        assert scalar_eval(data.coeff(()), ()) == 3.0

    def test_signed_lookup(self):
        data = AForm(_chart(3), 2, {(0, 2): Const(2.0)})
        assert scalar_eval(data.coeff_signed((2, 0)), ()) == -2.0
        assert scalar_eval(data.coeff_signed((2, 2)), ()) == 0.0


def test_shuffle_sign_matches_delta():
    left, right = (0, 3), (1, 2)
    merged = tuple(sorted(left + right))
    assert shuffle_sign(left, right) == generalized_delta(merged, left + right)


@given(st.permutations([0, 2, 3, 5]), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_signed_lookup_matches_generalized_delta(perm, k):
    # The sign of (m,) + rest from m's sorted position, and of any other
    # order by inversions, is the permutation sign; the tree is unchanged.
    index = tuple(perm[:k])
    ordered = tuple(sorted(index))
    data = AForm(_chart(6), k, {ordered: _field("x + y")})
    expected = mul(Const(float(generalized_delta(ordered, index))), data.coeff(ordered))
    signed = data.coeff_signed(index)
    assert str(signed) == str(expected)
    assert type(signed) is type(expected)
    if index:
        assert data.coeff_signed(index + index[:1]).is_zero()  # a repeated index
