"""Chern polynomials, fiber integration, difference forms, and identities.

The parameter-chart route to difference forms lives in `transgression_oracle`
and the branch per simplex in `chern_oracle`; `bott_delta` is checked against
both.
"""

import math
from functools import cache
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algebroids.connections
import algebroids.forms
from algebroids.algebroid import AlgebroidChart, Morphism

from algebroids.algebroid import d_A, jet_prolong
from algebroids.chern import (
    bott_delta,
    chern_polarized,
    coboundary_check,
    gauss_legendre_01,
    simplex_rule,
)
from algebroids.classes import ClassBuilder
from algebroids.connections import (
    FormMatrix,
    QuasiMetric,
    bracket_connection,
    curvature,
    direct_sum,
    dual_connection,
    morphism_target_connection,
    orthogonal_connection,
)
from algebroids.expressions import ZERO, Const, parse_expression
from algebroids.forms import AForm
from algebroids.sampling import sample_points
from chern_oracle import (
    bott_delta_branch_reference,
    chern_polarized_reference,
    form_matrix_wedge_reference,
    trace_wedge_reference,
)
from constructions import chern_scalar, conjugate_form_matrix, sum_connection
from expression_oracle import same_tree, scalar_eval
from transgression_oracle import (
    bott_delta_reference,
    extend_with_parameters,
    fiber_integrate,
    integrate_unit_interval,
)


def _constant_matrix(chart, values):
    """A numeric matrix as a matrix of constant 0-forms on `chart`."""
    rows = []
    for row in values:
        rows.append([chart.function_form(Const(float(v))) for v in row])
    return FormMatrix(chart, rows, 0)


class TestChernScalar:
    """The reference `chern_scalar` and `chern_polarized` on constant matrices,
    both against closed forms."""

    @staticmethod
    def _both(chart, values, h):
        out = chern_polarized([_constant_matrix(chart, values)] * h)
        return chern_scalar(values, h), scalar_eval(out.coeff(()), (0.0,))

    def test_first_polynomial_is_trace(self, so3):
        chart = so3.chart("so3")
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.normal(size=(4, 4))
            for value in self._both(chart, m, 1):
                assert value == pytest.approx(np.trace(m))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_identity_gives_binomials(self, so3, r):
        chart = so3.chart("so3")
        for h in range(1, r + 1):
            for value in self._both(chart, np.eye(r), h):
                assert value == pytest.approx(math.comb(r, h))

    def test_diagonal_second_minors(self, so3):
        for value in self._both(so3.chart("so3"), np.diag([1.0, 2.0, 3.0]), 2):
            assert value == pytest.approx(11.0)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_minor_oracle(self, so3, r):
        chart = so3.chart("so3")
        rng = np.random.default_rng(7)
        for h in range(1, r + 1):
            m = rng.normal(size=(r, r))
            reference, value = self._both(chart, m, h)
            assert value == pytest.approx(reference, rel=1e-10)

    def test_symplectic_two_by_two(self, so3):
        # c_1 vanishes on sp(2, R): the trace of [[a, b], [c, -a]].
        chart = so3.chart("so3")
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b, c = rng.normal(size=3)
            for value in self._both(chart, np.array([[a, b], [c, -a]]), 1):
                assert abs(value) < 1e-14


class TestChernPolarized:

    def test_single_argument_is_trace(self, so3, line_points):
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        out = chern_polarized([conn])
        assert (out - conn.trace()).max_abs(line_points) == 0.0

    def test_all_equal_scalar_arguments_reduce_to_chern_scalar(self, so3):
        chart = so3.chart("so3")
        rng = np.random.default_rng(3)
        for h in (1, 2, 3):
            values = rng.normal(size=(3, 3))
            matrix = _constant_matrix(chart, values)
            out = chern_polarized([matrix] * h)
            assert scalar_eval(out.coeff(()), (0.0,)) == pytest.approx(
                chern_scalar(values, h), rel=1e-12)

    def test_two_diagonal_arguments_by_hand(self, so3):
        chart = so3.chart("so3")
        a = _constant_matrix(chart, np.diag([2.0, 5.0]))
        b = _constant_matrix(chart, np.diag([7.0, 3.0]))
        out = chern_polarized([a, b])
        # (1/2)(a1 b2 + a2 b1)
        assert scalar_eval(out.coeff(()), (0.0,)) == pytest.approx(0.5 * (2 * 3 + 5 * 7))

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_polarization_consistency_brute_force(self, so3, h):
        # All arguments equal to a matrix of even-degree forms reproduces the
        # formal minor expansion.
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        curv = curvature(direct_sum(conn, conn))
        lhs = chern_polarized([curv] * h)
        points = sample_points(1, 10, 42)
        rhs = chart.zero_form(2 * h)
        for rows in combinations(range(curv.size), h):
            for perm in permutations(range(h)):
                sign = 1
                for i in range(h):
                    for j in range(i + 1, h):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = None
                for i, p in enumerate(perm):
                    entry = curv.entries[rows[i]][rows[p]]
                    term = entry if term is None else term.wedge(entry)
                rhs = rhs + term.scale(float(sign))
        assert (lhs - rhs).max_abs(points) < 1e-10

    def test_ad_invariance_of_chern_forms(self, so3, line_points):
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        curv = curvature(direct_sum(conn, dual_connection(conn)))
        rng = np.random.default_rng(21)
        p = rng.integers(-2, 3, size=(6, 6)).astype(float) + 6 * np.eye(6)
        p_fields = [[Const(v) for v in row] for row in p]
        conjugated = conjugate_form_matrix(curv, p_fields)
        for h in (1, 2):
            lhs = chern_polarized([conjugated] * h)
            rhs = chern_polarized([curv] * h)
            assert (lhs - rhs).max_abs(line_points) < 1e-9

    def test_dimension_mismatch_rejected(self, so3):
        chart = so3.chart("so3")
        a = _constant_matrix(chart, np.eye(2))
        b = _constant_matrix(chart, np.eye(3))
        with pytest.raises(ValueError):
            chern_polarized([a, b])


@cache
def _plane_chart():
    """A zero-anchor, bracket-free chart of rank 6 over (x, y)."""
    return AlgebroidChart("R6", ["x", "y"], [f"e{i}" for i in range(6)],
                          [[ZERO, ZERO] for _ in range(6)])


def _random_form_matrix(chart, size, degree, rng, density=0.6, keys_per_entry=3):
    """A sparse size x size matrix of degree-k forms with coordinate-dependent entries."""
    keys = list(combinations(range(chart.rank), degree))
    coord = chart.coords[int(rng.integers(len(chart.coords)))]
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            table = {}
            if rng.random() < density:
                for j in rng.choice(len(keys), size=min(len(keys), keys_per_entry),
                                    replace=False):
                    a, b = rng.uniform(-2.0, 2.0, size=2)
                    table[keys[j]] = parse_expression(f"{a:.3f}+{b:.3f}*sin({coord})",
                                                      chart.coords)
            row.append(AForm(chart, degree, table))
        rows.append(row)
    return FormMatrix(chart, rows, degree)


def _argument_pattern(pattern, chart, size, h, rng):
    """The h polarized arguments of one named pattern, repeated objects included."""
    def draw(degree):
        return _random_form_matrix(chart, size, degree, rng)

    if pattern == "all_even":
        return [draw(int(rng.choice([0, 2])))] * h
    if pattern == "all_odd":
        return [draw(1)] * h
    if pattern == "odd_then_even":
        even = draw(int(rng.choice([0, 2])))
        return [draw(1)] + [even] * (h - 1)
    if pattern == "two_one_forms":
        pair = (draw(1), draw(1))
        return [pair[int(i)] for i in rng.integers(2, size=h)]
    return [draw(int(d)) for d in rng.integers(3, size=h)]  # mixed degrees, any order


def _sa3_mu_pair(sa3):
    """The connections (c0, c1) whose transgression is `mu sa3 --morphism zero`."""
    phi = sa3.morphism("zero")
    return ClassBuilder().chain_pair(Morphism.identity(phi.source), phi,
                      sa3.metric_for(phi.source.name), sa3.metric_for(phi.target.name))


class TestChernAgainstPermutationSum:
    """The cycle expansion against the generalized-delta sum it replaced."""

    @given(on_plane=st.booleans(),
           pattern=st.sampled_from(["all_even", "all_odd", "odd_then_even",
                                    "two_one_forms", "mixed"]),
           h=st.integers(1, 4), wider=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_sparse_matrices(self, sl2aff, on_plane, pattern, h, wider, seed):
        # Two charts: sl2aff (rank 5 over x) and a rank-6 chart over (x, y).
        chart = _plane_chart() if on_plane else sl2aff.chart("sl2aff")
        rng = np.random.default_rng(seed)
        size = min(max(h, 2) + wider, 4)
        args = _argument_pattern(pattern, chart, size, h, rng)
        points = sample_points(chart.dim, 20, seed % 1000)
        new = chern_polarized(args)
        old = chern_polarized_reference(args)
        assert new.degree == old.degree
        assert (new - old).max_abs(points) <= 1e-12 * max(1.0, old.max_abs(points))

    def test_transgression_slice_on_sa3(self, sa3, line_points):
        # The rank-12 argument pattern (alpha, Omega, Omega) of `mu sa3 --h 2`.
        c0, c1 = _sa3_mu_pair(sa3)
        alpha = c1 - c0
        omega = curvature(c0 + alpha.scale(0.3))
        args = [alpha, omega, omega]
        points = line_points[:10]
        old = chern_polarized_reference(args)
        scale = old.max_abs(points)
        assert scale > 0.1
        assert (chern_polarized(args) - old).max_abs(points) <= 1e-12 * scale

    def test_wedge_count_does_not_grow_like_rank_to_the_h(self, sa3, monkeypatch):
        # Delta(c0, c1)c_3 of `mu sa3 --h 2`: 11,301 form wedges by the
        # permutation sum, 1,959 by the cycle expansion.  Every form wedge,
        # matrix products on float tables included, goes through the table
        # kernel `forms.wedge_into`.
        c0, c1 = _sa3_mu_pair(sa3)
        calls = 0
        wedge_into = algebroids.forms.wedge_into

        def counted(left, right, table):
            nonlocal calls
            calls += 1
            return wedge_into(left, right, table)

        for module in (algebroids.forms, algebroids.connections):
            monkeypatch.setattr(module, "wedge_into", counted)
        bott_delta([c0, c1], 3)
        assert 0 < calls <= 3000


@cache
def _anchored_plane_chart():
    """A bracket-free rank-7 chart over (x, y), its frame anchored on d/dx and d/dy in turn.

    Rank 7 leaves room for the degree-7 transgression form of c_4."""
    one = Const(1.0)
    return AlgebroidChart("R7_anchored", ["x", "y"], [f"e{i}" for i in range(7)],
                          [[one, ZERO] if i % 2 == 0 else [ZERO, one] for i in range(7)])


CHARTS = ["sl2aff", "action_x", "plane", "anchored_plane"]


def _chart(name, sl2aff, action_x):
    """One of `CHARTS`: two fixture charts and the two rank-6 and rank-7 planes above."""
    if name == "sl2aff":
        return sl2aff.chart("sl2aff")
    if name == "action_x":
        return action_x.chart("action")
    return _plane_chart() if name == "plane" else _anchored_plane_chart()


def _assert_same_trees(new: AForm, old: AForm, label=None) -> None:
    """Same degree, keys in the same order, and the same tree per key."""
    assert new.degree == old.degree
    assert list(new.table) == list(old.table), label
    for key, coeff in old.table.items():
        assert same_tree(new.table[key], coeff), (label, key)


class TestProductsAgainstIntermediateForms:
    """Matrix products without intermediate forms against `acc = acc + a.wedge(b)`."""

    @staticmethod
    def _assert_same_products(a, b):
        product, old = a.wedge(b), form_matrix_wedge_reference(a, b)
        assert product.degree == old.degree and product.size == old.size
        for new_row, ref_row in zip(product.entries, old.entries):
            for new, ref in zip(new_row, ref_row):
                _assert_same_trees(new, ref)
        _assert_same_trees(a.trace_wedge(b), trace_wedge_reference(a, b))

    @given(chart_name=st.sampled_from(CHARTS), size=st.integers(1, 4),
           degrees=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_products_build_the_same_trees(self, sl2aff, action_x, chart_name, size,
                                           degrees, seed):
        chart = _chart(chart_name, sl2aff, action_x)
        rng = np.random.default_rng(seed)
        a, b = (_random_form_matrix(chart, size, min(d, chart.rank), rng) for d in degrees)
        self._assert_same_products(a, b)

    def test_products_of_the_mu_sa3_transgression(self, sa3, monkeypatch):
        # Rank-12 matrices over the rank-11 chart: alpha ^ alpha, alpha ^ Omega_t,
        # and every product that the words of c_3(alpha, Omega_t, Omega_t) build.
        c0, c1 = _sa3_mu_pair(sa3)
        alpha = c1 - c0
        assert (alpha.size, alpha.chart.rank) == (12, 11)
        omega = curvature(c0 + alpha.scale(float(gauss_legendre_01(3)[0][1])))
        pairs = [(alpha, alpha), (alpha, omega)]

        def recorded(method):
            def record(self, other):
                pairs.append((self, other))
                return method(self, other)
            return record

        with monkeypatch.context() as patch:
            patch.setattr(FormMatrix, "wedge", recorded(FormMatrix.wedge))
            patch.setattr(FormMatrix, "trace_wedge", recorded(FormMatrix.trace_wedge))
            chern_polarized([alpha, omega, omega])
        assert len(pairs) > 4
        for a, b in pairs:
            self._assert_same_products(a, b)

    def test_products_of_the_sa3_jet_flat_connection(self, sa3):
        flat = morphism_target_connection(jet_prolong(sa3.chart("sa3")).projection())
        assert flat.chart.rank == 22
        self._assert_same_products(flat, flat)
        self._assert_same_products(flat.d(), flat)

    def test_products_above_the_chart_rank_are_zero(self, sl2aff):
        chart = sl2aff.chart("sl2aff")
        rng = np.random.default_rng(3)
        a, b = (_random_form_matrix(chart, 3, 3, rng, density=1.0) for _ in range(2))
        assert a.degree + b.degree > chart.rank
        self._assert_same_products(a, b)
        assert all(entry.is_zero() for row in a.wedge(b).entries for entry in row)

    def test_products_with_zero_rows_and_columns(self, sa3):
        c0, c1 = _sa3_mu_pair(sa3)
        alpha = c1 - c0
        zero = alpha.chart.zero_form(1)
        holes = FormMatrix(alpha.chart, [[zero if u in (0, 5) or t in (3, 11) else entry
                                          for t, entry in enumerate(row)]
                                         for u, row in enumerate(alpha.entries)], 1)
        for a, b in ((holes, holes), (holes, alpha), (alpha, holes)):
            self._assert_same_products(a, b)

    @given(chart_name=st.sampled_from(CHARTS), size=st.integers(1, 4),
           degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_results_pass_the_constructor_checks(self, sl2aff, action_x, chart_name, size,
                                                 degrees, seed):
        # The matrix's own operations skip the checks of `FormMatrix(...)`.
        chart = _chart(chart_name, sl2aff, action_x)
        rng = np.random.default_rng(seed)
        a, b, c = (_random_form_matrix(chart, size, min(d, chart.rank), rng)
                   for d in (degrees[0], degrees[1], degrees[0]))
        for out in (a.wedge(b), a + c, a - c, a.scale(-0.5), a.scale(0.0), a.d(),
                    a.transpose()):
            checked = FormMatrix(out.chart, out.entries, out.degree)
            assert checked.size == out.size == size


class TestTransgressionWork:
    """Work counts of the transgression on the connections of `mu sa3`."""

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_d_is_taken_twice_whatever_the_node_count(self, sa3, monkeypatch, h):
        # Rebuilding the link curvature at each of the h Gauss nodes took d h times.
        # The pair is built first: `orthogonal_connection` takes d of its Cholesky factor.
        pair = list(_sa3_mu_pair(sa3))
        calls = 0
        d = FormMatrix.d

        def counted(self):
            nonlocal calls
            calls += 1
            return d(self)

        monkeypatch.setattr(FormMatrix, "d", counted)
        bott_delta(pair, h)
        assert calls == 2

    def test_matrix_products_check_no_keys(self, sa3, monkeypatch):
        c0, c1 = _sa3_mu_pair(sa3)
        calls = 0
        check = algebroids.forms.check_multi_index

        def counted(index, rank):
            nonlocal calls
            calls += 1
            return check(index, rank)

        monkeypatch.setattr(algebroids.forms, "check_multi_index", counted)
        # c0 is the zero connection of the constant metrics; c1 ^ c1 is not zero.
        products = [a.wedge(b) for a, b in ((c0, c1), (c1, c0), (c1, c1))]
        c1.trace_wedge(c1)
        assert calls == 0
        assert any(not entry.is_zero() for row in products[-1].entries for entry in row)


class TestFiberIntegration:
    """`fiber_integrate`, the 2-simplex integral of the parameter-chart reference."""

    @staticmethod
    def _product(tangent_r2):
        chart = tangent_r2.chart("TR2")
        return chart, extend_with_parameters(chart, ["t1", "t2"])

    def test_no_parameter_component_integrates_to_zero(self, tangent_r2):
        chart, product_chart = self._product(tangent_r2)
        form = AForm(product_chart, 2, {(0, 2): Const(1.0)})
        out = fiber_integrate(form, chart)
        assert out.is_zero() and out.degree == 0

    def test_non_polynomial_coefficients_rejected(self, tangent_r2):
        chart, product_chart = self._product(tangent_r2)
        form = AForm(product_chart, 2, {(2, 3): parse_expression(
            "sin(t1)", product_chart.coords)})
        with pytest.raises(ValueError, match="not polynomial"):
            fiber_integrate(form, chart)

    def test_simplex_area(self, tangent_r2):
        chart, product_chart = self._product(tangent_r2)
        form = AForm(product_chart, 2, {(2, 3): Const(1.0)})
        out = fiber_integrate(form, chart)
        assert scalar_eval(out.coeff(()), (0.0, 0.0)) == pytest.approx(0.5)

    def test_simplex_polynomial_moments(self, tangent_r2):
        chart, product_chart = self._product(tangent_r2)
        t1 = product_chart.coordinate_field(2)
        t2 = product_chart.coordinate_field(3)
        form = AForm(product_chart, 2, {(2, 3): t1 * t2})
        out = fiber_integrate(form, chart)
        assert scalar_eval(out.coeff(()), (0.0, 0.0)) == pytest.approx(1.0 / 24.0)


class TestGaussQuadrature:
    def test_exactness_for_declared_degree(self):
        # n nodes integrate degree 2n-1 exactly
        for n in (1, 2, 3, 4):
            xs, ws = gauss_legendre_01(n)
            for d in range(2 * n):
                value = float(np.sum(ws * xs ** d))
                assert value == pytest.approx(1.0 / (d + 1), rel=1e-13)

    @pytest.mark.skipif(tuple(int(p) for p in np.__version__.split(".")[:2]) < (2, 4),
                        reason="the rule rounds as numpy 2.4's legval, the oldest release checked")
    def test_rule_is_numpys_leggauss_to_the_bit(self):
        # numpy.polynomial is the oracle, imported by this test only.
        for n in range(1, 13):
            nodes, weights = np.polynomial.legendre.leggauss(n)
            for got, want in zip(gauss_legendre_01(n), ((nodes + 1.0) / 2.0, weights / 2.0)):
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), n

    def test_simplex_rule_reproduces_dirichlet_moments(self):
        # integral of t^a over the k-simplex = a! / (|a| + k)!, exact for |a| <= 2n - k;
        # on the interval the rule is Gauss-Legendre's, node for node
        for k in (1, 2, 3):
            for n in (1, 2, 3, 4):
                nodes, weights = simplex_rule(k, n)
                assert nodes.shape == (n ** k, k)
                for a in product(range(2 * n - k + 1), repeat=k):
                    if sum(a) > 2 * n - k:
                        continue
                    value = float(np.sum(weights * np.prod(nodes ** np.array(a), axis=1)))
                    exact = math.prod(map(math.factorial, a)) / math.factorial(sum(a) + k)
                    assert value == pytest.approx(exact, rel=1e-13), (k, n, a)
            xs, ws = gauss_legendre_01(n)
            nodes, weights = simplex_rule(1, n)
            assert np.array_equal(nodes[:, 0], xs) and np.array_equal(weights, ws)

    def test_scalar_field_integration(self):
        tau = parse_expression("t", ["t"])
        poly = tau ** 3 - tau
        out = integrate_unit_interval(poly, 0, 2)
        assert scalar_eval(out, ()) == pytest.approx(0.25 - 0.5)


class TestBottDelta:
    def test_zero_simplex_is_chern_form(self, so3, line_points):
        chart = so3.chart("so3")
        conn = direct_sum(bracket_connection(chart), bracket_connection(chart))
        lhs = bott_delta([conn], 2)
        rhs = chern_polarized([curvature(conn)] * 2)
        assert (lhs - rhs).max_abs(line_points) == 0.0

    def test_degenerate_link_vanishes(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        for h in (1, 2):
            assert bott_delta([conn, conn], h).max_abs(line_points) == 0.0

    def test_flat_pair_first_polynomial_is_trace_of_difference(self, so3,
                                                               line_points):
        chart = so3.chart("so3")
        c0 = FormMatrix.zero(chart, 3, 1)
        c1 = bracket_connection(chart)
        out = bott_delta([c0, c1], 1)
        alpha_trace = (c1 - c0).trace()
        assert (out - alpha_trace).max_abs(line_points) == 0.0

    def test_quadrature_node_doubling_is_stable(self, so3, line_points):
        phi = so3.morphism("id")
        c1 = sum_connection(phi)
        c0 = FormMatrix.zero(phi.source, 6, 1)
        for h in (2, 3):
            base = bott_delta([c0, c1], h)
            double = bott_delta_reference([c0, c1], h, nodes=2 * h)
            assert (base - double).max_abs(line_points) < 1e-13

    def test_argument_swap_antisymmetry(self, so3, line_points):
        chart = so3.chart("so3")
        c0 = FormMatrix.zero(chart, 3, 1)
        c1 = bracket_connection(chart)
        for h in (1, 2):
            ab = bott_delta([c0, c1], h)
            ba = bott_delta([c1, c0], h)
            assert (ab + ba).max_abs(line_points) < 1e-13

    def test_three_connection_transposition_flips_sign(self, so3_double,
                                                       line_points):
        p1, p2 = so3_double.morphism("id"), so3_double.morphism("rot")
        c1 = sum_connection(p1)
        c2 = sum_connection(p2)
        c0 = FormMatrix.zero(p1.source, 6, 1)
        for h in (1, 2):
            abc = bott_delta([c0, c1, c2], h)
            bac = bott_delta([c1, c0, c2], h)
            assert (abc + bac).max_abs(line_points) < 1e-12


class TestBottDeltaAgainstReference:
    """The base-chart route against the parameter-chart route it replaced."""

    def test_links_match_fiber_integration(self, solvable2d, so3, line_points):
        for fixture, name in ((solvable2d, "phi"), (so3, "id")):
            phi = fixture.morphism(name)
            c0, c1 = ClassBuilder().chain_pair(Morphism.identity(phi.source), phi)
            for h in (1, 2, 3):
                new = bott_delta([c0, c1], h)
                old = bott_delta_reference([c0, c1], h)
                assert new.degree == old.degree == 2 * h - 1
                assert (new - old).max_abs(line_points) <= 1e-12, (fixture.name, h)

    @pytest.mark.parametrize("fixture_name, first, second",
                             [("solvable2d", "phi", "phi2"), ("so3_double", "id", "rot")])
    def test_triangles_match_fiber_integration(self, request, line_points, fixture_name,
                                               first, second):
        fixture = request.getfixturevalue(fixture_name)
        p1, p2 = fixture.morphism(first), fixture.morphism(second)
        c0, c1 = ClassBuilder().chain_pair(Morphism.identity(p1.source), p1)
        c2 = sum_connection(p2)
        for h in (1, 2):
            new = bott_delta([c0, c1, c2], h)
            old = bott_delta_reference([c0, c1, c2], h)
            assert new.degree == old.degree == 2 * h - 2
            assert (new - old).max_abs(line_points) <= 1e-13, h

    def test_curving_links_on_an_anchored_chart(self, tangent_r2):
        # The fixtures' nonzero links sit on zero-anchor charts; here d_A of
        # the link matrix has anchor terms and both endpoints curve.
        chart = jet_prolong(tangent_r2.chart("TR2"))
        x, y = chart.coordinate_field(0), chart.coordinate_field(1)
        rng = np.random.default_rng(5)

        def rand_conn(rank):
            rows = []
            for _ in range(rank):
                row = []
                for _ in range(rank):
                    table = {}
                    for i in range(chart.rank):
                        c = rng.integers(-2, 3, 2)
                        poly = Const(float(c[0])) + Const(float(c[1])) * x * y
                        if not poly.is_zero():
                            table[(i,)] = poly
                    row.append(AForm(chart, 1, table))
                rows.append(row)
            return FormMatrix(chart, rows, 1)

        c0, c1 = rand_conn(2), rand_conn(2)
        points = sample_points(chart.dim, 50, 42)
        for h in (1, 2):
            old = bott_delta_reference([c0, c1], h)
            scale = old.max_abs(points)
            assert scale > 1.0
            assert (bott_delta([c0, c1], h) - old).max_abs(points) <= 1e-12 * scale

    def test_sa3_third_polynomial_matches_relative_to_size(self, sa3, line_points):
        phi = sa3.morphism("zero")
        c1 = sum_connection(phi)
        c0 = FormMatrix.zero(phi.source, c1.size, 1)
        new = bott_delta([c0, c1], 3)
        old = bott_delta_reference([c0, c1], 3)
        points = line_points[:10]
        scale = old.max_abs(points)
        assert scale > 0.1
        assert (new - old).max_abs(points) <= 1e-12 * scale

    def test_degree_bounds_of_the_simplex_formula(self, so3_double):
        # Delta(c0, ..., ck)c_h has degree 2h - k: an error for h < 1 or k > 2h,
        # and the zero form for h < k <= 2h, where c_h has too few arguments.
        p1, p2 = so3_double.morphism("id"), so3_double.morphism("rot")
        c1, c2 = sum_connection(p1), sum_connection(p2)
        c0 = FormMatrix.zero(p1.source, c1.size, 1)
        for connections in ([c0], [c0, c1], [c0, c1, c2]):
            with pytest.raises(ValueError, match="at least 1"):
                bott_delta(connections, 0)
        for connections, h in (([c0, c1, c2, c1], 1), ([c0, c1, c2, c1, c2, c0], 2)):
            with pytest.raises(ValueError, match="negative degree"):
                bott_delta(connections, h)
        for connections, h in (([c0, c1, c2], 1), ([c0, c1, c2, c1], 2),
                               ([c0, c1, c2, c1, c2], 2)):
            out = bott_delta(connections, h)
            assert out.is_zero() and out.degree == 2 * h - (len(connections) - 1)


class TestSimplexRoute:
    """The simplex formula against the branch per k that it replaced."""

    @staticmethod
    def _pairs(sl2aff, action_x, sa3):
        rng = np.random.default_rng(13)
        for chart in (sl2aff.chart("sl2aff"), action_x.chart("action")):
            yield chart.name, [_random_form_matrix(chart, 3, 1, rng, density=0.5,
                                                   keys_per_entry=2) for _ in range(2)]
        yield "sa3", list(_sa3_mu_pair(sa3))

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_one_and_two_connections_build_the_same_trees(self, sl2aff, action_x, sa3, h):
        compared = 0
        for name, (c0, c1) in self._pairs(sl2aff, action_x, sa3):
            for connections in ([c0], [c1], [c0, c1]):
                old = bott_delta_branch_reference(connections, h)
                _assert_same_trees(bott_delta(connections, h), old, (name, len(connections)))
                compared += len(old.table)
        assert compared > 0

    @given(chart_name=st.sampled_from(CHARTS), size=st.integers(1, 4), h=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_links_build_the_same_trees(self, sl2aff, action_x, chart_name, size, h,
                                               seed):
        # Curving links on anchored and zero-anchor charts, up to c_4.
        chart = _chart(chart_name, sl2aff, action_x)
        rng = np.random.default_rng(seed)
        c0, c1 = (_random_form_matrix(chart, size, 1, rng, density=0.5, keys_per_entry=2)
                  for _ in range(2))
        new, old = bott_delta([c0, c1], h), bott_delta_branch_reference([c0, c1], h)
        assert new.degree == 2 * h - 1
        _assert_same_trees(new, old)

    def test_three_connections_match_the_closed_forms(self, solvable2d, so3_double,
                                                      line_points):
        for fixture, first, second in ((solvable2d, "phi", "phi2"),
                                       (so3_double, "id", "rot")):
            p1, p2 = fixture.morphism(first), fixture.morphism(second)
            connections = [*ClassBuilder().chain_pair(Morphism.identity(p1.source), p1),
                           sum_connection(p2)]
            for h in (1, 2):
                new = bott_delta(connections, h)
                old = bott_delta_branch_reference(connections, h)
                assert new.degree == old.degree == 2 * h - 2
                assert (new - old).max_abs(line_points) == 0.0, (fixture.name, h)
        # so3_double's pair is not proportional, so its c_2 form is far from zero.
        assert bott_delta(connections, 2).max_abs(line_points) > 0.1

    @pytest.mark.parametrize("k, h", [(1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 3)])
    def test_d_only_for_the_curvature_and_once_per_connection(self, sl2aff, monkeypatch,
                                                             k, h):
        chart = sl2aff.chart("sl2aff")
        rng = np.random.default_rng(k + 10 * h)
        connections = [_random_form_matrix(chart, 3, 1, rng, density=0.5, keys_per_entry=2)
                       for _ in range(k + 1)]
        calls = 0
        d = FormMatrix.d

        def counted(self):
            nonlocal calls
            calls += 1
            return d(self)

        monkeypatch.setattr(FormMatrix, "d", counted)
        assert not bott_delta(connections, h).is_zero()
        assert calls == (k + 1 if h > k else 0)

    def test_constant_integrand_is_evaluated_once(self, sl2aff, line_points, monkeypatch):
        # At h = k the integrand c_h(alpha_1, ..., alpha_k) does not depend on t,
        # so the simplex rule's 8 nodes collapse to one evaluation.
        chart = sl2aff.chart("sl2aff")
        rng = np.random.default_rng(5)
        connections = [_random_form_matrix(chart, 3, 1, rng, density=0.5, keys_per_entry=2)
                       for _ in range(4)]
        expected = chern_polarized([c - connections[0] for c in connections[1:]])
        calls = 0

        def counted(args):
            nonlocal calls
            calls += 1
            return chern_polarized(args)

        monkeypatch.setattr("algebroids.chern.chern_polarized", counted)
        out = bott_delta(connections, 3)
        assert calls == 1
        points = line_points[:20]
        scale = expected.max_abs(points)
        assert scale > 0.1
        assert (out - expected).max_abs(points) <= 1e-12 * scale

    def test_third_polynomial_on_three_connections_matches_fiber_integration(
            self, sl2aff, line_points):
        chart = sl2aff.chart("sl2aff")
        rng = np.random.default_rng(3)
        connections = [_random_form_matrix(chart, 3, 1, rng, density=0.5, keys_per_entry=2)
                       for _ in range(3)]
        points = line_points[:20]
        old = bott_delta_reference(connections, 3)
        scale = old.max_abs(points)
        assert scale > 1.0
        assert (bott_delta(connections, 3) - old).max_abs(points) <= 1e-12 * scale

    def test_coboundary_on_one_connection_is_closedness(self, sl2aff, line_points):
        # k = 0 has no faces: the residual is |d c_h(Omega)|.
        chart = sl2aff.chart("sl2aff")
        conn = _random_form_matrix(chart, 3, 1, np.random.default_rng(2), density=0.5,
                                   keys_per_entry=2)
        for h in (1, 2):
            closed = d_A(bott_delta([conn], h))
            worst = coboundary_check([conn], h).max_abs(line_points[:20])
            assert worst == closed.max_abs(line_points[:20])
            assert worst <= 1e-9

    @pytest.mark.parametrize("h", [2, 3])
    def test_coboundary_on_four_connections(self, sl2aff, line_points, h):
        # At h = 2 the form on four connections is zero, and the identity says the
        # alternating sum of the four nonzero faces vanishes.
        chart = sl2aff.chart("sl2aff")
        rng = np.random.default_rng(11)
        connections = [_random_form_matrix(chart, 3, 1, rng, density=0.5, keys_per_entry=2)
                       for _ in range(4)]
        points = line_points[:20]
        scale = max(bott_delta(connections[:i] + connections[i + 1:], h).max_abs(points)
                    for i in range(4))
        assert scale > 1.0
        worst = coboundary_check(connections, h).max_abs(points)
        assert worst <= 1e-12 * scale, (worst, scale)


class TestIdentities:
    def test_chern_forms_are_closed(self, so3, action_x, line_points):
        for chart, seeds in ((so3.chart("so3"), (1,)), (action_x.chart("action"),
                                                        (2,))):
            conn = bracket_connection(chart)
            for h in (1, 2):
                closed = d_A(chern_polarized([curvature(conn)] * h))
                assert closed.max_abs(line_points) < 1e-9

    def test_transgression_with_curving_connections(self, tangent_r2):
        # Random polynomial endpoints exercise nonzero curvature on both sides.
        chart = tangent_r2.chart("TR2")
        rng = np.random.default_rng(5)

        def rand_conn(rank):
            rows = []
            for _ in range(rank):
                row = []
                for _ in range(rank):
                    table = {}
                    for i in range(chart.rank):
                        c = rng.integers(-2, 3, 3)
                        poly = Const(float(c[0])) \
                            + Const(float(c[1])) * chart.coordinate_field(0) \
                            + Const(float(c[2])) * chart.coordinate_field(1)
                        if not poly.is_zero():
                            table[(i,)] = poly
                    row.append(AForm(chart, 1, table))
                rows.append(row)
            return FormMatrix(chart, rows, 1)

        c0, c1 = rand_conn(2), rand_conn(2)
        assert coboundary_check([c0, c1], 1).max_abs(sample_points(2, 60, 42)) <= 1e-8
        lhs = bott_delta([c1], 1) - bott_delta([c0], 1)
        points = sample_points(2, 20, 4)
        assert lhs.max_abs(points) > 0.1  # genuinely nonzero on both sides

    @pytest.mark.parametrize("fixture_name, name", [
        ("solvable2d", "phi"), ("so3", "id"), ("chain", "phi"), ("chain", "psi"),
        ("sl2aff", "zero"),
    ])
    def test_transgression_on_morphism_pairs(self, request, fixture_name, name):
        phi = request.getfixturevalue(fixture_name).morphism(name)
        c1 = sum_connection(phi)
        c0 = direct_sum(
            orthogonal_connection(phi.source, QuasiMetric.identity(phi.source.rank)),
            dual_connection(orthogonal_connection(
                phi.source, QuasiMetric.identity(phi.target.rank))),
        )
        for h in (1, 2):
            worst = coboundary_check([c0, c1], h).max_abs(sample_points(phi.source.dim, 60, 42))
            assert worst <= 1e-8, (h, worst)

    @pytest.mark.parametrize("h", [1, 2])
    def test_cocycle_identity_three_connections(self, so3_double, h):
        p1, p2 = so3_double.morphism("id"), so3_double.morphism("rot")
        c1 = sum_connection(p1)
        c2 = sum_connection(p2)
        c0 = direct_sum(
            orthogonal_connection(p1.source, QuasiMetric.identity(3)),
            dual_connection(orthogonal_connection(p1.source, QuasiMetric.identity(3))),
        )
        worst = coboundary_check([c0, c1, c2], h).max_abs(sample_points(1, 60, 42))
        assert worst <= 1e-8, worst

    def test_equal_connections_cocycle_trivial(self, so3, line_points):
        conn = sum_connection(so3.morphism("id"))
        assert coboundary_check([conn, conn, conn], 2).max_abs(sample_points(1, 30, 42)) == 0.0


class TestBetaFactor:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_tau_weight_matches_beta_oracle(self, h):
        # The h-dependent tau factor is (2h-1) B(2h-1, 2h-1); h = 2 gives 1/10.
        order = 2 * h - 1
        tau = parse_expression("t", ["t"])
        integrand = (tau * (Const(1.0) - tau)) ** (order - 1)
        nodes = max(1, math.ceil((2 * (order - 1) + 1) / 2))
        value = order * scalar_eval(integrate_unit_interval(integrand, 0, nodes), ())
        beta = math.gamma(order) ** 2 / math.gamma(2 * order)
        assert value == pytest.approx(order * beta, rel=1e-12)
        assert 3 * math.gamma(3) ** 2 / math.gamma(6) == pytest.approx(0.1)

    def test_flat_pair_reduces_to_scaled_contraction(self, sa3, line_points):
        # On a zero-anchor fixture the whole tau integral collapses to
        # 1/10 times the polarized contraction of the difference matrix.
        phi = sa3.morphism("zero")
        c1 = sum_connection(phi)
        c0 = FormMatrix.zero(phi.source, c1.size, 1)
        out = bott_delta([c0, c1], 3)
        alpha = c1
        contraction = chern_polarized([alpha, alpha.wedge(alpha),
                                       alpha.wedge(alpha)])
        assert not contraction.is_zero()
        expected = contraction.scale(0.1)
        scale = contraction.max_abs(line_points[:10])
        assert (out - expected).max_abs(line_points[:10]) <= 1e-10 * scale
