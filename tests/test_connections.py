"""Connection matrices: curvature, duals, sums, metrics, links, flatness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids.algebroid import AlgebroidChart, Morphism
from algebroids.chern import bott_delta
from algebroids.connections import (
    FormMatrix,
    QuasiMetric,
    adapted_frame,
    bracket_connection,
    curvature,
    direct_sum,
    dual_connection,
    k_flatness_check,
    kernel_frame_on_S,
    metric_compat_check,
    morphism_target_connection,
    orthogonal_connection,
    quasi_metric_frame_check,
    quasi_metric_on_S,
)
from algebroids.expressions import (Const, _children, _schedule, evaluate, exponential,
                                    parse_expression)
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.forms import AForm
from algebroids.sampling import sample_points
from constructions import (
    conjugate_connection,
    conjugate_form_matrix,
    covariant_derivative,
    sum_connection,
)
import dense_oracle
from dense_oracle import Section, anchor_apply, apply, basis_section, gamma
from expression_oracle import same_tree, scalar_eval
from transgression_oracle import ConnectionFamily, link_curvature


def _field(chart, text):
    return parse_expression(text, chart.coords)


def _random_connection(chart, rank, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            table = {}
            for i in range(chart.rank):
                coeffs = rng.integers(-2, 3, 2)
                poly = Const(float(coeffs[0]))
                if chart.dim:
                    poly = poly + Const(float(coeffs[1])) * chart.coordinate_field(0)
                if not poly.is_zero():
                    table[(i,)] = poly
            row.append(AForm(chart, 1, table))
        rows.append(row)
    return FormMatrix(chart, rows, 1)


class TestCovariantDerivative:
    def test_flat_matrix_gives_directional_derivative(self, tangent_r2,
                                                      plane_points):
        chart = tangent_r2.chart("TR2")
        conn = FormMatrix.zero(chart, 2, 1)
        a = basis_section(chart, 0)
        v = [_field(chart, "x*y"), _field(chart, "y^2")]
        out = covariant_derivative(conn, a, v)
        for point in plane_points[:10]:
            assert scalar_eval(out[0], point) == pytest.approx(point[1])
            assert scalar_eval(out[1], point) == pytest.approx(0.0)

    def test_distinguished_so3_reproduces_bracket(self, so3):
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        out = covariant_derivative(conn, basis_section(chart, 0),
                                   basis_section(chart, 1))
        assert scalar_eval(out[2], (0.0,)) == pytest.approx(1.0)
        assert out[0].is_zero() and out[1].is_zero()

    def test_leibniz_rule_in_bundle_slot(self, action_x, line_points):
        chart = action_x.chart("action")
        conn = bracket_connection(chart)
        a = basis_section(chart, 0)
        f = _field(chart, "1+x^2")
        v = [_field(chart, "x")]
        lhs = covariant_derivative(conn, a, [f * v[0]])
        direct = covariant_derivative(conn, a, v)
        for point in line_points[:20]:
            expected = scalar_eval(f, point) * scalar_eval(direct[0], point) \
                + scalar_eval(anchor_apply(a, f), point) * scalar_eval(v[0], point)
            assert scalar_eval(lhs[0], point) == pytest.approx(expected)


class TestCurvature:
    def test_flat_connection_on_tangent(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        assert curvature(FormMatrix.zero(chart, 3, 1)).max_abs(plane_points) == 0.0

    def test_only_matrices_of_one_forms_are_connections(self, so3):
        curv = curvature(bracket_connection(so3.chart("so3")))
        with pytest.raises(ValueError, match="connection matrices must hold 1-forms"):
            curvature(curv)
        with pytest.raises(ValueError, match="connection matrices must hold 1-forms"):
            bott_delta([curv, curv], 1)

    def test_bracket_connection_flat_on_lie_algebra(self, so3, sl2aff,
                                                    line_points):
        for chart in (so3.chart("so3"), sl2aff.chart("sl2aff")):
            conn = bracket_connection(chart)
            assert curvature(conn).max_abs(line_points) < 1e-14

    def test_rank_one_examples_on_tangent_plane(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        omega_x = FormMatrix(chart, [[AForm(chart, 1, {(0,): _field(chart, "x")})]], 1)
        assert curvature(omega_x).max_abs(plane_points) < 1e-14
        omega_y = FormMatrix(chart, [[AForm(chart, 1, {(0,): _field(chart, "y")})]], 1)
        curv = curvature(omega_y)
        value = curv.entries[0][0].coeff((0, 1))
        for point in plane_points[:5]:
            assert scalar_eval(value, point) == pytest.approx(-1.0)

    def test_bianchi_identity(self, so3, action_x, tangent_r2):
        cases = [
            bracket_connection(so3.chart("so3")),
            bracket_connection(action_x.chart("action")),
            _random_connection(tangent_r2.chart("TR2"), 2, 3),
            _random_connection(so3.chart("so3"), 3, 4),
        ]
        for conn in cases:
            points = sample_points(conn.chart.dim, 60, 42)
            omega, curv = conn, curvature(conn)
            residual = curv.d() - (omega.wedge(curv) - curv.wedge(omega))
            assert residual.max_abs(points) < 1e-9

    def test_frame_covariance(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        conn = _random_connection(chart, 2, 11)
        p = [[_field(chart, "1"), _field(chart, "x")],
             [_field(chart, "0"), _field(chart, "1")]]
        transformed = conjugate_connection(conn, p)
        lhs = curvature(transformed)
        rhs = conjugate_form_matrix(curvature(conn), p)
        assert (lhs - rhs).max_abs(plane_points) < 1e-9


class TestDualAndSums:
    def test_zero_dualizes_to_zero(self, so3, line_points):
        conn = FormMatrix.zero(so3.chart("so3"), 3, 1)
        assert dual_connection(conn).max_abs(line_points) == 0.0

    def test_double_dual_is_identity(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        twice = dual_connection(dual_connection(conn))
        assert (twice - conn).max_abs(line_points) == 0.0

    def test_so3_dual_matrix_entries(self, so3):
        chart = so3.chart("so3")
        dual = dual_connection(bracket_connection(chart))
        # dual entry (u, s) on direction b_i is -gamma_{is}^u
        for u in range(3):
            for s in range(3):
                for i in range(3):
                    expected = -scalar_eval(gamma(chart, i, s, u), (0.0,))
                    got = scalar_eval(dual.entries[u][s].coeff((i,)), (0.0,))
                    assert got == pytest.approx(expected)

    def test_block_sum_curvature(self, so3, line_points):
        chart = so3.chart("so3")
        c1 = bracket_connection(chart)
        c2 = _random_connection(chart, 2, 5)
        total = direct_sum(c1, c2)
        curv = curvature(total)
        top = curvature(c1)
        bottom = curvature(c2)
        for u in range(3):
            for t in range(3):
                assert (curv.entries[u][t] - top.entries[u][t]).max_abs(
                    line_points[:10]) < 1e-12
        for u in range(2):
            for t in range(2):
                assert (curv.entries[3 + u][3 + t] - bottom.entries[u][t]).max_abs(
                    line_points[:10]) < 1e-12
        for u in range(3):
            for t in range(2):
                assert curv.entries[u][3 + t].is_zero()
                assert curv.entries[3 + t][u].is_zero()


def distinguished_pair(phi):
    """The bracket connection on phi's source and the one phi induces on its target."""
    return bracket_connection(phi.source), morphism_target_connection(phi)


class TestDistinguishedPair:
    def test_identity_on_zero_anchor_gives_gamma_contractions(self, so3):
        chart = so3.chart("so3")
        nabla, nabla_prime = distinguished_pair(Morphism.identity(chart))
        for conn in (nabla, nabla_prime):
            for u in range(3):
                for t in range(3):
                    for i in range(3):
                        assert scalar_eval(conn.entries[u][t].coeff((i,)), (0.0,)) == \
                            pytest.approx(scalar_eval(gamma(chart, i, u, t), (0.0,)))

    def test_abelian_target_connection_vanishes(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        _, nabla_prime = distinguished_pair(phi)
        assert nabla_prime.max_abs(line_points) == 0.0

    def test_compatibility_with_morphism(self, solvable2d, action_x, chain):
        for phi in (solvable2d.morphism("phi"), action_x.morphism("sharp"),
                    chain.morphism("phi")):
            nabla, nabla_prime = distinguished_pair(phi)
            points = sample_points(phi.source.dim, 40, 42)
            for i in range(phi.source.rank):
                direction = basis_section(phi.source, i)
                for j in range(phi.source.rank):
                    lhs = apply(phi, Section(
                        phi.source,
                        covariant_derivative(nabla, direction,
                                             basis_section(phi.source, j)),
                    ))
                    rhs = covariant_derivative(
                        nabla_prime, direction,
                        apply(phi, basis_section(phi.source, j)),
                    )
                    for l, r in zip(lhs.comps, rhs):
                        for point in points[:15]:
                            assert scalar_eval(l, point) == pytest.approx(
                                scalar_eval(r, point), abs=1e-10)

    def test_sum_matrix_reproduces_block_formulas(self, action_x, line_points):
        # The A'* block must carry -phi_i^t gamma'_tu^s + rho'_u d(phi_i^s)
        phi = action_x.morphism("sharp")
        conn = sum_connection(phi)
        entry = conn.entries[1][1].coeff((0,))
        for point in line_points[:10]:
            assert scalar_eval(entry, point) == pytest.approx(1.0)


def _assert_same_entries(new: FormMatrix, old: FormMatrix) -> None:
    """Same chart, size, degree, keys and coefficient trees in every entry."""
    assert (new.chart, new.size, new.degree) == (old.chart, old.size, old.degree)
    for new_row, old_row in zip(new.entries, old.entries):
        for new_entry, old_entry in zip(new_row, old_row):
            assert list(new_entry.table) == list(old_entry.table)
            for key, coeff in old_entry.table.items():
                assert same_tree(new_entry.table[key], coeff)


def _assert_same_values(new: FormMatrix, old: FormMatrix, points) -> None:
    """Same chart, size, degree and keys in every entry, and every coefficient
    within relative 1e-12 of the other's at the points."""
    assert (new.chart, new.size, new.degree) == (old.chart, old.size, old.degree)
    got, want = [], []
    for new_row, old_row in zip(new.entries, old.entries):
        for new_entry, old_entry in zip(new_row, old_row):
            assert list(new_entry.table) == list(old_entry.table)
            got.extend(new_entry.table.values())
            want.extend(old_entry.table.values())
    want = evaluate(want, points)
    np.testing.assert_allclose(evaluate(got, points), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max(initial=0.0))


def _tree_sizes(fields) -> tuple[int, list[int]]:
    """Distinct nodes under `fields`, and each field's node count as a tree,
    by one children-first pass that sums the children's counts."""
    order, _ = _schedule(fields)
    size: dict = {}
    for node in order:
        size[node] = 1 + sum(size[kid] for kid in _children(node))
    return len(order), [size[field] for field in fields]


_X = parse_expression("x", ["x"])


def _anchored_chart(rank: int) -> AlgebroidChart:
    """Rank `rank` over x with anchor rows 1 and x and [b1, b2] = b1, the rest zero."""
    one, zero = Const(1.0), Const(0.0)
    anchor = [[one], [_X]][:rank] + [[zero]] * (rank - 2)
    brackets = {(0, 1): {0: one}} if rank > 1 else {}
    return AlgebroidChart("A", ["x"], [f"b{u + 1}" for u in range(rank)], anchor, brackets)


def _tridiagonal_chart_and_metric() -> tuple[AlgebroidChart, QuasiMetric]:
    """The rank-5 anchored chart with diagonal 2 + x^2 and off-diagonal 0.3x."""
    diagonal, beside = parse_expression("2+x^2", ["x"]), parse_expression("0.3*x", ["x"])
    return _anchored_chart(5), QuasiMetric(5, 1, [
        [diagonal if a == b else beside if abs(a - b) == 1 else Const(0.0)
         for b in range(5)] for a in range(5)])


@st.composite
def _spd_metrics(draw):
    """An anchored chart of rank 1 to 5 and a metric on it that is positive
    definite on [-1, 1]: entries p + qx off the diagonal, |p|, |q| <= 1/2, and
    rank + exp(cx) on it, so strictly diagonally dominant."""
    rank = draw(st.integers(1, 5))
    eighths = st.integers(-4, 4).map(lambda n: Const(n / 8))
    matrix = [[Const(0.0)] * rank for _ in range(rank)]
    for a in range(rank):
        matrix[a][a] = Const(float(rank)) + exponential(draw(eighths) * _X)
        for b in range(a):
            matrix[a][b] = matrix[b][a] = draw(eighths) + draw(eighths) * _X
    return _anchored_chart(rank), QuasiMetric(rank, 1, matrix)


class TestMetricLayerMatchesEntryLoops:
    """The metric layer's `FormMatrix` products against the loops they replaced."""

    def test_transpose(self, so3):
        conn = _random_connection(so3.chart("so3"), 3, 5)
        transposed = conn.transpose()
        assert all(transposed.entries[u][t].table is conn.entries[t][u].table
                   for u in range(3) for t in range(3))
        assert all(new.table is old.table for new_row, old_row in zip(
            transposed.transpose().entries, conn.entries) for new, old in zip(new_row, old_row))
        _assert_same_entries(dual_connection(conn), transposed.scale(-1.0))

    def test_of_functions(self, tangent_r2):
        chart = tangent_r2.chart("TR2")
        rows = [[_field(chart, "x*y"), Const(0.0)], [Const(2.0), _field(chart, "y")]]
        matrix = FormMatrix.of_functions(chart, rows)
        assert matrix.degree == 0
        assert [[str(entry.coeff(())) for entry in row] for row in matrix.entries] == [
            [str(f) for f in row] for row in rows]

    @pytest.mark.parametrize("name", builtin_fixture_names())
    def test_connections_build_the_same_trees(self, name):
        fixture = resolve_fixture(name)
        for chart in fixture.charts.values():
            conn = bracket_connection(chart)
            _assert_same_entries(dual_connection(conn), dense_oracle.dual_connection(conn))
        for phi in fixture.morphisms.values():
            conn = morphism_target_connection(phi)
            _assert_same_entries(dual_connection(conn), dense_oracle.dual_connection(conn))

    @pytest.mark.parametrize("name", builtin_fixture_names())
    def test_orthogonal_connection_matches_gram_schmidt(self, name):
        fixture = resolve_fixture(name)
        points = sample_points(len(fixture.coords), 20, 0)
        for chart_name, chart in fixture.charts.items():
            metric = fixture.metric_for(chart_name)
            _assert_same_values(orthogonal_connection(chart, metric),
                                dense_oracle.orthogonal_connection(chart, metric), points)

    @pytest.mark.parametrize("name", builtin_fixture_names())
    def test_metric_compat_residuals_are_equal(self, name):
        fixture = resolve_fixture(name)
        residuals = []
        for seed in (0, 1, 2):
            points = sample_points(len(fixture.coords), 20, seed)
            cases = []
            for chart_name, chart in fixture.charts.items():
                metric = fixture.metric_for(chart_name)
                cases.append((orthogonal_connection(chart, metric), metric))
                # Not metric: its residual is far from zero.
                cases.append((_random_connection(chart, metric.rank, seed), metric))
            for phi in fixture.morphisms.values():
                conn = sum_connection(phi)
                cases.extend((conn, g) for g in quasi_metric_on_S(phi))
            for conn, g in cases:
                new = metric_compat_check(conn, g).max_abs(points)
                assert new == dense_oracle.metric_compat_check(conn, g, points).residual
                residuals.append(new)
        assert max(residuals) > 1.0

    def test_full_metric(self, tangent_r2):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [[_field(chart, "exp(2*x)"), _field(chart, "x*y/4")],
                               [_field(chart, "x*y/4"), _field(chart, "1 + y^2")]])
        points = sample_points(2, 20, 3)
        g.validate(points)
        orth = orthogonal_connection(chart, g)
        _assert_same_values(orth, dense_oracle.orthogonal_connection(chart, g), points)
        for conn in (orth, _random_connection(chart, 2, 3)):
            assert (metric_compat_check(conn, g).max_abs(points)
                    == dense_oracle.metric_compat_check(conn, g, points).residual)


class TestOrthogonalConnection:
    def test_identity_metric_gives_zero_matrix(self, so3, line_points):
        chart = so3.chart("so3")
        conn = orthogonal_connection(chart, QuasiMetric.identity(3))
        assert conn.max_abs(line_points) == 0.0

    def test_exponential_metric_matches_hand_conjugation(self, action_x,
                                                         line_points):
        chart = action_x.chart("action")
        g = action_x.metric_for("action")
        conn = orthogonal_connection(chart, g)
        entry = conn.entries[0][0].coeff((0,))
        # Orthonormal frame e^{-x} b_1 and anchor x d/dx give omega = x b*1.
        for point in line_points[:20]:
            assert scalar_eval(entry, point) == pytest.approx(point[0], rel=1e-12)

    def test_metric_parallel_residual(self, action_x):
        chart = action_x.chart("action")
        g = action_x.metric_for("action")
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g).max_abs(sample_points(1, 100, 42)) <= 1e-10

    def test_rank_two_mixed_metric(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [
            [_field(chart, "exp(2*x)"), _field(chart, "0")],
            [_field(chart, "0"), _field(chart, "1")],
        ])
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g).max_abs(sample_points(2, 60, 42)) <= 1e-10

    def test_rank_five_tridiagonal_metric_on_an_anchored_chart(self):
        chart, g = _tridiagonal_chart_and_metric()
        points = sample_points(1, 50, 42)
        g.validate(points)
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g).max_abs(points) <= 1e-10
        _assert_same_values(conn, dense_oracle.orthogonal_connection(chart, g), points)

    def test_tridiagonal_cholesky_connection_stays_small(self):
        # Gram-Schmidt through the pairing built 5,618 distinct nodes here, and
        # its largest coefficient expanded to about 1.5e8 tree nodes.
        chart, g = _tridiagonal_chart_and_metric()
        coeffs = [coeff for row in orthogonal_connection(chart, g).entries
                  for entry in row for coeff in entry.table.values()]
        distinct, sizes = _tree_sizes(coeffs)
        assert distinct <= 1000
        assert max(sizes) <= 1e5

    @settings(max_examples=12, deadline=None)
    @given(_spd_metrics())
    def test_random_spd_metric_on_an_anchored_chart(self, case):
        chart, g = case
        points = sample_points(1, 20, 0)
        g.validate(points)
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g).max_abs(points) <= 1e-10
        _assert_same_values(conn, dense_oracle.orthogonal_connection(chart, g), points)

    def test_degenerate_metric_rejected(self, tangent_r2):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [
            [_field(chart, "x"), Const(0.0)],
            [Const(0.0), Const(1.0)],
        ])
        with pytest.raises(ValueError, match="positive definite"):
            g.validate(sample_points(2, 8, 7))


class TestLinks:
    """The curvature Omega_tau of an affine link, the integrand of the parameter-chart
    reference for Delta(c0, c1)c_h."""

    def test_zero_anchor_affine_link_curvature(self, so3):
        # Omega_tau = tau (1 - tau) alpha ^ alpha for a flat affine pair.
        chart = so3.chart("so3")
        c0 = FormMatrix.zero(chart, 3, 1)
        c1 = bracket_connection(chart)
        family = ConnectionFamily.affine_link(c0, c1)
        omega_tau = link_curvature(family)
        link = family.product_chart
        points = sample_points(link.dim, 25, 42)
        alpha = c1 - c0
        wedge_part = alpha.wedge(alpha)
        worst = 0.0
        for u in range(3):
            for t in range(3):
                for key, coeff in omega_tau.entries[u][t].table.items():
                    base = wedge_part.entries[u][t].coeff(key)
                    for point in points:
                        tau = point[-1]
                        expected = tau * (1 - tau) * scalar_eval(base, point[:1])
                        worst = max(worst, abs(scalar_eval(coeff, point) - expected))
        assert worst < 1e-12

    def test_constant_family_curvature_is_the_endpoint_curvature(self, tangent_r2):
        # On an anchored chart, (1 - tau) c + tau c has the curvature of c at every tau.
        conn = _random_connection(tangent_r2.chart("TR2"), 2, 5)
        family = ConnectionFamily.affine_link(conn, conn)
        omega_tau, curv = link_curvature(family), curvature(conn)
        points = sample_points(family.product_chart.dim, 20, 7)
        worst, scale = 0.0, 0.0
        for link_row, row in zip(omega_tau.entries, curv.entries):
            for link_entry, entry in zip(link_row, row):
                assert set(link_entry.table) <= set(entry.table)
                for key, coeff in entry.table.items():
                    for point in points:
                        value = scalar_eval(coeff, point[:-1])
                        scale = max(scale, abs(value))
                        worst = max(worst, abs(scalar_eval(link_entry.coeff(key), point)
                                               - value))
        assert scale > 0.1
        assert worst <= 1e-12 * scale


class TestQuasiMetrics:
    def test_annihilator_matches_kernels(self, solvable2d):
        phi = solvable2d.morphism("phi")
        g_plus, g_minus = quasi_metric_on_S(phi)
        ker, coker = solvable2d.kernel_rows("phi")
        frame = kernel_frame_on_S(phi, ker, coker)
        points = sample_points(1, 10, 42)
        for g in (g_plus, g_minus):
            for point, matrix in zip(points, g.values(points)):
                expected_nullity = len(frame)
                rank = np.linalg.matrix_rank(matrix, tol=1e-9)
                assert matrix.shape[0] - rank == expected_nullity
                for vec in frame:
                    values = np.array([scalar_eval(c, point) for c in vec])
                    assert np.max(np.abs(values @ matrix)) < 1e-12

    def test_symmetry_signs(self, solvable2d):
        # g+ is symmetric and g- skew, exactly, at every point.
        points = sample_points(1, 10, 42)
        signs = []
        for g in quasi_metric_on_S(solvable2d.morphism("phi")):
            values = g.values(points)
            assert np.array_equal(values, g.sign * np.swapaxes(values, 1, 2))
            signs.append(g.sign)
        assert signs == [1, -1]

    def test_distinguished_sum_is_metric_compatible(self, solvable2d, action_x):
        for fixture, name in ((solvable2d, "phi"), (action_x, "sharp")):
            phi = fixture.morphism(name)
            conn = sum_connection(phi)
            g_plus, g_minus = quasi_metric_on_S(phi)
            points = sample_points(1, 60, 42)
            assert metric_compat_check(conn, g_plus).max_abs(points) <= 1e-9
            assert metric_compat_check(conn, g_minus).max_abs(points) <= 1e-9

    def test_perturbed_connection_breaks_compatibility(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = sum_connection(phi)
        chart = phi.source
        bump = AForm(chart, 1, {(0,): Const(1.0)})
        rows = [list(row) for row in conn.entries]
        rows[0][2] = rows[0][2] + bump
        perturbed = FormMatrix(chart, rows, 1)
        g_plus, _ = quasi_metric_on_S(phi)
        assert metric_compat_check(perturbed, g_plus).max_abs(sample_points(1, 60, 42)) > 0.1


class TestKFlatness:
    def test_distinguished_pair_is_kernel_flat(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = sum_connection(phi)
        ker, coker = solvable2d.kernel_rows("phi")
        frame = kernel_frame_on_S(phi, ker, coker)
        assert k_flatness_check(curvature(conn), frame, sample_points(1, 60, 42)) == 0.0

    def test_identity_morphism_vacuous_pass(self, so3):
        ident = Morphism.identity(so3.chart("so3"))
        conn = sum_connection(ident)
        assert k_flatness_check(curvature(conn), [], sample_points(1, 40, 42)) <= 1e-10

    def test_generic_connection_is_not_kernel_flat(self, solvable2d):
        phi = solvable2d.morphism("phi")
        ker, coker = solvable2d.kernel_rows("phi")
        random_conn = _random_connection(phi.source, 3, 23)
        frame = kernel_frame_on_S(phi, ker, coker)
        assert k_flatness_check(curvature(random_conn), frame,
                                sample_points(1, 60, 42)) > 1e-10


class TestAdaptedFrames:
    def test_solvable_morphism_blocks(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = sum_connection(phi)
        g_plus, g_minus = quasi_metric_on_S(phi)
        ker, coker = solvable2d.kernel_rows("phi")
        frame = kernel_frame_on_S(phi, ker, coker)
        points = sample_points(1, 40, 42)
        for g in (g_plus, g_minus):
            blocks = quasi_metric_frame_check(conn, curvature(conn), g,
                                              adapted_frame(g, frame, points), points)
            for block, worst in blocks.items():
                assert worst <= 1e-9, block

    def test_full_kernel_case(self, so3):
        phi = so3.morphism("zero")
        conn = sum_connection(phi)
        g_plus, _ = quasi_metric_on_S(phi)
        ker, coker = so3.kernel_rows("zero")
        frame = kernel_frame_on_S(phi, ker, coker)
        points = sample_points(1, 20, 42)
        blocks = quasi_metric_frame_check(conn, curvature(conn), g_plus,
                                          adapted_frame(g_plus, frame, points), points)
        assert all(worst <= 1e-9 for worst in blocks.values())

    @pytest.mark.parametrize("sign, rows", [
        (1, [[1, 1, 2], [1, 1, 2], [2, 2, 4]]),
        (-1, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]),
        # i * gram of this odd skew form has its zero eigenvalue computed as 1e-9
        (-1, [[0, 1e7, 2e7], [-1e7, 0, 3e7], [-2e7, -3e7, 0]]),
    ])
    def test_degenerate_complement_is_one_error(self, sign, rows):
        g = QuasiMetric(3, sign, [[Const(float(v)) for v in row] for row in rows])
        with pytest.raises(ValueError, match="^metric is degenerate beyond the supplied kernel$"):
            adapted_frame(g, [], sample_points(1, 3, 42))

    @pytest.mark.parametrize("rows", [
        [[1, 0], [0, 1], [1, 1]],  # more rows than the rank
        [[1, 2], [2, 4]],  # as many rows as the rank, one direction
        [[1, 0], [1, 1e-10]],  # independent only below the 1e-9 tolerance
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_dependent_kernel_rows_are_one_error(self, rows, sign):
        g = QuasiMetric(2, sign, [[Const(0.0)] * 2 for _ in range(2)])
        vectors = [[Const(float(v)) for v in row] for row in rows]
        with pytest.raises(ValueError, match="^kernel vectors do not span the annihilator$"):
            adapted_frame(g, vectors, sample_points(1, 3, 42))
