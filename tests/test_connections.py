"""Connection matrices: curvature, duals, sums, metrics, links, flatness."""

import numpy as np
import pytest

from algebroids.algebroid import Morphism, Section, anchor_apply
from algebroids.connections import (
    AConnection,
    ConnectionFamily,
    FormMatrix,
    QuasiMetric,
    bracket_connection,
    conjugate_connection,
    conjugate_form_matrix,
    covariant_derivative,
    curvature,
    direct_sum,
    distinguished_pair,
    dual_connection,
    glue,
    k_flatness_check,
    kernel_frame_on_S,
    link_curvature,
    metric_compat_check,
    morphism_sum_connection,
    orthogonal_connection,
    quasi_metric_frame_check,
    quasi_metric_on_S,
)
from algebroids.expressions import Const, parse_expression
from algebroids.forms import AFormData
from algebroids.sampling import sample_points


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
            row.append(chart.form(AFormData(1, chart.rank, table)))
        rows.append(row)
    return AConnection(chart, rank, FormMatrix(chart, rows, 1))


class TestCovariantDerivative:
    def test_flat_matrix_gives_directional_derivative(self, tangent_r2,
                                                      plane_points):
        chart = tangent_r2.chart("TR2")
        conn = AConnection.flat(chart, 2)
        a = chart.basis_section(0)
        v = [_field(chart, "x*y"), _field(chart, "y^2")]
        out = covariant_derivative(conn, a, v)
        for point in plane_points[:10]:
            assert out[0].eval(point) == pytest.approx(point[1])
            assert out[1].eval(point) == pytest.approx(0.0)

    def test_distinguished_so3_reproduces_bracket(self, so3):
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        out = covariant_derivative(conn, chart.basis_section(0),
                                   chart.basis_section(1))
        assert out[2].eval((0.0,)) == pytest.approx(1.0)
        assert out[0].is_zero() and out[1].is_zero()

    def test_leibniz_rule_in_bundle_slot(self, action_x, line_points):
        chart = action_x.chart("action")
        conn = bracket_connection(chart)
        a = chart.basis_section(0)
        f = _field(chart, "1+x^2")
        v = [_field(chart, "x")]
        lhs = covariant_derivative(conn, a, [f * v[0]])
        direct = covariant_derivative(conn, a, v)
        for point in line_points[:20]:
            expected = f.eval(point) * direct[0].eval(point) \
                + anchor_apply(a, f).eval(point) * v[0].eval(point)
            assert lhs[0].eval(point) == pytest.approx(expected)


class TestCurvature:
    def test_flat_connection_on_tangent(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        assert curvature(AConnection.flat(chart, 3)).max_abs(plane_points) == 0.0

    def test_bracket_connection_flat_on_lie_algebra(self, so3, sl2aff,
                                                    line_points):
        for chart in (so3.chart("so3"), sl2aff.chart("sl2aff")):
            conn = bracket_connection(chart)
            assert curvature(conn).max_abs(line_points) < 1e-14

    def test_rank_one_examples_on_tangent_plane(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        omega_x = FormMatrix(chart, [[chart.form(
            AFormData(1, 2, {(0,): _field(chart, "x")}))]], 1)
        conn = AConnection(chart, 1, omega_x)
        assert curvature(conn).max_abs(plane_points) < 1e-14
        omega_y = FormMatrix(chart, [[chart.form(
            AFormData(1, 2, {(0,): _field(chart, "y")}))]], 1)
        curv = curvature(AConnection(chart, 1, omega_y))
        value = curv.entries[0][0].coeff((0, 1))
        for point in plane_points[:5]:
            assert value.eval(point) == pytest.approx(-1.0)

    def test_bianchi_identity(self, so3, action_x, tangent_r2):
        cases = [
            bracket_connection(so3.chart("so3")),
            bracket_connection(action_x.chart("action")),
            _random_connection(tangent_r2.chart("TR2"), 2, 3),
            _random_connection(so3.chart("so3"), 3, 4),
        ]
        for conn in cases:
            points = sample_points(conn.chart.dim, 60, 42)
            omega, curv = conn.matrix, curvature(conn)
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
        conn = AConnection.flat(so3.chart("so3"), 3)
        assert dual_connection(conn).matrix.max_abs(line_points) == 0.0

    def test_double_dual_is_identity(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        twice = dual_connection(dual_connection(conn))
        assert (twice.matrix - conn.matrix).max_abs(line_points) == 0.0

    def test_so3_dual_matrix_entries(self, so3):
        chart = so3.chart("so3")
        dual = dual_connection(bracket_connection(chart))
        # dual entry (u, s) on direction b_i is -gamma_{is}^u
        for u in range(3):
            for s in range(3):
                for i in range(3):
                    expected = -chart.gamma(i, s, u).eval((0.0,))
                    got = dual.omega(u, s).data.coeff((i,)).eval((0.0,))
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


class TestDistinguishedPair:
    def test_identity_on_zero_anchor_gives_gamma_contractions(self, so3):
        chart = so3.chart("so3")
        nabla, nabla_prime = distinguished_pair(Morphism.identity(chart))
        for conn in (nabla, nabla_prime):
            for u in range(3):
                for t in range(3):
                    for i in range(3):
                        assert conn.omega(u, t).data.coeff((i,)).eval((0.0,)) == \
                            pytest.approx(chart.gamma(i, u, t).eval((0.0,)))

    def test_abelian_target_connection_vanishes(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        _, nabla_prime = distinguished_pair(phi)
        assert nabla_prime.matrix.max_abs(line_points) == 0.0

    def test_compatibility_with_morphism(self, solvable2d, action_x, chain):
        for phi in (solvable2d.morphism("phi"), action_x.morphism("sharp"),
                    chain.morphism("phi")):
            nabla, nabla_prime = distinguished_pair(phi)
            points = sample_points(phi.source.dim, 40, 42)
            for i in range(phi.source.rank):
                direction = phi.source.basis_section(i)
                for j in range(phi.source.rank):
                    lhs = phi.apply(Section(
                        phi.source,
                        covariant_derivative(nabla, direction,
                                             phi.source.basis_section(j)),
                    ))
                    rhs = covariant_derivative(
                        nabla_prime, direction,
                        phi.apply(phi.source.basis_section(j)),
                    )
                    for l, r in zip(lhs.comps, rhs):
                        for point in points[:15]:
                            assert l.eval(point) == pytest.approx(
                                r.eval(point), abs=1e-10)

    def test_sum_matrix_reproduces_block_formulas(self, action_x, line_points):
        # The A'* block must carry -phi_i^t gamma'_tu^s + rho'_u d(phi_i^s)
        phi = action_x.morphism("sharp")
        conn = morphism_sum_connection(phi)
        entry = conn.omega(1, 1).data.coeff((0,))
        for point in line_points[:10]:
            assert entry.eval(point) == pytest.approx(1.0)


class TestOrthogonalConnection:
    def test_identity_metric_gives_zero_matrix(self, so3, line_points):
        chart = so3.chart("so3")
        conn = orthogonal_connection(chart, QuasiMetric.identity(3))
        assert conn.matrix.max_abs(line_points) == 0.0

    def test_exponential_metric_matches_hand_conjugation(self, action_x,
                                                         line_points):
        chart = action_x.chart("action")
        g = action_x.metric_for("action")
        conn = orthogonal_connection(chart, g)
        entry = conn.omega(0, 0).data.coeff((0,))
        # Orthonormal frame e^{-x} b_1 and anchor x d/dx give omega = x b*1.
        for point in line_points[:20]:
            assert entry.eval(point) == pytest.approx(point[0], rel=1e-12)

    def test_metric_parallel_residual(self, action_x):
        chart = action_x.chart("action")
        g = action_x.metric_for("action")
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g, 100, 42, 1e-10).passed

    def test_rank_two_mixed_metric(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [
            [_field(chart, "exp(2*x)"), _field(chart, "0")],
            [_field(chart, "0"), _field(chart, "1")],
        ])
        conn = orthogonal_connection(chart, g)
        assert metric_compat_check(conn, g, 60, 42, 1e-10).passed

    def test_degenerate_metric_rejected(self, tangent_r2):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [
            [_field(chart, "x"), Const(0.0)],
            [Const(0.0), Const(1.0)],
        ])
        with pytest.raises(ValueError, match="positive definite"):
            orthogonal_connection(chart, g)


class TestGlue:
    def test_single_unit_weight(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        glued = glue([conn], [Const(1.0)])
        assert (glued.matrix - conn.matrix).max_abs(line_points) == 0.0

    def test_equal_halves_idempotent(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        glued = glue([conn, conn], [Const(0.5), Const(0.5)])
        assert (glued.matrix - conn.matrix).max_abs(line_points) < 1e-15

    def test_affine_average(self, so3, line_points):
        chart = so3.chart("so3")
        c0 = AConnection.flat(chart, 3)
        c1 = bracket_connection(chart)
        glued = glue([c0, c1], [Const(0.5), Const(0.5)])
        assert (glued.matrix - c1.matrix.scale(0.5)).max_abs(line_points) < 1e-15

    def test_partition_of_unity_enforced(self, so3):
        chart = so3.chart("so3")
        conn = bracket_connection(chart)
        with pytest.raises(ValueError, match="partition of unity"):
            glue([conn, conn], [Const(0.5), Const(0.6)])

    def test_gluing_metric_connections_stays_metric(self, tangent_r2):
        chart = tangent_r2.chart("TR2")
        g = QuasiMetric(2, 1, [
            [_field(chart, "exp(2*x)"), Const(0.0)],
            [Const(0.0), Const(1.0)],
        ])
        conn = orthogonal_connection(chart, g)
        theta = _field(chart, "1/(2+x^2)")
        glued = glue([conn, conn], [theta, Const(1.0) - theta])
        assert metric_compat_check(glued, g, 60, 42, 1e-10).passed


class TestLinks:
    def test_affine_link_transverse_curvature_is_difference(self, so3):
        chart = so3.chart("so3")
        c0 = AConnection.flat(chart, 3)
        c1 = bracket_connection(chart)
        family = ConnectionFamily.affine_link(c0, c1)
        _, lam = link_curvature(family)
        alpha = c1.matrix - c0.matrix
        points = sample_points(family.product_chart.dim, 30, 42)
        worst = 0.0
        for u in range(3):
            for t in range(3):
                for i in range(3):
                    a = alpha.entries[u][t].data.coeff((i,))
                    l = lam.entries[u][t].data.coeff((i,))
                    for point in points[:10]:
                        worst = max(worst, abs(l.eval(point) - a.eval(point[:1])))
        assert worst < 1e-14

    def test_constant_family_has_no_transverse_curvature(self, so3, line_points):
        conn = bracket_connection(so3.chart("so3"))
        family = ConnectionFamily.affine_link(conn, conn)
        _, lam = link_curvature(family)
        points = sample_points(family.product_chart.dim, 20, 7)
        assert lam.max_abs(points) == 0.0

    def test_zero_anchor_affine_link_curvature(self, so3):
        # Omega_tau = tau (1 - tau) alpha ^ alpha for a flat affine pair.
        chart = so3.chart("so3")
        c0 = AConnection.flat(chart, 3)
        c1 = bracket_connection(chart)
        family = ConnectionFamily.affine_link(c0, c1)
        omega_tau, _ = link_curvature(family)
        link = family.product_chart
        points = sample_points(link.dim, 25, 42)
        alpha = c1.matrix - c0.matrix
        wedge_part = alpha.wedge(alpha)
        worst = 0.0
        for u in range(3):
            for t in range(3):
                for key, coeff in omega_tau.entries[u][t].data.table.items():
                    base = wedge_part.entries[u][t].data.coeff(key)
                    for point in points:
                        tau = point[-1]
                        expected = tau * (1 - tau) * base.eval(point[:1])
                        worst = max(worst, abs(coeff.eval(point) - expected))
        assert worst < 1e-12

    def test_full_connection_slices_back_to_endpoints(self, so3, line_points):
        chart = so3.chart("so3")
        c0 = AConnection.flat(chart, 3)
        c1 = bracket_connection(chart)
        family = ConnectionFamily.affine_link(c0, c1)
        for value, endpoint in ((0.0, c0), (1.0, c1)):
            sliced = family.slice_at([value])
            assert (sliced.matrix - endpoint.matrix).max_abs(line_points) < 1e-14

    def test_product_curvature_transverse_block_sign(self, so3):
        # Under this library's ordering, the b*^i ^ dtau block carries -Lambda.
        chart = so3.chart("so3")
        c0 = AConnection.flat(chart, 3)
        c1 = bracket_connection(chart)
        family = ConnectionFamily.affine_link(c0, c1)
        full_curv = curvature(family.full_connection())
        _, lam = link_curvature(family)
        points = sample_points(family.product_chart.dim, 20, 42)
        worst = 0.0
        for u in range(3):
            for t in range(3):
                for (i, j), coeff in full_curv.entries[u][t].data.table.items():
                    if j != 3:
                        continue
                    lam_value = lam.entries[u][t].data.coeff((i,))
                    for point in points:
                        worst = max(worst, abs(coeff.eval(point)
                                               + lam_value.eval(point)))
        assert worst < 1e-12


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
                    values = np.array([c.eval(point) for c in vec])
                    assert np.max(np.abs(values @ matrix)) < 1e-12

    def test_symmetry_signs(self, solvable2d):
        phi = solvable2d.morphism("phi")
        g_plus, g_minus = quasi_metric_on_S(phi)
        points = sample_points(1, 10, 42)
        assert g_plus.symmetry_residual(points) == 0.0
        assert g_minus.symmetry_residual(points) == 0.0

    def test_distinguished_sum_is_metric_compatible(self, solvable2d, action_x):
        for fixture, name in ((solvable2d, "phi"), (action_x, "sharp")):
            phi = fixture.morphism(name)
            conn = morphism_sum_connection(phi)
            g_plus, g_minus = quasi_metric_on_S(phi)
            assert metric_compat_check(conn, g_plus, 60, 42, 1e-9).passed
            assert metric_compat_check(conn, g_minus, 60, 42, 1e-9).passed

    def test_perturbed_connection_breaks_compatibility(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = morphism_sum_connection(phi)
        chart = phi.source
        bump = chart.form(AFormData(1, 2, {(0,): Const(1.0)}))
        rows = [list(row) for row in conn.matrix.entries]
        rows[0][2] = rows[0][2] + bump
        perturbed = AConnection(chart, 3, FormMatrix(chart, rows, 1))
        g_plus, _ = quasi_metric_on_S(phi)
        record = metric_compat_check(perturbed, g_plus, 60, 42, 1e-9)
        assert not record.passed and record.residual > 0.1


class TestKFlatness:
    def test_distinguished_pair_is_kernel_flat(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = morphism_sum_connection(phi)
        ker, coker = solvable2d.kernel_rows("phi")
        record = k_flatness_check(conn, phi, ker, coker, 60, 42, 1e-10)
        assert record.passed and record.residual == 0.0

    def test_identity_morphism_vacuous_pass(self, so3):
        ident = Morphism.identity(so3.chart("so3"))
        conn = morphism_sum_connection(ident)
        record = k_flatness_check(conn, ident, [], [], 40, 42, 1e-10)
        assert record.passed

    def test_generic_connection_is_not_kernel_flat(self, solvable2d):
        phi = solvable2d.morphism("phi")
        ker, coker = solvable2d.kernel_rows("phi")
        random_conn = _random_connection(phi.source, 3, 23)
        record = k_flatness_check(random_conn, phi, ker, coker, 60, 42, 1e-10)
        assert not record.passed


class TestAdaptedFrames:
    def test_solvable_morphism_blocks(self, solvable2d):
        phi = solvable2d.morphism("phi")
        conn = morphism_sum_connection(phi)
        g_plus, g_minus = quasi_metric_on_S(phi)
        ker, coker = solvable2d.kernel_rows("phi")
        frame = kernel_frame_on_S(phi, ker, coker)
        for g in (g_plus, g_minus):
            for record in quasi_metric_frame_check(conn, g, frame, 40, 42, 1e-9):
                assert record.passed, record.name

    def test_full_kernel_case(self, so3):
        phi = so3.morphism("zero")
        conn = morphism_sum_connection(phi)
        g_plus, _ = quasi_metric_on_S(phi)
        ker, coker = so3.kernel_rows("zero")
        frame = kernel_frame_on_S(phi, ker, coker)
        for record in quasi_metric_frame_check(conn, g_plus, frame, 20, 42, 1e-9):
            assert record.passed
