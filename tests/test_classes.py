"""Modular forms, secondary class representatives, relative and jet classes."""

import pytest

from algebroids.algebroid import Morphism, d_A, jet_prolong, pullback
from algebroids.chern import bott_delta
from algebroids.classes import ClassBuilder, modular_form, modular_form_morphism, mu_form
from algebroids.connections import (
    FormMatrix,
    curvature,
    direct_sum,
    dual_connection,
    morphism_target_connection,
    QuasiMetric,
    orthogonal_connection,
)
from algebroids.expressions import ZERO, Const
from algebroids.sampling import sample_points
from constructions import basis_covector, sum_connection
from expression_oracle import scalar_eval


def _jet_points(phi):
    return sample_points(phi.source.dim, 50, 42)


def _jet_pullback_residual(form, phi, h):
    """Distance from a form on the jet chart to the pullback of mu_form(phi, h)."""
    pulled = pullback(form.chart.projection(), mu_form(phi, h))
    return (form - pulled).max_abs(_jet_points(phi))


def _jet_flatness(phi):
    """Largest curvature of the two flat jet connections of `phi`."""
    projection = jet_prolong(phi.source).projection()
    points = _jet_points(phi)
    return max(curvature(morphism_target_connection(projection)).max_abs(points),
               curvature(morphism_target_connection(phi.compose(projection)))
               .max_abs(points))


def _pullback_connection(phi, conn):
    """A connection on phi's target with its matrix pulled back to phi's source."""
    return FormMatrix(phi.source, [[pullback(phi, e) for e in row] for row in conn.entries], 1)


class TestModularForm:
    def test_tangent_plane_is_unimodular(self, tangent_r2, plane_points):
        form = modular_form(tangent_r2.chart("TR2"))
        assert form.max_abs(plane_points) == 0.0

    def test_solvable_dual_generator(self, solvable2d, line_points):
        form = modular_form(solvable2d.chart("solvable"))
        expected = basis_covector(solvable2d.chart("solvable"), 0)
        assert (form - expected).max_abs(line_points) == 0.0

    def test_so3_traceless(self, so3, line_points):
        assert modular_form(so3.chart("so3")).max_abs(line_points) == 0.0

    def test_action_algebroid_divergence(self, action_x, line_points):
        form = modular_form(action_x.chart("action"))
        expected = basis_covector(action_x.chart("action"), 0)
        assert (form - expected).max_abs(line_points) == 0.0

    def test_closedness_enforced(self, sa3, line_points):
        form = modular_form(sa3.chart("sa3"))
        assert d_A(form).max_abs(line_points) < 1e-12


class TestMorphismModularForm:
    def test_identity_vanishes(self, so3, line_points):
        ident = Morphism.identity(so3.chart("so3"))
        assert modular_form_morphism(ident).max_abs(line_points) == 0.0

    def test_solvable_to_abelian(self, solvable2d, line_points):
        form = modular_form_morphism(solvable2d.morphism("phi"))
        expected = basis_covector(solvable2d.chart("solvable"), 0)
        assert (form - expected).max_abs(line_points) == 0.0

    def test_anchor_morphism_of_tangent_algebroid(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        sharp = Morphism.identity(chart, name="sharp")
        assert modular_form_morphism(sharp).max_abs(plane_points) == 0.0


class TestMuForm:
    def test_first_class_is_the_modular_form(self, solvable2d, action_x, chain,
                                             line_points):
        for fixture, name in ((solvable2d, "phi"), (solvable2d, "phi2"),
                              (action_x, "sharp"), (chain, "phi"),
                              (chain, "psi")):
            phi = fixture.morphism(name)
            form = mu_form(phi, 1)
            target = modular_form_morphism(phi)
            assert (form - target).max_abs(line_points) < 1e-10, name

    def test_solvable_class_is_the_dual_generator(self, solvable2d, line_points):
        form = mu_form(solvable2d.morphism("phi"), 1)
        assert form.degree == 1
        coeff = form.coeff((0,))
        for point in line_points[:20]:
            assert abs(scalar_eval(coeff, point) - 1.0) < 1e-12
        assert len(form.table) == 1

    @pytest.mark.parametrize("h", [1, 2])
    def test_isomorphism_classes_vanish(self, so3, line_points, h):
        form = mu_form(so3.morphism("id"), h)
        assert form.max_abs(line_points) <= 1e-12

    def test_isomorphism_with_matching_connection_choice(self, so3, line_points):
        # The compatible sum is already orthogonal for the invariant metric,
        # so it is a legitimate metric-connection choice; the difference
        # matrix then vanishes identically.
        ident = so3.morphism("id")
        nabla1 = sum_connection(ident)
        _, d1 = ClassBuilder().chain_pair(Morphism.identity(ident.source), ident)
        form = bott_delta([nabla1, d1], 3)
        assert form.max_abs(line_points) == 0.0

    def test_degree_beyond_rank_is_zero_not_error(self, solvable2d, chain,
                                                  line_points):
        # Every class builder shares this branch: c_5 on a rank-3 bundle is
        # the zero form of degree 4h - 3 = 9, not an error.
        phi = solvable2d.morphism("phi")
        forms = {
            "mu": mu_form(phi, 3),
            "bi": ClassBuilder().bi_characteristic(phi, solvable2d.morphism("phi2"), 3),
            "relative": ClassBuilder().relative_mu(chain.morphism("phi"), chain.morphism("psi"), 3),
            "jet": ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 3),
        }
        for name, form in forms.items():
            assert form.is_zero(), name
            assert form.degree == 9, name

    def test_representatives_are_closed(self, sa3, line_points):
        form = mu_form(sa3.morphism("zero"), 2)
        assert not form.is_zero()
        assert d_A(form).max_abs(sample_points(form.chart.dim, 40, 5)) < 1e-9

    def test_changing_metric_shifts_by_exact_form(self, action_x, line_points):
        # Different orthogonal connections move the representative by an
        # exact form: here the difference is d_A(x).
        phi = action_x.morphism("sharp")
        standard = mu_form(phi, 1)
        weighted = mu_form(phi, 1, g_source=action_x.metric_for("action"))
        chart = phi.source
        exact = d_A(chart.function_form(chart.coordinate_field(0)))
        assert ((standard - weighted) - exact).max_abs(line_points) < 1e-10


class TestBiCharacteristic:
    def test_equal_morphisms_vanish(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        form = ClassBuilder().bi_characteristic(phi, phi, 1)
        assert form.max_abs(line_points) == 0.0

    def test_scaled_pair_matches_trace_difference(self, solvable2d, line_points):
        phi1 = solvable2d.morphism("phi")
        phi2 = solvable2d.morphism("phi2")
        form = ClassBuilder().bi_characteristic(phi1, phi2, 1)
        trace_diff = (sum_connection(phi2) - sum_connection(phi1)).trace()
        assert (form - trace_diff).max_abs(line_points) == 0.0

    def test_difference_identity_at_form_level(self, solvable2d, so3_double,
                                               line_points):
        # The bundled pairs have bi = 0 at c_1, where bi + d Delta and d Delta - bi
        # agree; id and diag(2, 1) on the solvable chart tell them apart.
        chart = solvable2d.chart("solvable")
        scaled = Morphism(chart, chart, [[Const(2.0), ZERO], [ZERO, Const(1.0)]], "scaled")
        bi_sizes = []
        for phi1, phi2 in ((solvable2d.morphism("phi"), solvable2d.morphism("phi2")),
                           (so3_double.morphism("id"), so3_double.morphism("rot")),
                           (Morphism.identity(chart), scaled)):
            n1 = sum_connection(phi1)
            n2 = sum_connection(phi2)
            rank_a = phi1.source.rank
            rank_b = phi1.target.rank
            n0 = direct_sum(
                orthogonal_connection(phi1.source, QuasiMetric.identity(rank_a)),
                dual_connection(orthogonal_connection(
                    phi1.source, QuasiMetric.identity(rank_b))),
            )
            bi = ClassBuilder().bi_characteristic(phi1, phi2, 1)
            lhs = mu_form(phi1, 1) - mu_form(phi2, 1)
            rhs = d_A(bott_delta([n0, n1, n2], 1)) - bi
            assert (lhs - rhs).max_abs(line_points) < 1e-8
            bi_sizes.append(bi.max_abs(line_points))
        assert bi_sizes == [0.0, 0.0, pytest.approx(1.0)]

    def test_mismatched_pair_rejected(self, solvable2d, so3):
        with pytest.raises(ValueError):
            ClassBuilder().bi_characteristic(solvable2d.morphism("phi"), so3.morphism("id"), 1)


class TestRelativeClasses:
    def test_relative_is_pullback_of_absolute(self, chain, line_points):
        phi, psi = chain.morphism("phi"), chain.morphism("psi")
        rel = ClassBuilder().relative_mu(phi, psi, 1)
        absolute = mu_form(psi, 1)
        pulled = pullback(phi, absolute)
        assert (rel - pulled).max_abs(line_points) < 1e-9

    def test_composition_identity(self, chain, line_points):
        phi, psi = chain.morphism("phi"), chain.morphism("psi")
        composite = psi.compose(phi)
        lhs = mu_form(composite, 1)
        rhs = mu_form(phi, 1) + ClassBuilder().relative_mu(phi, psi, 1)
        assert (lhs - rhs).max_abs(line_points) < 1e-9

    def test_full_composition_law(self, chain, line_points):
        phi, psi = chain.morphism("phi"), chain.morphism("psi")
        composite = psi.compose(phi)
        lhs = mu_form(composite, 1)
        rhs = mu_form(phi, 1) + pullback(phi, mu_form(psi, 1))
        assert (lhs - rhs).max_abs(line_points) < 1e-9

    def test_identity_downstream_morphism(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        ident = Morphism.identity(phi.target)
        rel = ClassBuilder().relative_mu(phi, ident, 1)
        assert rel.max_abs(line_points) == 0.0

    def test_non_composable_pair_rejected(self, solvable2d):
        phi = solvable2d.morphism("phi")
        with pytest.raises(ValueError):
            ClassBuilder().relative_mu(phi, phi, 1)


class TestJetRelative:
    def test_solvable_class_pulls_back_along_projection(self, solvable2d,
                                                        line_points):
        phi = solvable2d.morphism("phi")
        form = ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 1)
        assert _jet_pullback_residual(form, phi, 1) < 1e-9
        assert _jet_flatness(phi) < 1e-10
        jet = form.chart
        expected = pullback(jet.projection(),
                            basis_covector(phi.source, 0))
        assert (form - expected).max_abs(line_points) < 1e-9

    def test_identity_morphism_gives_zero(self, so3, line_points):
        phi = so3.morphism("id")
        form = ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 1)
        assert form.max_abs(line_points) == 0.0

    def test_flat_jet_connections(self, so3, action_x):
        for fixture, chart_name, morphism_name in ((so3, "so3", "zero"),
                                                   (action_x, "action", "sharp")):
            phi = fixture.morphism(morphism_name)
            jet = jet_prolong(fixture.chart(chart_name))
            points = sample_points(jet.dim, 40, 42)
            near = morphism_target_connection(jet.projection())
            far = morphism_target_connection(phi.compose(jet.projection()))
            assert curvature(near).max_abs(points) < 1e-10
            assert curvature(far).max_abs(points) < 1e-10

    def test_induced_variant_is_exact_pullback_for_higher_degree(self, so3):
        # The chart-level pair of the chain (id, ident) pulled back along the
        # jet projection.
        ident = so3.morphism("id")
        projection = jet_prolong(ident.source).projection()
        pair = ClassBuilder().chain_pair(Morphism.identity(ident.source), ident)
        form = bott_delta([_pullback_connection(projection, c) for c in pair], 3)
        assert _jet_pullback_residual(form, ident, 2) < 1e-12

    def test_degree_five_class_has_exactly_the_keys_of_its_pullback(self, sa3):
        # The split jet frame builds no cancelling terms, so no key is dead.
        phi = sa3.morphism("zero")
        form = ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 2)
        pulled = pullback(form.chart.projection(), mu_form(phi, 2))
        assert set(form.table) == set(pulled.table) and len(pulled.table) == 8
        assert (form - pulled).max_abs(_jet_points(phi)) <= 1e-12

    def test_anchored_fixture(self, action_x):
        phi = action_x.morphism("sharp")
        form = ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 1)
        assert _jet_pullback_residual(form, phi, 1) < 1e-9
        assert _jet_flatness(phi) < 1e-10
