"""Charts, brackets, the exterior differential, morphisms, links, and jets."""

from itertools import combinations

import numpy as np
import pytest

from algebroids import algebroid
from algebroids.algebroid import (
    AlgebroidChart,
    Morphism,
    Section,
    anchor_apply,
    bracket,
    build_link_chart,
    check_morphism,
    d_A,
    jet_lift,
    jet_prolong,
    pullback,
    verify_axioms,
)
from algebroids.expressions import Const, field_maxima, parse_expression
from algebroids.forms import AFormData
from algebroids.sampling import sample_points
from expression_oracle import tree_shape


def _field(chart, text):
    return parse_expression(text, chart.coords)


def _max_diff(form_a, form_b, points):
    return (form_a - form_b).max_abs(points)


def _nan_jacobi_chart():
    """[b0,b1] = c b2 with c = inf - inf (NaN) at every probe, [b0,b2] = b0."""
    coords = ["x"]
    big = "exp(700+x)*exp(700+x)"
    c = parse_expression(f"{big} - {big}", coords)
    return AlgebroidChart("nan_jacobi", coords, ["b0", "b1", "b2"],
                          [[Const(0.0)]] * 3,
                          {(0, 1): {2: c}, (0, 2): {0: Const(1.0)}})


class TestAnchorApply:
    def test_de_rham_case(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        a = chart.basis_section(0)
        out = anchor_apply(a, _field(chart, "x^2"))
        for point in plane_points[:20]:
            assert out.eval(point) == pytest.approx(2 * point[0])

    def test_zero_anchor(self, so3):
        chart = so3.chart("so3")
        a = Section(chart, [Const(1.0), Const(2.0), Const(-1.0)])
        out = anchor_apply(a, _field(chart, "x^3"))
        assert out.is_zero()

    def test_scaling_action(self, action_x, line_points):
        chart = action_x.chart("action")
        out = anchor_apply(chart.basis_section(0), _field(chart, "x"))
        for point in line_points[:20]:
            assert out.eval(point) == pytest.approx(point[0])


class TestBracket:
    def test_antisymmetry_on_self(self, solvable2d, line_points):
        chart = solvable2d.chart("solvable")
        a = Section(chart, [_field(chart, "x"), _field(chart, "1+x^2")])
        out = bracket(a, a)
        for comp in out.comps:
            for point in line_points[:10]:
                assert comp.eval(point) == pytest.approx(0.0, abs=1e-14)

    def test_vector_field_bracket(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        a = Section(chart, [Const(0.0), _field(chart, "x")])
        b = chart.basis_section(0)
        out = bracket(a, b)
        # [x d/dy, d/dx] = -d/dy
        for point in plane_points[:10]:
            assert out.comps[0].eval(point) == pytest.approx(0.0)
            assert out.comps[1].eval(point) == pytest.approx(-1.0)

    def test_so3_structure_constants(self, so3):
        chart = so3.chart("so3")
        out = bracket(chart.basis_section(0), chart.basis_section(1))
        assert out.comps[2].eval((0.0,)) == pytest.approx(1.0)
        assert out.comps[0].is_zero() and out.comps[1].is_zero()

    def test_leibniz_rule(self, action_x, line_points):
        chart = action_x.chart("action")
        a = chart.basis_section(0)
        f = _field(chart, "x^2")
        b = chart.basis_section(0)
        lhs = bracket(a, b.scale(f))
        rhs = bracket(a, b).scale(f)
        correction = b.scale(anchor_apply(a, f))
        for l, r, c in zip(lhs.comps, rhs.comps, correction.comps):
            for point in line_points[:20]:
                assert l.eval(point) == pytest.approx(r.eval(point) + c.eval(point))


class TestExteriorDifferential:
    def test_de_rham_differential(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        omega = chart.form(AFormData(1, 2, {(1,): _field(chart, "x")}))
        out = d_A(omega)
        expected = chart.form(AFormData(2, 2, {(0, 1): Const(1.0)}))
        assert _max_diff(out, expected, plane_points) < 1e-14

    def test_constant_function_zero_anchor(self, so3):
        chart = so3.chart("so3")
        out = d_A(chart.function_form(Const(5.0)))
        assert out.is_zero()

    def test_so3_dual_covector(self, so3, line_points):
        chart = so3.chart("so3")
        out = d_A(chart.basis_covector(2))
        expected = chart.form(AFormData(2, 3, {(0, 1): Const(-1.0)}))
        assert _max_diff(out, expected, line_points) < 1e-14

    def test_d_squared_vanishes_on_random_forms(self, so3, tangent_r2, solvable2d,
                                                action_x):
        rng = np.random.default_rng(9)
        for fixture_chart in (so3.chart("so3"), tangent_r2.chart("TR2"),
                              solvable2d.chart("solvable"), action_x.chart("action")):
            points = sample_points(fixture_chart.dim, 100, 17)
            for degree in (0, 1):
                table = {}
                from itertools import combinations
                for index in combinations(range(fixture_chart.rank), degree):
                    coeffs = rng.integers(-2, 3, 3)
                    poly = Const(float(coeffs[0]))
                    for c, i in zip(coeffs[1:], range(fixture_chart.dim)):
                        poly = poly + Const(float(c)) * fixture_chart.coordinate_field(i)
                    table[index] = poly
                form = fixture_chart.form(AFormData(degree, fixture_chart.rank, table))
                assert d_A(d_A(form)).max_abs(points) < 1e-9

    def test_graded_leibniz_over_wedge(self, so3, line_points):
        chart = so3.chart("so3")
        alpha = chart.form(AFormData(1, 3, {(0,): _field(chart, "x"),
                                            (2,): Const(2.0)}))
        beta = chart.form(AFormData(1, 3, {(1,): _field(chart, "1+x")}))
        lhs = d_A(alpha.wedge(beta))
        rhs = d_A(alpha).wedge(beta) - alpha.wedge(d_A(beta))
        assert _max_diff(lhs, rhs, line_points) < 1e-9


class TestVerifyAxioms:
    def test_so3_passes(self, so3):
        records = verify_axioms(so3.chart("so3"))
        assert all(r.passed and r.residual == 0.0 for r in records)

    def test_tangent_passes(self, tangent_r2):
        assert all(r.passed for r in verify_axioms(tangent_r2.chart("TR2")))

    def test_corrupted_bracket_fails(self, broken_jacobi):
        records = verify_axioms(broken_jacobi.chart("broken"))
        jacobi = next(r for r in records if "jacobi" in r.name)
        assert not jacobi.passed
        assert jacobi.residual >= 0.1
        assert jacobi.details["failing_triple"] == [0, 1, 2]

    def test_nan_jacobiator_fails(self):
        anchor, jacobi = verify_axioms(_nan_jacobi_chart())
        assert anchor.passed and anchor.residual == 0.0
        assert not jacobi.passed
        assert jacobi.residual == float("inf")
        assert jacobi.details["failing_triple"] == [0, 1, 2]

    @pytest.mark.parametrize("fixture_name, name", [("sa3", "sa3"),
                                                    ("broken_jacobi", "broken")])
    def test_inner_brackets_built_once_per_ordered_pair(self, request, monkeypatch,
                                                         fixture_name, name):
        chart = request.getfixturevalue(fixture_name).chart(name)
        jacobiators, calls = [], []

        def spy_maxima(fields, points):
            jacobiators.append(list(fields))
            return field_maxima(fields, points)

        def spy_bracket(a, b):
            calls.append(None)
            return bracket(a, b)

        monkeypatch.setattr(algebroid, "field_maxima", spy_maxima)
        monkeypatch.setattr(algebroid, "bracket", spy_bracket)
        verify_axioms(chart, 10, 42)
        triples = list(combinations(range(chart.rank), 3))
        pairs = {p for i, j, k in triples for p in ((i, j), (j, k), (k, i))}
        assert len(calls) == 3 * len(triples) + len(pairs)
        assert len(jacobiators) == len(triples)
        for (i, j, k), comps in zip(triples, jacobiators):
            b_i, b_j, b_k = (chart.basis_section(t) for t in (i, j, k))
            per_triple = (bracket(bracket(b_i, b_j), b_k)
                          + bracket(bracket(b_j, b_k), b_i)
                          + bracket(bracket(b_k, b_i), b_j))
            assert [tree_shape(c) for c in comps] == \
                [tree_shape(c) for c in per_triple.comps]


class TestPullback:
    def test_identity_is_identity(self, so3, line_points):
        chart = so3.chart("so3")
        ident = Morphism.identity(chart)
        omega = chart.form(AFormData(2, 3, {(0, 1): _field(chart, "x"),
                                            (1, 2): Const(3.0)}))
        assert _max_diff(pullback(ident, omega), omega, line_points) < 1e-14

    def test_zero_morphism_kills_positive_degree(self, solvable2d):
        phi = solvable2d.morphism("phi")
        zero = Morphism(phi.source, phi.target,
                        [[Const(0.0)], [Const(0.0)]], "zero")
        covector = phi.target.basis_covector(0)
        assert pullback(zero, covector).is_zero()

    def test_solvable_to_abelian_transpose_action(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        covector = phi.target.basis_covector(0)
        pulled = pullback(phi, covector)
        expected = phi.source.basis_covector(0)
        assert _max_diff(pulled, expected, line_points) < 1e-14

    def test_pullback_commutes_with_differential(self, solvable2d, action_x,
                                                 chain, line_points):
        for phi in (solvable2d.morphism("phi"), action_x.morphism("sharp"),
                    chain.morphism("phi")):
            omega = phi.target.form(AFormData(
                1, phi.target.rank,
                {(0,): parse_expression("x^2+1", phi.target.coords)},
            ))
            lhs = pullback(phi, d_A(omega))
            rhs = d_A(pullback(phi, omega))
            assert _max_diff(lhs, rhs, line_points) < 1e-9

    def test_pullback_commutes_with_wedge(self, chain, line_points):
        phi = chain.morphism("phi")
        a = phi.target.basis_covector(0)
        b = phi.target.form(AFormData(1, 2, {(1,): _field(phi.target, "x")}))
        lhs = pullback(phi, a.wedge(b))
        rhs = pullback(phi, a).wedge(pullback(phi, b))
        assert _max_diff(lhs, rhs, line_points) < 1e-12


class TestCheckMorphism:
    def test_identity_passes(self, so3):
        assert check_morphism(Morphism.identity(so3.chart("so3"))).passed

    def test_solvable_to_abelian_passes(self, solvable2d):
        record = check_morphism(solvable2d.morphism("phi"))
        assert record.passed and record.residual == 0.0

    def test_bracket_violation_detected(self, solvable2d):
        phi = solvable2d.morphism("phi")
        bad = Morphism(phi.source, phi.target,
                       [[Const(1.0)], [Const(1.0)]], "bad")
        record = check_morphism(bad)
        assert not record.passed
        assert record.residual >= 0.5

    def test_nan_bracket_residual_fails(self):
        record = check_morphism(Morphism.identity(_nan_jacobi_chart()))
        assert not record.passed
        assert record.residual == float("inf")


class TestLinkChart:
    def test_zero_anchor_block_structure(self, so3):
        chart = so3.chart("so3")
        link = build_link_chart(chart)
        assert link.rank == 4 and link.dim == 2
        for i in range(3):
            assert link.anchor[i][1].is_zero()
        assert link.anchor[3][1].eval((0.0, 0.0)) == 1.0
        assert link.anchor[3][0].is_zero()

    def test_tangent_line_extends_to_plane(self, action_x):
        chart = action_x.chart("tangent")
        link = build_link_chart(chart)
        assert all(r.passed for r in verify_axioms(link, n_points=40))

    def test_linked_so3_passes_axioms(self, so3):
        link = build_link_chart(so3.chart("so3"))
        assert all(r.passed for r in verify_axioms(link, n_points=40))


class TestJets:
    def test_constant_structure_jet_brackets(self, so3):
        chart = so3.chart("so3")
        jet = jet_prolong(chart)
        # [j b_i, j b_j] = gamma_ij^k j b_k for constant structure functions
        out = bracket(jet.basis_section(0), jet.basis_section(1))
        assert out.comps[2].eval((0.0,)) == pytest.approx(1.0)
        assert all(out.comps[k].is_zero() for k in (0, 1, 3, 4, 5))

    def test_jet_lift_of_frame_section(self, so3):
        chart = so3.chart("so3")
        jet = jet_prolong(chart)
        lifted = jet_lift(jet, chart.basis_section(1))
        assert lifted.comps[1].eval((0.3,)) == pytest.approx(1.0)
        assert sum(not c.is_zero() for c in lifted.comps) == 1

    def test_jet_lift_decomposition_coefficients(self, action_x):
        chart = action_x.chart("action")
        jet = jet_prolong(chart)
        section = chart.basis_section(0).scale(_field(chart, "x^2"))
        lifted = jet_lift(jet, section)
        # xi = x^2: leading coefficient xi - x xi' = -x^2, jet-coordinate part xi' = 2x
        assert lifted.comps[0].eval((0.5,)) == pytest.approx(-0.25)
        assert lifted.comps[1].eval((0.5,)) == pytest.approx(1.0)

    @pytest.mark.parametrize("fixture_name,chart_name", [
        ("so3", "so3"), ("solvable2d", "solvable"),
        ("action_x", "action"), ("tangent_r2", "TR2"),
    ])
    def test_jet_prolongation_preserves_axioms(self, request, fixture_name,
                                               chart_name):
        fixture = request.getfixturevalue(
            {"so3": "so3", "solvable2d": "solvable2d", "action_x": "action_x",
             "tangent_r2": "tangent_r2"}[fixture_name])
        jet = jet_prolong(fixture.chart(chart_name))
        assert all(r.passed for r in verify_axioms(jet, n_points=40))

    def test_jet_projection_is_a_morphism(self, solvable2d):
        jet = jet_prolong(solvable2d.chart("solvable"))
        assert check_morphism(jet.projection(), n_points=40).passed


class TestFormEvaluation:
    def test_multilinear_antisymmetric_evaluation(self, so3, line_points):
        chart = so3.chart("so3")
        omega = chart.form(AFormData(2, 3, {(0, 1): _field(chart, "x"),
                                            (1, 2): Const(2.0)}))
        a = Section(chart, [Const(1.0), _field(chart, "x"), Const(0.0)])
        b = Section(chart, [Const(0.0), Const(1.0), _field(chart, "x^2")])
        for point in line_points[:10]:
            forward = omega.evaluate_on([a, b], point)
            backward = omega.evaluate_on([b, a], point)
            assert forward == pytest.approx(-backward)
            x = point[0]
            # x (a0 b1 - a1 b0) + 2 (a1 b2 - a2 b1) = x + 2 x^3
            assert forward == pytest.approx(x + 2.0 * x ** 3)

    def test_function_linearity_in_each_slot(self, so3, line_points):
        chart = so3.chart("so3")
        omega = chart.form(AFormData(2, 3, {(0, 2): Const(1.0)}))
        f = _field(chart, "1+x^2")
        a = chart.basis_section(0)
        b = chart.basis_section(2)
        for point in line_points[:10]:
            scaled = omega.evaluate_on([a.scale(f), b], point)
            plain = omega.evaluate_on([a, b], point)
            assert scaled == pytest.approx(f.eval(point) * plain)


class TestChartValidation:
    def test_anchor_shape_enforced(self):
        with pytest.raises(ValueError, match="anchor must be"):
            AlgebroidChart("bad", ["x"], ["b1", "b2"], [[Const(0.0)]])

    def test_bracket_indices_validated(self):
        with pytest.raises(ValueError):
            AlgebroidChart("bad", ["x"], ["b1"], [[Const(0.0)]],
                           {(0, 5): {0: Const(1.0)}})

    def test_gamma_antisymmetric_storage(self, so3):
        chart = so3.chart("so3")
        assert chart.gamma(1, 0, 2).eval((0.0,)) == -1.0
        assert chart.gamma(0, 0, 1).is_zero()
