"""Charts, brackets, the exterior differential, axiom checks, morphisms, pullbacks,
parameter charts, and jets."""

import time
from itertools import combinations

import numpy as np
import pytest

from algebroids.algebroid import (
    AlgebroidChart,
    JetChart,
    Morphism,
    check_morphism,
    d_A,
    jet_prolong,
    pullback,
    verify_axioms,
)
from algebroids.classes import mu_form
from algebroids.cli import _random_polynomial
from algebroids.expressions import Const, evaluate, parse_expression
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.forms import AForm
from algebroids.sampling import sample_points
from constructions import basis_covector, evaluate_on, lift
import dense_oracle
from dense_oracle import (Section, anchor_apply, apply, basis_section, bracket, gamma,
                          pullback as dense_pullback)
from expression_oracle import scalar_eval
from transgression_oracle import extend_with_parameters


def _field(chart, text):
    return parse_expression(text, chart.coords)


def _max_diff(form_a, form_b, points):
    return (form_a - form_b).max_abs(points)


def _axioms_hold(chart, points, tol=1e-9):
    worst_anchor, worst_jacobi, _ = verify_axioms(chart, points)
    return worst_anchor <= tol and worst_jacobi <= tol


def _morphism_residual(phi, points):
    """The largest |value| of `check_morphism`'s forms at the points."""
    return max((form.max_abs(points) for form in check_morphism(phi)), default=0.0)


def _nan_jacobi_chart():
    """[b0,b1] = c b2 with c = inf - inf (NaN) at every probe, [b0,b2] = b0."""
    coords = ["x"]
    big = "exp(700+x)*exp(700+x)"
    c = parse_expression(f"{big} - {big}", coords)
    return AlgebroidChart("nan_jacobi", coords, ["b0", "b1", "b2"],
                          [[Const(0.0)]] * 3,
                          {(0, 1): {2: c}, (0, 2): {0: Const(1.0)}})


def _anchor_only_chart(coords=("x",)):
    """Rank 2, anchor rows d/dx^l and x^l d/dx^l for the last coordinate l, no
    brackets: only the anchor axiom fails."""
    zeros = [Const(0.0)] * (len(coords) - 1)
    return AlgebroidChart("anchor_only", coords, ["b0", "b1"],
                          [zeros + [Const(1.0)],
                           zeros + [parse_expression(coords[-1], coords)]])


def _tied_jacobi_chart():
    """[b1,b3] = b2 and [b0,b2] = b1: the triples (0,1,3) and (0,2,3) both fail by 1."""
    return AlgebroidChart("tied_jacobi", ["x"], ["b0", "b1", "b2", "b3"],
                          [[Const(0.0)]] * 4,
                          {(1, 3): {2: Const(1.0)}, (0, 2): {1: Const(1.0)}})


class TestAnchorApply:
    """The dense `anchor_apply` of `dense_oracle` on vector fields with known values."""

    def test_de_rham_case(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        a = basis_section(chart, 0)
        out = anchor_apply(a, _field(chart, "x^2"))
        for point in plane_points[:20]:
            assert scalar_eval(out, point) == pytest.approx(2 * point[0])

    def test_zero_anchor(self, so3):
        chart = so3.chart("so3")
        a = Section(chart, [Const(1.0), Const(2.0), Const(-1.0)])
        out = anchor_apply(a, _field(chart, "x^3"))
        assert out.is_zero()

    def test_scaling_action(self, action_x, line_points):
        chart = action_x.chart("action")
        out = anchor_apply(basis_section(chart, 0), _field(chart, "x"))
        for point in line_points[:20]:
            assert scalar_eval(out, point) == pytest.approx(point[0])


class TestBracket:
    """The dense section `bracket` of `dense_oracle` against brackets known by hand."""

    def test_antisymmetry_on_self(self, solvable2d, line_points):
        chart = solvable2d.chart("solvable")
        a = Section(chart, [_field(chart, "x"), _field(chart, "1+x^2")])
        out = bracket(a, a)
        for comp in out.comps:
            for point in line_points[:10]:
                assert scalar_eval(comp, point) == pytest.approx(0.0, abs=1e-14)

    def test_vector_field_bracket(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        a = Section(chart, [Const(0.0), _field(chart, "x")])
        b = basis_section(chart, 0)
        out = bracket(a, b)
        # [x d/dy, d/dx] = -d/dy
        for point in plane_points[:10]:
            assert scalar_eval(out.comps[0], point) == pytest.approx(0.0)
            assert scalar_eval(out.comps[1], point) == pytest.approx(-1.0)

    def test_so3_structure_constants(self, so3):
        chart = so3.chart("so3")
        out = bracket(basis_section(chart, 0), basis_section(chart, 1))
        assert scalar_eval(out.comps[2], (0.0,)) == pytest.approx(1.0)
        assert out.comps[0].is_zero() and out.comps[1].is_zero()

    def test_leibniz_rule(self, action_x, line_points):
        chart = action_x.chart("action")
        a = basis_section(chart, 0)
        f = _field(chart, "x^2")
        b = basis_section(chart, 0)
        lhs = bracket(a, b.scale(f))
        rhs = bracket(a, b).scale(f)
        correction = b.scale(anchor_apply(a, f))
        for l, r, c in zip(lhs.comps, rhs.comps, correction.comps):
            for point in line_points[:20]:
                assert scalar_eval(l, point) == pytest.approx(scalar_eval(r, point) + scalar_eval(c, point))


class TestExteriorDifferential:
    def test_de_rham_differential(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        omega = AForm(chart, 1, {(1,): _field(chart, "x")})
        out = d_A(omega)
        expected = AForm(chart, 2, {(0, 1): Const(1.0)})
        assert _max_diff(out, expected, plane_points) < 1e-14

    def test_constant_function_zero_anchor(self, so3):
        chart = so3.chart("so3")
        out = d_A(chart.function_form(Const(5.0)))
        assert out.is_zero()

    def test_so3_dual_covector(self, so3, line_points):
        chart = so3.chart("so3")
        out = d_A(basis_covector(chart, 2))
        expected = AForm(chart, 2, {(0, 1): Const(-1.0)})
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
                form = AForm(fixture_chart, degree, table)
                assert d_A(d_A(form)).max_abs(points) < 1e-9

    def test_graded_leibniz_over_wedge(self, so3, line_points):
        chart = so3.chart("so3")
        alpha = AForm(chart, 1, {(0,): _field(chart, "x"), (2,): Const(2.0)})
        beta = AForm(chart, 1, {(1,): _field(chart, "1+x")})
        lhs = d_A(alpha.wedge(beta))
        rhs = d_A(alpha).wedge(beta) - alpha.wedge(d_A(beta))
        assert _max_diff(lhs, rhs, line_points) < 1e-9


class TestVerifyAxioms:
    def test_so3_passes(self, so3, line_points):
        anchor, jacobi, _ = verify_axioms(so3.chart("so3"), line_points)
        assert anchor == jacobi == 0.0

    def test_tangent_passes(self, tangent_r2, plane_points):
        assert _axioms_hold(tangent_r2.chart("TR2"), plane_points)

    def test_corrupted_bracket_fails(self, broken_jacobi, line_points):
        _, jacobi, triple = verify_axioms(broken_jacobi.chart("broken"), line_points)
        assert jacobi >= 0.1
        assert triple == (0, 1, 2)

    def test_nan_jacobiator_fails(self, line_points):
        anchor, jacobi, triple = verify_axioms(_nan_jacobi_chart(), line_points)
        assert anchor == 0.0
        assert jacobi == float("inf")
        assert triple == (0, 1, 2)

    @pytest.mark.parametrize("coords", [("x",), ("x", "y")])
    def test_anchor_only_violation_fails(self, coords):
        # rho(b_0) = d/dx and rho(b_1) = x d/dx have bracket d/dx, but [b_0, b_1] = 0.
        points = sample_points(len(coords), 100, 42)
        anchor, jacobi, _ = verify_axioms(_anchor_only_chart(coords), points)
        assert anchor == 1.0
        assert jacobi == 0.0

    def test_failing_triple_is_the_first_that_reaches_the_worst_value(self, line_points):
        _, jacobi, triple = verify_axioms(_tied_jacobi_chart(), line_points)
        assert jacobi == 1.0
        assert triple == (0, 1, 3)


class TestPullback:
    def test_identity_is_identity(self, so3, line_points):
        chart = so3.chart("so3")
        ident = Morphism.identity(chart)
        omega = AForm(chart, 2, {(0, 1): _field(chart, "x"), (1, 2): Const(3.0)})
        assert _max_diff(pullback(ident, omega), omega, line_points) < 1e-14

    def test_zero_morphism_kills_positive_degree(self, solvable2d):
        phi = solvable2d.morphism("phi")
        zero = Morphism(phi.source, phi.target,
                        [[Const(0.0)], [Const(0.0)]], "zero")
        covector = basis_covector(phi.target, 0)
        assert pullback(zero, covector).is_zero()

    def test_zero_column_kills_a_two_form(self):
        # Each key's wedge chain of pulled-back columns is zero before its last
        # factor; adding that 1-form chain to the 2-form total raised ValueError.
        chart = AlgebroidChart("A", ["x"], ["b1", "b2"], [[Const(0.0)], [Const(0.0)]],
                               {(0, 1): {1: Const(1.0)}})
        zero = Morphism(chart, chart, [[Const(0.0)] * 2] * 2, "zero")
        pulled = pullback(zero, AForm(chart, 2, {(0, 1): _field(chart, "1+x")}))
        assert pulled.degree == 2 and pulled.is_zero()

    def test_solvable_to_abelian_transpose_action(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        covector = basis_covector(phi.target, 0)
        pulled = pullback(phi, covector)
        expected = basis_covector(phi.source, 0)
        assert _max_diff(pulled, expected, line_points) < 1e-14

    def test_pullback_commutes_with_differential(self, solvable2d, action_x,
                                                 chain, line_points):
        for phi in (solvable2d.morphism("phi"), action_x.morphism("sharp"),
                    chain.morphism("phi")):
            omega = AForm(phi.target, 1,
                          {(0,): parse_expression("x^2+1", phi.target.coords)})
            lhs = pullback(phi, d_A(omega))
            rhs = d_A(pullback(phi, omega))
            assert _max_diff(lhs, rhs, line_points) < 1e-9

    def test_pullback_commutes_with_wedge(self, chain, line_points):
        phi = chain.morphism("phi")
        a = basis_covector(phi.target, 0)
        b = AForm(phi.target, 1, {(1,): _field(phi.target, "x")})
        lhs = pullback(phi, a.wedge(b))
        rhs = pullback(phi, a).wedge(pullback(phi, b))
        assert _max_diff(lhs, rhs, line_points) < 1e-12


def _pullback_cases():
    """Every bundled morphism, and the jet projection onto each morphism source."""
    cases = []
    for fixture_name in builtin_fixture_names():
        fixture = resolve_fixture(fixture_name)
        sources = {}
        for name, phi in fixture.morphisms.items():
            cases.append((f"{fixture_name}.{name}", phi))
            sources.setdefault(phi.source.name, phi.source)
        for name, chart in sources.items():
            cases.append((f"{fixture_name}.J1({name})", jet_prolong(chart).projection()))
    return cases


_PULLBACK_CASES = _pullback_cases()


def _sparse_random_form(chart, degree, rng, n_keys=2):
    """A form with a few random keys, each with a random quadratic coefficient."""
    if degree == 0:
        return chart.function_form(_random_polynomial(chart, rng))
    keys = list(combinations(range(chart.rank), degree))
    picked = sorted(rng.choice(len(keys), size=min(n_keys, len(keys)), replace=False))
    return AForm(chart, degree, {keys[p]: _random_polynomial(chart, rng) for p in picked})


class TestPullbackMatchesDenseOracle:
    @pytest.mark.parametrize("label, phi", _PULLBACK_CASES,
                             ids=[label for label, _ in _PULLBACK_CASES])
    def test_wedge_route_equals_multilinear_expansion(self, label, phi):
        rng = np.random.default_rng(sum(map(ord, label)))
        points = sample_points(len(phi.source.coords), 20, 3)
        for degree in range(min(4, phi.target.rank) + 1):
            omega = _sparse_random_form(phi.target, degree, rng)
            new, oracle = pullback(phi, omega), dense_pullback(phi, omega)
            assert new.degree == oracle.degree == degree
            assert set(new.table) == set(oracle.table), (label, degree)
            scale = max(1.0, oracle.max_abs(points))
            assert (new - oracle).max_abs(points) <= 1e-12 * scale, (label, degree)

    def test_degree_five_jet_pullback_is_fast_and_evaluates_on_images(self, sa3):
        # The dense expansion took minutes here: 26,334 source keys x 8 keys x 5!.
        phi = sa3.morphism("zero")
        mu_3 = mu_form(phi, 2)
        projection = jet_prolong(phi.source).projection()
        start = time.perf_counter()
        pulled = pullback(projection, mu_3)
        assert time.perf_counter() - start < 5.0
        assert pulled.degree == 5 and pulled.table
        # pi^* keeps the keys of mu_3: J_i is row i of the jet and pi kills the rest.
        assert set(pulled.table) == set(mu_3.table)
        rng = np.random.default_rng(42)
        keys = sorted(pulled.table)
        while len(keys) < len(pulled.table) + 8:
            key = tuple(sorted(rng.choice(projection.source.rank, size=5, replace=False).tolist()))
            if key not in pulled.table:
                keys.append(key)
        point = sample_points(len(sa3.coords), 1, 42)[0].tolist()
        source = projection.source
        for key in keys:
            images = [apply(projection, basis_section(source, i)) for i in key]
            expected = evaluate_on(mu_3, images, point)
            assert scalar_eval(pulled.coeff(key), point) == pytest.approx(
                expected, rel=1e-12, abs=1e-12), key


class TestCheckMorphism:
    def test_identity_passes(self, so3, line_points):
        assert _morphism_residual(Morphism.identity(so3.chart("so3")), line_points) <= 1e-9

    def test_solvable_to_abelian_passes(self, solvable2d, line_points):
        assert _morphism_residual(solvable2d.morphism("phi"), line_points) == 0.0

    def test_bracket_violation_detected(self, solvable2d, line_points):
        phi = solvable2d.morphism("phi")
        bad = Morphism(phi.source, phi.target,
                       [[Const(1.0)], [Const(1.0)]], "bad")
        assert _morphism_residual(bad, line_points) >= 0.5

    def test_anchor_violation_detected(self, tangent_r2, plane_points):
        chart = tangent_r2.chart("TR2")
        double = Morphism(chart, chart, [[Const(2.0), Const(0.0)],
                                         [Const(0.0), Const(2.0)]], "double")
        assert _morphism_residual(double, plane_points) == 1.0

    def test_nan_bracket_residual_fails(self, line_points):
        phi = Morphism.identity(_nan_jacobi_chart())
        assert _morphism_residual(phi, line_points) == float("inf")


def _axiom_charts():
    """Every bundled chart and its jet, and the hand-built failing charts above."""
    charts = []
    for fixture_name in builtin_fixture_names():
        for name, chart in resolve_fixture(fixture_name).charts.items():
            charts.append((f"{fixture_name}.{name}", chart))
            charts.append((f"{fixture_name}.J1({name})", jet_prolong(chart)))
    return charts + [("nan_jacobi", _nan_jacobi_chart()), ("tied_jacobi", _tied_jacobi_chart()),
                     ("anchor_only", _anchor_only_chart()),
                     ("anchor_only_xy", _anchor_only_chart(("x", "y")))]


def _morphisms():
    """Every bundled morphism and jet projection, the NaN identity and 2 id on TR2."""
    morphisms = [(f"{fixture_name}.{name}", phi) for fixture_name in builtin_fixture_names()
                 for name, phi in resolve_fixture(fixture_name).morphisms.items()]
    morphisms += [(label, chart.projection()) for label, chart in _AXIOM_CHARTS
                  if isinstance(chart, JetChart)]
    tangent = resolve_fixture("tangent_r2").chart("TR2")
    double = Morphism(tangent, tangent, [[Const(2.0), Const(0.0)],
                                         [Const(0.0), Const(2.0)]], "double")
    return morphisms + [("nan_jacobi.id", Morphism.identity(_nan_jacobi_chart())),
                        ("tangent_r2.double", double)]


_AXIOM_CHARTS = _axiom_charts()
_TRIPLE_CHARTS = [(label, chart) for label, chart in _AXIOM_CHARTS if chart.rank >= 3]
_MORPHISMS = _morphisms()


def _assert_same_residual(new, old):
    """A residual against the oracle's record: within 1e-14 where the record
    passes, equal where it fails."""
    assert (new <= old.tolerance) == old.passed
    if old.passed:
        assert abs(new - old.residual) <= 1e-14
    else:
        assert new == old.residual


class TestAxiomChecksMatchDenseOracle:
    """d_A^2 = 0 and phi^* d = d phi^* on generators against the frame-by-frame loops."""

    @pytest.mark.parametrize("label, chart", _AXIOM_CHARTS,
                             ids=[label for label, _ in _AXIOM_CHARTS])
    def test_verify_axioms(self, label, chart):
        points = sample_points(chart.dim, 100, 42)
        anchor, jacobi, triple = verify_axioms(chart, points)
        old_anchor, old_jacobi = dense_oracle.verify_axioms(chart, points)
        _assert_same_residual(anchor, old_anchor)
        _assert_same_residual(jacobi, old_jacobi)
        if not old_jacobi.passed:
            assert list(triple) == old_jacobi.details["failing_triple"]

    @pytest.mark.parametrize("label, phi", _MORPHISMS,
                             ids=[label for label, _ in _MORPHISMS])
    def test_check_morphism(self, label, phi):
        points = sample_points(phi.source.dim, 100, 42)
        _assert_same_residual(_morphism_residual(phi, points),
                              dense_oracle.check_morphism(phi, points))

    @pytest.mark.parametrize("label, chart", _TRIPLE_CHARTS,
                             ids=[label for label, _ in _TRIPLE_CHARTS])
    def test_second_differential_of_the_dual_frame_is_the_jacobiator(self, label, chart):
        # d_A(d_A theta^m)(b_i, b_j, b_k) = theta^m(Jacobiator), key by key: the
        # zero Jacobiator components are exactly the keys d_A^2 leaves out.
        tables = [d_A(d_A(basis_covector(chart, m))).table for m in range(chart.rank)]
        new, old = [], []
        for triple, jacobiator in dense_oracle.frame_jacobiators(chart):
            for table, component in zip(tables, jacobiator.comps, strict=True):
                assert (triple in table) == (not component.is_zero()), (triple, component)
                if triple in table:
                    new.append(table[triple])
                    old.append(component)
        values = evaluate(new + old, sample_points(chart.dim, 20, 42))
        new_values, old_values = values[:len(new)], values[len(new):]
        scale = np.maximum(1.0, np.abs(old_values))
        assert np.array_equal(np.isfinite(new_values), np.isfinite(old_values))
        finite = np.isfinite(old_values)
        assert (np.abs(new_values - old_values)[finite] <= 1e-14 * scale[finite]).all()


class TestLinkChart:
    """The product with the unit-interval tangent algebroid that the parameter-chart
    reference integrates over, and `verify_axioms` on it."""

    def test_zero_anchor_block_structure(self, so3):
        link = extend_with_parameters(so3.chart("so3"), ["tau"])
        assert link.rank == 4 and link.dim == 2
        for i in range(3):
            assert link.anchor[i][1].is_zero()
        assert scalar_eval(link.anchor[3][1], (0.0, 0.0)) == 1.0
        assert link.anchor[3][0].is_zero()

    def test_tangent_line_extends_to_plane(self, action_x):
        link = extend_with_parameters(action_x.chart("tangent"), ["tau"])
        assert _axioms_hold(link, sample_points(link.dim, 40, 42))

    def test_linked_so3_passes_axioms(self, so3):
        link = extend_with_parameters(so3.chart("so3"), ["tau"])
        assert _axioms_hold(link, sample_points(link.dim, 40, 42))


class TestJets:
    def test_constant_structure_jet_brackets(self, so3):
        chart = so3.chart("so3")
        jet = jet_prolong(chart)
        # [j b_i, j b_j] = gamma_ij^k j b_k for constant structure functions
        out = bracket(basis_section(jet, 0), basis_section(jet, 1))
        assert scalar_eval(out.comps[2], (0.0,)) == pytest.approx(1.0)
        assert all(out.comps[k].is_zero() for k in (0, 1, 3, 4, 5))

    def test_jet_lift_of_frame_section(self, so3):
        chart = so3.chart("so3")
        jet = jet_prolong(chart)
        lifted = lift(jet, basis_section(chart, 1))
        assert scalar_eval(lifted.comps[1], (0.3,)) == pytest.approx(1.0)
        assert sum(not c.is_zero() for c in lifted.comps) == 1

    def test_jet_lift_decomposition_coefficients(self, action_x):
        chart = action_x.chart("action")
        jet = jet_prolong(chart)
        section = basis_section(chart, 0).scale(_field(chart, "x^2"))
        lifted = lift(jet, section)
        # j1(x^2 b_0) = x^2 j1(b_0) + 2x dx (x) b_0
        assert jet.basis == ("j.v", "dx.v")
        assert scalar_eval(lifted.comps[0], (0.5,)) == pytest.approx(0.25)
        assert scalar_eval(lifted.comps[1], (0.5,)) == pytest.approx(1.0)

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
        assert _axioms_hold(jet, sample_points(jet.dim, 40, 42))

    def test_jet_projection_is_a_morphism(self, solvable2d):
        jet = jet_prolong(solvable2d.chart("solvable"))
        assert _morphism_residual(jet.projection(), sample_points(jet.dim, 40, 42)) <= 1e-9


class TestFormEvaluation:
    def test_multilinear_antisymmetric_evaluation(self, so3, line_points):
        chart = so3.chart("so3")
        omega = AForm(chart, 2, {(0, 1): _field(chart, "x"), (1, 2): Const(2.0)})
        a = Section(chart, [Const(1.0), _field(chart, "x"), Const(0.0)])
        b = Section(chart, [Const(0.0), Const(1.0), _field(chart, "x^2")])
        for point in line_points[:10]:
            forward = evaluate_on(omega, [a, b], point)
            backward = evaluate_on(omega, [b, a], point)
            assert forward == pytest.approx(-backward)
            x = point[0]
            # x (a0 b1 - a1 b0) + 2 (a1 b2 - a2 b1) = x + 2 x^3
            assert forward == pytest.approx(x + 2.0 * x ** 3)

    def test_function_linearity_in_each_slot(self, so3, line_points):
        chart = so3.chart("so3")
        omega = AForm(chart, 2, {(0, 2): Const(1.0)})
        f = _field(chart, "1+x^2")
        a = basis_section(chart, 0)
        b = basis_section(chart, 2)
        for point in line_points[:10]:
            scaled = evaluate_on(omega, [a.scale(f), b], point)
            plain = evaluate_on(omega, [a, b], point)
            assert scaled == pytest.approx(scalar_eval(f, point) * plain)


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
        assert scalar_eval(gamma(chart, 1, 0, 2), (0.0,)) == -1.0
        assert gamma(chart, 0, 0, 1).is_zero()
        # The signed table holds c_ij^k for both orders of each stored pair.
        assert sorted(chart.structure) == sorted(
            pair for i, j in chart.brackets for pair in ((i, j), (j, i)))
        for (i, j), terms in chart.structure.items():
            assert [str(c) for c in terms.values()] == [
                str(gamma(chart, i, j, k)) for k in terms]
