"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single CRITERION line so a plain `pytest -v` run doubles as
the acceptance checklist.
"""

import math
import random

import numpy as np
import pytest

from algebroids.algebroid import Morphism, d_A, jet_prolong, pullback, verify_axioms
from algebroids.chern import (
    bott_delta,
    chern_polarized,
    coboundary_check,
)
from algebroids.classes import ClassBuilder, modular_form_morphism, mu_form
from algebroids.cli import Options, _random_connection, _random_form, emit_class, run_suite
from algebroids.connections import (
    FormMatrix,
    QuasiMetric,
    bracket_connection,
    curvature,
    direct_sum,
    dual_connection,
    k_flatness_check,
    kernel_frame_on_S,
    morphism_target_connection,
    orthogonal_connection,
)
from algebroids.expressions import Const, parse_expression
from algebroids.sampling import sample_points
from constructions import sum_connection
from expression_oracle import scalar_eval
from transgression_oracle import integrate_unit_interval

POINTS = 100
SEED = 42


def _report(number: int, label: str) -> None:
    print(f"CRITERION {number:02d} PASS: {label}")


def _orthogonal_sum_for(phi):
    return direct_sum(
        orthogonal_connection(phi.source, QuasiMetric.identity(phi.source.rank)),
        dual_connection(orthogonal_connection(
            phi.source, QuasiMetric.identity(phi.target.rank))),
    )


def test_criterion_01_axiom_suite(tangent_r2, so3, solvable2d, action_x,
                                  broken_jacobi):
    charts = [
        tangent_r2.chart("TR2"),
        so3.chart("so3"),
        solvable2d.chart("solvable"),
        action_x.chart("action"),
        jet_prolong(so3.chart("so3")),
    ]
    rng = random.Random(SEED)
    for chart in charts:
        points = sample_points(chart.dim, POINTS, SEED)
        worst_anchor, worst_jacobi, _ = verify_axioms(chart, points)
        assert worst_anchor <= 1e-9 and worst_jacobi <= 1e-9, chart.name
        for degree in (0, 1):
            for _ in range(3):
                form = _random_form(chart, degree, rng)
                assert d_A(d_A(form)).max_abs(points) <= 1e-9, chart.name
    _, worst_jacobi, _ = verify_axioms(broken_jacobi.chart("broken"),
                                       sample_points(1, POINTS, SEED))
    assert worst_jacobi >= 0.1
    _report(1, "axioms and d^2 = 0 on five fixtures; corrupted fixture fails")


def test_criterion_02_bianchi(tangent_r2, so3, solvable2d, action_x, chain,
                              so3_double, sl2aff, sa3):
    rng = random.Random(SEED + 2)
    fixtures = [tangent_r2, so3, solvable2d, action_x, chain, so3_double,
                sl2aff, sa3]
    checked = 0
    for fixture in fixtures:
        for name, chart in fixture.charts.items():
            points = sample_points(chart.dim, POINTS, SEED)
            connections = [
                bracket_connection(chart),
                orthogonal_connection(chart, fixture.metric_for(name)),
                _random_connection(chart, 2, rng),
            ]
            for conn in connections:
                omega, curv = conn, curvature(conn)
                residual = curv.d() - (omega.wedge(curv) - curv.wedge(omega))
                assert residual.max_abs(points) <= 1e-9, (fixture.name, name)
                checked += 1
    assert checked >= 24
    _report(2, f"Bianchi identity on {checked} connections across all fixtures")


def _chern_of_constant(chart, matrix, h: int) -> float:
    """c_h of a numeric matrix, by `chern_polarized` on constant 0-forms."""
    constant = FormMatrix.of_functions(chart, [[Const(float(v)) for v in row] for row in matrix])
    return scalar_eval(chern_polarized([constant] * h).coeff(()), (0.0,))


def test_criterion_03_odd_chern_vanishing(so3):
    chart = so3.chart("so3")
    rng = np.random.default_rng(SEED)
    for r in (2, 3, 4):
        for _ in range(100):
            raw = rng.normal(size=(r, r))
            skew = raw - raw.T
            assert abs(_chern_of_constant(chart, skew, 1)) <= 1e-12
            if r >= 3:
                assert abs(_chern_of_constant(chart, skew, 3)) <= 1e-12
            assert abs(_chern_of_constant(chart, skew, 2)) > 1e-12
    for _ in range(100):
        a, b, c = rng.normal(size=3)
        sp2 = np.array([[a, b], [c, -a]])
        assert abs(_chern_of_constant(chart, sp2, 1)) <= 1e-12
    _report(3, "c1 and c3 vanish on o(2), o(3), o(4), sp(2, R); c2 does not")


def test_criterion_04_closedness(solvable2d, action_x, so3, so3_double, chain,
                                 sa3):
    cases = [
        (solvable2d, "phi"), (solvable2d, "phi2"), (action_x, "sharp"),
        (so3, "id"), (so3, "zero"), (so3_double, "rot"), (chain, "phi"),
        (chain, "psi"), (sa3, "zero"),
    ]
    for fixture, name in cases:
        phi = fixture.morphism(name)
        points = sample_points(phi.source.dim, POINTS, SEED)
        nabla1 = sum_connection(phi)
        for h in (1, 2):
            closed_chern = d_A(chern_polarized([curvature(nabla1)] * h))
            assert closed_chern.max_abs(points) <= 1e-9, (fixture.name, name, h)
            form = mu_form(phi, h)
            if form.degree < phi.source.rank:
                assert d_A(form).max_abs(points) <= 1e-9, (fixture.name, name, h)
    _report(4, "d(c_h(Omega)) and d(Xi_{2h-1}) vanish for h in {1, 2}")


def test_criterion_05_transgression(solvable2d, action_x, so3, so3_double,
                                    chain, sl2aff):
    cases = [
        (solvable2d, "phi"), (solvable2d, "phi2"), (action_x, "sharp"),
        (so3, "id"), (so3, "zero"), (so3_double, "id"), (so3_double, "rot"),
        (chain, "phi"), (chain, "psi"), (sl2aff, "zero"),
    ]
    for fixture, name in cases:
        phi = fixture.morphism(name)
        nabla1 = sum_connection(phi)
        assert nabla1.size <= 6
        nabla0 = _orthogonal_sum_for(phi)
        points = sample_points(phi.source.dim, POINTS, SEED)
        for h in (1, 2):
            worst = coboundary_check([nabla0, nabla1], h).max_abs(points)
            assert worst <= 1e-8, (fixture.name, name, h, worst)
    _report(5, "transgression identity on S bundles of rank <= 6, h in {1, 2}")


def test_criterion_06_cocycle_and_bi_characteristic(solvable2d, so3_double):
    for fixture, first, second in ((solvable2d, "phi", "phi2"),
                                   (so3_double, "id", "rot")):
        phi1 = fixture.morphism(first)
        phi2 = fixture.morphism(second)
        points = sample_points(phi1.source.dim, POINTS, SEED)
        nabla0 = _orthogonal_sum_for(phi1)
        nabla1 = sum_connection(phi1)
        nabla2 = sum_connection(phi2)
        for h in (1, 2):
            worst = coboundary_check([nabla0, nabla1, nabla2], h).max_abs(points)
            assert worst <= 1e-8, (fixture.name, h, worst)
        # Bott's cocycle identity with mu_phi = Delta(nabla0, nabla_phi) and
        # bi = Delta(nabla_phi1, nabla_phi2).
        lhs = mu_form(phi1, 1) - mu_form(phi2, 1)
        rhs = d_A(bott_delta([nabla0, nabla1, nabla2], 1)) \
            - ClassBuilder().bi_characteristic(phi1, phi2, 1)
        assert (lhs - rhs).max_abs(points) <= 1e-8, fixture.name
    _report(6, "two-simplex cocycle and bi-characteristic identities")


def test_criterion_07_modular_class_theorem(solvable2d, action_x):
    for fixture, name in ((solvable2d, "phi"), (action_x, "sharp")):
        phi = fixture.morphism(name)
        points = sample_points(phi.source.dim, POINTS, SEED)
        form = mu_form(phi, 1)
        target = modular_form_morphism(phi)
        assert (form - target).max_abs(points) <= 1e-10, fixture.name
    form = mu_form(solvable2d.morphism("phi"), 1)
    assert set(form.table) == {(0,)}
    coeff = form.coeff((0,))
    points = sample_points(1, POINTS, SEED)
    for point in points:
        assert abs(scalar_eval(coeff, point) - 1.0) <= 1e-12
    _report(7, "mu_1 equals the modular form; solvable morphism gives b*1")


def test_criterion_08_isomorphism_vanishing(so3):
    ident = so3.morphism("id")
    g = so3.metric_for("so3")
    points = sample_points(1, POINTS, SEED)
    for h in (1, 2):
        form = mu_form(ident, h, g_source=g, g_target=g)
        assert form.max_abs(points) <= 1e-12, h
    # The compatible sum as the metric reference connection of mu_3.
    _, d1 = ClassBuilder().chain_pair(Morphism.identity(ident.source), ident)
    matched = bott_delta([sum_connection(ident), d1], 3)
    assert matched.max_abs(points) <= 1e-12
    _report(8, "identity on so(3) with the invariant metric has zero classes")


def test_criterion_09_k_flatness(solvable2d):
    phi = solvable2d.morphism("phi")
    conn = sum_connection(phi)
    ker, coker = solvable2d.kernel_rows("phi")
    worst = k_flatness_check(curvature(conn), kernel_frame_on_S(phi, ker, coker),
                             sample_points(phi.source.dim, POINTS, SEED))
    assert worst <= 1e-10, worst
    _report(9, "distinguished sum connection is flat on the annihilator")


def test_criterion_10_composition_laws(chain):
    phi, psi = chain.morphism("phi"), chain.morphism("psi")
    composite = psi.compose(phi)
    points = sample_points(1, POINTS, SEED)
    mu_comp = mu_form(composite, 1)
    mu_phi = mu_form(phi, 1)
    mu_psi = mu_form(psi, 1)
    rel = ClassBuilder().relative_mu(phi, psi, 1)
    assert (rel - pullback(phi, mu_psi)).max_abs(points) <= 1e-9
    assert (mu_comp - (mu_phi + rel)).max_abs(points) <= 1e-9
    assert (mu_comp - (mu_phi + pullback(phi, mu_psi))).max_abs(points) <= 1e-9
    _report(10, "relative, modulo, and pullback composition laws at h = 1")


def test_criterion_11_jet_theorem(solvable2d, action_x, so3):
    for fixture, name in ((solvable2d, "phi"), (action_x, "sharp")):
        phi = fixture.morphism(name)
        form = ClassBuilder().relative_mu(jet_prolong(phi.source).projection(), phi, 1)
        jet = form.chart
        points = sample_points(jet.dim, POINTS, SEED)
        pulled = pullback(jet.projection(), mu_form(phi, 1))
        assert (form - pulled).max_abs(points) <= 1e-9, fixture.name
        projection = jet.projection()
        flatness = max(
            curvature(morphism_target_connection(projection)).max_abs(points),
            curvature(morphism_target_connection(phi.compose(projection))).max_abs(points))
        assert flatness <= 1e-10, fixture.name
    jet = jet_prolong(so3.chart("so3"))
    points = sample_points(jet.dim, POINTS, SEED)
    near = morphism_target_connection(jet.projection())
    far = morphism_target_connection(so3.morphism("zero").compose(jet.projection()))
    assert curvature(near).max_abs(points) <= 1e-10
    assert curvature(far).max_abs(points) <= 1e-10
    _report(11, "jet-relative classes pull back; jet connections are flat")


def test_criterion_12_quadrature_constant(sa3):
    h = 2
    order = 2 * h - 1
    tau = parse_expression("t", ["t"])
    integrand = (tau * (Const(1.0) - tau)) ** (order - 1)
    nodes = max(1, math.ceil((2 * (order - 1) + 1) / 2))
    value = order * scalar_eval(integrate_unit_interval(integrand, 0, nodes), ())
    beta = math.gamma(order) ** 2 / math.gamma(2 * order)
    oracle = order * beta
    assert oracle == pytest.approx(0.1, rel=1e-14)
    assert abs(value - oracle) / oracle <= 1e-10
    # The same factor realized through the full form pipeline on a flat pair.
    phi = sa3.morphism("zero")
    c1 = sum_connection(phi)
    c0 = FormMatrix.zero(phi.source, c1.size, 1)
    out = bott_delta([c0, c1], order)
    alpha = c1
    contraction = chern_polarized([alpha, alpha.wedge(alpha), alpha.wedge(alpha)])
    points = sample_points(1, 10, SEED)
    scale = contraction.max_abs(points)
    assert scale > 0.1
    assert (out - contraction.scale(oracle)).max_abs(points) <= 1e-10 * scale
    _report(12, "tau-integral factor matches the exact Beta value 1/10")


def test_criterion_13_determinism(solvable2d, so3):
    for fixture, suite in ((solvable2d, "classes"), (so3, "axioms")):
        first = run_suite(fixture, suite, Options(points=50, seed=SEED)).to_json()
        second = run_suite(fixture, suite, Options(points=50, seed=SEED)).to_json()
        assert first == second
    first = emit_class(solvable2d, "phi", 1, Options(points=30)).to_json()
    second = emit_class(solvable2d, "phi", 1, Options(points=30)).to_json()
    assert first == second
    _report(13, "byte-identical reports across consecutive runs")
