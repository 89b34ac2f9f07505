"""Exact residuals of `verify_axioms` and `check_morphism` on every bundled input.

Every bundled chart and its first jet, every bundled morphism and every jet
projection, probed at the 100 points of seed 42 and held to 1e-9, the CLI's
default probe set and tolerance.  A residual not listed in `NONZERO` must read
0.0, pass and carry no failing triple.  None of these inputs goes through `exp` or `sin`, so the values do not
depend on numpy's vector kernels; a change that moves one of them by an ulp
updates it here.
"""

from algebroids.algebroid import check_morphism, jet_prolong, verify_axioms
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.sampling import sample_points

POINTS, SEED, TOL = 100, 42, 1e-9

# (case, record name) -> (residual, passed, failing_triple)
NONZERO = {
    ("broken_jacobi.broken", "jacobi_identity"): (1.0, False, [0, 1, 2]),
    ("broken_jacobi.J1(broken)", "jacobi_identity"): (1.0, False, [0, 1, 2]),
}


def _axioms(chart, points):
    """(name, residual, failing triple or None) of the two axioms."""
    anchor, jacobi, triple = verify_axioms(chart, points)
    yield "anchor_bracket_morphism", anchor, None
    yield "jacobi_identity", jacobi, list(triple) if jacobi > TOL else None


def _morphism(phi, points):
    worst = max((form.max_abs(points) for form in check_morphism(phi)), default=0.0)
    return f"morphism_{phi.name}", worst, None


def _records():
    for fixture_name in builtin_fixture_names():
        fixture = resolve_fixture(fixture_name)
        for name, chart in fixture.charts.items():
            jet = jet_prolong(chart)
            points = sample_points(chart.dim, POINTS, SEED)
            for record in _axioms(chart, points):
                yield f"{fixture_name}.{name}", record
            for record in _axioms(jet, points):
                yield f"{fixture_name}.J1({name})", record
            yield f"{fixture_name}.J1({name})", _morphism(jet.projection(), points)
        for phi in fixture.morphisms.values():
            yield fixture_name, _morphism(phi, sample_points(phi.source.dim, POINTS, SEED))


def test_every_axiom_and_morphism_record_is_pinned():
    seen = {}
    for case, (name, residual, triple) in _records():
        seen[case, name] = (residual, residual <= TOL, triple)
    assert len(seen) == 96
    for key, got in seen.items():
        assert got == NONZERO.get(key, (0.0, True, None)), key
    assert set(NONZERO) <= set(seen)
