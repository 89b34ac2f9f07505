"""The sparse `d_A` and `modular_form` against the dense oracle, and the one
bracket-induced connection builder against the bracket of sections.

`morphism_target_connection` reads omega_u^t(b_i) = sum_s phi_i^s c'_su^t -
rho'(b'_u)(phi_i^t) off the target's structure functions and anchor; the
oracle brackets the sections phi b_i and b'_u with the dense `bracket`: for
the identity (`bracket_connection`), for a target with its own anchor and
brackets, and for the projection of the holonomic jet and a morphism
composed with it (the flat jet connections).  The jet class is `relative_mu`
on the chain (pi, phi) and needs no builder of its own.

The sparse routes must build the very expression trees of the dense loops:
same table keys, same node kinds, constants and child order, hence
`str()`-equal coefficients and byte-identical reports.
"""

from itertools import combinations
from math import comb

from hypothesis import given, settings, strategies as st

import dense_oracle
from expression_oracle import same_tree
from algebroids.algebroid import (
    AlgebroidChart,
    Morphism,
    d_A,
    jet_prolong,
    verify_axioms,
)
from algebroids.classes import ClassBuilder, modular_form
from algebroids.connections import bracket_connection, morphism_target_connection
from algebroids.expressions import parse_expression
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.forms import AForm
from algebroids.sampling import sample_points

COORDS = ("x", "y")
# Non-constant and constant coefficients; constants exercise the skips.
POOL = {
    1: ["x", "x^2", "sin(x)", "exp(x)", "1 + x", "x/(2 + x^2)", "2", "-3", "0.5"],
    2: ["y", "x*y", "cos(y) - x", "y^3"],
}
CONSTANTS = ["0", "2", "-3", "0.5"]


# Largest jet rank s(1 + dim) whose jet connections the chart test compares:
# the jet of a rank-5 chart over (x, y) has rank 15 and 105 bracket pairs.
JET_RANK_CAP = 9


def _assert_same_table(new: dict, old: dict) -> None:
    assert list(new) == list(old)
    for key in old:
        assert same_tree(new[key], old[key])


def _assert_same_connection(new, old) -> None:
    assert new.chart is old.chart and new.size == old.size
    for new_row, old_row in zip(new.entries, old.entries):
        for new_entry, old_entry in zip(new_row, old_row):
            _assert_same_table(new_entry.table, old_entry.table)


def _fields(coords, zero_weight: int = 1):
    texts = [t for d in range(1, len(coords) + 1) for t in POOL[d]]
    return st.sampled_from(["0"] * zero_weight + texts).map(
        lambda text: parse_expression(text, coords))


def _constants(coords):
    return st.sampled_from(CONSTANTS).map(lambda text: parse_expression(text, coords))


def _draw_form(data, chart, degree, coefficients, max_keys=None) -> AForm:
    keys = data.draw(st.lists(
        st.sampled_from(list(combinations(range(chart.rank), degree))),
        unique=True, max_size=max_keys))
    return AForm(chart, degree, {key: data.draw(coefficients) for key in keys})


def _assert_same_d_A(omega: AForm) -> None:
    new, old = d_A(omega), dense_oracle.d_A(omega)
    assert new.degree == old.degree
    _assert_same_table(new.table, old.table)


@st.composite
def charts(draw, coords=None):
    """A random chart, over `coords` if given, else over x or (x, y)."""
    rank = draw(st.integers(1, 5))
    coords = coords or COORDS[:draw(st.integers(1, 2))]
    sparse = _fields(coords, zero_weight=6)
    anchor = [[draw(sparse) for _ in coords] for _ in range(rank)]
    brackets = {}
    # Fixtures may list bracket pairs in any order.
    for i, j in draw(st.permutations(list(combinations(range(rank), 2)))):
        targets = draw(st.lists(st.integers(0, rank - 1), max_size=rank, unique=True))
        if targets:
            key = (j, i) if draw(st.booleans()) else (i, j)
            brackets[key] = {k: draw(_fields(coords, zero_weight=0)) for k in targets}
    return AlgebroidChart("random", coords, [f"b{i}" for i in range(rank)],
                          anchor, brackets)


@given(charts(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_routes_match_dense_oracle(chart, data):
    fields = _fields(chart.coords)
    # Constant coefficients reach only bracket keys, also on anchored charts.
    for degree in range(chart.rank + 1):
        for coefficients in (fields, _constants(chart.coords)):
            _assert_same_d_A(_draw_form(data, chart, degree, coefficients))
    _assert_same_connection(bracket_connection(chart),
                            dense_oracle.target_connection(Morphism.identity(chart)))
    _assert_same_table(modular_form(chart).table,
                       dense_oracle.modular_form(chart).table)
    phi = Morphism(chart, chart, [data.draw(st.lists(fields, min_size=chart.rank,
                                                     max_size=chart.rank))
                                  for _ in range(chart.rank)])
    _, d1 = ClassBuilder().chain_pair(Morphism.identity(chart), phi)
    _assert_same_connection(d1, dense_oracle.morphism_sum_connection(phi))
    # A target with its own anchor and brackets: the -rho'(b'_u)(phi_i^t) term.
    target = data.draw(charts(chart.coords))
    psi = Morphism(chart, target, [data.draw(st.lists(fields, min_size=target.rank,
                                                      max_size=target.rank))
                                   for _ in range(chart.rank)])
    _assert_same_connection(morphism_target_connection(psi),
                            dense_oracle.target_connection(psi))
    _assert_same_morphism(psi.compose(phi), dense_oracle.compose_reference(psi, phi))
    if chart.rank * (1 + chart.dim) <= JET_RANK_CAP:
        jet = jet_prolong(chart)
        for degree in (0, 1, 2):
            for coefficients in (fields, _constants(chart.coords)):
                _assert_same_d_A(_draw_form(data, jet, degree, coefficients, max_keys=8))
        projection = dense_oracle.HolonomicJet(chart).projection()
        _assert_same_morphism(phi.compose(projection),
                              dense_oracle.compose_reference(phi, projection))
        for jet_map in (projection, phi.compose(projection)):
            _assert_same_connection(morphism_target_connection(jet_map),
                                    dense_oracle.target_connection(jet_map))


def _assert_same_morphism(new: Morphism, old: Morphism) -> None:
    assert (new.source, new.target, new.name) == (old.source, old.target, old.name)
    for new_row, old_row in zip(new.matrix, old.matrix, strict=True):
        for new_entry, old_entry in zip(new_row, old_row, strict=True):
            assert same_tree(new_entry, old_entry)


def test_compose_matches_dense_oracle():
    # Every composable pair of bundled morphisms, and every phi o pi that the
    # jet suite builds from the jet projection pi of phi's source.
    composed = 0
    for name in builtin_fixture_names():
        morphisms = list(resolve_fixture(name).morphisms.values())
        jets = {phi.source: jet_prolong(phi.source) for phi in morphisms}
        pairs = [(psi, phi) for phi in morphisms for psi in morphisms
                 if psi.source is phi.target]
        composed += len(pairs)
        pairs += [(phi, jets[phi.source].projection()) for phi in morphisms]
        for outer, inner in pairs:
            _assert_same_morphism(outer.compose(inner),
                                  dense_oracle.compose_reference(outer, inner))
    assert composed > 0


def _sa3_forms(chart):
    x = chart.coordinate_field(0)
    covectors = {(i,): parse_expression(f"x^2 + {i}*sin(x)", chart.coords)
                 for i in range(chart.rank)}
    two = {(i, j): parse_expression(f"{i}*x - {j}", chart.coords)
           for i, j in combinations(range(0, chart.rank, 2), 2)}
    return [
        chart.function_form(parse_expression("exp(x) + x^3", chart.coords)),
        AForm(chart, 1, covectors),
        AForm(chart, 2, two),
        AForm(chart, 3, {(0, 4, 9): x}),
    ]


def _d_A_bodies(monkeypatch, omega: AForm) -> tuple[AForm, int]:
    """d_A(omega) and the number of per-key bodies it ran.

    Each body reads one coefficient of omega per slot of its key.
    """
    reads = 0
    coeff = AForm.coeff

    def counted(self, index):
        nonlocal reads
        reads += self is omega
        return coeff(self, index)

    with monkeypatch.context() as patch:
        patch.setattr(AForm, "coeff", counted)
        out = d_A(omega)
    return out, reads // (omega.degree + 1)


def test_d_A_never_scans_the_dense_frame(sa3, sl2aff, tangent_r2, monkeypatch):
    chart = sa3.chart("sa3")
    forms = _sa3_forms(chart)
    expected = [dense_oracle.d_A(omega).table for omega in forms]
    for omega, table in zip(forms, expected):
        _assert_same_table(d_A(omega).table, table)
    assert d_A(chart.zero_form(2)).is_zero()
    for small in sl2aff.charts.values():
        assert max(verify_axioms(small, sample_points(small.dim, 5, 42))[:2]) <= 1e-9
    # On a one-key 1-form, d_A runs a body only on the keys a Cartan term
    # reaches: the bracket pairs with an m-term, and with a non-constant
    # coefficient {m, i} for each anchored i.
    jet = jet_prolong(chart)
    assert jet.rank == 22 and not any(jet.anchor_terms)
    anchored_jet = jet_prolong(tangent_r2.chart("TR2"))
    base_rank = tangent_r2.chart("TR2").rank
    assert all(anchored_jet.anchor_terms[:base_rank])
    assert not any(anchored_jet.anchor_terms[base_rank:])
    for big in (jet, anchored_jet):
        anchored = {i for i, terms in enumerate(big.anchor_terms) if terms}
        for m in range(big.rank):
            for text in ("x^2", "2"):
                omega = AForm(big, 1, {(m,): parse_expression(text, big.coords)})
                reached = {pair for pair, terms in big.brackets.items() if m in terms}
                if text != "2":
                    reached |= {tuple(sorted((m, i))) for i in anchored - {m}}
                out, bodies = _d_A_bodies(monkeypatch, omega)
                assert bodies == len(reached) < comb(big.rank, 2), (big.name, m, text)
                assert set(out.table) <= reached
                if m in (0, big.rank - 1):
                    _assert_same_table(out.table, dense_oracle.d_A(omega).table)
