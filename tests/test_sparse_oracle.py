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
`str()`-equal coefficients and byte-identical reports.  `d_A`, which reads
each key's bracket terms from the chart's `cartan` memo, must also build the
trees of the per-call route it replaced (`cartan_oracle.d_A`), keys in the
same order.  A constant `FormMatrix` computes its sums, scalings, products
and traces on float tables; boxed, they must be the trees of the tree-only
routes in `matrix_oracle`, every constant to the bit.  Every matrix a run
builds keeps the tables it was built with, of floats exactly when every
coefficient is a constant.
"""

import struct
from itertools import combinations
from math import comb, pi, sqrt

import pytest
from hypothesis import given, settings, strategies as st

import cartan_oracle
import dense_oracle
import matrix_oracle
from expression_oracle import same_tree
from algebroids.algebroid import (
    AlgebroidChart,
    Morphism,
    d_A,
    jet_prolong,
    verify_axioms,
)
from algebroids.classes import ClassBuilder, modular_form
from algebroids.cli import main
from algebroids.connections import FormMatrix, bracket_connection, morphism_target_connection
from algebroids.expressions import Const, parse_expression
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


@given(charts(), st.data())
@settings(max_examples=60, deadline=None)
def test_d_A_matches_the_per_call_oracle(chart, data):
    # Every degree, on the chart and (when small enough) on its jet, whose
    # structure functions include derivatives; coefficients constant (unit,
    # non-unit and negative: the folded-product step), fields, or both.
    constants = st.sampled_from(CONSTANTS + ["1", "-1", "-0.25"]).map(
        lambda text: parse_expression(text, chart.coords))
    fields = _fields(chart.coords)
    targets = [chart]
    if chart.rank * (1 + chart.dim) <= JET_RANK_CAP:
        targets.append(jet_prolong(chart))
    for target in targets:
        for degree in range(target.rank + 1):
            for coefficients in (constants, fields, st.one_of(constants, fields)):
                omega = _draw_form(data, target, degree, coefficients, max_keys=8)
                new, old = d_A(omega), cartan_oracle.d_A(omega)
                assert new.degree == old.degree
                _assert_same_table(new.table, old.table)


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


class _CountedReads:
    """A view of a chart's `cartan` memo that counts the keys read from it."""

    def __init__(self, memo):
        self.memo = memo
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.memo[index]


def _d_A_bodies(monkeypatch, omega: AForm) -> tuple[AForm, int]:
    """d_A(omega) and the number of per-key bodies it ran.

    Each body reads the bracket terms of its key from `chart.cartan` once.
    """
    counted = _CountedReads(omega.chart.cartan)
    with monkeypatch.context() as patch:
        patch.setattr(omega.chart, "cartan", counted)
        out = d_A(omega)
    return out, counted.reads


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


# Unit, non-unit, negative, dyadic and irrational values, and tiny ones whose
# products underflow to +-0.0; opposite values cancel to exactly 0.0.
VALUES = [1.0, -1.0, 2.0, -3.0, 0.5, -0.25, 0.1, sqrt(2.0), -pi, 1.0 / 3.0,
          1e-200, -1e-200]


def _assert_same_form(new: AForm, old: AForm) -> None:
    """Same degree, the same keys in the same order, the same tree per key and
    every constant to the bit."""
    assert new.degree == old.degree
    _assert_same_table(new.table, old.table)
    for key, coeff in old.table.items():
        if type(coeff) is Const:
            assert struct.pack("<d", new.table[key].value) == struct.pack("<d", coeff.value)


def _assert_same_matrix(new: FormMatrix, old: FormMatrix) -> None:
    assert (new.chart, new.size, new.degree) == (old.chart, old.size, old.degree)
    for new_row, old_row in zip(new.entries, old.entries, strict=True):
        for new_entry, old_entry in zip(new_row, old_row, strict=True):
            _assert_same_form(new_entry, old_entry)


def _constant_matrix(data, chart, size: int, degree: int) -> FormMatrix:
    keys = list(combinations(range(chart.rank), degree))
    values = st.sampled_from(VALUES).map(Const)
    return FormMatrix(chart, [[AForm(chart, degree, data.draw(st.dictionaries(
        st.sampled_from(keys), values, max_size=4))) for _ in range(size)]
        for _ in range(size)], degree)


def _assert_floats_or_trees(matrix: FormMatrix) -> None:
    """`_floats` is a bool, true exactly when no coefficient is a tree other
    than a `Const`: a float matrix holds only floats, any other at least one
    such tree."""
    values = [value for row in matrix._rows for table in row for value in table.values()]
    assert type(matrix._floats) is bool
    if matrix._floats:
        assert all(type(value) is float for value in values)
    else:
        assert any(type(value) not in (float, Const) for value in values)


def _assert_same_arithmetic(a: FormMatrix, b: FormMatrix, c: FormMatrix, factor: float,
                            floats: bool = True) -> None:
    """Every matrix operation with unboxed constants against `matrix_oracle`, on
    `a` and `c` of one degree and `b`, and chained on the results.  `a` and `c`
    are constant; `floats` says whether `b` is, and so whether its products
    must run on float tables.  Every result holds floats or trees as its
    coefficients say."""
    oracle = matrix_oracle
    product = a.wedge(b)
    difference = (a - c).wedge(b)
    # A product above the chart rank is an empty float matrix, with nothing built.
    if floats or a.degree + b.degree > a.chart.rank:
        assert product._floats is True and difference._floats is True
    for new, old in [(a + c, oracle.matrix_add(a, c)), (a - c, oracle.matrix_sub(a, c)),
                     (c - a, oracle.matrix_sub(c, a)),
                     (a.scale(factor), oracle.matrix_scale(a, factor))]:
        assert new._floats is True
        _assert_same_matrix(new, old)
    chained = product - (a + c).wedge(b).scale(factor)
    for matrix in (a, b, c, product, difference, chained):
        _assert_floats_or_trees(matrix)
    for new, old in [
            (product, oracle.matrix_wedge(a, b)),
            (difference, oracle.matrix_wedge(oracle.matrix_sub(a, c), b)),
            (chained, oracle.matrix_sub(oracle.matrix_wedge(a, b), oracle.matrix_scale(
                oracle.matrix_wedge(oracle.matrix_add(a, c), b), factor)))]:
        _assert_same_matrix(new, old)
    _assert_same_form(a.trace(), oracle.matrix_trace(a))
    _assert_same_form(product.trace(), oracle.matrix_trace(product))
    _assert_same_form(a.trace_wedge(b), oracle.matrix_trace_wedge(a, b))
    _assert_same_form((a - c).trace_wedge(b),
                      oracle.matrix_trace_wedge(oracle.matrix_sub(a, c), b))


@given(charts(), st.data())
@settings(max_examples=40, deadline=None)
def test_float_tables_match_the_tree_matrix_oracle(chart, data):
    # Constant matrices of sizes 1-5 and degrees 0-3 on the chart and (when small
    # enough) its jet run on float tables, and must give the tree route's keys,
    # key order and constants bit for bit; with one field coefficient the
    # same operations run on trees.
    targets = [chart]
    if chart.rank * (1 + chart.dim) <= JET_RANK_CAP:
        targets.append(jet_prolong(chart))
    for target in targets:
        size = data.draw(st.integers(1, 5))
        low, high = (data.draw(st.integers(0, min(3, target.rank))) for _ in range(2))
        a, c = (_constant_matrix(data, target, size, low) for _ in range(2))
        b = _constant_matrix(data, target, size, high)
        factor = data.draw(st.sampled_from(VALUES + [0.0, 1e-200]))
        _assert_same_arithmetic(a, b, c, factor)
        rows = [list(row) for row in b.entries]
        u, t = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        key = data.draw(st.sampled_from(list(combinations(range(target.rank), high))))
        rows[u][t] = rows[u][t] + AForm(target, high, {key: target.coordinate_field(0)})
        mixed = FormMatrix(target, rows, high)
        _assert_same_arithmetic(a, mixed, c, factor, floats=False)


def _flat_chart(rank: int) -> AlgebroidChart:
    """A rank-`rank` chart over x with zero anchor and no brackets."""
    zero = parse_expression("0", ["x"])
    return AlgebroidChart(f"flat{rank}", ["x"], [f"b{i}" for i in range(rank)],
                          [[zero] for _ in range(rank)])


def _matrix(chart, degree: int, rows) -> FormMatrix:
    return FormMatrix(chart, [[AForm(chart, degree, {key: Const(value)
                                                     for key, value in entry.items()})
                               for entry in row] for row in rows], degree)


def test_float_tables_keep_cancelled_underflowed_and_dropped_terms():
    chart = _flat_chart(4)
    e0 = {(0,): 1.0}
    # (AB)_0^0 = e0 ^ (e1 + 3 e2) + e0 ^ (-e1) + e0 ^ (0.5 e1): the e01 coefficient
    # cancels to exactly 0.0, leaves the table and re-enters after e02.
    a = _matrix(chart, 1, [[e0, e0, e0], [{}, {}, {}], [{}, {}, {}]])
    b = _matrix(chart, 1, [[{(1,): 1.0, (2,): 3.0}, {}, {}], [{(1,): -1.0}, {}, {}],
                           [{(1,): 0.5}, {}, {}]])
    product = a.wedge(b)
    assert product.entries[0][0].table.keys() == {(0, 2): 0, (0, 1): 0}.keys()
    assert list(product.entries[0][0].table) == [(0, 2), (0, 1)]
    # Products of tiny constants underflow to +0.0 and, with a shuffle sign or a
    # negative factor, to -0.0; both leave no key.
    tiny = _matrix(chart, 1, [[{(0,): 1e-200, (1,): 1e-200}, {(1,): -1e-200}],
                              [{}, {(2,): 1e-200}]])
    assert all(entry.is_zero() for row in tiny.wedge(tiny).entries for entry in row)
    assert all(entry.is_zero() for row in tiny.scale(1e-200).entries for entry in row)
    # The four terms of e0123 in (2-form ^ 2-form) are 1, -0.0 (underflowed), 1e-16
    # and 1e-16: summed pairwise with the zero kept, 1 + 2e-16 rounds up; with it
    # dropped, as `balanced_sum` drops it, (1 + 1e-16) + 1e-16 is 1.0.
    left = _matrix(chart, 2, [[{(0, 1): 1.0, (0, 2): 1e-200, (1, 2): 1e-16, (0, 3): 1e-16}]])
    right = _matrix(chart, 2, [[{(2, 3): 1.0, (1, 3): 1e-200, (0, 3): 1.0, (1, 2): 1.0}]])
    assert left.wedge(right).entries[0][0].table[(0, 1, 2, 3)].value == 1.0
    assert left.trace_wedge(right).table[(0, 1, 2, 3)].value == 1.0
    # Terms 1, 1e-16, 1e-16 and 1e-16 are paired: (1 + 1e-16) + 2e-16 rounds up to
    # 1 + 2^-52, where a running sum would stay at 1.0.
    paired = _matrix(chart, 2, [[{(0, 1): 1.0, (0, 2): 1e-16, (0, 3): 1e-16, (1, 2): 1e-16}]])
    signs = _matrix(chart, 2, [[{(2, 3): 1.0, (1, 3): -1.0, (1, 2): 1.0, (0, 3): 1.0}]])
    assert paired.wedge(signs).entries[0][0].table[(0, 1, 2, 3)].value == 1.0 + 2.0 ** -52
    cases = [(a, b, a.scale(-1.0)), (tiny, tiny, tiny.scale(3.0)),
             (left, right, left.scale(sqrt(2.0))), (paired, signs, left)]
    for x, y, z in cases:
        _assert_same_arithmetic(x, y, z, -0.5)


_RUNS = [["verify", name, "--suite", "all"] for name in builtin_fixture_names()]
_RUNS.append(["mu", "sa3", "--morphism", "zero", "--h", "2"])


@pytest.mark.parametrize("argv", _RUNS, ids=" ".join)
def test_every_matrix_keeps_the_tables_it_was_built_with(argv, monkeypatch, capsys):
    # Every `FormMatrix` the run builds, including those memoized and shared
    # between suites, still holds its first tables at the end of the run, of
    # floats exactly when no coefficient is a tree other than a `Const`.
    built = []
    init = FormMatrix._init

    def recorded(self, *args):
        init(self, *args)
        built.append((self, self._rows))
        return self

    monkeypatch.setattr(FormMatrix, "_init", recorded)
    assert main(argv) == (1 if argv[1] == "broken_jacobi" else 0)
    capsys.readouterr()
    assert built
    for matrix, rows in built:
        assert matrix._rows is rows
        _assert_floats_or_trees(matrix)
