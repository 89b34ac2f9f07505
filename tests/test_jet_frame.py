"""The split jet frame against the holonomic one it replaced.

`jet_prolong` builds J1 A in the frame J_i = j1(b_i), E_{h,i} = dx^h (x) b_i
from closed-form structure functions; `dense_oracle.HolonomicJet` builds it in
the frame j1(b_i), j1(x^h b_i) by bracketing and decomposing sections.  Under
E_{h,i} = j1(x^h b_i) - x^h j1(b_i) both must give the same anchors, brackets
and flat jet connections, pointwise.
"""

import numpy as np
import pytest

from dense_oracle import HolonomicJet, Section, basis_section, sparse_bracket
from algebroids.algebroid import AlgebroidChart, jet_prolong
from algebroids.connections import morphism_target_connection
from algebroids.expressions import ZERO, Const, Coord, add, evaluate, mul
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.sampling import sample_points


def leibniz_chart() -> AlgebroidChart:
    """Rank 2 over x: anchor rows 1 and 0, [b1, b2] = x b2."""
    return AlgebroidChart("leibniz", ("x",), ("b1", "b2"), [[Const(1.0)], [ZERO]],
                          {(0, 1): {1: Coord(0, "x")}})


def _cases():
    for fixture_name in builtin_fixture_names():
        fixture = resolve_fixture(fixture_name)
        for name, chart in fixture.charts.items():
            morphisms = [phi for phi in fixture.morphisms.values() if phi.source is chart]
            yield f"{fixture_name}.{name}", chart, morphisms
    yield "leibniz", leibniz_chart(), []


CASES = list(_cases())


def _split_frame(old: HolonomicJet) -> list[Section]:
    """The split frame as sections of the holonomic jet: J_i = j1(b_i) and
    E_{h,i} = j1(x^h b_i) - x^h j1(b_i)."""
    s = old.base_chart.rank
    frame = []
    for p in range(old.rank):
        comps = [ZERO] * old.rank
        comps[p] = Const(1.0)
        if p >= s:
            h, i = divmod(p - s, s)
            comps[i] = mul(Const(-1.0), old.base_chart.coordinate_field(h))
        frame.append(Section(old, comps))
    return frame


def _split_coefficients(old: HolonomicJet, comps) -> list:
    """Holonomic-frame coefficients c in the split frame: c_i + x^h c_{h,i} on
    J_i and c_{h,i} on E_{h,i}."""
    s = old.base_chart.rank
    split = list(comps)
    for p in range(s, old.rank):
        h, i = divmod(p - s, s)
        split[i] = add(split[i], mul(old.base_chart.coordinate_field(h), comps[p]))
    return split


def _on_sections(conn, frame: list[Section]) -> list:
    """omega_u^t(a) for each a in `frame`, flattened a-major, then u, t."""
    values = []
    for section in frame:
        for row in conn.entries:
            for entry in row:
                value = ZERO
                for r, xi in enumerate(section.comps):
                    value = add(value, mul(xi, entry.coeff((r,))))
                values.append(value)
    return values


def _assert_close(got, want, points, label):
    """Equal values at the points, within 1e-14 of the largest one (or of 1)."""
    got_values, want_values = evaluate(got, points), evaluate(want, points)
    scale = max(1.0, float(np.max(np.abs(want_values), initial=0.0)))
    np.testing.assert_allclose(got_values, want_values, rtol=0.0, atol=1e-14 * scale,
                               err_msg=label)


@pytest.mark.parametrize("label,chart,morphisms", CASES, ids=[case[0] for case in CASES])
def test_split_frame_matches_the_holonomic_oracle(label, chart, morphisms):
    new, old = jet_prolong(chart), HolonomicJet(chart)
    assert new.rank == old.rank
    points = sample_points(chart.dim, 20, 42)
    frame = _split_frame(old)
    unit = [basis_section(new, p) for p in range(new.rank)]
    old_anchor = []
    for section in frame:
        for j in range(chart.dim):
            value = ZERO
            for r, xi in enumerate(section.comps):
                value = add(value, mul(xi, old.anchor[r][j]))
            old_anchor.append(value)
    _assert_close([c for row in new.anchor for c in row], old_anchor, points,
                  f"{label}: anchors")
    got, want = [], []
    for p in range(new.rank):
        for q in range(p + 1, new.rank):
            terms = new.brackets.get((p, q), {})
            got += [terms.get(r, ZERO) for r in range(new.rank)]
            want += _split_coefficients(old, sparse_bracket(frame[p], frame[q]).comps)
    _assert_close(got, want, points, f"{label}: brackets")
    pairs = [(new.projection(), old.projection())]
    pairs += [(phi.compose(pairs[0][0]), phi.compose(pairs[0][1])) for phi in morphisms]
    for new_map, old_map in pairs:
        _assert_close(_on_sections(morphism_target_connection(new_map), unit),
                      _on_sections(morphism_target_connection(old_map), frame),
                      points, f"{label}: connection of {new_map.name}")

