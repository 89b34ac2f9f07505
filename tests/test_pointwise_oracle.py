"""The array route of the metric, kernel-flatness and adapted-frame checks
against the per-point scalar loops it replaced (`pointwise_oracle`).

Where the oracle's residual is 0 the array route must give 0 as well;
otherwise the two agree within 1e-12 relative.  numpy's `sin`/`exp` may
differ from `math`'s in the last bit, and batched matrix products may sum in
another order, so exact equality is not required of nonzero values.
"""

from itertools import combinations

import numpy as np
import pytest

import pointwise_oracle as oracle
from algebroids.connections import (
    FormMatrix,
    curvature,
    k_flatness_check,
    kernel_frame_on_S,
    quasi_metric_frame_check,
    quasi_metric_on_S,
)
from algebroids.expressions import Const, cosine, exponential, sine
from algebroids.forms import AForm
from algebroids.sampling import sample_points
from constructions import sum_connection

CASES = [("so3", "zero"), ("sl2aff", "zero"), ("solvable2d", "phi"),
         ("solvable2d", "phi2")]


def _same(new: float, old: float) -> None:
    if old == 0.0:
        assert new == 0.0
    else:
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)


def _transcendental_connection(chart, rank: int, seed: int) -> FormMatrix:
    """Coefficients a + b*x + c*sin(x) + d*exp(x)*cos(x) with small random integers."""
    rng = np.random.default_rng(seed)
    x = chart.coordinate_field(0)
    shapes = [Const(1.0), x, sine(x), exponential(x) * cosine(x)]
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            table = {}
            for i in range(chart.rank):
                coeff = Const(0.0)
                for shape, c in zip(shapes, rng.integers(-2, 3, len(shapes))):
                    coeff = coeff + Const(float(c)) * shape
                if not coeff.is_zero():
                    table[(i,)] = coeff
            row.append(AForm(chart, 1, table))
        rows.append(row)
    return FormMatrix(chart, rows, 1)


def _case(request, fixture_name: str, morphism: str):
    fixture = request.getfixturevalue(fixture_name)
    phi = fixture.morphism(morphism)
    ker, coker = fixture.kernel_rows(morphism)
    conn = sum_connection(phi)
    return phi, ker, coker, [conn, _transcendental_connection(phi.source, conn.size, 5)]


@pytest.mark.parametrize("fixture_name, morphism", CASES)
def test_eval_on_matches_the_scalar_walk(request, fixture_name, morphism):
    _, _, _, connections = _case(request, fixture_name, morphism)
    chart = connections[0].chart
    points = sample_points(chart.dim, 12, 42)
    for conn in connections:
        for matrix, degree in ((conn, 1), (curvature(conn), 2)):
            frames = list(combinations(range(chart.rank), degree))
            values = matrix.eval_on(frames, points)
            assert values.shape == (len(frames), 12, conn.size, conn.size)
            for f, frame in enumerate(frames):
                for n, point in enumerate(points.tolist()):
                    expected = oracle.eval_on(matrix, frame, point)
                    assert (values[f, n] == 0.0).tolist() == (expected == 0.0).tolist()
                    np.testing.assert_allclose(values[f, n], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("fixture_name, morphism", CASES)
def test_metric_values_match_the_scalar_walk(request, fixture_name, morphism):
    phi, _, _, _ = _case(request, fixture_name, morphism)
    points = sample_points(phi.source.dim, 10, 42)
    for g in quasi_metric_on_S(phi):
        values = g.values(points)
        for matrix, point in zip(values, points.tolist()):
            np.testing.assert_array_equal(matrix, oracle.metric_eval(g, point))


@pytest.mark.parametrize("fixture_name, morphism", CASES)
def test_k_flatness_matches_oracle(request, fixture_name, morphism):
    phi, ker, coker, connections = _case(request, fixture_name, morphism)
    for conn in connections:
        new = k_flatness_check(conn, phi, ker, coker, sample_points(phi.source.dim, 30, 42))
        old = oracle.k_flatness_check(conn, phi, ker, coker, 30, 42, 1e-10)
        _same(new, old.residual)
        # The command line records the same count as `kernel_vectors`.
        assert old.details["kernel_vectors"] == len(ker) + len(coker)
    # The random connection is curved: the comparison is not between zeros.
    assert old.residual > 1e-3


@pytest.mark.parametrize("fixture_name, morphism", CASES)
def test_adapted_frame_checks_match_oracle(request, fixture_name, morphism):
    phi, ker, coker, connections = _case(request, fixture_name, morphism)
    frame = kernel_frame_on_S(phi, ker, coker)
    nonzero = 0
    for conn in connections:
        for g in quasi_metric_on_S(phi):
            new = quasi_metric_frame_check(conn, g, frame,
                                           sample_points(phi.source.dim, 20, 42))
            old = oracle.quasi_metric_frame_check(conn, g, frame, 20, 42, 1e-9)
            assert list(new) == [r.name for r in old]
            for a, b in zip(new.values(), old):
                _same(a, b.residual)
                nonzero += b.residual > 0.0
    # The random connection leaves nonzero blocks, unless the kernel frame
    # spans the whole bundle (zero morphisms), where every block is empty.
    assert nonzero or len(frame) == connections[0].size
