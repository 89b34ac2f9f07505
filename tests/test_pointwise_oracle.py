"""The array route of the metric, kernel-flatness and adapted-frame checks
against the per-point scalar loops it replaced (`pointwise_oracle`).

Where the oracle's residual is 0 the array route must give 0 as well;
otherwise the two agree within 1e-12 relative.  numpy's `sin`/`exp` may
differ from `math`'s in the last bit, and batched matrix products may sum in
another order, so exact equality is not required of nonzero values.

The adapted frames themselves are checked on both routes, the SVD complement
and Hermitian eigendecomposition of `connections.adapted_frame` and the
identity-column, pivoting route it replaced: each must give the canonical Gram
and an invertible frame, and both the same canonical Gram.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from algebroids.connections import (
    FormMatrix,
    QuasiMetric,
    adapted_frame,
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

# Every bundled morphism with kernel rows.
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
        new = k_flatness_check(curvature(conn), kernel_frame_on_S(phi, ker, coker),
                               sample_points(phi.source.dim, 30, 42))
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
    points = sample_points(phi.source.dim, 20, 42)
    nonzero = 0
    for conn in connections:
        for g in quasi_metric_on_S(phi):
            new = quasi_metric_frame_check(conn, curvature(conn), g,
                                           adapted_frame(g, frame, points), points)
            old = oracle.quasi_metric_frame_check(conn, g, frame, 20, 42, 1e-9)
            assert list(new) == [r.name for r in old]
            for a, b in zip(new.values(), old):
                _same(a, b.residual)
                nonzero += b.residual > 0.0
    # The random connection leaves nonzero blocks, unless the kernel frame
    # spans the whole bundle (zero morphisms), where every block is empty.
    assert nonzero or len(frame) == connections[0].size


def _assert_canonical_frames(g: QuasiMetric, vectors, points) -> None:
    """Both frame routes give s g0 s^T = canonical, the canonical Gram of g's
    sign, and an invertible [s; t]; their canonical Grams are equal, since by
    Sylvester's law of inertia any complement gives the same signature."""
    g0 = g.values(points)[0]
    frames = [route(g, vectors, points)
              for route in (adapted_frame, oracle.pivoting_adapted_frame)]
    for s_frame, canonical, t_frame in frames:
        q = len(s_frame)
        if g.sign == 1:
            assert np.array_equal(np.abs(np.diag(canonical)), np.ones(q))
            assert np.array_equal(canonical, np.diag(np.diag(canonical)))
        else:
            assert np.array_equal(canonical, np.kron(np.eye(q // 2), [[0, 1], [-1, 0]]))
        np.testing.assert_allclose(s_frame @ g0 @ s_frame.T, canonical, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(g0).max()))
        assert np.linalg.matrix_rank(np.vstack([s_frame, t_frame])) == g.rank
    assert np.array_equal(frames[0][1], frames[1][1])


@pytest.mark.parametrize("fixture_name, morphism", CASES)
def test_adapted_frames_of_bundled_kernel_morphisms_are_canonical(request, fixture_name,
                                                                  morphism):
    fixture = request.getfixturevalue(fixture_name)
    phi = fixture.morphism(morphism)
    vectors = kernel_frame_on_S(phi, *fixture.kernel_rows(morphism))
    for g in quasi_metric_on_S(phi):
        _assert_canonical_frames(g, vectors, sample_points(phi.source.dim, 50, 42))


def _random_constant_quasi_metric(rank: int, sign: int, seed: int):
    """A constant quasi-metric of `rank` and `sign` and its kernel rows.

    g0 = B^T C B with integer entries, so g0 is exactly symmetric or skew;
    B has full rank q < rank, and the kernel rows span the null space of B.
    """
    rng = np.random.default_rng(seed)
    q = int(rng.integers(0, rank))
    if sign == -1:
        q -= q % 2
        core = np.kron(np.diag(rng.integers(1, 4, q // 2)), [[0, 1], [-1, 0]])
    else:
        core = np.diag(rng.choice([-2, -1, 1, 2], q))
    b = rng.integers(-2, 3, (q, rank))
    while np.linalg.matrix_rank(b) < q:
        b = rng.integers(-2, 3, (q, rank))
    g0 = (b.T @ core @ b).astype(float)
    kernel = np.linalg.svd(b.astype(float))[2][q:] if q else np.eye(rank)
    g = QuasiMetric(rank, sign, [[Const(float(v)) for v in row] for row in g0])
    return g, [[Const(float(v)) for v in row] for row in kernel]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.sampled_from([1, -1]), st.integers(0, 2**32 - 1))
def test_adapted_frames_of_random_constant_quasi_metrics_are_canonical(rank, sign, seed):
    _assert_canonical_frames(*_random_constant_quasi_metric(rank, sign, seed),
                             sample_points(1, 3, 42))


def test_adapted_frame_does_not_inherit_an_ill_conditioned_complement():
    # Seed 169 at rank 8 (q = 7): the identity columns that the pivoting route
    # completes the kernel row with give a complement whose frame misses the
    # canonical Gram by 1.9e-11 relative.  The SVD complement is orthonormal,
    # and by Sylvester's law of inertia both give the same canonical Gram.
    g, vectors = _random_constant_quasi_metric(8, 1, 169)
    points = sample_points(1, 3, 42)
    g0 = g.values(points)[0]
    (s_frame, canonical, t_frame), (old_s, old_canonical, _) = [
        route(g, vectors, points) for route in (adapted_frame, oracle.pivoting_adapted_frame)]
    atol = 1e-12 * max(1.0, np.abs(g0).max())
    assert np.abs(old_s @ g0 @ old_s.T - old_canonical).max() > atol
    np.testing.assert_allclose(s_frame @ g0 @ s_frame.T, canonical, rtol=0, atol=atol)
    assert np.array_equal(canonical, old_canonical)
    assert np.linalg.matrix_rank(np.vstack([s_frame, t_frame])) == g.rank
