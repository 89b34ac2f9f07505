"""One probe set per run: every check evaluates on a prefix of one seeded draw."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import cli, expressions, reports, sampling
from algebroids.algebroid import AlgebroidChart
from algebroids.cli import (Options, _random_polynomial, emit_class, emit_jet, emit_modular,
                            run_suite)
from algebroids.fixtures import builtin_fixture_names, resolve_fixture
from algebroids.expressions import Const
from algebroids.sampling import sample_points


@settings(max_examples=60, deadline=None)
@given(dimension=st.integers(1, 3), counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
       seed=st.integers(0, 2 ** 63))
def test_a_smaller_draw_is_a_prefix_of_a_larger_one(dimension, counts, seed):
    n, m = sorted(counts)
    np.testing.assert_array_equal(sample_points(dimension, n, seed),
                                  sample_points(dimension, m, seed)[:n])


def test_the_draws_are_pinned():
    # Python documents random.Random(seed).random() as the same on every version,
    # so these literals hold on every Python and numpy a report is made with.
    assert sample_points(2, 2, 42).tolist() == [[0.2788535969157675, -0.9499784895546661],
                                                [-0.4499413632617615, -0.5535785237023545]]
    chart = AlgebroidChart("A", ["x", "y"], ["b1"], [[Const(1.0), Const(0.0)]])
    # The integers 1, -2, -1, -1, 1, 1: floor(5 * random()) - 2 in the order
    # constant, x, x*x, x*y, y, y*y.  `add` folds a -1 coefficient into a
    # subtraction.
    assert str(_random_polynomial(chart, random.Random(42))) == \
        "1 + -2*x - x*x - x*y + y + y*y"


class _RunSpy:
    """Records the draws, the evaluated point arrays, and the rows seen by each record."""

    def __init__(self, monkeypatch):
        self.draws, self.walks, self.records = [], [], []
        self._since_record = []
        original_sample, original_walk, original_add, original_probe = (
            sampling.sample_points, expressions._walk, reports.Report.add, cli._probe_points)

        def spy_sample(dimension, count, seed):
            points = original_sample(dimension, count, seed)
            self.draws.append(points)
            return points

        def spy_walk(fields, points, reduce):
            self.walks.append(np.asarray(points))
            self._since_record.append(len(points))
            return original_walk(fields, points, reduce)

        def spy_add(report, record):
            self.records.append((record, self._since_record))
            self._since_record = []
            return original_add(report, record)

        def spy_probe(fixture, opt, forms):
            points = original_probe(fixture, opt, forms)
            self._since_record = []  # validating the inputs on the whole draw is no check
            return points

        for name, module in list(sys.modules.items()):
            if (name == "algebroids" or name.startswith("algebroids.")) \
                    and getattr(module, "sample_points", None) is original_sample:
                monkeypatch.setattr(module, "sample_points", spy_sample)
        monkeypatch.setattr(expressions, "_walk", spy_walk)
        monkeypatch.setattr(reports.Report, "add", spy_add)
        monkeypatch.setattr(cli, "_probe_points", spy_probe)

    def assert_one_probe_set(self, label):
        assert len(self.draws) == 1, label
        (draw,) = self.draws
        assert self.walks, label
        for points in self.walks:
            np.testing.assert_array_equal(points, draw[:len(points)], err_msg=label)
        for record, rows in self.records:
            # A record's evaluations are those since the previous record; a
            # check that builds several records evaluates before the first.
            if rows:
                assert max(rows) == record.probes, (label, record.name, rows)


def _emit_runs(fixture):
    for name in fixture.charts:
        yield f"modular {name}", lambda opt, name=name: emit_modular(fixture, name, opt)
        yield f"jet {name}", lambda opt, name=name: emit_jet(fixture, name, opt)
    for name in fixture.morphisms:
        yield f"mu {name}", lambda opt, name=name: emit_class(fixture, name, 1, opt)


@pytest.mark.parametrize("opt", [Options(), Options(points=5, seed=1)],
                         ids=["defaults", "points5-seed1"])
@pytest.mark.parametrize("fixture_name", builtin_fixture_names())
def test_a_run_draws_one_probe_set(monkeypatch, fixture_name, opt):
    fixture = resolve_fixture(fixture_name)
    runs = [("verify all", lambda opt: run_suite(fixture, "all", opt))]
    runs += list(_emit_runs(fixture))
    for label, run in runs:
        with monkeypatch.context() as patch:
            spy = _RunSpy(patch)
            report = run(opt)
            spy.assert_one_probe_set(f"{fixture_name}: {label}")
            assert report.checks
