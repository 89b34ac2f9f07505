"""Fixture loading, suites, report determinism, and the command line."""

import json
import subprocess
import sys

import pytest

from algebroids.cli import (
    Options,
    emit_class,
    emit_jet,
    emit_modular,
    main,
    run_suite,
)
from algebroids.fixtures import (
    FixtureError,
    builtin_fixture_names,
    builtin_fixture_path,
    load_fixture,
)


class TestFixtureLoading:
    def test_bundled_so3(self, so3):
        chart = so3.chart("so3")
        assert chart.rank == 3 and chart.dim == 1
        assert all(entry.is_zero() for row in chart.anchor for entry in row)

    def test_bundled_names_include_core_set(self):
        names = builtin_fixture_names()
        for expected in ("tangent_r2", "so3", "solvable2d", "action_x",
                         "chain", "broken_jacobi"):
            assert expected in names

    def test_anchor_shape_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1", "b2"],
                                 "anchor": [["0"]],
                                 "brackets": []}},
        }))
        with pytest.raises(FixtureError, match="2x1 matrix"):
            load_fixture(bad)

    def test_dangling_morphism_target(self, tmp_path):
        bad = tmp_path / "dangling.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"], "anchor": [["0"]],
                                 "brackets": []}},
            "morphisms": {"phi": {"from": "A", "to": "B", "matrix": [["1"]]}},
        }))
        with pytest.raises(FixtureError, match="unknown target 'B'"):
            load_fixture(bad)

    def test_expression_error_carries_location(self, tmp_path):
        bad = tmp_path / "expr.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"], "anchor": [["q+1"]],
                                 "brackets": []}},
        }))
        with pytest.raises(FixtureError, match="anchor"):
            load_fixture(bad)

    @pytest.mark.parametrize("entry", ["10^400", "x + exp(1000)", "0^-1"])
    def test_constant_overflow_carries_location(self, tmp_path, entry):
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"], "anchor": [[entry]],
                                 "brackets": []}},
        }))
        with pytest.raises(FixtureError, match=r"anchor\[1\]\[1\]: cannot fold"):
            load_fixture(bad)
        # The command line reports it as a fixture error (exit 2), no traceback.
        assert main(["verify", str(bad), "--suite", "axioms"]) == 2

    def test_overflowing_metric_is_a_located_error(self, tmp_path, capsys):
        fixture = json.loads(builtin_fixture_path("solvable2d").read_text())
        fixture["metrics"]["gA"]["matrix"] = [["exp(1000*x)", "0"], ["0", "1"]]
        bad = tmp_path / "overflow_metric.json"
        bad.write_text(json.dumps(fixture))
        code = main(["verify", str(bad), "--suite", "connections"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: metric on 'solvable' cannot be evaluated at probe point" in err
        assert "Traceback" not in err

    def test_unknown_bundled_fixture(self):
        with pytest.raises(FixtureError, match="unknown bundled fixture"):
            builtin_fixture_path("nope")


class TestSuites:
    def test_axiom_suite_passes_on_so3(self, so3):
        report = run_suite(so3, "axioms", Options(points=50))
        assert report.passed
        assert any("jacobi" in c.name for c in report.checks)

    def test_classes_suite_contains_modular_identity(self, solvable2d):
        report = run_suite(solvable2d, "classes", Options(points=50))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "mu1_equals_modular[phi]" in names

    def test_broken_fixture_fails_with_named_triple(self, broken_jacobi):
        report = run_suite(broken_jacobi, "axioms", Options(points=50))
        assert not report.passed
        jacobi = next(c for c in report.checks
                      if c.name == "axioms[broken].jacobi_identity")
        assert jacobi.residual >= 0.1
        assert jacobi.details["failing_triple"] == [0, 1, 2]

    def test_unknown_suite_rejected(self, so3):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(so3, "everything")

    def test_identities_battery(self, chain):
        report = run_suite(chain, "identities", Options(points=40))
        assert report.passed
        assert any(c.name.startswith("composition") for c in report.checks)

    def test_identities_is_all_without_axioms(self, chain, capsys):
        def records(report):
            return [(c.name, c.residual, c.passed) for c in report.checks]

        opt = Options(points=20)
        everything = [r for r in records(run_suite(chain, "all", opt))
                      if not r[0].startswith("axioms")]
        assert records(run_suite(chain, "identities", opt)) == everything
        assert main(["identities", "chain", "--points", "20"]) == 0


class TestEmitters:
    def test_solvable_class_dump(self, solvable2d):
        report = emit_class(solvable2d, "phi", 1, Options(points=20))
        dump = report.forms["mu_1[phi]"]
        assert dump["degree"] == 1
        assert dump["coefficients"] == {"1": "1"}
        for sample in dump["samples"]:
            assert sample["values"]["1"] == pytest.approx(1.0)

    def test_identity_second_class_is_zero(self, so3):
        report = emit_class(so3, "id", 2, Options(points=20))
        dump = report.forms["mu_3[id]"]
        assert dump["coefficients"] == {}

    def test_degree_five_dump_when_dimension_permits(self, sa3):
        report = emit_class(sa3, "zero", 2, Options(points=10))
        dump = report.forms["mu_3[zero]"]
        assert dump["degree"] == 5
        assert dump["coefficients"]
        assert report.passed

    def test_modular_dump(self, solvable2d):
        report = emit_modular(solvable2d, "solvable", Options(points=20))
        dump = report.forms["modular[solvable]"]
        assert dump["coefficients"] == {"1": "1"}

    def test_jet_dump(self, so3):
        report = emit_jet(so3, "so3", Options(points=30))
        dump = report.forms["jet[so3]"]
        assert dump["rank"] == 6
        assert report.passed

    def test_unknown_morphism_raises(self, solvable2d):
        with pytest.raises(FixtureError, match="no morphism"):
            emit_class(solvable2d, "missing", 1, Options())


class TestDeterminism:
    def test_reports_are_byte_identical(self, solvable2d):
        first = run_suite(solvable2d, "classes", Options(points=40)).to_json()
        second = run_suite(solvable2d, "classes", Options(points=40)).to_json()
        assert first == second

    def test_emitter_determinism(self, solvable2d):
        first = emit_class(solvable2d, "phi", 1, Options(points=30)).to_json()
        second = emit_class(solvable2d, "phi", 1, Options(points=30)).to_json()
        assert first == second

    def test_seed_changes_report(self, solvable2d):
        a = run_suite(solvable2d, "axioms", Options(points=40, seed=1)).to_dict()
        b = run_suite(solvable2d, "axioms", Options(points=40, seed=2)).to_dict()
        assert a["seed"] != b["seed"]


class TestMainEntry:
    def test_exit_zero_on_pass(self, capsys):
        code = main(["verify", "so3", "--suite", "axioms", "--points", "30"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["passed"] is True

    def test_exit_one_on_failure(self, capsys):
        code = main(["verify", "broken_jacobi", "--suite", "axioms",
                     "--points", "30"])
        assert code == 1
        body = json.loads(capsys.readouterr().out)
        assert body["passed"] is False

    def test_exit_two_on_fixture_error(self, capsys):
        code = main(["verify", "missing_fixture", "--suite", "axioms"])
        assert code == 2

    def test_exit_two_on_usage_error(self):
        code = main(["verify", "so3", "--suite", "bogus"])
        assert code == 2

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["modular", "solvable2d", "--algebroid", "solvable",
                     "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["fixture"] == "solvable2d"

    def test_mu_command(self, capsys):
        code = main(["mu", "solvable2d", "--morphism", "phi", "--h", "1",
                     "--points", "20"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert "mu_1[phi]" in body["forms"]


def _solvable2d_with(tmp_path, section, name, key, value):
    """Bundled solvable2d with one entry replaced, written under tmp_path."""
    fixture = json.loads(builtin_fixture_path("solvable2d").read_text())
    fixture[section][name][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(fixture))
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteProbeValues:
    """A value that overflows at a probe point fails its check or is a located error."""

    def test_overflowing_kernel_vector_fails_k_flatness(self, tmp_path, capsys):
        # The curvature vanishes everywhere, so a loop that skipped points of
        # zero curvature never evaluated the vector and reported 0.0.
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(1000*x)"]])
        code = main(["verify", path, "--suite", "connections"])
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
        assert code == 1
        assert records["k_flatness[phi]"]["residual"] == float("inf")
        assert records["k_flatness[phi]"]["passed"] is False

    def test_kernel_vector_overflowing_at_the_frame_base_point(self, tmp_path, capsys):
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(1300*x)"]])
        code = main(["verify", path, "--suite", "connections"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: adapted frame: ")
        assert "not finite at probe point (" in err
        assert "Traceback" not in err

    def test_overflowing_metric_is_not_finite_rather_than_asymmetric(self, tmp_path,
                                                                      capsys):
        path = _solvable2d_with(tmp_path, "metrics", "gA", "matrix",
                                [["exp(800*x)*exp(800*x)/exp(800*x)", "0"], ["0", "1"]])
        code = main(["verify", path, "--suite", "connections"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: metric 'gA' is not finite at probe point (")
        assert "not symmetric" not in err
        assert "Warning" not in err


def test_console_script_round_trip(tmp_path):
    out = tmp_path / "cli.json"
    result = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "verify", "solvable2d",
         "--suite", "classes", "--points", "30", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    body = json.loads(out.read_text())
    assert body["passed"] is True
