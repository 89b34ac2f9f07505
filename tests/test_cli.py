"""Fixture loading, suites, report determinism, and the command line."""

import ast
import inspect
import json
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from algebroids import algebroid, chern, classes, cli, connections, expressions, forms
from algebroids.algebroid import AlgebroidChart, JetChart, jet_prolong
from algebroids.classes import ClassBuilder, mu_form
from algebroids.cli import (
    Options,
    emit_class,
    emit_jet,
    emit_modular,
    main,
    run_suite,
)
from algebroids.connections import FormMatrix
from algebroids.expressions import MAX_NESTING, Const, evaluate, parse_expression
from algebroids.fixtures import (
    FixtureError,
    builtin_fixture_names,
    builtin_fixture_path,
    load_fixture,
    resolve_fixture,
)
from algebroids.forms import AForm
from algebroids.reports import Report
from algebroids.sampling import sample_points
import cartan_oracle
import matrix_oracle
from expression_oracle import scalar_eval

# Fixture files that these tests and the CI byte-stability step both read.
DATA = Path(__file__).parent / "data"


def _data_or_bundled(name: str) -> str:
    """The path of tests/data/`name`.json if there is one, else the bundled name."""
    path = DATA / f"{name}.json"
    return str(path) if path.exists() else name


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

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
    def test_repeated_bracket_pair_is_located(self, tmp_path, capsys, i, j):
        # Merged, a second entry would overwrite or add to the first one.
        bad = tmp_path / "repeated.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1", "b2"], "anchor": [["0"], ["0"]],
                                 "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}},
                                              {"i": i, "j": j, "coeffs": {"2": "5"}}]}},
        }))
        with pytest.raises(FixtureError, match=(
                rf"algebroid 'A': bracket \({i},{j}\) repeats the pair \{{1,2\}}")):
            load_fixture(bad)
        assert main(["verify", str(bad), "--suite", "axioms"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: algebroid 'A': bracket ({i},{j}) repeats the pair {{1,2}}")
        assert "Traceback" not in err

    def test_overflowing_metric_is_a_located_error(self, tmp_path, capsys):
        fixture = json.loads(builtin_fixture_path("solvable2d").read_text())
        fixture["metrics"]["gA"]["matrix"] = [["exp(1000*x)", "0"], ["0", "1"]]
        bad = tmp_path / "overflow_metric.json"
        bad.write_text(json.dumps(fixture))
        code = main(["verify", str(bad), "--suite", "connections"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: metric 'gA' is not finite at probe point (" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("options", [[], ["--suite", "jet", "--points", "3", "--seed", "0"]],
                             ids=["defaults", "jet-points3"])
    def test_indefinite_metric_is_a_located_error(self, tmp_path, capsys, options):
        # Negative for -0.05 < x < 0.15: a metric connection does not exist there.
        # With 3 points the jet suite evaluates 10 rows; the first bad one is the
        # fifth (x = 0.023), past the 3 rows the other suites take.
        x = sample_points(1, 10, 0)[:, 0]
        assert list(abs(x - 0.05) < 0.1).index(True) == 4
        fixture = json.loads(builtin_fixture_path("action_x").read_text())
        fixture["metrics"]["g_exp"]["matrix"] = [["(x-0.05)^2-0.01"]]
        bad = tmp_path / "indefinite_metric.json"
        bad.write_text(json.dumps(fixture))
        code = main(["verify", str(bad), *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "error: metric 'g_exp' is not positive definite at probe point (")
        assert "Traceback" not in captured.err

    def test_overflowing_form_dump_is_a_located_error(self, tmp_path, capsys):
        # The modular form 1000*exp(1000*x) is not finite in the dump for x > 0.703,
        # and the dump's 10 rows reach past that.
        assert 1000 * sample_points(1, 10, 42).max() > 709.79
        bad = tmp_path / "overflow_anchor.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"], "anchor": [["exp(1000*x)"]],
                                 "brackets": []}},
        }))
        code = main(["modular", str(bad), "--algebroid", "A"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "error: form 'modular[A]' cannot be evaluated at probe point (")
        assert "Traceback" not in captured.err
        # Here the modular form is inf - inf there: NaN, not an overflow.
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"],
                                 "anchor": [["exp(1000*x) - exp(1000*x)"]],
                                 "brackets": []}},
        }))
        code = main(["modular", str(bad), "--algebroid", "A"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cannot be evaluated at probe point" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text, key", [
        # A second algebroid A: alone, the first one fails its anchor axiom.
        ('{"base": {"coords": ["x"]}, "algebroids": {'
         '"A": {"basis": ["b1", "b2"], "anchor": [["1"], ["x"]], "brackets": []}, '
         '"A": {"basis": ["b1"], "anchor": [["1"]], "brackets": []}}}', "A"),
        ('{"base": {"coords": ["x"]}, "algebroids": {"A": {"basis": ["b1", "b2"], '
         '"anchor": [["0"], ["0"]], "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1", '
         '"2": "0"}}]}}}', "2"),
    ], ids=["algebroid", "bracket-coefficient"])
    def test_repeated_json_key_is_a_fixture_error(self, tmp_path, capsys, text, key):
        # json.loads keeps the last value of a repeated key, so a check could pass
        # on a fixture that says two things.
        bad = tmp_path / "repeated_key.json"
        bad.write_text(text)
        with pytest.raises(FixtureError, match=f"key '{key}' repeats in one JSON object"):
            load_fixture(bad)
        assert main(["verify", str(bad), "--suite", "axioms"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: key '{key}' repeats in one JSON object\n"

    @pytest.mark.parametrize("key", ["02", " 2", "+2"], ids=["leading-zero", "space", "plus"])
    def test_repeated_bracket_index_is_a_fixture_error(self, tmp_path, capsys, key):
        # Two JSON keys, one frame index: the last coefficient would silently win.
        bad = tmp_path / "repeated_index.json"
        bad.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1", "b2"], "anchor": [["0"], ["0"]],
                                 "brackets": [{"i": 1, "j": 2,
                                               "coeffs": {"2": "1", key: "0"}}]}},
        }))
        message = f"algebroid 'A': bracket (1,2) keys '2' and {key!r} name coefficient 2 twice"
        with pytest.raises(FixtureError, match=re.escape(message)):
            load_fixture(bad)
        assert main(["modular", str(bad), "--algebroid", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_undecodable_fixture_is_a_fixture_error(self, tmp_path, capsys):
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["verify", str(bad), "--suite", "axioms"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_directory_fixture_path_is_a_fixture_error(self, tmp_path, capsys):
        # It exists, so it is not looked up as a bundled name, but it cannot be read.
        assert main(["verify", str(tmp_path), "--suite", "axioms"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}: cannot read (Is a directory)\n"

    def test_second_metric_on_one_algebroid_is_located(self, tmp_path, capsys):
        # Only the first metric of a chart was ever used; the second was checked for nothing.
        fixture = json.loads(builtin_fixture_path("solvable2d").read_text())
        fixture["metrics"]["gA2"] = dict(fixture["metrics"]["gA"])
        bad = tmp_path / "two_metrics.json"
        bad.write_text(json.dumps(fixture))
        with pytest.raises(FixtureError,
                           match="metric 'gA2': algebroid 'solvable' already has metric 'gA'"):
            load_fixture(bad)
        assert main(["verify", str(bad), "--suite", "connections"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: metric 'gA2': algebroid 'solvable' already has")
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

    def test_bi_characteristic_relation_with_nonzero_bi(self, tmp_path):
        # id and diag(2, 1) on solvable2d's chart: bi = Delta(nabla_id, nabla_scaled)c_1
        # has magnitude 1, so the record sees the sign of bi in the relation
        # (every bundled parallel pair has bi = 0 at c_1).
        path = tmp_path / "scaled_pair.json"
        path.write_text(json.dumps({
            "base": {"coords": ["x"]},
            "algebroids": {"solvable": {"basis": ["b1", "b2"], "anchor": [["0"], ["0"]],
                                        "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]}},
            "morphisms": {
                "id": {"from": "solvable", "to": "solvable", "matrix": [["1", "0"], ["0", "1"]]},
                "scaled": {"from": "solvable", "to": "solvable",
                           "matrix": [["2", "0"], ["0", "1"]]},
            },
        }))
        report = run_suite(load_fixture(path), "classes", Options(points=20))
        records = {c.name: c for c in report.checks}
        assert records["bi_characteristic[id,scaled]"].passed
        assert records["bi_characteristic[id,scaled]"].residual < 1e-12
        assert records["cocycle[id,scaled].c1"].passed

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

    def test_zero_morphism_passes_every_suite(self, capsys):
        # Pulling a 2-form back through a zero column added a 1-form to the
        # 2-form total, and the axioms suite ended in a ValueError.
        assert main(["verify", str(DATA / "zero_column.json"), "--suite", "all"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        checks = json.loads(captured.out)["checks"]
        assert len(checks) == 23 and all(c["residual"] == 0.0 for c in checks)

    @pytest.mark.parametrize("name", ["sa3", "chain"])
    def test_jet_suite_builds_one_jet_per_chart(self, name, monkeypatch):
        fixture = resolve_fixture(name)
        built = []
        init = JetChart.__init__

        def counted(self, base_chart):
            built.append(base_chart.name)
            init(self, base_chart)

        monkeypatch.setattr(JetChart, "__init__", counted)
        report = run_suite(fixture, "jet", Options(points=20))
        assert report.passed
        assert sorted(built) == sorted(fixture.charts)


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

    @pytest.mark.parametrize("fixture, failed, passed", [
        ("broken_jacobi", "axioms[broken].jacobi_identity",
         "axioms[broken].anchor_bracket_morphism"),
        # rho(b1) = d/dx and rho(b2) = x d/dx have bracket d/dx, but [b1, b2] = 0.
        ("anchor_only", "axioms[A].anchor_bracket_morphism", "axioms[A].jacobi_identity"),
    ], ids=["broken_jacobi", "anchor_only"])
    def test_exit_one_on_failure(self, capsys, fixture, failed, passed):
        code = main(["verify", _data_or_bundled(fixture), "--suite", "axioms",
                     "--points", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["passed"] is False
        checks = {check["name"]: check["passed"] for check in body["checks"]}
        assert checks[failed] is False and checks[passed] is True

    def test_exit_two_on_fixture_error(self, capsys):
        code = main(["verify", "missing_fixture", "--suite", "axioms"])
        assert code == 2

    def test_exit_two_on_usage_error(self):
        code = main(["verify", "so3", "--suite", "bogus"])
        assert code == 2

    def test_a_program_error_is_not_a_fixture_error(self, monkeypatch):
        # Exit 2 means bad input; a ValueError from the program keeps its traceback.
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "axioms", (boom,))
        with pytest.raises(ValueError, match="boom"):
            main(["verify", "so3", "--suite", "axioms", "--points", "5"])

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["modular", "solvable2d", "--algebroid", "solvable",
                     "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["fixture"] == "solvable2d"

    def test_unwritable_report_path_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "chain", "--suite", "axioms", "--points", "5",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: cannot write report to {out}: "
                                "No such file or directory\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv, option", [
        (["verify", "broken_jacobi", "--suite", "axioms", "--points", "0"], "--points"),
        (["verify", "so3", "--points", "0"], "--points"),
        (["mu", "solvable2d", "--morphism", "phi", "--h", "0"], "--h"),
    ])
    def test_non_positive_counts_are_usage_errors(self, argv, option, capsys):
        # With no probe points every maximum was 0.0, so broken_jacobi passed.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {option}: must be a positive integer, got '0'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, option, message", [
        (["verify", "so3", "--tol", "inf"], "--tol", "a positive finite number, got 'inf'"),
        (["verify", "so3", "--tol", "nan"], "--tol", "a positive finite number, got 'nan'"),
        (["verify", "so3", "--tol", "0"], "--tol", "a positive finite number, got '0'"),
        (["verify", "so3", "--tol=-1e-9"], "--tol", "a positive finite number, got '-1e-9'"),
        (["verify", "so3", "--tol", "tiny"], "--tol", "a positive finite number, got 'tiny'"),
        (["verify", "so3", "--seed=-1"], "--seed", "a non-negative integer, got '-1'"),
        (["mu", "so3", "--morphism", "id", "--seed", "1.5"], "--seed",
         "a non-negative integer, got '1.5'"),
    ])
    def test_tolerance_and_seed_are_checked_options(self, argv, option, message, capsys):
        # An infinite or NaN tolerance could pass an infinite residual, and a
        # negative seed would fail inside numpy without naming the option.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {option}: must be {message}" in captured.err
        assert "Traceback" not in captured.err

    def test_seed_zero_is_a_seed(self, capsys):
        assert main(["verify", "solvable2d", "--suite", "axioms", "--seed", "0",
                     "--points", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    def test_non_closed_modular_form_is_reported(self, tmp_path, capsys):
        fixture = json.loads(builtin_fixture_path("broken_jacobi").read_text())
        fixture["algebroids"]["abelian1"] = {"basis": ["a"], "anchor": [["0"]],
                                             "brackets": []}
        fixture["morphisms"] = {"zero": {"from": "broken", "to": "abelian1",
                                         "matrix": [["0"], ["0"], ["0"]]}}
        path = tmp_path / "broken_zero.json"
        path.write_text(json.dumps(fixture))
        code = main(["verify", str(path)])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        passed = {r["name"]: r["passed"] for r in report["checks"]}
        assert code == 1
        assert passed["axioms[broken].jacobi_identity"] is False
        assert passed["closed_modular[zero]"] is False

    def test_mu_command(self, capsys):
        code = main(["mu", "solvable2d", "--morphism", "phi", "--h", "1",
                     "--points", "20"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert "mu_1[phi]" in body["forms"]


def _small_fixture():
    """Two charts over x, a morphism between rank-1 charts, a metric and a kernel."""
    return {
        "base": {"coords": ["x"]},
        "algebroids": {
            "A": {"basis": ["b1", "b2"], "anchor": [["0"], ["0"]],
                  "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]},
            "B": {"basis": ["c1"], "anchor": [["0"]], "brackets": []},
        },
        "morphisms": {"phi": {"from": "B", "to": "B", "matrix": [["1"]]},
                      "psi": {"from": "A", "to": "B", "matrix": [["1"], ["0"]]}},
        "metrics": {"g": {"on": "A", "matrix": [["1", "0"], ["0", "1"]]}},
        "kernels": {"psi": {"ker": [["0", "1"]], "coker": []}},
    }


def test_small_fixture_is_well_formed(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(_small_fixture()))
    assert main(["verify", str(path), "--points", "10"]) == 0


@pytest.mark.parametrize("keys, value, section", [
    (("algebroids", "A"), 5, "algebroid 'A': expected a JSON object"),
    (("algebroids",), ["A"], "algebroids"),
    (("algebroids", "B", "anchor"), "0", "algebroid 'B' anchor"),
    (("algebroids", "A", "anchor", 0), "0", "algebroid 'A' anchor"),
    (("algebroids", "A", "basis"), "b1", "algebroid 'A' basis"),
    (("algebroids", "A", "brackets"), {"i": 1}, "algebroid 'A'"),
    (("algebroids", "A", "brackets", 0, "coeffs"), {"a": "1"}, "algebroid 'A': bracket"),
    (("algebroids", "A", "brackets", 0, "coeffs"), ["1"], "algebroid 'A': bracket"),
    (("morphisms", "phi", "matrix"), "1", "morphism 'phi'"),
    (("morphisms", "phi", "from"), ["B"], "morphism 'phi': unknown source"),
    (("metrics", "g"), "1", "metric 'g'"),
    (("metrics", "g", "on"), {"A": 1}, "metric 'g': unknown algebroid"),
    (("kernels", "psi", "ker"), "01", "kernel of 'psi'"),
    (("base", "coords"), "xy", "base.coords"),
    (("base", "coords"), ["x", "x"], "base.coords"),
    (("base",), ["x"], "base"),
    # int() would read 1.5, true and "1" as frame index 1.
    (("algebroids", "A", "brackets", 0, "i"), 1.5, "algebroid 'A': bracket {'i': 1.5,"),
    (("algebroids", "A", "brackets", 0, "i"), True, "algebroid 'A': bracket {'i': True,"),
    (("algebroids", "A", "brackets", 0, "i"), "1", "algebroid 'A': bracket {'i': '1',"),
    (("algebroids", "A", "brackets", 0, "i"), None, "algebroid 'A': bracket {'i': None,"),
    (("algebroids", "A", "brackets", 0, "i"), [], "algebroid 'A': bracket {'i': [],"),
])
def test_malformed_fixture_structure_is_located(tmp_path, capsys, keys, value, section):
    # Python reads a string as a list of characters, so a string matrix or
    # coordinate list must be rejected before it is indexed.
    fixture = _small_fixture()
    parent = fixture
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(fixture))
    code = main(["verify", str(path), "--points", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {section}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["mu", "sa3", "--morphism", "zero", "--h", "2"],
    ["mu", "solvable2d", "--morphism", "phi", "--h", "1"],
    ["jet", "so3", "--algebroid", "so3"],
    ["modular", "solvable2d", "--algebroid", "solvable"],
    ["mu", "action_x", "--morphism", "sharp", "--h", "1"],
], ids=" ".join)
def test_dumps_match_the_scalar_walk(argv, monkeypatch, capsys):
    """Dumped strings are the coefficients' own; dumped values are within
    4 ulp of the recursive `math` walk at the same point."""
    forms = {}
    dump = cli._form_dump

    def recording_dump(name, form, points):
        forms[name] = form
        return dump(name, form, points)

    monkeypatch.setattr(cli, "_form_dump", recording_dump)
    assert main(argv) == 0
    dumped = json.loads(capsys.readouterr().out)["forms"]
    if argv[0] == "jet":
        jet = jet_prolong(resolve_fixture(argv[1]).chart(argv[3]))
        assert dumped[f"jet[{argv[3]}]"]["anchor"] == [[str(e) for e in row]
                                                       for row in jet.anchor]
        assert dumped[f"jet[{argv[3]}]"]["brackets"] == {
            f"{i + 1},{j + 1}": {str(k + 1): str(c) for k, c in row.items()}
            for (i, j), row in jet.brackets.items()}
        return
    assert forms and forms.keys() == dumped.keys()
    for name, form in forms.items():
        coeffs = {",".join(str(i + 1) for i in index): coeff
                  for index, coeff in form.table.items()}
        assert dumped[name]["coefficients"] == {k: str(c) for k, c in coeffs.items()}
        assert len(dumped[name]["samples"]) == 10
        for sample in dumped[name]["samples"]:
            assert sample["values"].keys() == coeffs.keys()
            for key, value in sample["values"].items():
                expected = scalar_eval(coeffs[key], sample["point"])
                assert abs(value - expected) <= 4 * np.spacing(abs(expected))


def _one_anchor(text):
    """A rank-1 chart over x whose anchor is `text`."""
    return {"base": {"coords": ["x"]},
            "algebroids": {"A": {"basis": ["b1"], "anchor": [[text]], "brackets": []}}}


REPARSE_RTOL = 1e-12  # a printed a + (b - c) re-parses as (a + b) - c


@pytest.mark.parametrize("argv", [
    ["mu", "sa3", "--morphism", "zero", "--h", "2"],
    ["mu", "sa3", "--morphism", "zero", "--h", "3"],
    ["jet", "leibniz2", "--algebroid", "A"],
    ["mu", "solvable2d", "--morphism", "phi", "--h", "1"],
    ["jet", "so3", "--algebroid", "so3"],
    ["modular", "solvable2d", "--algebroid", "solvable"],
    ["mu", "action_x", "--morphism", "sharp", "--h", "1"],
    ["mu", "tridiag5_anchor", "--morphism", "anchor", "--h", "1"],
], ids=" ".join)
def test_dumped_coefficients_reparse(argv, capsys):
    """Every coefficient string of the CI dump commands parses back.

    A form coefficient re-parsed gives its dumped samples, a jet entry the
    values of the chart's own entry at the probe points, within REPARSE_RTOL
    of their magnitude.  `mu sa3 --h 3` dumps the zero form.  Each report
    stays under 1,000,000 bytes: printed tree by tree, the Gram-Schmidt
    frame of `mu tridiag5_anchor` made 387 MB."""
    argv = [argv[0], _data_or_bundled(argv[1]), *argv[2:]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 1_000_000
    dumped = json.loads(out)["forms"]
    fixture = resolve_fixture(argv[1])
    for dump in dumped.values():
        if argv[0] == "jet":
            jet = jet_prolong(fixture.chart(argv[3]))
            pairs = [(text, entry) for texts, row in zip(dump["anchor"], jet.anchor)
                     for text, entry in zip(texts, row)]
            pairs += [(dump["brackets"][f"{i + 1},{j + 1}"][str(k + 1)], coeff)
                      for (i, j), row in jet.brackets.items() for k, coeff in row.items()]
            texts = [text for text, _ in pairs]
            points = cli._probe_points(fixture, Options(), ClassBuilder())[:10]
            expected = evaluate([entry for _, entry in pairs], points)
        else:
            texts = list(dump["coefficients"].values())
            points = np.array([sample["point"] for sample in dump["samples"]])
            expected = np.array([[sample["values"][key] for sample in dump["samples"]]
                                 for key in dump["coefficients"]])
        again = evaluate([parse_expression(t, fixture.coords) for t in texts], points)
        np.testing.assert_allclose(again, expected.reshape(again.shape),
                                   rtol=REPARSE_RTOL, atol=0.0)


def test_a_3000_term_anchor_verifies_and_dumps(capsys):
    # The recursive walks died near 991 terms, one Python frame per term.
    path = DATA / "long_anchor.json"
    assert main(["verify", str(path), "--suite", "all"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main(["jet", str(path), "--algebroid", "A"]) == 0
    dump = json.loads(capsys.readouterr().out)["forms"]["jet[A]"]
    assert dump["anchor"][0] == [" + ".join(["x"] * 3000)]


def test_deeply_nested_parentheses_are_a_located_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_one_anchor("(" * 300 + "x" + ")" * 300)))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: algebroid 'A' anchor[1][1]: parentheses nest deeper than "
        f"{MAX_NESTING} levels (at position {MAX_NESTING})\n")
    path.write_text(json.dumps(_one_anchor("(" * 100 + "x" + ")" * 100)))
    assert main(["verify", str(path), "--suite", "axioms"]) == 0


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _solvable2d_with(tmp_path, section, name, key, value):
    """Bundled solvable2d with one entry replaced, written under tmp_path."""
    fixture = json.loads(builtin_fixture_path("solvable2d").read_text())
    fixture[section][name][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(fixture))
    return str(path)


class TestNonFiniteProbeValues:
    """A value that overflows at a probe point fails its check or is a located error."""

    def test_overflowing_kernel_vector_fails_k_flatness(self, tmp_path, capsys):
        # The curvature vanishes everywhere, so a loop that skipped points of
        # zero curvature never evaluated the vector and reported 0.0.
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(1000*x)"]])
        code = main(["verify", path, "--suite", "connections"])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        records = {r["name"]: r for r in report["checks"]}
        assert code == 1
        assert records["k_flatness[phi]"]["residual"] == "inf"
        assert records["k_flatness[phi]"]["passed"] is False

    def test_infinite_tolerance_is_a_usage_error(self, tmp_path, capsys):
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(1000*x)"]])
        code = main(["verify", path, "--suite", "connections", "--tol", "inf"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "argument --tol: must be a positive finite number" in captured.err

    def test_kernel_vector_overflowing_at_the_frame_base_point(self, tmp_path, capsys):
        # The frame is built at the first probe point, where exp(2600*x) overflows.
        assert 2600 * sample_points(1, 1, 42)[0, 0] > 709.79
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(2600*x)"]])
        code = main(["verify", path, "--suite", "connections"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: adapted frame: ")
        assert "not finite at probe point (" in err
        assert err.endswith(" (morphism 'phi', quasi-metric g+)\n")
        assert "Traceback" not in err

    def test_kernel_rows_are_checked_before_any_suite(self, tmp_path, capsys):
        # The axioms suite builds no adapted frame; the probe set is checked first.
        assert 2600 * sample_points(1, 1, 42)[0, 0] > 709.79
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker",
                                [["0", "exp(2600*x)"]])
        code = main(["verify", path, "--suite", "axioms"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: adapted frame: the metric or a kernel "
                                       "vector is not finite at probe point (")
        assert "Traceback" not in captured.err

    def test_program_error_in_the_frame_check_keeps_its_traceback(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a program error")

        monkeypatch.setattr(cli, "quasi_metric_frame_check", broken)
        with pytest.raises(ValueError, match="a program error"):
            main(["verify", "solvable2d", "--suite", "connections", "--points", "10"])

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


class TestKernelRows:
    """Kernel rows must lie in the kernel and give an adapted frame, else the
    run exits 2 naming the morphism, the row or quasi-metric, and the point."""

    @pytest.mark.parametrize("key, rows, message", [
        # k_flatness[phi] passed at 0.0 on this row; only an adapted block failed.
        ("ker", [["1", "1"]], "kernel row 1 of 'phi' is not in the kernel of phi: "
                              "|phi(v)| = 1 at probe point ("),
        ("ker", [["0", "1"], ["sqrt(x-2)", "0"]],
         "kernel row 2 of 'phi' is not in the kernel of phi: |phi(v)| = nan at probe point ("),
        ("coker", [["1"]], "cokernel row 1 of 'phi' is not in the kernel of phi^T: "
                           "|phi^T(nu)| = 1 at probe point ("),
    ])
    def test_row_outside_the_kernel(self, tmp_path, capsys, key, rows, message):
        path = _solvable2d_with(tmp_path, "kernels", "phi", key, rows)
        code = main(["verify", path, "--suite", "axioms"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_rows_that_admit_no_adapted_frame(self, tmp_path, capsys):
        # Each row is in the kernel, but together they span one direction of two.
        path = _solvable2d_with(tmp_path, "kernels", "phi", "ker", [["0", "1"], ["0", "2"]])
        code = main(["verify", path, "--suite", "axioms"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kernel vectors do not span the annihilator "
            "(morphism 'phi', quasi-metric g+)\n")

    @pytest.mark.parametrize("argv", [["verify", "--suite", "all"],
                                      ["verify", "--suite", "connections"],
                                      ["mu", "--morphism", "zero", "--h", "1"]])
    def test_dependent_rows_as_many_as_the_rank(self, tmp_path, capsys, argv):
        # Three kernel rows and one cokernel row for rank 3 + 1, so no complement
        # is left to count, but the third row is the sum of the first two: verify
        # ended in a singular-matrix traceback and mu accepted the rows.
        fixture = json.loads(builtin_fixture_path("so3").read_text())
        fixture["kernels"]["zero"]["ker"] = [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(fixture))
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: kernel vectors do not span the annihilator "
                                "(morphism 'zero', quasi-metric g+)\n")


def _bundled_commands():
    """`verify --suite all`, `mu --h 1` for each morphism, and `modular` and
    `jet` for each algebroid, on every bundled fixture."""
    for name in builtin_fixture_names():
        fixture = resolve_fixture(name)
        yield ["verify", name, "--suite", "all"]
        for morphism in fixture.morphisms:
            yield ["mu", name, "--morphism", morphism, "--h", "1"]
        for algebroid in fixture.charts:
            yield ["modular", name, "--algebroid", algebroid]
            yield ["jet", name, "--algebroid", algebroid]


@pytest.mark.parametrize("argv", list(_bundled_commands()), ids=" ".join)
def test_every_bundled_fixture_command_exits_without_error(argv, capsys):
    # broken_jacobi's Jacobi identity fails, so its checks exit 1; every other
    # command passes, and none raises or writes to stderr.
    expected = 1 if argv[1] == "broken_jacobi" else 0
    assert main([*argv, "--points", "20"]) == expected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["mu", "sa3", "--morphism", "zero", "--h", "2"],
                                  ["verify", "so3", "--suite", "transgression"],
                                  ["verify", "sa3", "--suite", "all"]])
def test_commands_import_no_numpy_polynomial_or_random(argv):
    # The Gauss rule is computed in the package, and probe points and random
    # forms come from the standard library's `random`.  Modules are compared
    # before and after `main`, so numpy versions that import them eagerly pass.
    code = ("import contextlib, io, json, sys\n"
            "from algebroids.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({argv!r})\n"
            "added = sorted(name for name in set(sys.modules) - before\n"
            "               if name.split('.')[:2] in (['numpy', 'polynomial'],\n"
            "                                          ['numpy', 'random']))\n"
            "print(json.dumps([status, added]))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, []]


def test_sign_factors_stay_folded_in_the_largest_run(monkeypatch, capsys):
    # The distinct nodes of each `field_maxima` walk, summed over the run:
    # 21,563 while add, sub and mul kept the sign products Mul(Const(+-1), x),
    # 12,686 with them folded, most of both in bianchi[sa3].random, and
    # 12,511 once d_A folded each constant bracket term into one node and
    # every -1 sign factor became the one shared `MINUS_ONE`.  The count
    # repeats exactly, so a change that brings the sign products or the
    # per-use -1 constants back fails.
    walked = []
    original = expressions.field_maxima

    def counted(fields, points):
        fields = list(fields)
        walked.append(len(expressions._schedule(fields)[0]))
        return original(fields, points)

    _rebind(monkeypatch, expressions, "field_maxima", counted)
    assert main(["verify", "sa3", "--suite", "all"]) == 0
    capsys.readouterr()
    assert sum(walked) <= 12_550


@pytest.mark.parametrize("argv, bound", [
    (["mu", "sa3", "--morphism", "zero", "--h", "2"], 1_150),
    (["verify", "sa3", "--suite", "all"], 6_100),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_constant_matrices_build_no_const_nodes(argv, bound, monkeypatch, capsys):
    # `Const` nodes built by the whole run, fixture parse included: 10,763 and
    # 20,895 while every product, sum, scaling and trace of a constant
    # `FormMatrix` folded its coefficients into new `Const` nodes, 1,119 and
    # 6,025 with those run on float tables that are boxed only when read.
    # The counts repeat exactly.
    built = 0
    init = expressions.Const.__init__

    def counted(self, value):
        nonlocal built
        built += 1
        init(self, value)

    monkeypatch.setattr(expressions.Const, "__init__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert built <= bound


_MATRIX_ORACLE_RUNS = [["verify", name, "--suite", "all"] for name in builtin_fixture_names()]
_MATRIX_ORACLE_RUNS += [["mu", "sa3", "--morphism", "zero", "--h", h] for h in ("2", "3")]


@pytest.mark.parametrize("argv", _MATRIX_ORACLE_RUNS, ids=" ".join)
def test_reports_match_the_tree_matrix_oracle(argv, monkeypatch, capsys):
    # The same report, byte for byte, with the float tables of constant
    # matrices and the table kernels replaced by the tree-only arithmetic.
    status = main(argv)
    report = capsys.readouterr().out
    for cls, methods in (
            (FormMatrix, {"__add__": matrix_oracle.matrix_add,
                          "__sub__": matrix_oracle.matrix_sub,
                          "scale": matrix_oracle.matrix_scale,
                          "wedge": matrix_oracle.matrix_wedge,
                          "trace": matrix_oracle.matrix_trace,
                          "trace_wedge": matrix_oracle.matrix_trace_wedge}),
            (AForm, {"__add__": matrix_oracle.form_add, "__sub__": matrix_oracle.form_sub,
                     "scale": matrix_oracle.form_scale, "wedge": matrix_oracle.form_wedge})):
        for name, method in methods.items():
            monkeypatch.setattr(cls, name, method)
    assert main(argv) == status
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("name", builtin_fixture_names())
def test_verify_reports_match_the_per_call_d_A_oracle(name, monkeypatch, capsys):
    # The same report, byte for byte, with every d_A of the run replaced by
    # the route that re-derived each key's bracket terms on every call.
    status = main(["verify", name, "--suite", "all"])
    report = capsys.readouterr().out
    for module in (algebroid, connections, chern, cli):
        monkeypatch.setattr(module, "d_A", cartan_oracle.d_A)
    assert main(["verify", name, "--suite", "all"]) == status
    assert capsys.readouterr().out == report


def test_d_A_reads_each_cartan_stencil_once_per_chart(monkeypatch, capsys):
    # Counted on `verify sa3 --suite all` at seed 42; the counts repeat
    # exactly.  Each output key's bracket terms are built once per chart
    # (182 keys on sa3 and 371 on its jet), and the mul and add calls made
    # while d_A runs fell from 12,208 and 6,077 with the terms re-derived on
    # every call to 4,998 and 3,786.  d_A itself ran 2,551 times while
    # `FormMatrix.d` also took d_A of each zero entry, and 505 times since
    # every zero entry shares one zero form of the next degree.
    built = Counter()
    terms = AlgebroidChart._cartan_terms

    def counted(chart, index):
        built[chart] += 1
        return terms(chart, index)

    monkeypatch.setattr(AlgebroidChart, "_cartan_terms", counted)
    inside = 0
    calls = Counter()

    def entered(omega, _original=algebroid.d_A):
        nonlocal inside
        inside += 1
        calls["d_A"] += 1
        try:
            return _original(omega)
        finally:
            inside -= 1

    _rebind(monkeypatch, algebroid, "d_A", entered)
    for name in ("mul", "add"):
        def tallied(*args, _name=name, _original=getattr(expressions, name)):
            calls[_name] += inside > 0
            return _original(*args)

        _rebind(monkeypatch, expressions, name, tallied)
    assert main(["verify", "sa3", "--suite", "all"]) == 0
    capsys.readouterr()
    assert all(count == len(chart.cartan) for chart, count in built.items())
    assert sorted((chart.name, count) for chart, count in built.items()) == [
        ("J1(sa3)", 371), ("sa3", 182)]
    assert calls["mul"] <= 4_998 and calls["add"] <= 3_786
    assert calls["d_A"] == 505


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


# Each record of `verify <fixture> --suite all` at seed 42 without its residual,
# sorted by name, as the report lists them: names, tolerances, probe counts,
# passed flags and details do not depend on numpy's last bits.
_RECORD_SHAPES = json.loads((Path(__file__).parent / "record_shapes.json").read_text())


def _rebind(monkeypatch, home, name: str, replacement) -> None:
    """Bind `replacement` for `home.name` in every `algebroids` module that binds it."""
    original = getattr(home, name)
    for key, module in list(sys.modules.items()):
        if ((key == "algebroids" or key.startswith("algebroids."))
                and vars(module).get(name) is original):
            monkeypatch.setattr(module, name, replacement)


def _count_calls(monkeypatch, *targets) -> Counter:
    """Calls of each (module, function) of `targets`, by function name."""
    counts = Counter()
    for home, name in targets:
        def counted(*args, _name=name, _original=getattr(home, name)):
            counts[_name] += 1
            return _original(*args)

        _rebind(monkeypatch, home, name, counted)
    return counts


class TestOneBuilderPerRun:
    """`run_suite` shares one `ClassBuilder` among its suites: each connection
    and Delta form is built once per run, and nothing carries between runs."""

    @pytest.mark.parametrize("name", builtin_fixture_names() + ["tridiag5_anchor", "leibniz2"])
    def test_all_is_the_single_suites_in_order(self, name):
        label, name = name, _data_or_bundled(name)
        fixture = resolve_fixture(name)

        def records(suite):  # each record as text, so a NaN residual equals itself
            return [json.dumps(c.to_dict()) for c in run_suite(fixture, suite).checks]

        alone = {suite: records(suite) for suite in cli.SUITES if suite != "all"}
        everything = records("all")
        assert everything == [r for rs in alone.values() for r in rs]
        identities = records("identities")
        assert identities == [r for suite, rs in alone.items() if suite != "axioms"
                              for r in rs]
        passed = all(json.loads(r)["passed"] for r in identities)
        assert main(["identities", name]) == (0 if passed else 1)
        shapes = [{key: value for key, value in json.loads(r).items() if key != "residual"}
                  for r in everything]
        assert sorted(shapes, key=lambda r: r["name"]) == _RECORD_SHAPES[label]

    def test_a_run_builds_each_connection_and_form_once(self, monkeypatch, capsys):
        counts = _count_calls(monkeypatch, (connections, "morphism_target_connection"),
                              (connections, "orthogonal_connection"), (chern, "bott_delta"))
        once = {"morphism_target_connection": 6, "orthogonal_connection": 5, "bott_delta": 8}
        for _ in range(2):  # main resolves the fixture afresh each time
            counts.clear()
            assert main(["verify", "sa3", "--suite", "all"]) == 0
            assert counts == once
        capsys.readouterr()
        sa3 = resolve_fixture("sa3")
        for _ in range(2):  # the same objects twice: a memo that outlived its run would hit
            counts.clear()
            assert run_suite(sa3, "all").passed
            assert counts == once

    def test_connections_suite_builds_each_curvature_once(self, monkeypatch, capsys):
        # One curvature per connection: the kernel-flatness and both adapted-frame
        # checks of a morphism with kernel rows share the curvature of its sum.
        calls = []  # [connection, count], by first call
        original = connections.curvature

        def counted(conn):
            for entry in calls:
                if entry[0] is conn:
                    entry[1] += 1
                    break
            else:
                calls.append([conn, 1])
            return original(conn)

        _rebind(monkeypatch, connections, "curvature", counted)
        assert main(["verify", "solvable2d", "--suite", "connections"]) == 0
        capsys.readouterr()
        assert [count for _, count in calls] == [1] * 8

    def test_a_run_builds_each_adapted_frame_once(self, monkeypatch, capsys):
        # The probe set's validation builds the kernel frame, g+, g- and both
        # adapted frames of each morphism with kernel rows; the connections
        # suite reads them from the run's builder.
        counts = _count_calls(monkeypatch, *((connections, name) for name in (
            "quasi_metric_on_S", "kernel_frame_on_S", "adapted_frame")))
        assert main(["verify", "solvable2d", "--suite", "connections"]) == 0
        capsys.readouterr()
        assert counts == {"quasi_metric_on_S": 2, "kernel_frame_on_S": 2, "adapted_frame": 4}

    def test_identity_and_fixture_metrics_are_never_one_key(self, action_x, line_points):
        # action_x's metric exp(2x) on `action` moves mu_1 of sharp off lambda_phi.
        phi = action_x.morphism("sharp")
        forms = ClassBuilder()
        standard = mu_form(phi, 1, builder=forms)
        weighted = mu_form(phi, 1, *cli._metrics(action_x, forms, phi.source, phi.target),
                           forms)
        assert (standard - weighted).max_abs(line_points) == pytest.approx(
            np.abs(line_points).max(), abs=1e-3)
        records = {c.name: c.to_dict() for c in run_suite(action_x, "all").checks}
        assert records["mu1_equals_modular[sharp]"] == {
            "name": "mu1_equals_modular[sharp]", "residual": 0.0, "tolerance": 1e-10,
            "passed": True, "probes": 100}
        assert records["jet_relative_pullback[sharp]"] == {
            "name": "jet_relative_pullback[sharp]", "residual": 0.0, "tolerance": 1e-9,
            "passed": True, "probes": 50}


class TestOneRecordRoute:
    """`cli._check` is the one place that builds a `CheckRecord`; the math
    layers return residuals and know nothing of records."""

    @pytest.mark.parametrize("module", [algebroid, connections, chern, forms, expressions,
                                        classes], ids=lambda module: module.__name__)
    def test_math_layers_build_no_records(self, module):
        assert "CheckRecord" not in vars(module)
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
                imported.add(getattr(node, "module", None) or "")
        assert "reports" not in {part for name in imported for part in name.split(".")}

    @staticmethod
    def _chart():
        return AlgebroidChart("A", ["x"], ["b1", "b2"], [[Const(0.0)], [Const(0.0)]])

    @pytest.mark.parametrize("as_matrix", [False, True])
    def test_a_nan_and_an_inf_coefficient_fail_closed(self, as_matrix):
        chart = self._chart()
        form = AForm(chart, 1, {(0,): parse_expression("sqrt(x-2)", chart.coords),
                                (1,): parse_expression("exp(2000*x)", chart.coords)})
        point = np.array([[0.5]])
        values = evaluate(form.table.values(), point)[:, 0]
        assert np.isnan(values[0]) and values[1] == math.inf
        residual = FormMatrix(chart, [[form]], 1) if as_matrix else form
        report = Report("0", "nonfinite", 0, 1)
        record = cli._check(report, "nonfinite", 1.0, point, residual)
        assert record.residual == math.inf and not record.passed
        assert report.checks == [record]

    @pytest.mark.parametrize("position", range(4))
    def test_a_nan_float_fails_closed_in_any_position(self, position):
        residuals = [0.0, 0.5, self._chart().zero_form(1)]
        residuals.insert(position, math.nan)
        record = cli._check(Report("0", "nan", 0, 1), "nan", 1.0, np.array([[0.5]]),
                            *residuals)
        assert record.residual == math.inf and not record.passed
