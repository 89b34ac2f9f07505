"""Command-line verification suites over fixture files.

Commands: `verify` (named suites of residual checks), `modular`, `mu`, `jet`
(form and chart dumps), and `identities` (the identity battery: the `all`
suite without `axioms`).  Reports are deterministic JSON; exit status is 0
when every check passes, 1 when any fails, 2 on usage or fixture errors.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations

import numpy as np

from . import __version__
from .algebroid import (
    AForm,
    AlgebroidChart,
    Morphism,
    check_morphism,
    d_A,
    jet_prolong,
    pullback,
    verify_axioms,
)
from .chern import bott_delta, cocycle_check, transgression_check
from .classes import (
    bi_characteristic,
    jet_relative,
    modular_form,
    modular_form_morphism,
    mu_form,
    orthogonal_sum,
    relative_mu,
)
from .connections import (
    AConnection,
    FormMatrix,
    bracket_connection,
    curvature,
    jet_bracket_connection,
    jet_morphism_connection,
    k_flatness_check,
    kernel_frame_on_S,
    metric_compat_check,
    morphism_sum_connection,
    orthogonal_connection,
    quasi_metric_frame_check,
    quasi_metric_on_S,
)
from .expressions import Const, ScalarField, add, mul
from .fixtures import Fixture, FixtureError, resolve_fixture
from .forms import AFormData
from .reports import CheckRecord, Report
from .sampling import sample_points

SUITES = ("axioms", "connections", "transgression", "classes", "composition",
          "jet", "all")


class Options:
    def __init__(self, points: int = 100, seed: int = 42, tol: float = 1e-9):
        self.points = points
        self.seed = seed
        self.tol = tol

    @property
    def loose_tol(self) -> float:
        """Transgression/cocycle tolerance (heavier contractions)."""
        return self.tol * 10.0

    @property
    def tight_tol(self) -> float:
        """Kernel-flatness and modular-identity tolerance."""
        return self.tol / 10.0


def _random_polynomial(chart: AlgebroidChart, rng) -> ScalarField:
    """Random quadratic polynomial with small integer coefficients."""
    field: ScalarField = Const(float(rng.integers(-2, 3)))
    for i in range(chart.dim):
        c = float(rng.integers(-2, 3))
        if c:
            field = add(field, mul(Const(c), chart.coordinate_field(i)))
        for j in range(i, chart.dim):
            c2 = float(rng.integers(-2, 3))
            if c2:
                field = add(field, mul(Const(c2), mul(chart.coordinate_field(i),
                                                      chart.coordinate_field(j))))
    return field


def _random_form(chart: AlgebroidChart, degree: int, rng) -> AForm:
    if degree == 0:
        return chart.function_form(_random_polynomial(chart, rng))
    table = {}
    for index in combinations(range(chart.rank), degree):
        table[index] = _random_polynomial(chart, rng)
    return chart.form(AFormData(degree, chart.rank, table))


def _random_connection(chart: AlgebroidChart, rank: int, rng) -> AConnection:
    rows = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            table = {}
            for i in range(chart.rank):
                if rng.integers(0, 2):
                    table[(i,)] = _random_polynomial(chart, rng)
            row.append(chart.form(AFormData(1, chart.rank, table)))
        rows.append(row)
    return AConnection(chart, rank, FormMatrix(chart, rows, 1))


def _bianchi_record(name: str, conn: AConnection, points, tol: float) -> CheckRecord:
    omega = conn.matrix
    curv = curvature(conn)
    residual_matrix = curv.d() - (omega.wedge(curv) - curv.wedge(omega))
    return CheckRecord(name, residual_matrix.max_abs(points), tol, len(points))


def _suite_axioms(fixture: Fixture, report: Report, opt: Options) -> None:
    rng = np.random.default_rng(opt.seed)
    for name, chart in fixture.charts.items():
        for record in verify_axioms(chart, opt.points, opt.seed, opt.tol):
            record.name = f"axioms[{name}].{record.name}"
            report.add(record)
        points = sample_points(chart.dim, opt.points, opt.seed)
        worst = 0.0
        for degree in (0, 1):
            for _ in range(3):
                form = _random_form(chart, degree, rng)
                worst = max(worst, d_A(d_A(form)).max_abs(points))
        report.add(CheckRecord(f"axioms[{name}].d_squared", worst, opt.tol,
                               opt.points, {"seed": opt.seed}))
    for name, phi in fixture.morphisms.items():
        record = check_morphism(phi, opt.points, opt.seed, opt.tol)
        record.name = f"axioms.morphism[{name}]"
        report.add(record)


def _suite_connections(fixture: Fixture, report: Report, opt: Options) -> None:
    rng = np.random.default_rng(opt.seed + 1)
    for name, chart in fixture.charts.items():
        points = sample_points(chart.dim, opt.points, opt.seed)
        report.add(_bianchi_record(f"bianchi[{name}].bracket",
                                   bracket_connection(chart), points, opt.tol))
        metric = fixture.metric_for(name)
        orth = orthogonal_connection(chart, metric)
        report.add(_bianchi_record(f"bianchi[{name}].orthogonal", orth, points,
                                   opt.tol))
        record = metric_compat_check(orth, metric, opt.points, opt.seed,
                                     opt.tight_tol,
                                     name=f"metric_parallel[{name}]")
        report.add(record)
        random_conn = _random_connection(chart, 2, rng)
        report.add(_bianchi_record(f"bianchi[{name}].random", random_conn,
                                   points, opt.tol))
    for name, phi in fixture.morphisms.items():
        points = sample_points(phi.source.dim, opt.points, opt.seed)
        conn_S = morphism_sum_connection(phi)
        g_plus, g_minus = quasi_metric_on_S(phi)
        for g, label in ((g_plus, "sym"), (g_minus, "skew")):
            record = metric_compat_check(conn_S, g, opt.points, opt.seed,
                                         opt.tol,
                                         name=f"compat[{name}].{label}")
            report.add(record)
        ker, coker = fixture.kernel_rows(name)
        if ker or coker:
            record = k_flatness_check(conn_S, phi, ker, coker, opt.points,
                                      opt.seed, opt.tight_tol)
            record.name = f"k_flatness[{name}]"
            report.add(record)
            frame = kernel_frame_on_S(phi, ker, coker)
            for g, label in ((g_plus, "sym"), (g_minus, "skew")):
                for rec in quasi_metric_frame_check(conn_S, g, frame,
                                                    min(opt.points, 50),
                                                    opt.seed, opt.tol):
                    rec.name = f"adapted[{name}].{label}.{rec.name}"
                    report.add(rec)


def _transgression_pair(fixture: Fixture, phi: Morphism) -> tuple[AConnection, AConnection]:
    orth = orthogonal_sum(phi.source, phi.source.rank, phi.target.rank,
                          fixture.metric_for(phi.source.name),
                          fixture.metric_for(phi.target.name))
    return orth, morphism_sum_connection(phi)


def _suite_transgression(fixture: Fixture, report: Report, opt: Options) -> None:
    for name, phi in fixture.morphisms.items():
        nabla0, nabla1 = _transgression_pair(fixture, phi)
        for h in (1, 2):
            record = transgression_check(nabla0, nabla1, h, opt.points,
                                         opt.seed, opt.loose_tol)
            record.name = f"transgression[{name}].c{h}"
            report.add(record)
        points = sample_points(phi.source.dim, opt.points, opt.seed)
        for h in (1, 2):
            closed = d_A(bott_delta([nabla1], h))
            report.add(CheckRecord(f"closed_chern[{name}].c{h}",
                                   closed.max_abs(points), opt.tol, opt.points))


def _suite_classes(fixture: Fixture, report: Report, opt: Options) -> None:
    # Identity metrics keep the frames orthonormal, which is what makes the
    # modular identity hold at form level (other metrics shift it by an exact
    # form only).
    for name, phi in fixture.morphisms.items():
        points = sample_points(phi.source.dim, opt.points, opt.seed)
        rep1 = mu_form(phi, 1)
        target = modular_form_morphism(phi)
        report.add(CheckRecord(
            f"mu1_equals_modular[{name}]",
            (rep1.form - target).max_abs(points), opt.tight_tol, opt.points,
        ))
        report.add(CheckRecord(
            f"closed_mu1[{name}]", rep1.metadata["closedness_residual"],
            opt.tol, opt.points,
        ))
        rep2 = mu_form(phi, 2)
        report.add(CheckRecord(
            f"closed_mu3[{name}]", rep2.metadata["closedness_residual"],
            opt.tol, opt.points,
        ))
    by_signature: dict[tuple[str, str], list[str]] = {}
    for name, phi in fixture.morphisms.items():
        by_signature.setdefault((phi.source.name, phi.target.name), []).append(name)
    for (src, tgt), names in by_signature.items():
        for first, second in combinations(names, 2):
            phi1, phi2 = fixture.morphism(first), fixture.morphism(second)
            points = sample_points(phi1.source.dim, opt.points, opt.seed)
            nabla0, nabla1 = _transgression_pair(fixture, phi1)
            _, nabla2 = _transgression_pair(fixture, phi2)
            bi = bi_characteristic(phi1, phi2, 1)
            correction = d_A(bott_delta([nabla0, nabla1, nabla2], 1))
            lhs = mu_form(phi1, 1).form - mu_form(phi2, 1).form
            report.add(CheckRecord(
                f"bi_characteristic[{first},{second}]",
                (lhs - (bi.form + correction)).max_abs(points),
                opt.loose_tol, opt.points,
            ))
            for h in (1, 2):
                record = cocycle_check(nabla0, nabla1, nabla2, h, opt.points,
                                       opt.seed, opt.loose_tol)
                record.name = f"cocycle[{first},{second}].c{h}"
                report.add(record)


def _suite_composition(fixture: Fixture, report: Report, opt: Options) -> None:
    for first, phi in fixture.morphisms.items():
        for second, psi in fixture.morphisms.items():
            if psi.source is not phi.target or phi.source is psi.target:
                continue
            points = sample_points(phi.source.dim, opt.points, opt.seed)
            composite = psi.compose(phi)
            g_a = fixture.metric_for(phi.source.name)
            g_b = fixture.metric_for(phi.target.name)
            g_c = fixture.metric_for(psi.target.name)
            mu_comp = mu_form(composite, 1, g_source=g_a, g_target=g_c).form
            mu_phi = mu_form(phi, 1, g_source=g_a, g_target=g_b).form
            mu_psi = mu_form(psi, 1, g_source=g_b, g_target=g_c).form
            rel = relative_mu(phi, psi, 1, g_mid=g_b, g_far=g_c).form
            label = f"{second}.{first}"
            report.add(CheckRecord(
                f"composition_relative[{label}]",
                (mu_comp - (mu_phi + rel)).max_abs(points), opt.tol, opt.points,
            ))
            report.add(CheckRecord(
                f"relative_is_pullback[{label}]",
                (rel - pullback(phi, mu_psi)).max_abs(points), opt.tol,
                opt.points,
            ))
            report.add(CheckRecord(
                f"composition_total[{label}]",
                (mu_comp - (mu_phi + pullback(phi, mu_psi))).max_abs(points),
                opt.tol, opt.points,
            ))


def _suite_jet(fixture: Fixture, report: Report, opt: Options) -> None:
    jet_points = max(10, opt.points // 2)
    for name, chart in fixture.charts.items():
        jet = jet_prolong(chart)
        for record in verify_axioms(jet, jet_points, opt.seed, opt.tol):
            record.name = f"jet_axioms[{name}].{record.name}"
            report.add(record)
        points = sample_points(jet.dim, jet_points, opt.seed)
        flat = jet_bracket_connection(jet)
        report.add(CheckRecord(
            f"jet_flat[{name}]", curvature(flat).max_abs(points),
            opt.tight_tol, jet_points,
        ))
    for name, phi in fixture.morphisms.items():
        jet = jet_prolong(phi.source)
        points = sample_points(jet.dim, jet_points, opt.seed)
        far = jet_morphism_connection(jet, phi)
        report.add(CheckRecord(
            f"jet_flat_target[{name}]", curvature(far).max_abs(points),
            opt.tight_tol, jet_points,
        ))
        rep = jet_relative(phi, 1,
                           g_source=fixture.metric_for(phi.source.name),
                           g_target=fixture.metric_for(phi.target.name),
                           n_points=jet_points, seed=opt.seed)
        report.add(CheckRecord(
            f"jet_relative_pullback[{name}]", rep.metadata["pullback_residual"],
            opt.tol, jet_points,
        ))


_SUITE_RUNNERS = {
    "axioms": (_suite_axioms,),
    "connections": (_suite_connections,),
    "transgression": (_suite_transgression,),
    "classes": (_suite_classes,),
    "composition": (_suite_composition,),
    "jet": (_suite_jet,),
    "all": (_suite_axioms, _suite_connections, _suite_transgression,
            _suite_classes, _suite_composition, _suite_jet),
}
_SUITE_RUNNERS["identities"] = _SUITE_RUNNERS["all"][1:]


def run_suite(fixture: Fixture, suite: str, opt: Options | None = None) -> Report:
    """Execute one named suite of checks against a fixture."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {tuple(_SUITE_RUNNERS)}")
    opt = opt or Options()
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    for runner in _SUITE_RUNNERS[suite]:
        runner(fixture, report, opt)
    return report


def _form_dump(form: AForm, points) -> dict:
    coefficients = {
        ",".join(str(i + 1) for i in index): str(coeff)
        for index, coeff in sorted(form.data.table.items())
    }
    samples = []
    for point in points.tolist():  # Python floats: the scalar walk raises on overflow
        samples.append({
            "point": point,
            "values": {
                ",".join(str(i + 1) for i in index): coeff.eval(point)
                for index, coeff in sorted(form.data.table.items())
            },
        })
    return {"degree": form.degree, "coefficients": coefficients,
            "samples": samples}


def emit_modular(fixture: Fixture, algebroid: str, opt: Options) -> Report:
    chart = fixture.chart(algebroid)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    form = modular_form(chart, check=False)
    points = sample_points(chart.dim, min(opt.points, 10), opt.seed)
    report.add(CheckRecord(f"closed_modular[{algebroid}]",
                           d_A(form).max_abs(points), opt.tol, len(points)))
    report.forms[f"modular[{algebroid}]"] = _form_dump(form, points)
    return report


def emit_class(fixture: Fixture, morphism: str, h: int, opt: Options) -> Report:
    """Secondary-class form dump with coefficient strings and probe values."""
    phi = fixture.morphism(morphism)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    rep = mu_form(phi, h,
                  g_source=fixture.metric_for(phi.source.name),
                  g_target=fixture.metric_for(phi.target.name))
    points = sample_points(phi.source.dim, min(opt.points, 10), opt.seed)
    report.add(CheckRecord(f"closed_{rep.identifier}[{morphism}]",
                           rep.metadata["closedness_residual"], opt.tol,
                           opt.points))
    report.forms[f"{rep.identifier}[{morphism}]"] = _form_dump(rep.form, points)
    return report


def emit_jet(fixture: Fixture, algebroid: str, opt: Options) -> Report:
    chart = fixture.chart(algebroid)
    jet = jet_prolong(chart)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    for record in verify_axioms(jet, opt.points, opt.seed, opt.tol):
        record.name = f"jet_axioms[{algebroid}].{record.name}"
        report.add(record)
    report.forms[f"jet[{algebroid}]"] = {
        "rank": jet.rank,
        "basis": list(jet.basis),
        "anchor": [[str(e) for e in row] for row in jet.anchor],
        "brackets": {
            f"{i + 1},{j + 1}": {str(k + 1): str(c) for k, c in sorted(row.items())}
            for (i, j), row in sorted(jet.brackets.items())
        },
    }
    return report


def _write_report(report: Report, out: str | None) -> None:
    text = report.to_json()
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fixture", help="fixture path or bundled fixture name")
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default=None, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Verify Lie algebroid fixtures and emit characteristic class forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a named check suite")
    _add_common(verify)
    verify.add_argument("--suite", choices=SUITES, default="all")
    modular = sub.add_parser("modular", help="dump the modular form of an algebroid")
    _add_common(modular)
    modular.add_argument("--algebroid", required=True)
    mu = sub.add_parser("mu", help="dump a secondary characteristic class form")
    _add_common(mu)
    mu.add_argument("--morphism", required=True)
    mu.add_argument("--h", type=int, default=1)
    jet = sub.add_parser("jet", help="dump the first jet prolongation of an algebroid")
    _add_common(jet)
    jet.add_argument("--algebroid", required=True)
    identities = sub.add_parser("identities", help="run the identity battery")
    _add_common(identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    opt = Options(points=args.points, seed=args.seed, tol=args.tol)
    try:
        fixture = resolve_fixture(args.fixture)
        if args.command == "verify":
            report = run_suite(fixture, args.suite, opt)
        elif args.command == "modular":
            report = emit_modular(fixture, args.algebroid, opt)
        elif args.command == "mu":
            report = emit_class(fixture, args.morphism, args.h, opt)
        elif args.command == "jet":
            report = emit_jet(fixture, args.algebroid, opt)
        else:
            report = run_suite(fixture, "identities", opt)
    except (FixtureError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _write_report(report, args.out)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
