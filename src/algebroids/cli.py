"""Command-line verification suites over fixture files.

Commands: `verify` (named suites of residual checks; a run's suites share one
`ClassBuilder`, which builds each connection and class form once), `modular`,
`mu`, `jet` (form and chart dumps) and `identities` (the identity battery:
`all` without `axioms`).  Reports are deterministic JSON; exit status is 0
when every check passes, 1 when any fails, 2 on usage or fixture errors.
The math layers return residuals; `_check` alone names, reduces and records
them, so every `CheckRecord` is built in one place.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from itertools import combinations

import numpy as np

from . import __version__
from .algebroid import (
    AlgebroidChart,
    Morphism,
    check_morphism,
    d_A,
    jet_prolong,
    pullback,
    verify_axioms,
)
from .chern import coboundary_check
from .classes import ClassBuilder, modular_form, modular_form_morphism, mu_form
from .connections import (
    FormMatrix,
    QuasiMetric,
    connection_from_coefficients,
    curvature,
    k_flatness_check,
    metric_compat_check,
    quasi_metric_frame_check,
)
from .expressions import (Const, ScalarField, ZERO, add, balanced_sum, evaluate,
                          max_abs_finite, mul, residual)
from .fixtures import Fixture, FixtureError, resolve_fixture
from .forms import AForm
from .reports import CheckRecord, Report
from .sampling import first_point, sample_points

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


def _small_integer(rng: random.Random) -> float:
    """floor(5 * random()) - 2, one of -2, ..., 2 (`randrange` promises no fixed algorithm)."""
    return float(int(5.0 * rng.random()) - 2)


def _random_polynomial(chart: AlgebroidChart, rng: random.Random) -> ScalarField:
    """Random quadratic polynomial with small integer coefficients."""
    field: ScalarField = Const(_small_integer(rng))
    for i in range(chart.dim):
        c = _small_integer(rng)
        if c:
            field = add(field, mul(Const(c), chart.coordinate_field(i)))
        for j in range(i, chart.dim):
            c2 = _small_integer(rng)
            if c2:
                field = add(field, mul(Const(c2), mul(chart.coordinate_field(i),
                                                      chart.coordinate_field(j))))
    return field


def _random_form(chart: AlgebroidChart, degree: int, rng: random.Random) -> AForm:
    if degree == 0:
        return chart.function_form(_random_polynomial(chart, rng))
    table = {}
    for index in combinations(range(chart.rank), degree):
        table[index] = _random_polynomial(chart, rng)
    return AForm(chart, degree, table)


def _random_connection(chart: AlgebroidChart, rank: int, rng: random.Random) -> FormMatrix:
    """Each entry is a random polynomial when floor(2 * random()) is 1, else zero."""
    return connection_from_coefficients(
        chart, rank,
        lambda i, u, t: _random_polynomial(chart, rng) if int(2.0 * rng.random()) else ZERO)


def _check(report: Report, name: str, tol: float, points,
           *residuals: AForm | FormMatrix | float, details: dict | None = None) -> CheckRecord:
    """Add the record `name`: the largest |value| of `residuals` at the probe points.

    A residual is an `AForm`, a `FormMatrix` or a float already reduced over the
    points; every coefficient of the forms and matrices is reduced in one walk.
    A non-finite value, a NaN float included, makes the residual inf.
    """
    fields, reduced = [], []
    for value in residuals:
        if isinstance(value, FormMatrix):
            fields += [c for row in value.entries for entry in row
                       for c in entry.table.values()]
        elif isinstance(value, AForm):
            fields += value.table.values()
        else:
            reduced.append(value)
    worst = max(residual(fields, points), max_abs_finite(reduced))
    return report.add(CheckRecord(name, worst, tol, len(points), details or {}))


def _check_axioms(report: Report, prefix: str, chart: AlgebroidChart, points,
                  tol: float) -> None:
    """The two axiom records of a chart; the failing triple only when Jacobi fails."""
    worst_anchor, worst_jacobi, triple = verify_axioms(chart, points)
    _check(report, f"{prefix}.anchor_bracket_morphism", tol, points, worst_anchor,
           details={"chart": chart.name})
    details = {"chart": chart.name}
    if worst_jacobi > tol:
        details["failing_triple"] = list(triple)
    _check(report, f"{prefix}.jacobi_identity", tol, points, worst_jacobi, details=details)


def _metrics(fixture: Fixture, forms: ClassBuilder, *charts) -> list[QuasiMetric]:
    """Each chart's fixture metric, else the builder's identity metric of its rank."""
    return [fixture.metric_for(c.name, forms.identity_metric(c.rank)) for c in charts]


def _probe_points(fixture: Fixture, opt: Options, forms: ClassBuilder) -> np.ndarray:
    """The run's one draw of probe points, max(N, 10) rows.

    Every chart of a fixture, jets included, has the fixture's coordinates,
    and the generator fills rows in order, so each check's prefix of this
    draw equals a smaller draw with the same seed.  Checks take the first N
    rows, the adapted-frame checks min(N, 50), the jet suite max(10, N // 2)
    and form dumps min(N, 10).  Before any check runs, every fixture metric
    is validated on every row of the draw, which holds each row a check
    takes; the kernel rows of each morphism must lie in its kernel (and the
    cokernel rows in its transpose's) on every row of the draw, and give an
    adapted frame of g+ and g- on the rows the adapted-frame checks take.
    The run's builder `forms` keeps those frames for the checks.
    """
    points = sample_points(len(fixture.coords), max(opt.points, 10), opt.seed)
    for name, (_, metric) in fixture.metrics.items():
        try:
            metric.validate(points)
        except ValueError as exc:
            raise FixtureError(f"metric {name!r} is {exc}") from exc
    for name, (ker, coker) in fixture.kernels.items():
        if not (ker or coker):
            continue
        phi = fixture.morphism(name)
        _check_kernel_rows(name, phi, ker, coker, points)
        frame = forms.kernel_frame(phi, ker, coker)
        for g, label in zip(forms.quasi_metrics(phi), ("g+", "g-")):
            try:
                forms.adapted_frame(g, frame, points[:min(opt.points, 50)])
            except ValueError as exc:  # kernel rows that admit no adapted frame
                raise FixtureError(f"{exc} (morphism {name!r}, quasi-metric {label})") from exc
    return points


def _check_kernel_rows(name: str, phi: Morphism, ker, coker, points) -> None:
    """A FixtureError at the first kernel row v with |phi(v)| > 1e-10, or
    cokernel row nu with |phi^T(nu)| > 1e-10, or a value not finite, at a point."""
    source, target = range(phi.source.rank), range(phi.target.rank)
    images = [(f"kernel row {k + 1}", "phi", "v",
               [balanced_sum([mul(v[i], phi.matrix[i][u]) for i in source]) for u in target])
              for k, v in enumerate(ker)]
    images += [(f"cokernel row {k + 1}", "phi^T", "nu",
                [balanced_sum([mul(phi.matrix[i][u], nu[u]) for u in target]) for i in source])
               for k, nu in enumerate(coker)]
    for row, op, arg, image in images:
        magnitude = np.abs(evaluate(image, points)).max(axis=0)  # one value per point
        bad = ~(magnitude <= 1e-10)  # NaN compares false
        if bad.any():
            n = int(bad.argmax())
            raise FixtureError(
                f"{row} of {name!r} is not in the kernel of {op}: |{op}({arg})| = "
                f"{magnitude[n]:.3g} at probe point {tuple(points[n].tolist())}")


def _suite_axioms(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    rng = random.Random(opt.seed)
    points = draw[:opt.points]
    for name, chart in fixture.charts.items():
        _check_axioms(report, f"axioms[{name}]", chart, points, opt.tol)
        _check(report, f"axioms[{name}].d_squared", opt.tol, points,
               *[d_A(d_A(_random_form(chart, degree, rng)))
                 for degree in (0, 1) for _ in range(3)])
    for name, phi in fixture.morphisms.items():
        _check(report, f"axioms.morphism[{name}]", opt.tol, points, *check_morphism(phi),
               details={"from": phi.source.name, "to": phi.target.name})


def _suite_connections(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    rng = random.Random(opt.seed + 1)
    points = draw[:opt.points]
    for name, chart in fixture.charts.items():
        [metric] = _metrics(fixture, forms, chart)
        orth = forms.orthogonal(chart, metric)
        _check(report, f"metric_parallel[{name}]", opt.tight_tol, points,
               metric_compat_check(orth, metric))
        for label, conn in (("bracket", forms.target_connection(forms.identity(chart))),
                            ("orthogonal", orth),
                            ("random", _random_connection(chart, 2, rng))):
            curv = curvature(conn)
            _check(report, f"bianchi[{name}].{label}", opt.tol, points,
                   curv.d() - (conn.wedge(curv) - curv.wedge(conn)))
    for name, phi in fixture.morphisms.items():
        conn_S = forms.chain_connection(forms.identity(phi.source), phi)
        g_plus, g_minus = forms.quasi_metrics(phi)
        for g, label in ((g_plus, "sym"), (g_minus, "skew")):
            _check(report, f"compat[{name}].{label}", opt.tol, points,
                   metric_compat_check(conn_S, g))
        ker, coker = fixture.kernel_rows(name)
        if ker or coker:
            frame, curv = forms.kernel_frame(phi, ker, coker), curvature(conn_S)
            _check(report, f"k_flatness[{name}]", opt.tight_tol, points,
                   k_flatness_check(curv, frame, points),
                   details={"kernel_vectors": len(frame)})
            for g, label in ((g_plus, "sym"), (g_minus, "skew")):
                blocks = quasi_metric_frame_check(
                    conn_S, curv, g, forms.adapted_frame(g, frame, points[:50]), points[:50])
                for block, worst in blocks.items():
                    _check(report, f"adapted[{name}].{label}.{block}", opt.tol,
                           points[:50], worst)


def _suite_transgression(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    points = draw[:opt.points]
    for name, phi in fixture.morphisms.items():
        nabla0, nabla1 = forms.chain_pair(forms.identity(phi.source), phi,
                                          *_metrics(fixture, forms, phi.source, phi.target))
        for h in (1, 2):
            _check(report, f"transgression[{name}].c{h}", opt.loose_tol, points,
                   coboundary_check([nabla0, nabla1], h, forms.delta))
            _check(report, f"closed_chern[{name}].c{h}", opt.tol, points,
                   d_A(forms.delta([nabla1], h)))


def _suite_classes(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    # Identity metrics keep the frames orthonormal, which is what makes the
    # modular identity hold at form level (other metrics shift it by an exact
    # form only).
    points = draw[:opt.points]
    for name, phi in fixture.morphisms.items():
        mu1 = mu_form(phi, 1, builder=forms)
        target = modular_form_morphism(phi)
        _check(report, f"mu1_equals_modular[{name}]", opt.tight_tol, points, mu1 - target)
        _check(report, f"closed_modular[{name}]", opt.tol, points,
               d_A(modular_form(phi.source)), d_A(modular_form(phi.target)), d_A(target))
        _check(report, f"closed_mu1[{name}]", opt.tol, points, d_A(mu1))
        _check(report, f"closed_mu3[{name}]", opt.tol, points,
               d_A(mu_form(phi, 2, builder=forms)))
    for (first, phi1), (second, phi2) in combinations(fixture.morphisms.items(), 2):
        if (phi1.source, phi1.target) != (phi2.source, phi2.target):
            continue
        identity = forms.identity(phi1.source)
        nabla0, nabla1 = forms.chain_pair(
            identity, phi1, *_metrics(fixture, forms, phi1.source, phi1.target))
        nabla2 = forms.chain_connection(identity, phi2)
        # Bott's cocycle identity: mu_phi1 - mu_phi2 = d Delta(nabla0, nabla1, nabla2) - bi
        bi = forms.bi_characteristic(phi1, phi2, 1)
        correction = d_A(forms.delta([nabla0, nabla1, nabla2], 1))
        lhs = mu_form(phi1, 1, builder=forms) - mu_form(phi2, 1, builder=forms)
        _check(report, f"bi_characteristic[{first},{second}]", opt.loose_tol, points,
               lhs - (correction - bi))
        for h in (1, 2):
            _check(report, f"cocycle[{first},{second}].c{h}", opt.loose_tol, points,
                   coboundary_check([nabla0, nabla1, nabla2], h, forms.delta))


def _suite_composition(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    points = draw[:opt.points]
    for first, phi in fixture.morphisms.items():
        for second, psi in fixture.morphisms.items():
            if psi.source is not phi.target or phi.source is psi.target:
                continue
            composite = forms.compose(psi, phi)
            g_a, g_b, g_c = _metrics(fixture, forms, phi.source, phi.target, psi.target)
            mu_comp = mu_form(composite, 1, g_a, g_c, forms)
            mu_phi = mu_form(phi, 1, g_a, g_b, forms)
            mu_psi = mu_form(psi, 1, g_b, g_c, forms)
            rel = forms.relative_mu(phi, psi, 1, g_b, g_c)
            label = f"{second}.{first}"
            _check(report, f"composition_relative[{label}]", opt.tol, points,
                   mu_comp - (mu_phi + rel))
            _check(report, f"relative_is_pullback[{label}]", opt.tol, points,
                   rel - pullback(phi, mu_psi))
            _check(report, f"composition_total[{label}]", opt.tol, points,
                   mu_comp - (mu_phi + pullback(phi, mu_psi)))


def _suite_jet(fixture: Fixture, report: Report, opt: Options, draw, forms) -> None:
    points = draw[:max(10, opt.points // 2)]
    for name, chart in fixture.charts.items():
        projection = forms.projection(chart)
        _check_axioms(report, f"jet_axioms[{name}]", projection.source, points, opt.tol)
        _check(report, f"jet_flat[{name}]", opt.tight_tol, points,
               curvature(forms.target_connection(projection)))
    for name, phi in fixture.morphisms.items():
        projection = forms.projection(phi.source)
        far = forms.target_connection(forms.compose(phi, projection))
        _check(report, f"jet_flat_target[{name}]", opt.tight_tol, points, curvature(far))
        g_source, g_target = _metrics(fixture, forms, phi.source, phi.target)
        rel = forms.relative_mu(projection, phi, 1, g_source, g_target)
        absolute = mu_form(phi, 1, g_source, g_target, forms)
        _check(report, f"jet_relative_pullback[{name}]", opt.tol, points,
               rel - pullback(projection, absolute))


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
    forms = ClassBuilder()
    draw = _probe_points(fixture, opt, forms)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    for runner in _SUITE_RUNNERS[suite]:
        runner(fixture, report, opt, draw, forms)
    return report


def _form_dump(name: str, form: AForm, points) -> dict:
    """Coefficient strings and values at `points`, by the numpy walk the checks use.

    A value that is not finite (an overflow, a domain error, inf - inf) is a
    FixtureError located at its first probe point.
    """
    terms = [(",".join(str(i + 1) for i in index), coeff)
             for index, coeff in sorted(form.table.items())]
    values = evaluate([coeff for _, coeff in terms], points).T  # one row per point
    bad = first_point(~np.isfinite(values), points)
    if bad is not None:
        raise FixtureError(f"form {name!r} cannot be evaluated at probe point {bad}")
    keys = [key for key, _ in terms]
    return {"degree": form.degree,
            "coefficients": {key: str(coeff) for key, coeff in terms},
            "samples": [{"point": point, "values": dict(zip(keys, row))}
                        for point, row in zip(points.tolist(), values.tolist())]}


def emit_modular(fixture: Fixture, algebroid: str, opt: Options) -> Report:
    chart = fixture.chart(algebroid)
    points = _probe_points(fixture, opt, ClassBuilder())[:opt.points]
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    form = modular_form(chart)
    _check(report, f"closed_modular[{algebroid}]", opt.tol, points, d_A(form))
    name = f"modular[{algebroid}]"
    report.forms[name] = _form_dump(name, form, points[:10])
    return report


def emit_class(fixture: Fixture, morphism: str, h: int, opt: Options) -> Report:
    """Secondary-class form dump with coefficient strings and probe values."""
    phi = fixture.morphism(morphism)
    forms = ClassBuilder()
    points = _probe_points(fixture, opt, forms)[:opt.points]
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    form = mu_form(phi, h, *_metrics(fixture, forms, phi.source, phi.target), forms)
    name = f"mu_{2 * h - 1}[{morphism}]"
    _check(report, f"closed_{name}", opt.tol, points, d_A(form))
    report.forms[name] = _form_dump(name, form, points[:10])
    return report


def emit_jet(fixture: Fixture, algebroid: str, opt: Options) -> Report:
    chart = fixture.chart(algebroid)
    points = _probe_points(fixture, opt, ClassBuilder())[:opt.points]
    jet = jet_prolong(chart)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    _check_axioms(report, f"jet_axioms[{algebroid}]", jet, points, opt.tol)
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


def _integer(minimum: int, kind: str):
    """An argparse type: an integer of at least `minimum`, called `kind` in errors."""
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return int(text)
    return parse


def _positive_finite(text: str) -> float:
    """An argparse type: a tolerance, finite and above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:  # false for nan
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("fixture", help="fixture path or bundled fixture name")
    parser.add_argument("--points", type=_integer(1, "positive"), default=100)
    parser.add_argument("--seed", type=_integer(0, "non-negative"), default=42)
    parser.add_argument("--tol", type=_positive_finite, default=1e-9)
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
    verify.set_defaults(run=lambda fixture, args, opt: run_suite(fixture, args.suite, opt))
    modular = sub.add_parser("modular", help="dump the modular form of an algebroid")
    _add_common(modular)
    modular.add_argument("--algebroid", required=True)
    modular.set_defaults(
        run=lambda fixture, args, opt: emit_modular(fixture, args.algebroid, opt))
    mu = sub.add_parser("mu", help="dump a secondary characteristic class form")
    _add_common(mu)
    mu.add_argument("--morphism", required=True)
    mu.add_argument("--h", type=_integer(1, "positive"), default=1)
    mu.set_defaults(
        run=lambda fixture, args, opt: emit_class(fixture, args.morphism, args.h, opt))
    jet = sub.add_parser("jet", help="dump the first jet prolongation of an algebroid")
    _add_common(jet)
    jet.add_argument("--algebroid", required=True)
    jet.set_defaults(run=lambda fixture, args, opt: emit_jet(fixture, args.algebroid, opt))
    identities = sub.add_parser("identities", help="run the identity battery")
    _add_common(identities)
    identities.set_defaults(run=lambda fixture, args, opt: run_suite(fixture, "identities", opt))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    opt = Options(points=args.points, seed=args.seed, tol=args.tol)
    try:
        report = args.run(resolve_fixture(args.fixture), args, opt)
    except FixtureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        _write_report(report, args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report to {args.out or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
