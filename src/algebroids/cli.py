"""Command-line verification suites over fixture files.

Commands: `verify` (named suites of residual checks), `modular`, `mu`, `jet`
(form and chart dumps), and `identities` (the identity battery: the `all`
suite without `axioms`).  Reports are deterministic JSON; exit status is 0
when every check passes, 1 when any fails, 2 on usage or fixture errors.
"""

from __future__ import annotations

import argparse
import math
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
from .chern import bott_delta, coboundary_check
from .classes import (
    bi_characteristic,
    chain_pair,
    modular_form,
    modular_form_morphism,
    mu_form,
    relative_mu,
)
from .connections import (
    FormMatrix,
    adapted_frame,
    bracket_connection,
    chain_connection,
    connection_from_coefficients,
    curvature,
    k_flatness_check,
    kernel_frame_on_S,
    metric_compat_check,
    morphism_target_connection,
    orthogonal_connection,
    quasi_metric_frame_check,
    quasi_metric_on_S,
)
from .expressions import Const, ScalarField, ZERO, add, balanced_sum, evaluate, mul
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
    return AForm(chart, degree, table)


def _random_connection(chart: AlgebroidChart, rank: int, rng) -> FormMatrix:
    return connection_from_coefficients(
        chart, rank,
        lambda i, u, t: _random_polynomial(chart, rng) if rng.integers(0, 2) else ZERO)


def _bianchi_record(name: str, conn: FormMatrix, points, tol: float) -> CheckRecord:
    curv = curvature(conn)
    residual_matrix = curv.d() - (conn.wedge(curv) - curv.wedge(conn))
    return CheckRecord(name, residual_matrix.max_abs(points), tol, len(points))


def _closed_record(name: str, points, tol: float, *forms: AForm) -> CheckRecord:
    """The largest |d_A form| over `forms` at the probe points."""
    return CheckRecord(name, max(d_A(form).max_abs(points) for form in forms), tol,
                       len(points))


def _probe_points(fixture: Fixture, opt: Options) -> np.ndarray:
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
        frame = kernel_frame_on_S(phi, ker, coker)
        for g, label in zip(quasi_metric_on_S(phi), ("g+", "g-")):
            try:
                adapted_frame(g, frame, points[:min(opt.points, 50)])
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


def _suite_axioms(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    rng = np.random.default_rng(opt.seed)
    points = draw[:opt.points]
    for name, chart in fixture.charts.items():
        for record in verify_axioms(chart, points, opt.tol):
            record.name = f"axioms[{name}].{record.name}"
            report.add(record)
        worst = 0.0
        for degree in (0, 1):
            for _ in range(3):
                form = _random_form(chart, degree, rng)
                worst = max(worst, d_A(d_A(form)).max_abs(points))
        report.add(CheckRecord(f"axioms[{name}].d_squared", worst, opt.tol,
                               len(points)))
    for name, phi in fixture.morphisms.items():
        record = check_morphism(phi, points, opt.tol)
        record.name = f"axioms.morphism[{name}]"
        report.add(record)


def _suite_connections(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    rng = np.random.default_rng(opt.seed + 1)
    points = draw[:opt.points]
    for name, chart in fixture.charts.items():
        report.add(_bianchi_record(f"bianchi[{name}].bracket",
                                   bracket_connection(chart), points, opt.tol))
        metric = fixture.metric_for(name)
        orth = orthogonal_connection(chart, metric)
        report.add(_bianchi_record(f"bianchi[{name}].orthogonal", orth, points,
                                   opt.tol))
        record = metric_compat_check(orth, metric, points, opt.tight_tol)
        record.name = f"metric_parallel[{name}]"
        report.add(record)
        random_conn = _random_connection(chart, 2, rng)
        report.add(_bianchi_record(f"bianchi[{name}].random", random_conn,
                                   points, opt.tol))
    for name, phi in fixture.morphisms.items():
        conn_S = chain_connection(Morphism.identity(phi.source), phi)
        g_plus, g_minus = quasi_metric_on_S(phi)
        for g, label in ((g_plus, "sym"), (g_minus, "skew")):
            record = metric_compat_check(conn_S, g, points, opt.tol)
            record.name = f"compat[{name}].{label}"
            report.add(record)
        ker, coker = fixture.kernel_rows(name)
        if ker or coker:
            record = k_flatness_check(conn_S, phi, ker, coker, points, opt.tight_tol)
            record.name = f"k_flatness[{name}]"
            report.add(record)
            frame = kernel_frame_on_S(phi, ker, coker)
            for g, label in ((g_plus, "sym"), (g_minus, "skew")):
                for rec in quasi_metric_frame_check(conn_S, g, frame, points[:50],
                                                    opt.tol):
                    rec.name = f"adapted[{name}].{label}.{rec.name}"
                    report.add(rec)


def _transgression_pair(fixture: Fixture, phi: Morphism) -> tuple[FormMatrix, FormMatrix]:
    """The pair of the chain (id, phi) with the fixture's metrics."""
    return chain_pair(Morphism.identity(phi.source), phi,
                      fixture.metric_for(phi.source.name),
                      fixture.metric_for(phi.target.name))


def _suite_transgression(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    points = draw[:opt.points]
    for name, phi in fixture.morphisms.items():
        nabla0, nabla1 = _transgression_pair(fixture, phi)
        for h in (1, 2):
            record = coboundary_check([nabla0, nabla1], h, points, opt.loose_tol)
            record.name = f"transgression[{name}].c{h}"
            report.add(record)
            report.add(_closed_record(f"closed_chern[{name}].c{h}", points, opt.tol,
                                      bott_delta([nabla1], h)))


def _suite_classes(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    # Identity metrics keep the frames orthonormal, which is what makes the
    # modular identity hold at form level (other metrics shift it by an exact
    # form only).
    points = draw[:opt.points]
    for name, phi in fixture.morphisms.items():
        mu1 = mu_form(phi, 1)
        target = modular_form_morphism(phi)
        report.add(CheckRecord(
            f"mu1_equals_modular[{name}]",
            (mu1 - target).max_abs(points), opt.tight_tol, len(points),
        ))
        report.add(_closed_record(f"closed_modular[{name}]", points, opt.tol,
                                  modular_form(phi.source), modular_form(phi.target),
                                  target))
        report.add(_closed_record(f"closed_mu1[{name}]", points, opt.tol, mu1))
        report.add(_closed_record(f"closed_mu3[{name}]", points, opt.tol,
                                  mu_form(phi, 2)))
    by_signature: dict[tuple[str, str], list[str]] = {}
    for name, phi in fixture.morphisms.items():
        by_signature.setdefault((phi.source.name, phi.target.name), []).append(name)
    for (src, tgt), names in by_signature.items():
        for first, second in combinations(names, 2):
            phi1, phi2 = fixture.morphism(first), fixture.morphism(second)
            nabla0, nabla1 = _transgression_pair(fixture, phi1)
            nabla2 = chain_connection(Morphism.identity(phi2.source), phi2)
            # Bott's cocycle identity: mu_phi1 - mu_phi2 = d Delta(nabla0, nabla1, nabla2) - bi
            bi = bi_characteristic(phi1, phi2, 1)
            correction = d_A(bott_delta([nabla0, nabla1, nabla2], 1))
            lhs = mu_form(phi1, 1) - mu_form(phi2, 1)
            report.add(CheckRecord(f"bi_characteristic[{first},{second}]",
                                   (lhs - (correction - bi)).max_abs(points),
                                   opt.loose_tol, len(points)))
            for h in (1, 2):
                record = coboundary_check([nabla0, nabla1, nabla2], h, points,
                                          opt.loose_tol)
                record.name = f"cocycle[{first},{second}].c{h}"
                report.add(record)


def _suite_composition(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    points = draw[:opt.points]
    for first, phi in fixture.morphisms.items():
        for second, psi in fixture.morphisms.items():
            if psi.source is not phi.target or phi.source is psi.target:
                continue
            composite = psi.compose(phi)
            g_a = fixture.metric_for(phi.source.name)
            g_b = fixture.metric_for(phi.target.name)
            g_c = fixture.metric_for(psi.target.name)
            mu_comp = mu_form(composite, 1, g_source=g_a, g_target=g_c)
            mu_phi = mu_form(phi, 1, g_source=g_a, g_target=g_b)
            mu_psi = mu_form(psi, 1, g_source=g_b, g_target=g_c)
            rel = relative_mu(phi, psi, 1, g_mid=g_b, g_far=g_c)
            label = f"{second}.{first}"
            report.add(CheckRecord(
                f"composition_relative[{label}]",
                (mu_comp - (mu_phi + rel)).max_abs(points), opt.tol, len(points),
            ))
            report.add(CheckRecord(
                f"relative_is_pullback[{label}]",
                (rel - pullback(phi, mu_psi)).max_abs(points), opt.tol,
                len(points),
            ))
            report.add(CheckRecord(
                f"composition_total[{label}]",
                (mu_comp - (mu_phi + pullback(phi, mu_psi))).max_abs(points),
                opt.tol, len(points),
            ))


def _suite_jet(fixture: Fixture, report: Report, opt: Options, draw) -> None:
    points = draw[:max(10, opt.points // 2)]
    jets = {}
    for name, chart in fixture.charts.items():
        jet = jets[chart] = jet_prolong(chart)
        for record in verify_axioms(jet, points, opt.tol):
            record.name = f"jet_axioms[{name}].{record.name}"
            report.add(record)
        flat = morphism_target_connection(jet.projection())
        report.add(CheckRecord(
            f"jet_flat[{name}]", curvature(flat).max_abs(points),
            opt.tight_tol, len(points),
        ))
    for name, phi in fixture.morphisms.items():
        projection = jets[phi.source].projection()
        far = morphism_target_connection(phi.compose(projection))
        report.add(CheckRecord(
            f"jet_flat_target[{name}]", curvature(far).max_abs(points),
            opt.tight_tol, len(points),
        ))
        g_source = fixture.metric_for(phi.source.name)
        g_target = fixture.metric_for(phi.target.name)
        rel = relative_mu(projection, phi, 1, g_mid=g_source, g_far=g_target)
        absolute = mu_form(phi, 1, g_source=g_source, g_target=g_target)
        pulled = pullback(projection, absolute)
        report.add(CheckRecord(
            f"jet_relative_pullback[{name}]", (rel - pulled).max_abs(points),
            opt.tol, len(points),
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
    draw = _probe_points(fixture, opt)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    for runner in _SUITE_RUNNERS[suite]:
        runner(fixture, report, opt, draw)
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
    points = _probe_points(fixture, opt)[:opt.points]
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    form = modular_form(chart)
    report.add(_closed_record(f"closed_modular[{algebroid}]", points, opt.tol, form))
    name = f"modular[{algebroid}]"
    report.forms[name] = _form_dump(name, form, points[:10])
    return report


def emit_class(fixture: Fixture, morphism: str, h: int, opt: Options) -> Report:
    """Secondary-class form dump with coefficient strings and probe values."""
    phi = fixture.morphism(morphism)
    points = _probe_points(fixture, opt)[:opt.points]
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    form = mu_form(phi, h,
                   g_source=fixture.metric_for(phi.source.name),
                   g_target=fixture.metric_for(phi.target.name))
    name = f"mu_{2 * h - 1}[{morphism}]"
    report.add(_closed_record(f"closed_{name}", points, opt.tol, form))
    report.forms[name] = _form_dump(name, form, points[:10])
    return report


def emit_jet(fixture: Fixture, algebroid: str, opt: Options) -> Report:
    chart = fixture.chart(algebroid)
    points = _probe_points(fixture, opt)[:opt.points]
    jet = jet_prolong(chart)
    report = Report(__version__, fixture.name, opt.seed, opt.points)
    for record in verify_axioms(jet, points, opt.tol):
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
    modular = sub.add_parser("modular", help="dump the modular form of an algebroid")
    _add_common(modular)
    modular.add_argument("--algebroid", required=True)
    mu = sub.add_parser("mu", help="dump a secondary characteristic class form")
    _add_common(mu)
    mu.add_argument("--morphism", required=True)
    mu.add_argument("--h", type=_integer(1, "positive"), default=1)
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
