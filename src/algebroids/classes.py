"""Representative forms for modular, secondary, relative, and jet classes.

Class equality is always realized at form level with the canonical connection
constructions (bracket connections against metric connections) plus the
transgression identities; no cohomology spaces are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebroid import (
    AForm,
    AlgebroidChart,
    Morphism,
    jet_prolong,
    pullback,
    d_A,
)
from .connections import (
    AConnection,
    QuasiMetric,
    curvature,
    direct_sum,
    dual_connection,
    jet_bracket_connection,
    jet_morphism_connection,
    morphism_sum_connection,
    morphism_target_connection,
    orthogonal_connection,
    pullback_connection,
)
from .chern import bott_delta
from .expressions import Const, ScalarField, ZERO, add, mul
from .forms import AFormData
from .sampling import sample_points


@dataclass
class ClassReport:
    """A representative form together with how it was constructed."""

    identifier: str
    form: AForm
    metadata: dict = field(default_factory=dict)


def _closedness_residual(form: AForm, n_points: int = 40, seed: int = 5) -> float:
    if form.degree >= form.chart.rank:
        return 0.0
    points = sample_points(form.chart.dim, n_points, seed)
    return d_A(form).max_abs(points)


def modular_form(chart: AlgebroidChart, check: bool = True) -> AForm:
    """Degree-1 representative of the modular class on a trivialized chart.

    Coefficient on b*^i: sum_k gamma_ik^k + sum_j d(rho_i^j)/dx^j.
    """
    traces: dict[int, dict[int, ScalarField]] = {}  # i -> {k: gamma_ik^k}, sparse rows
    for (i, j), row in chart.brackets.items():
        if j in row:
            traces.setdefault(i, {})[j] = row[j]
        if i in row:
            traces.setdefault(j, {})[i] = mul(Const(-1.0), row[i])
    table = {}
    for i in range(chart.rank):
        coeff = ZERO
        for _, gamma in sorted(traces.get(i, {}).items()):
            coeff = add(coeff, gamma)
        for j in range(chart.dim):
            coeff = add(coeff, chart.anchor[i][j].diff(j))
        if not coeff.is_zero():
            table[(i,)] = coeff
    form = AForm(chart, AFormData(1, chart.rank, table))
    if check:
        residual = _closedness_residual(form)
        if residual > 1e-9:
            raise ValueError(f"modular form is not closed (residual {residual:.3g})")
    return form


def modular_form_morphism(phi: Morphism, check: bool = True) -> AForm:
    """Representative of the morphism modular class: lambda_A - phi* lambda_A'."""
    form = modular_form(phi.source, check=check) - pullback(
        phi, modular_form(phi.target, check=check)
    )
    if check:
        residual = _closedness_residual(form)
        if residual > 1e-9:
            raise ValueError(f"morphism modular form is not closed ({residual:.3g})")
    return form


def _default_metric(g: QuasiMetric | None, rank: int) -> QuasiMetric:
    return g if g is not None else QuasiMetric.identity(rank)


def orthogonal_sum(chart: AlgebroidChart, rank_first: int, rank_second: int,
                   g_first: QuasiMetric | None = None,
                   g_second: QuasiMetric | None = None) -> AConnection:
    """The metric reference connection on a sum E + F'*.

    Orthogonal connections on the two summands (a `None` metric is the
    identity), the second one dualized.
    """
    first = orthogonal_connection(chart, _default_metric(g_first, rank_first))
    second = orthogonal_connection(chart, _default_metric(g_second, rank_second))
    return direct_sum(first, dual_connection(second))


def _transgression_class(name: str, chart: AlgebroidChart, c0: AConnection,
                         c1: AConnection, h: int, metadata: dict,
                         check: bool) -> ClassReport:
    """Delta(c0, c1)c_{2h-1} on `chart`, reported as `name_{2h-1}`."""
    order = 2 * h - 1
    if order > c1.rank:
        form = chart.zero_form(4 * h - 3)
    else:
        form = bott_delta([c0, c1], order)
    report = ClassReport(f"{name}_{order}", form, metadata)
    if check:
        report.metadata["closedness_residual"] = _closedness_residual(form)
    return report


def mu_form(phi: Morphism, h: int, g_source: QuasiMetric | None = None,
            g_target: QuasiMetric | None = None,
            orthogonal: AConnection | None = None,
            check: bool = True) -> ClassReport:
    """Secondary characteristic form of a base-preserving morphism.

    Builds the compatible bracket-connection sum on A + A'* against the metric
    connection sum and returns the transgression of c_{2h-1}.  A degree beyond
    the bundle rank yields the zero form (not an error).
    """
    nabla1 = morphism_sum_connection(phi)
    nabla0 = orthogonal if orthogonal is not None else orthogonal_sum(
        phi.source, phi.source.rank, phi.target.rank, g_source, g_target
    )
    return _transgression_class(
        "mu", phi.source, nabla0, nabla1, h,
        {"morphism": phi.name, "h": h, "bundle_rank": nabla1.rank}, check,
    )


def bi_characteristic(phi1: Morphism, phi2: Morphism, h: int,
                      check: bool = True) -> ClassReport:
    """Difference form between two morphisms with the same source and target."""
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        raise ValueError("bi-characteristic forms need a parallel pair of morphisms")
    return _transgression_class(
        "bi", phi1.source, morphism_sum_connection(phi1),
        morphism_sum_connection(phi2), h,
        {"morphisms": [phi1.name, phi2.name], "h": h}, check,
    )


def relative_mu(phi: Morphism, psi: Morphism, h: int,
                g_mid: QuasiMetric | None = None,
                g_far: QuasiMetric | None = None,
                check: bool = True) -> ClassReport:
    """Characteristic form of `psi` modulo `phi` for a two-step chain.

    phi: A -> A', psi: A' -> A''.  The source algebroid acts on both downstream
    bundles through the induced bracket connections; the result is a form on
    the chain source.
    """
    if psi.source is not phi.target:
        raise ValueError("relative classes need composable morphisms")
    composite = psi.compose(phi)
    d1 = direct_sum(
        morphism_target_connection(phi),
        dual_connection(morphism_target_connection(composite)),
    )
    d0 = orthogonal_sum(phi.source, phi.target.rank, psi.target.rank, g_mid, g_far)
    return _transgression_class(
        "relative", phi.source, d0, d1, h,
        {"modulo": phi.name, "of": psi.name, "h": h}, check,
    )


def jet_relative(phi: Morphism, h: int, variant: str = "flat",
                 g_source: QuasiMetric | None = None,
                 g_target: QuasiMetric | None = None,
                 n_points: int = 50, seed: int = 42) -> ClassReport:
    """Relative characteristic form of a morphism modulo the jet projection.

    `variant="flat"` uses the flat jet connections (covariant derivative along
    a jet frame element is the bracket with its defining section);
    `variant="induced"` pulls the chart-level compatible connections back
    along the jet projection.  The metadata records the pointwise distance to
    the pullback of the absolute representative and the flatness residuals.
    """
    jet = jet_prolong(phi.source)
    pi1 = jet.projection()
    if variant == "flat":
        near = jet_bracket_connection(jet)
        far = jet_morphism_connection(jet, phi)
        d1 = direct_sum(near, dual_connection(far))
    elif variant == "induced":
        d1 = pullback_connection(pi1, morphism_sum_connection(phi))
    else:
        raise ValueError("variant must be 'flat' or 'induced'")
    absolute = mu_form(phi, h, g_source=g_source, g_target=g_target, check=False)
    d0 = pullback_connection(
        pi1, orthogonal_sum(phi.source, phi.source.rank, phi.target.rank,
                            g_source, g_target),
    )
    report = _transgression_class(
        "jet_relative", jet, d0, d1, h,
        {"morphism": phi.name, "h": h, "variant": variant}, True,
    )
    points = sample_points(jet.dim, n_points, seed)
    pulled = pullback(pi1, absolute.form)
    report.metadata["pullback_residual"] = (report.form - pulled).max_abs(points)
    if variant == "flat":
        report.metadata["jet_connection_flatness"] = max(
            curvature(near).max_abs(points),
            curvature(far).max_abs(points),
        )
    return report
