"""Representative forms for modular, secondary, relative, and jet classes.

Class equality is always realized at form level with the canonical connection
constructions (bracket connections against metric connections) plus the
transgression identities; no cohomology spaces are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebroid import (
    AlgebroidChart,
    Morphism,
    jet_prolong,
    pullback,
)
from .connections import (
    FormMatrix,
    QuasiMetric,
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
from .forms import AForm


@dataclass
class ClassReport:
    """A representative form together with how it was constructed."""

    identifier: str
    form: AForm
    metadata: dict = field(default_factory=dict)


def modular_form(chart: AlgebroidChart) -> AForm:
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
    return AForm(chart, 1, table)


def modular_form_morphism(phi: Morphism) -> AForm:
    """Representative of the morphism modular class: lambda_A - phi* lambda_A'."""
    return modular_form(phi.source) - pullback(phi, modular_form(phi.target))


def _default_metric(g: QuasiMetric | None, rank: int) -> QuasiMetric:
    return g if g is not None else QuasiMetric.identity(rank)


def orthogonal_sum(chart: AlgebroidChart, rank_first: int, rank_second: int,
                   g_first: QuasiMetric | None = None,
                   g_second: QuasiMetric | None = None) -> FormMatrix:
    """The metric reference connection on a sum E + F'*.

    Orthogonal connections on the two summands (a `None` metric is the
    identity), the second one dualized.
    """
    first = orthogonal_connection(chart, _default_metric(g_first, rank_first))
    second = orthogonal_connection(chart, _default_metric(g_second, rank_second))
    return direct_sum(first, dual_connection(second))


def _transgression_class(name: str, chart: AlgebroidChart, c0: FormMatrix,
                         c1: FormMatrix, h: int, metadata: dict) -> ClassReport:
    """Delta(c0, c1)c_{2h-1} on `chart`, reported as `name_{2h-1}`."""
    order = 2 * h - 1
    if order > c1.size:
        form = chart.zero_form(4 * h - 3)
    else:
        form = bott_delta([c0, c1], order)
    return ClassReport(f"{name}_{order}", form, metadata)


def mu_form(phi: Morphism, h: int, g_source: QuasiMetric | None = None,
            g_target: QuasiMetric | None = None,
            orthogonal: FormMatrix | None = None) -> ClassReport:
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
        {"morphism": phi.name, "h": h, "bundle_rank": nabla1.size},
    )


def bi_characteristic(phi1: Morphism, phi2: Morphism, h: int) -> ClassReport:
    """Difference form between two morphisms with the same source and target."""
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        raise ValueError("bi-characteristic forms need a parallel pair of morphisms")
    return _transgression_class(
        "bi", phi1.source, morphism_sum_connection(phi1),
        morphism_sum_connection(phi2), h,
        {"morphisms": [phi1.name, phi2.name], "h": h},
    )


def relative_mu(phi: Morphism, psi: Morphism, h: int,
                g_mid: QuasiMetric | None = None,
                g_far: QuasiMetric | None = None) -> ClassReport:
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
        {"modulo": phi.name, "of": psi.name, "h": h},
    )


def jet_relative(phi: Morphism, h: int, variant: str = "flat",
                 g_source: QuasiMetric | None = None,
                 g_target: QuasiMetric | None = None) -> ClassReport:
    """Relative characteristic form of a morphism modulo the jet projection.

    `variant="flat"` uses the flat jet connections (covariant derivative along
    a jet frame element is the bracket with its defining section);
    `variant="induced"` pulls the chart-level compatible connections back
    along the jet projection.  The jet theorem says the form equals the
    pullback of `mu_form(phi, h)` along the projection.
    """
    jet = jet_prolong(phi.source)
    pi1 = jet.projection()
    if variant == "flat":
        d1 = direct_sum(jet_bracket_connection(jet),
                        dual_connection(jet_morphism_connection(jet, phi)))
    elif variant == "induced":
        d1 = pullback_connection(pi1, morphism_sum_connection(phi))
    else:
        raise ValueError("variant must be 'flat' or 'induced'")
    d0 = pullback_connection(
        pi1, orthogonal_sum(phi.source, phi.source.rank, phi.target.rank,
                            g_source, g_target),
    )
    return _transgression_class(
        "jet_relative", jet, d0, d1, h,
        {"morphism": phi.name, "h": h, "variant": variant},
    )
