"""Representative forms for modular, secondary, relative, and jet classes.

Class equality is always realized at form level with the canonical connection
constructions plus the transgression identities; no cohomology spaces are
computed.  The secondary classes are all one construction: for a chain
A -alpha-> B -beta-> C, transgress from the metric reference connection on
B + C* to the bracket-induced connection [alpha a, b] + dual of
[beta alpha a, c] (`chain_pair`).  Each bracket-induced connection has the
closed form omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t)
(`morphism_target_connection`).  The class of a morphism phi is the chain
(id, phi) (`mu_form`), the class of psi relative to phi is (phi, psi)
(`relative_mu`), and the jet class of phi is `relative_mu` on (pi, phi), with
pi = `jet_prolong(phi.source).projection()` the jet projection J1 A -> A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebroid import AlgebroidChart, Morphism, pullback
from .connections import (
    FormMatrix,
    QuasiMetric,
    direct_sum,
    dual_connection,
    morphism_sum_connection,
    morphism_target_connection,
    orthogonal_connection,
)
from .chern import bott_delta
from .expressions import ZERO, add
from .forms import AForm


@dataclass
class ClassReport:
    """A representative form and its identifier, e.g. `mu_3`."""

    identifier: str
    form: AForm


def modular_form(chart: AlgebroidChart) -> AForm:
    """Degree-1 representative of the modular class on a trivialized chart.

    Coefficient on b*^i: sum_k c_ik^k + sum_j d(rho_i^j)/dx^j.
    """
    table = {}
    for i in range(chart.rank):
        coeff = ZERO
        for k in range(chart.rank):
            gamma = chart.structure.get((i, k), {}).get(k)
            if gamma is not None:
                coeff = add(coeff, gamma)
        for j in range(chart.dim):
            coeff = add(coeff, chart.anchor[i][j].diff(j))
        if not coeff.is_zero():
            table[(i,)] = coeff
    return AForm(chart, 1, table)


def modular_form_morphism(phi: Morphism) -> AForm:
    """Representative of the morphism modular class: lambda_A - phi* lambda_A'."""
    return modular_form(phi.source) - pullback(phi, modular_form(phi.target))


def orthogonal_sum(chart: AlgebroidChart, rank_first: int, rank_second: int,
                   g_first: QuasiMetric | None = None,
                   g_second: QuasiMetric | None = None) -> FormMatrix:
    """The metric reference connection on a sum E + F'*.

    Orthogonal connections on the two summands (a `None` metric is the
    identity), the second one dualized.
    """
    first = orthogonal_connection(chart, g_first or QuasiMetric.identity(rank_first))
    second = orthogonal_connection(chart, g_second or QuasiMetric.identity(rank_second))
    return direct_sum(first, dual_connection(second))


def chain_pair(alpha: Morphism, beta: Morphism, g_mid: QuasiMetric | None = None,
               g_far: QuasiMetric | None = None) -> tuple[FormMatrix, FormMatrix]:
    """The pair (d0, d1) on B + C* of a chain A -alpha-> B -beta-> C, over A.

    d0 is the orthogonal sum for the metrics g_mid on B and g_far on C; d1 is
    [alpha a, b] on B plus the dual of [beta alpha a, c] on C.
    """
    composite = beta.compose(alpha)  # a ValueError unless beta starts where alpha ends
    d1 = direct_sum(morphism_target_connection(alpha),
                    dual_connection(morphism_target_connection(composite)))
    d0 = orthogonal_sum(alpha.source, alpha.target.rank, beta.target.rank, g_mid, g_far)
    return d0, d1


def _transgression_class(name: str, c0: FormMatrix, c1: FormMatrix,
                         h: int) -> ClassReport:
    """Delta(c0, c1)c_{2h-1}, reported as `name_{2h-1}`."""
    return ClassReport(f"{name}_{2 * h - 1}", bott_delta([c0, c1], 2 * h - 1))


def mu_form(phi: Morphism, h: int, g_source: QuasiMetric | None = None,
            g_target: QuasiMetric | None = None) -> ClassReport:
    """Secondary characteristic form of a base-preserving morphism: the chain
    (id, phi).  A degree beyond the bundle rank yields the zero form (not an
    error)."""
    pair = chain_pair(Morphism.identity(phi.source), phi, g_source, g_target)
    return _transgression_class("mu", *pair, h)


def bi_characteristic(phi1: Morphism, phi2: Morphism, h: int) -> ClassReport:
    """Delta(nabla_phi1, nabla_phi2)c_{2h-1} of a parallel pair of morphisms."""
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        raise ValueError("bi-characteristic forms need a parallel pair of morphisms")
    return _transgression_class("bi", morphism_sum_connection(phi1),
                                morphism_sum_connection(phi2), h)


def relative_mu(phi: Morphism, psi: Morphism, h: int,
                g_mid: QuasiMetric | None = None,
                g_far: QuasiMetric | None = None) -> ClassReport:
    """Characteristic form of psi: A' -> A'' modulo phi: A -> A', on A: the
    chain (phi, psi)."""
    return _transgression_class("relative", *chain_pair(phi, psi, g_mid, g_far), h)

