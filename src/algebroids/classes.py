"""Representative forms for modular, secondary, relative, and jet classes.

Class equality is always realized at form level with the canonical connection
constructions plus the transgression identities; no cohomology spaces are
computed.  The secondary classes are all one construction: for a chain
A -alpha-> B -beta-> C, transgress from the metric reference connection on
B + C* to the bracket-induced connection [alpha a, b] + dual of
[beta alpha a, c] (`chain_pair`, whose second member is `chain_connection`).
Each bracket-induced connection has the closed form
omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t)
(`morphism_target_connection`).  The class of psi relative to phi is the
chain (phi, psi) (`relative_mu`), the class of a morphism phi is the chain
(id, phi) (`mu_form`), the jet class of phi is `relative_mu` on (pi, phi),
with pi = `jet_prolong(phi.source).projection()` the jet projection
J1 A -> A, and the bi-characteristic form of phi1, phi2 is Delta of their two
(id, phi) connections.  Each function returns the form; callers name it."""

from __future__ import annotations

from .algebroid import AlgebroidChart, Morphism, pullback
from .connections import (
    FormMatrix,
    QuasiMetric,
    chain_connection,
    direct_sum,
    dual_connection,
    orthogonal_connection,
)
from .chern import bott_delta
from .expressions import ZERO, add
from .forms import AForm


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


def chain_pair(alpha: Morphism, beta: Morphism, g_mid: QuasiMetric | None = None,
               g_far: QuasiMetric | None = None) -> tuple[FormMatrix, FormMatrix]:
    """The pair (d0, d1) on B + C* of a chain A -alpha-> B -beta-> C, over A.

    d0 is the metric reference connection: orthogonal connections for g_mid
    on B and g_far on C (a `None` metric is the identity), the second one
    dualized.  d1 is `chain_connection(alpha, beta)`.
    """
    d1 = chain_connection(alpha, beta)
    g_mid = g_mid or QuasiMetric.identity(alpha.target.rank)
    g_far = g_far or QuasiMetric.identity(beta.target.rank)
    d0 = direct_sum(orthogonal_connection(alpha.source, g_mid),
                    dual_connection(orthogonal_connection(alpha.source, g_far)))
    return d0, d1


def relative_mu(phi: Morphism, psi: Morphism, h: int,
                g_mid: QuasiMetric | None = None,
                g_far: QuasiMetric | None = None) -> AForm:
    """Delta(d0, d1)c_{2h-1} of the chain (phi, psi): the characteristic form of
    psi: A' -> A'' modulo phi: A -> A', on A.  A degree beyond the bundle rank
    yields the zero form (not an error)."""
    return bott_delta(chain_pair(phi, psi, g_mid, g_far), 2 * h - 1)


def mu_form(phi: Morphism, h: int, g_source: QuasiMetric | None = None,
            g_target: QuasiMetric | None = None) -> AForm:
    """Secondary characteristic form of a base-preserving morphism: the chain
    (id, phi)."""
    return relative_mu(Morphism.identity(phi.source), phi, h, g_source, g_target)


def bi_characteristic(phi1: Morphism, phi2: Morphism, h: int) -> AForm:
    """Delta(nabla_phi1, nabla_phi2)c_{2h-1} of a parallel pair of morphisms,
    nabla_phi the connection of the chain (id, phi)."""
    if phi1.source is not phi2.source or phi1.target is not phi2.target:
        raise ValueError("bi-characteristic forms need a parallel pair of morphisms")
    identity = Morphism.identity(phi1.source)
    return bott_delta([chain_connection(identity, phi1),
                       chain_connection(identity, phi2)], 2 * h - 1)
