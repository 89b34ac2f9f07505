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
(id, phi) connections.  `ClassBuilder` builds each of these forms and what it is
made of once per builder, and a run of checks shares one builder; so do the
quasi-metrics, kernel frames and adapted frames that the run's probe-set
validation builds and its connections suite checks."""

from __future__ import annotations

from .algebroid import AlgebroidChart, Morphism, jet_prolong, pullback
from .connections import (
    FormMatrix,
    QuasiMetric,
    adapted_frame,
    direct_sum,
    dual_connection,
    kernel_frame_on_S,
    morphism_target_connection,
    orthogonal_connection,
    quasi_metric_on_S,
)
from .chern import bott_delta
from .expressions import ZERO, ScalarField, add
from .forms import AForm


class ClassBuilder:
    """The morphisms, connections and Delta forms of one run, each built once.

    Each is memoized on the identity of its inputs, which the builder keeps
    alive, so no id is reused while it is a key.  A `None` metric is the
    builder's one `identity_metric` of its rank.  Builders share nothing.
    """

    def __init__(self):
        self._built: dict[tuple, tuple] = {}

    def _once(self, kind, make, *args):
        key = (kind, *map(id, args))
        if key not in self._built:
            self._built[key] = (args, make(*args))
        return self._built[key][1]

    def identity_metric(self, rank: int) -> QuasiMetric:
        return self._once(f"identity_metric{rank}", lambda: QuasiMetric.identity(rank))

    def identity(self, chart: AlgebroidChart) -> Morphism:
        return self._once("identity", Morphism.identity, chart)

    def projection(self, chart: AlgebroidChart) -> Morphism:
        """The jet projection J1 A -> A; its source is the jet chart."""
        return self._once("projection", lambda c: jet_prolong(c).projection(), chart)

    def compose(self, outer: Morphism, inner: Morphism) -> Morphism:
        return self._once("compose", Morphism.compose, outer, inner)

    def target_connection(self, phi: Morphism) -> FormMatrix:
        return self._once("target", morphism_target_connection, phi)

    def orthogonal(self, chart: AlgebroidChart, g: QuasiMetric) -> FormMatrix:
        return self._once("orthogonal", orthogonal_connection, chart, g)

    def chain_connection(self, alpha: Morphism, beta: Morphism) -> FormMatrix:
        """The bracket-induced connection on B + C* of a chain A -alpha-> B -beta-> C:
        [alpha a, b] on B plus the dual of [beta alpha a, c] on C, over A."""
        def build(alpha, beta):
            composite = self.compose(beta, alpha)
            return direct_sum(self.target_connection(alpha),
                              dual_connection(self.target_connection(composite)))
        return self._once("chain", build, alpha, beta)

    def chain_pair(self, alpha: Morphism, beta: Morphism, g_mid: QuasiMetric | None = None,
                   g_far: QuasiMetric | None = None) -> tuple[FormMatrix, FormMatrix]:
        """The pair (d0, d1) on B + C* of a chain A -alpha-> B -beta-> C, over A:
        d0 the metric reference connection (orthogonal for g_mid on B, dual of
        orthogonal for g_far on C), d1 `chain_connection(alpha, beta)`."""
        d1 = self.chain_connection(alpha, beta)
        d0 = self._once("reference", lambda a, g, f: direct_sum(
            self.orthogonal(a, g), dual_connection(self.orthogonal(a, f))),
            alpha.source, g_mid or self.identity_metric(alpha.target.rank),
            g_far or self.identity_metric(beta.target.rank))
        return d0, d1

    def quasi_metrics(self, phi: Morphism) -> tuple[QuasiMetric, QuasiMetric]:
        """`quasi_metric_on_S(phi)`: g+ and g- on A + A'*."""
        return self._once("quasi_metrics", quasi_metric_on_S, phi)

    def kernel_frame(self, phi: Morphism, ker, coker) -> list[list[ScalarField]]:
        """`kernel_frame_on_S(phi, ker, coker)`."""
        return self._once("kernel_frame", kernel_frame_on_S, phi, ker, coker)

    def adapted_frame(self, g: QuasiMetric, frame, points):
        """`adapted_frame(g, frame, points)`, once per g, frame and probe rows (by value)."""
        return self._once(("adapted", points.shape, points.tobytes()),
                          lambda g, frame: adapted_frame(g, frame, points), g, frame)

    def delta(self, connections, h: int) -> AForm:
        """`bott_delta(connections, h)`."""
        return self._once(f"delta{h}", lambda *conns: bott_delta(conns, h), *connections)

    def relative_mu(self, phi: Morphism, psi: Morphism, h: int, g_mid: QuasiMetric | None = None,
                    g_far: QuasiMetric | None = None) -> AForm:
        """Delta(d0, d1)c_{2h-1} of the chain (phi, psi): the characteristic form of
        psi: A' -> A'' modulo phi: A -> A', on A.  A degree beyond the bundle rank
        yields the zero form (not an error)."""
        return self.delta(self.chain_pair(phi, psi, g_mid, g_far), 2 * h - 1)

    def bi_characteristic(self, phi1: Morphism, phi2: Morphism, h: int) -> AForm:
        """Delta(nabla_phi1, nabla_phi2)c_{2h-1} of a parallel pair of morphisms,
        nabla_phi the connection of the chain (id, phi)."""
        if phi1.source is not phi2.source or phi1.target is not phi2.target:
            raise ValueError("bi-characteristic forms need a parallel pair of morphisms")
        identity = self.identity(phi1.source)
        return self.delta([self.chain_connection(identity, phi1),
                           self.chain_connection(identity, phi2)], 2 * h - 1)


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


def mu_form(phi: Morphism, h: int, g_source: QuasiMetric | None = None,
            g_target: QuasiMetric | None = None,
            builder: ClassBuilder | None = None) -> AForm:
    """Secondary characteristic form of a base-preserving morphism: the chain
    (id, phi), on `builder` or a fresh one."""
    builder = builder or ClassBuilder()
    return builder.relative_mu(builder.identity(phi.source), phi, h, g_source, g_target)

