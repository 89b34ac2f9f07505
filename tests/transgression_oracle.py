"""Reference route for the two-connection difference form Delta(c0, c1)c_h.

This is the generic simplex formula specialized to k = 1: c_h of the
curvature of the affine link as one connection on the product chart,
integrated over the parameter interval.  `algebroids.chern.bott_delta`
computes the same form from the closed link-curvature formula
h * integral of c_h(alpha, Omega_tau, ...); tests require the two to agree.
"""

from __future__ import annotations

from typing import Sequence

from algebroids.algebroid import AForm
from algebroids.chern import chern_polarized, fiber_integrate
from algebroids.connections import AConnection, ConnectionFamily, curvature


def bott_delta_via_fiber_integration(connections: Sequence[AConnection], h: int,
                                     nodes: int | None = None) -> AForm:
    """The k = 1 case computed from the generic simplex formula (for cross-checks)."""
    if len(connections) != 2:
        raise ValueError("this route is the two-connection specialization")
    family = ConnectionFamily.affine_link(*connections)
    full = family.full_connection()
    omega_tilde = curvature(full)
    integrand = chern_polarized([omega_tilde] * h)
    sign = -1.0  # (-1)^{floor((k+1)/2)} with k = 1
    return fiber_integrate(integrand, 1, family.base_chart, nodes=nodes).scale(sign)
