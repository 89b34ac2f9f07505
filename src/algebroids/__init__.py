"""Exterior calculus on Lie algebroid charts and characteristic class forms."""

from .expressions import ScalarField, parse_expression
from .forms import AForm
from .algebroid import (
    AlgebroidChart,
    Morphism,
    check_morphism,
    d_A,
    jet_prolong,
    pullback,
    verify_axioms,
)
from .connections import (
    FormMatrix,
    QuasiMetric,
    bracket_connection,
    connection_from_coefficients,
    curvature,
    direct_sum,
    dual_connection,
    k_flatness_check,
    metric_compat_check,
    orthogonal_connection,
    quasi_metric_on_S,
)
from .chern import (
    bott_delta,
    chern_polarized,
    coboundary_check,
)
from .classes import ClassBuilder, modular_form, modular_form_morphism, mu_form
from .fixtures import Fixture, FixtureError, load_fixture, resolve_fixture

__version__ = "0.2.1"
