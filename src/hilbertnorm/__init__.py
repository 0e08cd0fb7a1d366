"""Verified numerics for the integral form of the Hilbert matrix operator on
analytic function spaces of the unit disk.

The package computes the operator's action in both series and integral form,
evaluates the norms and seminorms of the relevant spaces, and verifies a
family of norm bounds and unboundedness witnesses end to end, with every
quadrature and supremum search carrying an explicit error estimate.  The
``hilbertnorm`` command line runs the verification suite and emits the
underlying curves and tables for plotting.
"""

__version__ = "0.1.0"

import types as _types

from .catalog import (
    DEFAULT_TRUNCATION,
    CoefficientSeries,
    Kind,
    TestFunction,
    derivative_series,
    eval,
    eval_series,
    taylor_coeffs,
)
from .hilbertop import (
    apply_integral,
    apply_matrix,
    derivative_at,
    derivative_at_pathshifted,
)
from .norms import (
    bloch_norm,
    bloch_seminorm,
    bloch_seminorm_details,
    hardy_inequality_gap,
    hardy_norm,
    hardy_norm_details,
    i_c,
)
from .quadrature import (
    QuadratureError,
    QuadResult,
    SingularitySpec,
    integrate,
    integrate_halfline,
    integrate_singular,
)
from .specfun import beta, gamma, log_weight, reflection_residual
from .supsearch import (
    AT_BOUNDARY_LIMIT,
    AT_ZERO,
    INTERIOR,
    DivergenceError,
    SupResult,
    pointwise,
    supremum_halfline,
    supremum_unit,
)
from .verification import (
    CHECK_NAMES,
    CheckReport,
    Fact,
    alpha_bound_values,
    alpha_lower_bound,
    alpha_unboundedness_witness,
    alpha_upper_bound,
    compute_A,
    compute_B,
    h1_lower_bound,
    h1_upper_bound_internals,
    hinf_norm,
    norm_bloch_to_blochlog,
    representation_agreement,
    run_all,
)

# Every public name imported above, once.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
