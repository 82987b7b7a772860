"""Ricci-Bourguignon flow on Heisenberg and quaternion nilpotent Lie groups.

Curvature from structure constants, diagonal flow integration with exact
solutions and conserved quantities, j(Z)-spectral classification, and
geodesic period / length-spectrum computations.
"""

__version__ = "0.1.0"

from .algebra import (
    Family,
    LieAlgebraSpec,
    MetricState,
    basis_vector,
    bracket,
    build_group,
    inner,
    norm,
)
from .curvature import (
    ConnectionCoeffs,
    CurvatureReport,
    adjoint_coeffs,
    christoffel,
    curvature_report,
    literal_discrepancy,
    ricci_general,
    ricci_specialized_diag,
    riemann,
    scalar_curvature,
    scalar_specialized,
    sigma_heisenberg,
    sigma_quaternion,
)
from .errors import (
    DegenerateMetricError,
    InvalidParameterError,
    NilflowError,
    NotApplicableError,
    OutOfDomainError,
    SingularExponentError,
)
from .flow import (
    ClosedFormCoeffs,
    FlowParams,
    TerminationReason,
    Trajectory,
    center_growth_bound,
    closed_form,
    closed_form_coeffs,
    conserved_quantities,
    integrate,
    invariant_drift,
    rb_rhs_general,
    rhs_diagonal,
)
from .joperator import (
    SpectralReport,
    Verdict,
    classify,
    j_matrix,
    spectrum,
    theoretical_p_factor,
    verify_p8,
)
from .spectrum import (  # noqa: I001  (must come before the `spectrum` rebind below)
    GeodesicData,
    PeriodSet,
    PeriodSource,
    central_periods,
    geodesic_point,
    length_scaling_factors,
    length_spectrum_witness,
    make_geodesic_data,
    noncentral_period,
)

# importing the .spectrum submodule shadows the function of the same name;
# rebind so `nilflow.spectrum` is the spectral-report function
from .joperator import spectrum  # noqa: E402,F811
