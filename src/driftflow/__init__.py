"""driftflow: modified Ricci flow meets the drift Laplacian, at desk scale.

Simulates the coupled metric/weight evolution on flat model geometries,
computes the evolving spectrum of the drift Laplacian, and checks the sharp
eigenvalue bound, the evolution identities, the sharpness example, and the
splitting rigidity numerically.
"""

from .comparison import (
    blowup_horizon,
    eigenvalue_bound,
    logistic_envelope,
)
from .errors import (
    AssemblyError,
    ConfigurationError,
    DegeneracyError,
    DomainError,
    DriftflowError,
    ExtinctionError,
    FlowBreakdownError,
    HorizonError,
    OracleError,
    OutOfRegimeError,
    SolverError,
    StabilityError,
    UsageError,
)
from .flow import (
    FlowTrajectory,
    RunRequest,
    commutator_residual,
    functional_residuals,
    gram_schmidt_frame,
    run_flow,
)
from .geometry import (
    ContinuumState,
    DiscreteWeightedManifold,
    discretize,
    evaluate_family,
    gaussian_line,
    product_family,
    round_circle_family,
    scaled_gaussian_family,
    weighted_circle,
)
from .oracles import (
    OracleReport,
    dense_spectrum,
    equality_ode_extrapolated,
    integrate_equality_ode,
    modal_propagator,
)
from .spectral import (
    QuadraticForms,
    SpectralResult,
    assemble_forms,
    bochner_sides,
    drift_divergence,
    drift_laplacian,
    hessian_norm_sq,
    lowest_eigenpairs,
)
from .splitting import (
    SplittingCertificate,
    SplittingHypothesisFailure,
    certificate_residuals,
    detect_splitting,
)

__version__ = "0.1.0"
