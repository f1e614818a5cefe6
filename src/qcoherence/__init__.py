"""Basis-independent coherence measures for finite-dimensional density
matrices and discretised infinite-dimensional states."""

from .basis_opt import (
    MaximizationResult,
    equalizing_basis,
    haar_unitary,
    maximize_mu,
    maximize_visibility,
    unitarity_defect,
)
from .bloch import BlochVector, bloch_norm, from_bloch, to_bloch
from .errors import (
    AllZeroError,
    CoherenceError,
    DegenerateDiagonalError,
    DimensionTooSmallError,
    EigenSolverFailure,
    EmptyStateError,
    GridMismatchError,
    GridTooCoarseError,
    InternalInvariantViolation,
    InvalidParameterError,
    InvalidRankError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotSquareError,
    NotUnitTraceError,
    ValidationError,
    WrongDimensionError,
)
from .infdim import (
    AngularCoherence,
    CvGrid,
    CvState,
    FockState,
    OamState,
    WignerSamples,
    build_cv_grid,
    coherent_fock,
    commutator_check,
    continuum_position_state,
    convert_representation,
    gaussian_cv,
    geometric_oam,
    oam_mode_superposition,
    oam_to_angle,
    p_inf_angle,
    p_inf_cv,
    p_inf_fock,
    p_inf_oam,
    p_inf_wigner,
    thermal_cv,
    thermal_fock,
    wigner_from_cv,
)
from .measures import (
    CoherenceReport,
    PurePartDecomposition,
    center_of_mass_distance,
    coherence_report,
    frobenius_distance_measure,
    interference_2d,
    max_route_discrepancy,
    mu_n,
    p2_determinant_form,
    p_n,
    pure_part_bound_check,
    pure_part_decomposition,
    visibility,
    visibility_f,
)
from .state import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    Spectrum,
    purity,
    random_state,
    spectral_decompose,
    validate_density,
)

__version__ = "0.1.0"
