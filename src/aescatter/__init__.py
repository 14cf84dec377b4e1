"""Acoustic scattering by an elastic obstacle in two dimensions.

Forward solver: Helmholtz-decomposed elastic interior coupled to the
acoustic exterior through single-layer potentials, discretized by a
spectrally accurate Nystrom method on starlike boundary curves.
Inverse solvers: Newton-type shape reconstruction from phased far-field
data, and from phaseless (modulus-only) data with a known reference ball.
"""

from .forward import (
    DensitySet,
    FarField,
    IncidentWave,
    MaterialParams,
    boundary_residual,
    far_field,
    gamma_far,
    jump_check,
    near_field,
    solve_forward,
)
from .geometry import (
    NodeGrid,
    StarlikeCurve,
    jet,
    make_apple,
    make_circle,
    make_fourier,
    make_peanut,
    translate,
)
from .inverse_phased import (
    BoundaryUpdate,
    InverseConfig,
    IterationRecord,
    add_noise_phased,
    boundary_error,
    frechet_columns,
    run_phased,
    tikhonov_step,
    trapezoid_norm,
)
from .inverse_phaseless import (
    PhaselessData,
    ReferenceBallSpec,
    add_noise_phaseless,
    exact_phaseless_jacobian,
    phaseless_columns,
    run_phaseless,
)
from .multibody import (
    TwoBodyDensities,
    far_field_sum,
    solve_two_body_forward,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryUpdate",
    "DensitySet",
    "FarField",
    "IncidentWave",
    "InverseConfig",
    "IterationRecord",
    "MaterialParams",
    "NodeGrid",
    "PhaselessData",
    "ReferenceBallSpec",
    "StarlikeCurve",
    "TwoBodyDensities",
    "add_noise_phased",
    "add_noise_phaseless",
    "boundary_error",
    "boundary_residual",
    "exact_phaseless_jacobian",
    "far_field",
    "far_field_sum",
    "frechet_columns",
    "gamma_far",
    "jet",
    "jump_check",
    "make_apple",
    "make_circle",
    "make_fourier",
    "make_peanut",
    "near_field",
    "phaseless_columns",
    "run_phased",
    "run_phaseless",
    "solve_forward",
    "solve_two_body_forward",
    "tikhonov_step",
    "translate",
    "trapezoid_norm",
    "__version__",
]
