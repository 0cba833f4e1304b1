"""Adiabatic holonomic gates in the four-level tripod system.

Build a control path, propagate the driven system, and compare the extracted
dark-plane gate with the closed-form rotation by the loop's solid angle;
study how parametric noise and timing mismatch degrade it.
"""

from .experiments import (
    MCResult,
    PowerLawFit,
    ScalingResult,
    convergence_study,
    fit_power_law,
    gate_distance,
    mc_delta,
    scaling_study,
    timing_mismatch_error,
    timing_study,
)
from .holonomy import (
    LogicalGate,
    SolidAngleReport,
    ThickBoundaryReport,
    canonical_angle,
    connection,
    delta_omega_first_order,
    delta_variance_analytic,
    gate_from_connection,
    ideal_gate,
    solid_angle,
    thick_boundary_area,
)
from .noise import (
    NoiseRealization,
    NoiseSpec,
    predicted_exponent,
    sample_realization,
    scaling_params,
)
from .paths import (
    ControlPath,
    Harmonics,
    Profile,
    arc_length,
    fourier_path,
    latitude_loop,
    lune_path,
    perturb,
)
from .propagator import (
    ExtractedGate,
    PropagationSettings,
    dark_basis_matrix,
    evolve,
    evolve_lab,
    evolve_moving,
    extract_logical_gate,
)
from .tripod import (
    Frame,
    SpectralDecomp,
    d_rotation,
    frame,
    hamiltonian,
    j_generators,
    r_rotation,
    rotation_generator,
    spectral,
)

__version__ = "0.1.0"
