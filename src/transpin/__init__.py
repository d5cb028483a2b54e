"""Transverse spin, momentum and effective-mass observables of guided and
evanescent electromagnetic modes.

The package evaluates rectangular-waveguide TM/TE phasor fields and planar
evanescent surface waves, forms their time-averaged spin / energy / momentum
densities, integrates them into quantized volume totals, derives the
effective-mass picture of the guided dispersion, and exposes the spin-1
matrix algebra (helicity bases, six-component field spinors, boost/rotation
generators) that organizes those observables.

``python -m transpin --help`` (or the ``transpin`` console script) exposes
the spin-map exporter, the observable reports, and the self-verification
catalogue.
"""

from .constants import NATURAL, SI, PhysicalConstants
from .effective_mass import (FourMomentumSplit, GuidedMassReport,
                             SurfaceMassReport, dispersion_residual,
                             four_momentum_split, guided_mass_report,
                             klein_gordon_stencil_residual, minkowski_dot,
                             phase_split_residual, surface_mass_report,
                             surface_rest_mass_density)
from .errors import (ConfigurationError, DomainError, InvalidModeError,
                     RepresentationError, ResolutionError,
                     UnsupportedModeError)
from .modes import (FieldPhasor, GuidedModeSpec, ModeFamily, ModeIndex,
                    SurfaceWaveSpec, WaveguideGeometry, axial_wavenumber,
                    cutoff_frequency, guided_field_phasor, maxwell_residuals,
                    surface_field_phasor)
from .observables import (GuidedObservables, SurfaceObservables,
                          amplitude_for_quanta, balance_integral,
                          ellipticity_surface, evaluate, integrate_guided,
                          integrate_surface, quantized_transverse_spin_guided,
                          quantized_transverse_spin_surface, report)
from .spin import (PotentialPhasor, SpinDensityPair, analytic_spin_guided,
                   analytic_spin_surface, energy_density, momentum_density,
                   spin_densities, spin_map, time_average_oracle,
                   vector_potentials)
from .spin_algebra import (HelicityEigensystem, PolarizationCoefficients,
                           SixSpinor, SpinMatrixSet, build_spin_matrices,
                           commutator_table, decompose_polarization,
                           generator_closure_rank, helicity_eigensystem,
                           load_reference_commutator_table, to_chiral,
                           to_standard)
from .verify import CheckResult, check_names, run_checks

__version__ = "0.1.0"

__all__ = [
    "PhysicalConstants", "SI", "NATURAL",
    "ConfigurationError", "DomainError", "InvalidModeError",
    "RepresentationError", "ResolutionError", "UnsupportedModeError",
    "ModeFamily", "ModeIndex", "WaveguideGeometry", "GuidedModeSpec",
    "SurfaceWaveSpec", "FieldPhasor", "cutoff_frequency", "axial_wavenumber",
    "guided_field_phasor", "surface_field_phasor", "maxwell_residuals",
    "PotentialPhasor", "SpinDensityPair",
    "vector_potentials", "spin_densities", "energy_density",
    "momentum_density", "analytic_spin_guided",
    "analytic_spin_surface", "spin_map", "time_average_oracle",
    "GuidedObservables", "SurfaceObservables", "integrate_guided",
    "integrate_surface", "amplitude_for_quanta", "quantized_transverse_spin_guided",
    "quantized_transverse_spin_surface", "ellipticity_surface",
    "balance_integral", "evaluate", "report",
    "GuidedMassReport", "SurfaceMassReport", "FourMomentumSplit",
    "guided_mass_report", "surface_mass_report", "surface_rest_mass_density",
    "dispersion_residual",
    "klein_gordon_stencil_residual", "four_momentum_split", "minkowski_dot",
    "phase_split_residual",
    "SpinMatrixSet", "SixSpinor", "HelicityEigensystem",
    "PolarizationCoefficients", "build_spin_matrices", "helicity_eigensystem",
    "decompose_polarization", "to_chiral", "to_standard", "commutator_table",
    "load_reference_commutator_table", "generator_closure_rank",
    "CheckResult", "run_checks", "check_names",
    "__version__",
]
