"""Vacuum field observables near a harmonically bound, quantum movable mirror.

A massless 1D scalar field confined by a perfectly reflecting wall of
finite mass acquires a dressed vacuum: the wall's zero-point motion
admixes virtual photon pairs into the ground state.  This package
computes the resulting observables, discretely (cavity mode sums) and in
the continuum limit, and validates them against a truncated
exact-diagonalization oracle:

- ground-state energy shift, dressed-state amplitudes and the virtual
  photon spectrum (`vacmirror.perturb`),
- local profiles of the field energy density and field fluctuations in a
  single cavity (`vacmirror.single_cavity`),
- cross-cavity squared-field anticorrelations for two cavities separated
  by the movable wall (`vacmirror.two_cavity`),
- the single-wall continuum limit with two independent quadrature paths,
  the far-field law of its integral and the paper's closed-form law
  (`vacmirror.continuum`),
- exact diagonalization of the truncated model (`vacmirror.oracle`).

Natural units hbar = c = 1 by default; SI values can be supplied via
`PhysicalParams`.

Importing the package loads numpy only: the oracle imports scipy inside
the functions that use it, so every other command runs without it.
"""

from .errors import (CapacityError, ConvergenceError, DegenerateModeSetError,
                     ParameterError, UsageError)
from .model import (CavityTag, CutoffSpec, ModeSet, PhysicalParams,
                    coupling_matrix_element)
from .perturb import (DressedAmplitudes, PhotonSpectrum, dressed_amplitudes,
                      energy_shift, photon_spectrum)
from .single_cavity import (ObservableProfile, default_grid, delta_energy_density,
                            delta_phi_squared, em_field_fluctuations)
from .two_cavity import (CorrelationGrid, phi_phi_cross_correlation,
                         squared_field_correlation_discrete)
from .continuum import (ContinuumPoint, ProbePoint, asymptotic_correlation,
                        continuum_correlation, far_field_correlation,
                        scaling_probe)
from .oracle import (OracleModel, OracleResult, TruncationSpec, build_hamiltonian,
                     converged_ground_energy, expectation, ground_state,
                     perturbative_state)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams", "CutoffSpec", "ModeSet", "CavityTag",
    "coupling_matrix_element",
    "DressedAmplitudes", "PhotonSpectrum", "energy_shift",
    "dressed_amplitudes", "photon_spectrum",
    "ObservableProfile", "default_grid", "delta_energy_density",
    "em_field_fluctuations", "delta_phi_squared",
    "CorrelationGrid", "squared_field_correlation_discrete",
    "phi_phi_cross_correlation",
    "ContinuumPoint", "ProbePoint", "asymptotic_correlation",
    "continuum_correlation", "far_field_correlation", "scaling_probe",
    "TruncationSpec", "OracleModel", "OracleResult", "build_hamiltonian",
    "ground_state", "expectation", "perturbative_state",
    "converged_ground_energy",
    "ParameterError", "UsageError", "DegenerateModeSetError",
    "ConvergenceError", "CapacityError",
    "__version__",
]
