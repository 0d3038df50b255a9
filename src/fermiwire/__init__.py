"""Quantum statistics of ideal gases squeezed into quasi-1D wires.

The package provides Fermi-Dirac / Bose-Einstein / Maxwell-Boltzmann
integrals of half-integer order, fugacity inversion, a thin-wire regime
classifier, the matching 1D chain and Debye-phonon scales, and a discrete
box-spectrum oracle for validating every continuum formula.
"""

from .box_oracle import (
    BoxSpectrum,
    ContinuumComparison,
    compare_continuum,
    direct_number_sum,
    enumerate_levels,
    truncation_bound,
)
from .constants import PhysicalConstants, UnitSystem, constants_for
from .errors import (
    CondensationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ResourceLimitError,
    SingularityError,
)
from .gas_statistics import (
    GasParameters,
    ThermalState,
    ZETA_THREE_HALVES,
    fermi_energy,
    fermi_momentum,
    fermi_temperature,
    occupation,
    solve_fugacity,
    solve_log_fugacity,
    solve_thermal_state,
)
from .one_dim_chain import (
    CLOSURE_RATIO,
    ChainParameters,
    ClosureResult,
    closure_temperature,
    energy_density_1d,
    fermi_velocity,
)
from .phonon_map import (
    CorrespondenceReport,
    PhononMedium,
    correspondence_check,
    debye_momentum,
    debye_omega_max,
    debye_wavelength,
    phonon_max_energy,
)
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    quantum_integral,
    thermal_wavelength,
)
from .thin_wire import (
    Regime,
    RegimeReport,
    RegimeThresholds,
    WireGeometry,
    classify_regime,
    classify_wire,
    number_integral_quasi1d,
    rhs_eq3,
    sigma_critical,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpectrum",
    "CLOSURE_RATIO",
    "ChainParameters",
    "ClosureResult",
    "CondensationError",
    "ConfigError",
    "ContinuumComparison",
    "ConvergenceError",
    "CorrespondenceReport",
    "DomainError",
    "GasParameters",
    "PhononMedium",
    "PhysicalConstants",
    "QuantumIntegralOrder",
    "Regime",
    "RegimeReport",
    "RegimeThresholds",
    "ResourceLimitError",
    "SingularityError",
    "Statistics",
    "ThermalState",
    "UnitSystem",
    "WireGeometry",
    "ZETA_THREE_HALVES",
    "classify_regime",
    "classify_wire",
    "closure_temperature",
    "compare_continuum",
    "constants_for",
    "correspondence_check",
    "debye_momentum",
    "debye_omega_max",
    "debye_wavelength",
    "direct_number_sum",
    "energy_density_1d",
    "enumerate_levels",
    "fermi_energy",
    "fermi_momentum",
    "fermi_temperature",
    "fermi_velocity",
    "number_integral_quasi1d",
    "occupation",
    "phonon_max_energy",
    "quantum_integral",
    "rhs_eq3",
    "sigma_critical",
    "solve_fugacity",
    "solve_log_fugacity",
    "solve_thermal_state",
    "thermal_wavelength",
    "truncation_bound",
]
