"""Quasi-1D wire reduction: the particle-count inequality and its regimes.

For a wire so thin that the momentum measure collapses to d^3p = sigma dp,
the fermionic particle count per particle reads

    R = (nu sigma / h^3) integral n(p) dp  ~  nu sigma z / lambda^3,

and self-consistency demands R > 1.  With a vanishing cross-section the
inequality fails, which is the contradiction the classifier turns into a
regime label.  sigma is kept dimensionless as sigma_tilde = sigma
(lambda/h)^2, which reproduces the displayed bound exactly.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .gas_statistics import solve_thermal_state
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    mean_occupation,
    panel_edges,
    quad_checked,
    quantum_integral,
)

__all__ = [
    "WireGeometry",
    "Regime",
    "RegimeThresholds",
    "RegimeReport",
    "rhs_eq3",
    "number_integral_quasi1d",
    "classify_regime",
    "classify_wire",
    "sigma_critical",
]


@dataclass(frozen=True)
class WireGeometry:
    """Dimensionless transverse cross-section."""

    sigma_tilde: float

    def __post_init__(self):
        if not self.sigma_tilde > 0.0:
            raise DomainError("sigma_tilde must be positive, got %r" % (self.sigma_tilde,))


class Regime(Enum):
    BOSONIZED = "Bosonized"
    BOSONIZED_CLASSICAL = "BosonizedClassical"
    DEGENERATE_SUB_FERMI = "DegenerateSubFermi"
    BOLTZMANN_CONVERGED = "BoltzmannConverged"


@dataclass(frozen=True)
class RegimeThresholds:
    """Classifier cut points; the defaults quantify the qualitative << and >>."""

    z_degenerate: float = 100.0
    deg_classical: float = 0.01

    def __post_init__(self):
        if not (self.z_degenerate > 1.0 > self.deg_classical > 0.0):
            raise DomainError(
                "thresholds must satisfy z_degenerate > 1 > deg_classical > 0"
            )


@dataclass(frozen=True)
class RegimeReport:
    rhs_approx: float
    rhs_exact: float
    inequality_holds: bool
    regime: Regime


def rhs_eq3(state, wire):
    """Approximate count bound nu*sigma*z/lambda^3 = sigma_tilde*z/(lambda^3/nu)."""
    return wire.sigma_tilde * state.z / state.degeneracy


def number_integral_quasi1d(stat, state, wire):
    """Exact per-particle quasi-1D count (nu sigma/h^3) integral n(p) dp.

    Evaluated by fixed-panel Gauss-Legendre quadrature (quad_checked) in the
    scaled momentum q = p lambda/h, where beta eps = pi q^2, on panel_edges
    mapped to q = u/sqrt(pi).  It takes neither the series nor the Bose
    alpha-expansion, so it is an independent reference for the closed form
    R = sigma_tilde F_{1/2}(z)/degeneracy that classify_regime uses.
    """
    log_z = state.log_z
    if stat is Statistics.BOSE_EINSTEIN and not log_z < 0.0:
        raise DomainError("Bose wire integral needs z < 1, got ln z = %r" % (log_z,))
    edges = panel_edges(stat, log_z) / math.sqrt(math.pi)
    value, _ = quad_checked(
        lambda q: mean_occupation(stat, math.pi * q * q - log_z),
        edges[0], edges[-1], edges[1:-1],
    )
    return 2.0 * value * wire.sigma_tilde / state.degeneracy


def classify_regime(params, wire, thresholds=None, stat=Statistics.FERMI_DIRAC):
    """Classify the gas of params in the wire under statistics stat.

    Solves the state (solve_thermal_state), evaluates F_{1/2}(z) in the same
    statistics and hands both to classify_wire.
    """
    state = solve_thermal_state(params, stat)
    f_half = quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, log_z=state.log_z)
    return classify_wire(state, f_half, wire, thresholds)


def classify_wire(state, f_half, wire, thresholds=None):
    """Regime of a solved state at one cross-section, given f_half = F_{1/2}(z).

    Both counts are linear in sigma_tilde: rhs_approx = sigma_tilde z/degeneracy
    and rhs_exact = sigma_tilde F_{1/2}(z)/degeneracy.  The decision cascade,
    honouring the boundary-tie priority DegenerateSubFermi >
    BoltzmannConverged > BosonizedClassical > Bosonized:

      1. z >= z_degenerate               -> DEGENERATE_SUB_FERMI
      2. degeneracy <= deg_classical and
         rhs_approx >= 1                 -> BOLTZMANN_CONVERGED
      3. degeneracy <= deg_classical     -> BOSONIZED_CLASSICAL
      4. otherwise                       -> BOSONIZED
    """
    if thresholds is None:
        thresholds = RegimeThresholds()

    rhs_approx = rhs_eq3(state, wire)
    rhs_exact = wire.sigma_tilde * f_half / state.degeneracy

    if state.z >= thresholds.z_degenerate:
        regime = Regime.DEGENERATE_SUB_FERMI
    elif state.degeneracy <= thresholds.deg_classical and rhs_approx >= 1.0:
        regime = Regime.BOLTZMANN_CONVERGED
    elif state.degeneracy <= thresholds.deg_classical:
        regime = Regime.BOSONIZED_CLASSICAL
    else:
        regime = Regime.BOSONIZED

    return RegimeReport(
        rhs_approx=rhs_approx,
        rhs_exact=rhs_exact,
        inequality_holds=rhs_approx > 1.0,
        regime=regime,
    )


def sigma_critical(state, stat=None):
    """Cross-section at which the count bound crosses 1.

    With the approximate bound this is lambda^3/(nu z); passing a
    Statistics instead uses the exact integral, e.g. the Fermi-Dirac value
    lambda^3/(nu f_{1/2}(z)).
    """
    if stat is None:
        return state.degeneracy / state.z
    denom = quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, log_z=state.log_z)
    return state.degeneracy / denom
