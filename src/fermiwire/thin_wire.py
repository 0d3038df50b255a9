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
from collections import namedtuple
from enum import Enum

from .errors import DomainError, _positive
from .gas_statistics import _occupations, solve_thermal_state
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
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


class WireGeometry(namedtuple("WireGeometry", "sigma_tilde")):
    """Dimensionless transverse cross-section, positive and finite."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _positive("sigma_tilde", self.sigma_tilde)
        return self


class Regime(Enum):
    BOSONIZED = "Bosonized"
    BOSONIZED_CLASSICAL = "BosonizedClassical"
    DEGENERATE_SUB_FERMI = "DegenerateSubFermi"
    BOLTZMANN_CONVERGED = "BoltzmannConverged"


class RegimeThresholds(namedtuple("RegimeThresholds", "z_degenerate deg_classical",
                                  defaults=(100.0, 0.01))):
    """Classifier cut points; the defaults quantify the qualitative << and >>."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.z_degenerate > 1.0 > self.deg_classical > 0.0):
            raise DomainError(
                "thresholds must satisfy z_degenerate > 1 > deg_classical > 0"
            )
        return self


RegimeReport = namedtuple("RegimeReport", "rhs_approx rhs_exact inequality_holds regime")


def rhs_eq3(state, wire):
    """Approximate count bound nu*sigma*z/lambda^3 = sigma_tilde*z/(lambda^3/nu)."""
    return wire.sigma_tilde * state.z / state.degeneracy


# Integration window above the Fermi edge: the integrand is below e^-60 past it.
_TAIL_OFFSET = 60.0


def _panel_edges(stat, log_z):
    """Edges in u = sqrt(t) of the quadrature panels for F_nu(e^log_z).

    FD: one panel up to 40 below the Fermi edge t = ln z, then 25 panels
    even in t up to max(ln z, 0) + 60; the integrand past that is below
    e^-60 and is dropped.  MB: the FD edges at ln z = 0.  BE: 16 equal
    panels over [0, sqrt(60)], plus edges at sqrt(alpha) 2^k (alpha = -ln z)
    that resolve the peak of width sqrt(alpha) at the origin.
    """
    import numpy as np

    if stat is Statistics.BOSE_EINSTEIN:
        even = np.linspace(0.0, math.sqrt(_TAIL_OFFSET), 17)
        graded = []
        u = math.sqrt(-log_z)
        while u < even[-1]:
            graded.append(u)
            u *= 2.0
        return np.union1d(even, graded)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        log_z = 0.0
    t_lo = max(log_z - 40.0, 0.0)
    t = t_lo + (max(log_z, 0.0) + _TAIL_OFFSET - t_lo) * np.linspace(0.0, 1.0, 26)
    return np.sqrt(np.concatenate(([0.0], t)))


def number_integral_quasi1d(stat, state, wire):
    """Exact per-particle quasi-1D count (nu sigma/h^3) integral n(p) dp.

    Evaluated by fixed-panel Gauss-Legendre quadrature (quad_checked) in the
    scaled momentum q = p lambda/h, where beta eps = pi q^2, on the panels
    of _panel_edges mapped to q = u/sqrt(pi).  It shares no branch with
    quantum_integral's closed forms, so it is an independent reference for
    the R = sigma_tilde F_{1/2}(z)/degeneracy that classify_regime uses.
    """
    log_z = state.log_z
    if stat is Statistics.BOSE_EINSTEIN and not log_z < 0.0:
        raise DomainError("Bose wire integral needs z < 1, got ln z = %r" % (log_z,))
    if stat is Statistics.MAXWELL_BOLTZMANN and state.z == math.inf:
        # the integrand e^(ln z - pi q^2) and the count sigma_tilde z/degeneracy overflow
        raise DomainError("Boltzmann wire integral needs z within double range, got ln z = %r"
                          % (log_z,))
    edges = _panel_edges(stat, log_z) / math.sqrt(math.pi)
    value, _ = quad_checked(
        lambda q: _occupations(stat, math.pi * q * q - log_z),
        edges[0], edges[-1], edges[1:-1],
    )
    return 2.0 * value * wire.sigma_tilde / state.degeneracy


def _state_and_f_half(params, stat):
    """The solved state of params and F_{1/2}(z): the part of a classification free of the wire."""
    state = solve_thermal_state(params, stat)
    return state, quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, log_z=state.log_z)


def classify_regime(params, wire, thresholds=None, stat=Statistics.FERMI_DIRAC):
    """Classify the gas of params in the wire under statistics stat: solve
    its state and F_{1/2}(z) and hand both to classify_wire."""
    return classify_wire(*_state_and_f_half(params, stat), wire, thresholds)


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
