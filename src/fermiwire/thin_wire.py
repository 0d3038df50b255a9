"""Quasi-1D wire reduction: the particle-count inequality and its regimes.

For a wire so thin that the momentum measure collapses to d^3p = sigma dp,
the fermionic particle count per particle reads

    R = (nu sigma / h^3) integral n(p) dp  ~  nu sigma z / lambda^3,

and self-consistency demands R > 1.  With a vanishing cross-section the
inequality fails, which is the contradiction the classifier turns into a
regime label.  sigma is kept dimensionless as sigma_tilde = sigma
(lambda/h)^2, which reproduces the displayed bound exactly.  The label reads
sigma_tilde only through R >= 1, so _regimes decides a state for every sigma_tilde.

number_integral_quasi1d, the quadrature that checks the closed forms, runs
in pure Python: quad_checked hands occupation's rule all of a rule's nodes at
once, laid out once per run of calls on one panel edge set: the MB integrals
and every FD one at ln z <= 0 share _panel_edges, so verify's 14 such
quadratures in a row reuse one layout.
"""

import math
from collections import namedtuple
from enum import Enum

from .errors import DomainError, _Checked, _NORMAL_MIN, _positive, _real
from .gas_statistics import ThermalState, _occupations, _solve_pair
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    _linspace,
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


class WireGeometry(_Checked, namedtuple("WireGeometry", "sigma_tilde")):
    """Dimensionless transverse cross-section, positive and finite."""

    __slots__ = ()

    def _check(self):
        return (_positive("sigma_tilde", self.sigma_tilde),)


class Regime(Enum):
    BOSONIZED = "Bosonized"
    BOSONIZED_CLASSICAL = "BosonizedClassical"
    DEGENERATE_SUB_FERMI = "DegenerateSubFermi"
    BOLTZMANN_CONVERGED = "BoltzmannConverged"


class RegimeThresholds(_Checked, namedtuple("RegimeThresholds", "z_degenerate deg_classical",
                                            defaults=(100.0, 0.01))):
    """Classifier cut points; the defaults quantify the qualitative << and >>."""

    __slots__ = ()

    def _check(self):
        z_degenerate, deg_classical = _real(self.z_degenerate), _real(self.deg_classical)
        if (z_degenerate is None or deg_classical is None
                or not z_degenerate > 1.0 > deg_classical > 0.0):
            raise DomainError(
                "thresholds must satisfy z_degenerate > 1 > deg_classical > 0"
            )
        return z_degenerate, deg_classical


RegimeReport = namedtuple("RegimeReport", "rhs_approx rhs_exact inequality_holds regime")


def rhs_eq3(state, wire):
    """Approximate count bound nu*sigma*z/lambda^3 = sigma_tilde*z/(lambda^3/nu), ratio first."""
    return wire.sigma_tilde * (state.z / state.degeneracy)


# Integration window above the Fermi edge: the integrand is below e^-60 past it.
_TAIL_OFFSET = 60.0


def _panel_edges(stat, log_z):
    """Edges in u = sqrt(t) of the quadrature panels for F_nu(e^log_z), ascending.

    FD: one panel up to 40 below the Fermi edge t = ln z, then 25 panels
    even in t up to max(ln z, 0) + 60; the integrand past that is below
    e^-60 and is dropped.  MB: the FD edges at ln z = 0.  BE: 16 equal
    panels over [0, sqrt(60)], plus edges at sqrt(alpha) 2^k (alpha = -ln z)
    that resolve the peak of width sqrt(alpha) at the origin.
    """
    if stat is Statistics.BOSE_EINSTEIN:
        edges = set(_linspace(0.0, math.sqrt(_TAIL_OFFSET), 17))
        u = math.sqrt(-log_z)
        while u < math.sqrt(_TAIL_OFFSET):
            edges.add(u)
            u *= 2.0
        return sorted(edges)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        log_z = 0.0
    t_lo = max(log_z - 40.0, 0.0)
    span = max(log_z, 0.0) + _TAIL_OFFSET - t_lo
    return [0.0] + [math.sqrt(t_lo + span * g) for g in _linspace(0.0, 1.0, 26)]


def number_integral_quasi1d(stat, state, wire):
    """Exact per-particle quasi-1D count (nu sigma/h^3) integral n(p) dp.

    Evaluated by fixed-panel Gauss-Legendre quadrature (quad_checked) in the
    scaled momentum q = p lambda/h, where beta eps = pi q^2, on the panels
    of _panel_edges mapped to q = u/sqrt(pi).  It shares no branch with
    quantum_integral's closed forms, so it is an independent reference for
    the R = sigma_tilde F_{1/2}(z)/degeneracy that classify_regime uses.
    """
    log_z = state.log_z
    if stat is Statistics.BOSE_EINSTEIN and not (log_z < 0.0 and 1.0 / -log_z < math.inf):
        raise DomainError("Bose wire integral needs z < 1 and 1/ln z finite, got ln z = %r" % log_z)
    if stat is Statistics.MAXWELL_BOLTZMANN and state.z == math.inf:
        # the integrand e^(ln z - pi q^2) and the count sigma_tilde z/degeneracy overflow
        raise DomainError("Boltzmann wire integral needs z within double range, got ln z = %r"
                          % (log_z,))
    root_pi = math.sqrt(math.pi)
    value, _ = quad_checked(lambda qs: _occupations(stat, [math.pi * q * q - log_z for q in qs]),
                            [u / root_pi for u in _panel_edges(stat, log_z)])
    return wire.sigma_tilde * (2.0 * value / state.degeneracy)


def classify_regime(params, wire, thresholds=None, stat=Statistics.FERMI_DIRAC):
    """Classify the gas of params in the wire under statistics stat: solve
    its state, which also gives F_{1/2}(z), and hand both to classify_wire."""
    log_z, _, lam, degeneracy, f_half = _solve_pair(*params, stat)
    return classify_wire(ThermalState(log_z, lam, degeneracy), f_half, wire, thresholds)


def classify_wire(state, f_half, wire, thresholds=None):
    """Regime of a solved state at one cross-section, given f_half = F_{1/2}(z):
    rhs_approx from rhs_eq3, rhs_exact = sigma_tilde (F_{1/2}(z)/degeneracy),
    each ratio formed first, and the regime _regimes gives at rhs_approx.
    DomainError where a count is 0 or subnormal (see _lost_count)."""
    rhs_approx = rhs_eq3(state, wire)
    rhs_exact = wire.sigma_tilde * (f_half / state.degeneracy)
    if rhs_approx < _NORMAL_MIN or rhs_exact < _NORMAL_MIN:
        raise _lost_count(rhs_approx, rhs_exact)
    below, above = _regimes(state.z, state.degeneracy,
                            RegimeThresholds() if thresholds is None else thresholds)
    return RegimeReport(rhs_approx, rhs_exact, rhs_approx > 1.0,
                        above if rhs_approx >= 1.0 else below)


def _lost_count(rhs_approx, rhs_exact):
    """The DomainError of a count pair of which one fell below the normal doubles,
    where it has lost bits; a count past double range reads inf, as z does."""
    name, value = (("rhs_approx", rhs_approx) if rhs_approx < _NORMAL_MIN
                   else ("rhs_exact", rhs_exact))
    return DomainError("%s must be a positive normal double or inf, got %r" % (name, value))


def _regimes(z, degeneracy, thresholds):
    """(regime at rhs_approx < 1, regime at rhs_approx >= 1) of a solved state's
    z and degeneracy.  The decision cascade, honouring the boundary-tie priority
    DegenerateSubFermi > BoltzmannConverged > BosonizedClassical > Bosonized,
    reads sigma_tilde only through rhs_approx >= 1 in step 2, so one call
    decides every cross-section of the state:

      1. z >= z_degenerate               -> DEGENERATE_SUB_FERMI
      2. degeneracy <= deg_classical and
         rhs_approx >= 1                 -> BOLTZMANN_CONVERGED
      3. degeneracy <= deg_classical     -> BOSONIZED_CLASSICAL
      4. otherwise                       -> BOSONIZED
    """
    if z >= thresholds.z_degenerate:
        return Regime.DEGENERATE_SUB_FERMI, Regime.DEGENERATE_SUB_FERMI
    if degeneracy <= thresholds.deg_classical:
        return Regime.BOSONIZED_CLASSICAL, Regime.BOLTZMANN_CONVERGED
    return Regime.BOSONIZED, Regime.BOSONIZED


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
