"""Occupation numbers, fugacity inversion, and the bulk Fermi scale.

The density constraint of the uniform gas is lambda^3/nu = F_{3/2}(z) with
F the statistics-appropriate occupation integral; this module inverts that
relation and exposes the zero-temperature Fermi momentum/energy built from
the same spinless mode counting, eps_F = (hbar^2/2m)(6 pi^2/nu)^(2/3).

Note the counting convention: no spin degeneracy factor is applied, so the
Fermi energy carries (6 pi^2/nu)^(2/3) rather than the electron-gas
textbook (3 pi^2 n)^(2/3).  See README for the comparison.
"""

import math
from collections import namedtuple
from functools import cached_property

from .constants import UnitSystem, constants_for
from .errors import CondensationError, ConvergenceError, DomainError, SingularityError, _positive
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    density_and_slope,
    exp_or_inf,
    quantum_integral,
    thermal_wavelength,
)

__all__ = [
    "GasParameters",
    "ThermalState",
    "occupation",
    "solve_fugacity",
    "solve_log_fugacity",
    "solve_thermal_state",
    "fermi_momentum",
    "fermi_energy",
    "fermi_temperature",
    "ZETA_THREE_HALVES",
]

# zeta(3/2): the Bose degeneracy parameter cannot exceed this.
ZETA_THREE_HALVES = 2.612375348685488
# Sommerfeld leading coefficient 4/(3 sqrt(pi)): f_{3/2}(z) ~ it * (ln z)^(3/2).
SOMMERFELD_COEFF = 0.7522527780636751

_REL_TOL = 1e-12
_MAX_ITER = 80


class GasParameters(namedtuple("GasParameters", "m T nu unit_system",
                               defaults=(UnitSystem.REDUCED,))):
    """Thermodynamic input state: mass, temperature, specific volume V/N."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("m", "T", "nu"):
            _positive(name, getattr(self, name))
        return self

    @property
    def beta(self):
        """Inverse thermal energy 1/(k_B T); derived, never stored."""
        return 1.0 / (constants_for(self.unit_system).k_B * self.T)


class ThermalState(namedtuple("ThermalState", "log_z lam degeneracy")):
    """Solved equilibrium state: ln z, wavelength, degeneracy lambda^3/nu.

    No __slots__, so that z can be cached in __dict__; __setattr__ forbids the rest."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.log_z):
            raise DomainError("log_z must be finite, got %r" % (self.log_z,))
        for name in ("lam", "degeneracy"):
            _positive(name, getattr(self, name))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to ThermalState.%s" % name)

    @cached_property
    def z(self):
        """Fugacity e^log_z; math.inf once that overflows a double, as it
        does deep in the degenerate Fermi regime.  Computed on first read;
        equality, hash and repr see the fields alone."""
        return exp_or_inf(self.log_z)


def occupation(stat, z, beta, eps):
    """Mean occupation number of a level at energy eps.

    Parameters
    ----------
    stat : Statistics
    z : float
        Fugacity, positive and finite.
    beta : float
        Inverse thermal energy, non-negative and finite.
    eps : float
        Level energy, non-negative and finite.

    Returns
    -------
    float
        1/(e^w + 1), 1/(e^w - 1) or e^(-w) with w = beta*eps - ln z; the
        Fermi-Dirac value lies in [0, 1).  Once e^w overflows a double the
        Fermi-Dirac value is e^(-w) and the Bose-Einstein value 0, as in the
        array rule _occupations.

    Raises
    ------
    SingularityError
        For Bose-Einstein statistics with z*e^(-beta*eps) >= 1, where the
        occupation diverges (or is negative).
    """
    _positive("z", z)
    for name, value in (("beta", beta), ("eps", eps)):
        if not 0.0 <= value < math.inf:
            raise DomainError("%s must be a non-negative finite number, got %r" % (name, value))
    w = beta * eps - math.log(z)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return math.exp(-w)
    e = exp_or_inf(w)
    if stat is Statistics.FERMI_DIRAC:
        return 1.0 / (1.0 + e) if e < math.inf else math.exp(-w)
    if stat is Statistics.BOSE_EINSTEIN:
        if w <= 0.0:
            raise SingularityError(
                "Bose occupation pole: beta*eps - ln z = %g <= 0" % w
            )
        return 1.0 / math.expm1(w) if e < math.inf else 0.0
    raise DomainError("stat must be a Statistics member, got %r" % (stat,))


def _occupations(stat, w, out=None):
    """Occupation at every w = beta*eps - ln z of a numpy array.

    The array form of occupation, for the box sums and the wire quadrature.
    w is overwritten, and the result goes to out (a new array if None), so a
    loop that passes its own buffers allocates nothing.  Nothing overflows:
    FD goes through e^-|w|, and a Bose level whose expm1(w) overflows reads
    0.  BE needs w > 0; callers check it once.
    """
    import numpy as np

    out = np.empty_like(w) if out is None else out
    if stat is Statistics.FERMI_DIRAC:
        # where(w > 0, e, 1) / (1 + e) with e = exp(-|w|), step by step in
        # out and w, so each element has the bits of that expression;
        # e <= 1, so max(e, w <= 0) is the numerator
        e = np.exp(np.negative(np.abs(w, out=out), out=out), out=out)
        numerator = np.maximum(e, np.less_equal(w, 0.0, out=w), out=w)
        return np.divide(numerator, np.add(e, 1.0, out=out), out=out)
    if stat is Statistics.BOSE_EINSTEIN:
        with np.errstate(over="ignore"):
            return np.divide(1.0, np.expm1(w, out=out), out=out)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return np.exp(np.negative(w, out=w), out=out)
    raise DomainError("stat must be a Statistics member, got %r" % (stat,))


def _solve_log(stat, x, lo, hi, y):
    """ln z in [lo, hi] solving F_{3/2}(e^y) = x by safeguarded Newton from y.

    F_{3/2}(e^y) rises with y, its slope is F_{1/2}(e^y) and its curvature
    F_{-1/2}(e^y) > 0, so Newton converges from either side; a step that
    leaves the bracket falls back to bisection.  Each step takes F_{3/2}
    and its slope from one density_and_slope call.
    """
    for _ in range(_MAX_ITER):
        density, slope = density_and_slope(stat, y)
        f = density - x
        if abs(f) <= _REL_TOL * x:
            return y
        if f > 0.0:
            hi = y
        else:
            lo = y
        y_next = y - f / slope
        if not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        if y_next == y:
            return y
        y = y_next
    raise ConvergenceError("fugacity iteration did not converge at degeneracy %r"
                           " in the ln z bracket [%r, %r]" % (x, lo, hi))


def solve_log_fugacity(stat, degeneracy):
    """ln z solving F_{3/2}(z) = degeneracy; exact far into degeneracy."""
    x = _positive("degeneracy", degeneracy)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return math.log(x)
    # Closed-form brackets, so no search loop:
    #   FD: f_{3/2}(z) <= z (alternating series) and, for y > 0,
    #       f_{3/2}(e^y) >= C y^(3/2) with C = SOMMERFELD_COEFF (the smeared
    #       Fermi edge only adds to the Sommerfeld term), so
    #       ln x <= y <= (x/C)^(2/3).
    #   BE: z <= g_{3/2}(z) <= zeta(3/2) z for z <= 1, so
    #       ln(x/zeta) <= y <= min(ln x, 0).
    # The BE seed inverts g_{3/2}(e^-a) ~ zeta(3/2) - 2 sqrt(pi a) and is
    # clipped to ln x when x is small.
    if stat is Statistics.FERMI_DIRAC:
        hi = (x / SOMMERFELD_COEFF) ** (2.0 / 3.0)
        if math.isinf(hi):  # x/C overflows above ~1.35e308
            hi = x ** (2.0 / 3.0) / SOMMERFELD_COEFF ** (2.0 / 3.0)
        lo = math.log(x)
        return _solve_log(stat, x, lo, hi, lo if x <= 0.7 else hi)
    if stat is Statistics.BOSE_EINSTEIN:
        if x > ZETA_THREE_HALVES:
            raise CondensationError(
                "degeneracy %.17g exceeds zeta(3/2) = %.16g: condensed phase"
                % (x, ZETA_THREE_HALVES)
            )
        if x == ZETA_THREE_HALVES:
            return 0.0
        lo = math.log(x / ZETA_THREE_HALVES)
        hi = min(math.log(x), 0.0)
        seed = -(((ZETA_THREE_HALVES - x) / (2.0 * math.sqrt(math.pi))) ** 2)
        return _solve_log(stat, x, lo, hi, min(max(seed, lo), hi))
    raise DomainError("stat must be a Statistics member, got %r" % (stat,))


def solve_fugacity(stat, degeneracy):
    """Fugacity z solving F_{3/2}(z) = degeneracy.

    Parameters
    ----------
    stat : Statistics
    degeneracy : float
        Target lambda^3/nu, > 0.  Bose-Einstein requires
        degeneracy <= zeta(3/2) = 2.612375348685488.

    Returns
    -------
    float
        The fugacity, satisfying |F_{3/2}(z) - degeneracy| <= 1e-10 *
        degeneracy, except within a few 1e-7 of the Bose limit zeta(3/2),
        where no double next to 1 resolves the root (errors up to ~1e-8),
        and math.inf for deeply degenerate Fermi states whose z overflows a
        double.  solve_log_fugacity meets the bound in both cases; use it there.

    Raises
    ------
    CondensationError
        Bose-Einstein degeneracy above zeta(3/2).
    ConvergenceError
        Iteration failure; the message names the degeneracy and the ln z bracket.
    """
    y = solve_log_fugacity(stat, degeneracy)
    z = exp_or_inf(y)
    if stat is Statistics.BOSE_EINSTEIN and -y < 1e-8:
        # One ulp of z moves g_{3/2} by ~sqrt(pi/alpha)*eps near z = 1;
        # return whichever neighbouring float has the smallest residual.
        candidates = (math.nextafter(z, 0.0), z, math.nextafter(z, 2.0))
        z = min(
            (c for c in candidates if c <= 1.0),
            key=lambda c: abs(
                quantum_integral(stat, QuantumIntegralOrder.THREE_HALVES, c)
                - degeneracy
            ),
        )
    return z


def solve_thermal_state(params, stat=Statistics.FERMI_DIRAC):
    """Build the ThermalState for GasParameters under the given statistics."""
    lam = thermal_wavelength(params.m, params.T, params.unit_system)
    try:
        degeneracy = lam ** 3 / params.nu
    except OverflowError:
        degeneracy = math.inf
    if not math.isfinite(degeneracy):
        raise DomainError("lambda^3/nu overflows at T = %r, nu = %r" % (params.T, params.nu))
    return ThermalState(solve_log_fugacity(stat, degeneracy), lam, degeneracy)


def fermi_momentum(params):
    """Fermi momentum p_F = hbar (6 pi^2 / nu)^(1/3) (spinless counting)."""
    consts = constants_for(params.unit_system)
    return consts.hbar * (6.0 * math.pi ** 2 / params.nu) ** (1.0 / 3.0)


def fermi_energy(params):
    """Fermi energy eps_F = p_F^2 / (2m), computed from fermi_momentum."""
    p_f = fermi_momentum(params)
    return p_f * p_f / (2.0 * params.m)


def fermi_temperature(params):
    """Fermi temperature T_F = eps_F / k_B."""
    return fermi_energy(params) / constants_for(params.unit_system).k_B
