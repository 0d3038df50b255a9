"""Occupation numbers, fugacity inversion, and the bulk Fermi scale.

The density constraint of the uniform gas is lambda^3/nu = F_{3/2}(z) with F
the statistics-appropriate occupation integral; this module inverts that
relation and exposes the zero-temperature Fermi momentum/energy built from
the same spinless mode counting, eps_F = (hbar^2/2m)(6 pi^2/nu)^(2/3).  Its
occupation rule maps a list of w = beta eps - ln z to a list.

Note the counting convention: no spin degeneracy factor is applied, so the
Fermi energy carries (6 pi^2/nu)^(2/3) rather than the electron-gas
textbook (3 pi^2 n)^(2/3).  See README for the comparison.
"""

import math
from collections import namedtuple

from ._kernel_tables import BE_INVERSE_ROWS, FD_INVERSE_LOG_TOP, FD_INVERSE_ROWS, FD_INVERSE_U_TOP
from .constants import UnitSystem, constants_for
from .errors import (CondensationError, ConvergenceError, DomainError, SingularityError, _Checked,
                     _finite, _normal, _positive, _real)
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    _pow_or_inf,
    _thermal_wavelength,
    density_and_slope,
    exp_or_inf,
    ldexp_or_inf,
    quantum_integral,
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
# the last double w whose e^w (and e^w - 1) is finite: math.exp overflows at the next one
_W_MAX = 709.782712893384


class GasParameters(_Checked, namedtuple("GasParameters", "m T nu unit_system",
                                         defaults=(UnitSystem.REDUCED,))):
    """Thermodynamic input state: mass, temperature, specific volume V/N."""

    __slots__ = ()

    def _check(self):
        return (_positive("m", self.m), _positive("T", self.T), _positive("nu", self.nu),
                self.unit_system)

    @property
    def beta(self):
        """Inverse thermal energy 1/(k_B T); derived, never stored.  DomainError
        where k_B T is not a normal double."""
        return 1.0 / _normal("k_B T", constants_for(self.unit_system).k_B * self.T)


class ThermalState(_Checked, namedtuple("ThermalState", "log_z lam degeneracy")):
    """Solved equilibrium state: ln z, wavelength, degeneracy lambda^3/nu."""

    __slots__ = ()

    def _check(self):
        return (_finite("log_z", self.log_z), _positive("lam", self.lam),
                _positive("degeneracy", self.degeneracy))

    @property
    def z(self):
        """Fugacity e^log_z; math.inf once that overflows a double, as it
        does deep in the degenerate Fermi regime."""
        return exp_or_inf(self.log_z)


def occupation(stat, z, beta, eps):
    """Mean occupation 1/(e^w + 1) (FD), 1/(e^w - 1) (BE) or e^-w (MB) of a
    level at energy eps, w = beta*eps - ln z, for finite z > 0, beta >= 0 and
    eps >= 0, checked in that order.  The FD value lies in [0, 1); once e^w
    overflows a double it is e^-w, and the BE value 0.  SingularityError: BE
    with z e^(-beta eps) >= 1, where the occupation diverges (or is negative)."""
    z = _positive("z", z)
    beta, eps = _non_negative("beta", beta), _non_negative("eps", eps)
    return _occupations(stat, (beta * eps - math.log(z),))[0]


def _non_negative(name, value):
    """float(value) if value is a number with 0 <= value < inf; DomainError naming name
    otherwise.  A float, as beta*eps of two ints past double range would raise."""
    x = _real(value)
    if x is not None and 0.0 <= x < math.inf:
        return float(x)
    raise DomainError("%s must be a non-negative finite number, got %r" % (name, value))


def _occupations(stat, ws):
    """[occupation at w for w in ws], each w = beta*eps - ln z formed by the
    caller: the one rule behind occupation, the box sums and the wire
    quadrature.  One comparison with _W_MAX per w finds where e^w overflows:
    there the FD value is e^-w and the BE value 0."""
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return [math.exp(-w) for w in ws]
    if stat is Statistics.FERMI_DIRAC:
        return [1.0 / (1.0 + math.exp(w)) if w <= _W_MAX else math.exp(-w) for w in ws]
    if stat is Statistics.BOSE_EINSTEIN:
        if min(ws) <= 0.0:
            raise SingularityError("Bose occupation pole: beta*eps - ln z = %g <= 0" % min(ws))
        return [1.0 / math.expm1(w) if w <= _W_MAX else 0.0 for w in ws]
    raise DomainError("stat must be a Statistics member, got %r" % (stat,))


def _solve_log(stat, x, lo, hi, y):
    """(ln z, F_{1/2}(z)), ln z in [lo, hi] solving F_{3/2}(e^y) = x by safeguarded Newton from y.

    F_{3/2}(e^y) rises with y, its slope is F_{1/2}(e^y) and its curvature
    F_{-1/2}(e^y) > 0, so Newton converges from either side; a step that
    leaves the bracket falls back to bisection.  Each step takes F_{3/2}
    and its slope from one density_and_slope call; the last call is at the
    returned ln z, so its slope is F_{1/2} there.
    """
    for _ in range(_MAX_ITER):
        density, slope = density_and_slope(stat, y)
        f = density - x
        if abs(f) <= _REL_TOL * x:
            return y, slope
        if f > 0.0:
            hi = y
        else:
            lo = y
        y_next = y - f / slope
        if not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        if y_next == y:
            return y, slope
        y = y_next
    raise ConvergenceError("fugacity iteration did not converge at degeneracy %r"
                           " in the ln z bracket [%r, %r]" % (x, lo, hi))


def solve_log_fugacity(stat, degeneracy):
    """ln z solving F_{3/2}(z) = degeneracy; exact far into degeneracy."""
    return _solve_log_fugacity(stat, _positive("degeneracy", degeneracy))[0]


def _chebyshev(row, t):
    """sum_k row[k] T_k(t), by Clenshaw's recurrence."""
    b1, b2, t2 = 0.0, 0.0, t + t
    for c in reversed(row):
        b1, b2 = t2 * b1 - b2 + c, b1
    return b1 - t * b2


def _solve_log_fugacity(stat, x):
    """(ln z, F_{1/2}(z)) solving F_{3/2}(z) = x, a degeneracy the caller has
    checked; F_{1/2} comes from the solver's last walk, and for MB it is z."""
    log_x = math.log(x)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return log_x, exp_or_inf(log_x)
    # Closed-form brackets, so no search loop:
    #   FD: f_{3/2}(z) <= z (alternating series) and, for y > 0,
    #       f_{3/2}(e^y) >= C y^(3/2) with C = SOMMERFELD_COEFF (the smeared
    #       Fermi edge only adds to the Sommerfeld term), so
    #       ln x <= y <= u = (x/C)^(2/3).
    #   BE: z <= g_{3/2}(z) <= zeta(3/2) z for z <= 1, so
    #       ln(x/zeta) <= y <= min(ln x, 0).
    # The seed, clipped into the bracket, is a Chebyshev row S of the inverse
    # (tests/make_kernel_tables.py) whose F_{3/2} is within a few 1e-15 of x,
    # so Newton's first walk ends the solve: y = ln x + S(2x - 1) below x = 1;
    # above it y = -s^2 with s = (zeta - x) S(t) for BE, and for FD y = u + S_i
    # on three pieces of ln x up to f_{3/2}(e^65), then y = u S(2 (u_65/u)^2 - 1).
    if stat is Statistics.BOSE_EINSTEIN:
        if x > ZETA_THREE_HALVES:
            raise CondensationError("degeneracy %.17g exceeds zeta(3/2) = %.16g: condensed"
                                    " phase" % (x, ZETA_THREE_HALVES))
        if x == ZETA_THREE_HALVES:
            return 0.0, math.inf
        lo, hi, rows = math.log(x / ZETA_THREE_HALVES), min(log_x, 0.0), BE_INVERSE_ROWS
    elif stat is Statistics.FERMI_DIRAC:  # u as x^(2/3)/C^(2/3): x/C overflows above ~1.35e308
        lo, hi, rows = log_x, x ** (2.0 / 3.0) / SOMMERFELD_COEFF ** (2.0 / 3.0), FD_INVERSE_ROWS
    else:
        raise DomainError("stat must be a Statistics member, got %r" % (stat,))
    if x < 1.0:
        seed = log_x + _chebyshev(rows[0], 2.0 * x - 1.0)
    elif stat is Statistics.BOSE_EINSTEIN:
        t = 2.0 * (x - 1.0) / (ZETA_THREE_HALVES - 1.0) - 1.0
        seed = -((ZETA_THREE_HALVES - x) * _chebyshev(rows[1], t)) ** 2
    elif log_x < FD_INVERSE_LOG_TOP:
        piece, t = divmod(3.0 * log_x / FD_INVERSE_LOG_TOP, 1.0)
        seed = hi + _chebyshev(rows[1 + int(piece)], 2.0 * t - 1.0)
    else:
        seed = hi * _chebyshev(rows[4], 2.0 * (FD_INVERSE_U_TOP / hi) ** 2 - 1.0)
    return _solve_log(stat, x, lo, hi, min(max(seed, lo), hi))


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
    """ThermalState for GasParameters and stat; lambda^3/nu must be a normal double."""
    log_z, _, lam, degeneracy, _ = _solve_pair(*params, stat)
    return ThermalState(log_z, lam, degeneracy)


def _solve_pair(m, T, nu, unit_system, stat):
    """(ln z, z, lambda, lambda^3/nu, F_{1/2}(z)) of an m, T and nu already checked,
    in GasParameters' field order, from one solve; lambda^3/nu must be a normal double."""
    lam = _thermal_wavelength(m, T, unit_system)
    degeneracy = _normal("lambda^3/nu at T = %r, nu = %r", _pow_or_inf(lam, 3) / nu, T, nu)
    log_z, f_half = _solve_log_fugacity(stat, degeneracy)
    return log_z, exp_or_inf(log_z), lam, degeneracy, f_half


def _fermi_wavenumber(nu):
    """k = (6 pi^2/nu)^(1/3), the Fermi and the Debye wavenumber: the cube root is taken
    of 6 pi^2 over nu's mantissa times 2^r, where nu's exponent is 3q + r, and scales
    back by 2^-q.  A normal double for every positive double nu."""
    f, e = math.frexp(nu)
    q, r = divmod(e, 3)
    return ldexp_or_inf((6.0 * math.pi ** 2 / math.ldexp(f, r)) ** (1.0 / 3.0), -q)


def _kinetic(p, m, k_B=1.0):
    """p^2/(2m), over k_B too where one is given, formed at the mantissas of p and m;
    math.inf past double range, a subnormal or 0 below the normal doubles."""
    (p, e_p), (m, e_m) = math.frexp(p), math.frexp(m)
    return ldexp_or_inf(p * p / (2.0 * m) / k_B, 2 * e_p - e_m)


def fermi_momentum(params):
    """Fermi momentum p_F = hbar (6 pi^2 / nu)^(1/3) (spinless counting)."""
    return constants_for(params.unit_system).hbar * _fermi_wavenumber(params.nu)


def fermi_energy(params):
    """Fermi energy eps_F = p_F^2 / (2m), computed from fermi_momentum."""
    return _kinetic(fermi_momentum(params), params.m)


def fermi_temperature(params):
    """Fermi temperature T_F = eps_F / k_B = p_F^2 / (2m k_B)."""
    return _kinetic(fermi_momentum(params), params.m, constants_for(params.unit_system).k_B)
