"""Quantum occupation integrals and the thermal de Broglie wavelength.

F_nu(z) = integral_0^inf t^(nu-1) dt / (Gamma(nu) (e^t/z +- 1)), nu in {1/2,
3/2, 5/2}, is f_nu for Fermi-Dirac (+) and g_nu for Bose-Einstein (-); the
Maxwell-Boltzmann value is z.  Every branch is a pure-Python closed form that
walks once for the pair (F_nu, F_{nu-1}), the value and its slope in y = ln z
(d/dy F_nu(e^y) = F_{nu-1}(e^y)): the power series for z <= 1/e; for FD,
Taylor series in y < 65 from mpmath tables of f_{5/2-k}(e^c), then the
Sommerfeld series; for BE, Robinson's expansion in alpha = -ln z < 1.  No
branch's stop rule reads the order, so F_{1/2} is the same sum whether it
comes first or second.  quad_checked, the wire quadrature's rule, calls its
integrand once per tabled Gauss-Legendre rule, with a node tuple laid out once
per run of calls on one edge set; no function here uses numpy.
"""

import math
from bisect import bisect
from enum import Enum
from functools import lru_cache
from itertools import count, islice
from operator import mul

from ._kernel_tables import (FD_CENTRES, FD_EDGES, FD_ROWS, GAUSS_LEGENDRE_8, GAUSS_LEGENDRE_16,
                             TWO_ETA_EVEN, ZETA_HALF_INTEGERS as _ZETA_HALF_INTEGERS)
from .constants import UnitSystem, constants_for
from .errors import ConvergenceError, DomainError, _finite, _positive, _real

__all__ = ["Statistics", "QuantumIntegralOrder", "quantum_integral", "thermal_wavelength"]

# Power series at or below this fugacity (ln z <= -1), both statistics.
SERIES_FUGACITY_MAX = math.exp(-1.0)
# BE alpha-expansion for 0 <= -ln z < 1; past 1 it cancels against Gamma(1-nu) a^(nu-1).
BOSE_EXPANSION_ALPHA = 1.0
# FD Taylor tables below this ln z, the Sommerfeld series from it on.
SOMMERFELD_LOG_Z = 65.0
# (k^nu, k^(nu-1)) for k = 2..43, the power series' longest run (at ln z = -1)
_K_POWERS = {nu: tuple((k ** nu, k ** (nu - 1.0)) for k in range(2, 44)) for nu in (2.5, 1.5, 0.5)}
# Sommerfeld terms k = 0..9: (2 eta(2k), Gamma(nu+1-2k), Gamma(nu-2k))
_SOMMERFELD_TERMS = {nu: tuple((two_eta, math.gamma(nu + 1.0 - 2 * k), math.gamma(nu - 2 * k))
                               for k, two_eta in enumerate(TWO_ETA_EVEN))
                     for nu in (2.5, 1.5, 0.5)}
# alpha-expansion: ((zeta(nu-k), zeta(nu-1-k), k+1) for k >= 2, zeta(nu), zeta(nu-1),
# zeta(nu-2), Gamma(1-nu), Gamma(2-nu))
_BE_TERMS = {nu: (tuple(zip(zeta[2:], zeta[3:], count(3.0))), *zeta[:3],
                  math.gamma(1.0 - nu), math.gamma(2.0 - nu))
             for nu, zeta in zip((2.5, 1.5, 0.5), (_ZETA_HALF_INTEGERS[j:] for j in range(3)))}


class Statistics(Enum):
    """Occupation statistics selector."""

    FERMI_DIRAC = "fd"
    BOSE_EINSTEIN = "be"
    MAXWELL_BOLTZMANN = "mb"


class QuantumIntegralOrder(Enum):
    """Supported half-integer orders of the occupation integrals."""

    ONE_HALF = 0.5
    THREE_HALVES = 1.5
    FIVE_HALVES = 2.5


def exp_or_inf(x):
    """e^x, or math.inf once that overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ldexp_or_inf(x, e):
    """x 2^e, or math.inf once that overflows a double: the scale-back of every
    dimensional formula, formed at its inputs' frexp mantissas, as a power of two
    changes no rounding (below the normal doubles it rounds once more)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _linspace(a, b, points):
    """points >= 2 values a + i (b - a)/(points - 1), the last one b exactly:
    np.linspace(a, b, points) bit for bit."""
    step = (b - a) / (points - 1)
    return [a + i * step for i in range(points - 1)] + [b]


@lru_cache(maxsize=1)
def _layout(edges):
    """((nodes, weights) of the 16-node rule, then of the 8-node rule) on the
    panels between consecutive edges, a tuple: each node c + half*x and each
    weight half*w, panel by panel.  Only the last edge set's layout is kept:
    callers repeat one edge set in runs, and a layout is about 40 KB."""
    panels = [(0.5 * (b + a), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    return tuple((tuple(c + half * x for c, half in panels for x in nodes),
                  tuple(half * w for _, half in panels for w in weights))
                 for nodes, weights in (GAUSS_LEGENDRE_16, GAUSS_LEGENDRE_8))


def quad_checked(func, edges):
    """(value, error_estimate) of a composite 16-node Gauss-Legendre rule on
    the panels between consecutive edges; the estimate is the gap to the 8-node
    rule, and ConvergenceError is raised past 1e-6 of the value.  func maps the
    node tuple of a rule to as many values, one call per rule; terms go through
    math.fsum.  Calls in a row on one edge set reuse its laid-out nodes and weights."""
    value, coarse = (math.fsum(map(mul, weights, func(nodes)))
                     for nodes, weights in _layout(tuple(edges)))
    estimate = abs(value - coarse)
    if not estimate <= 1e-6 * abs(value):
        raise ConvergenceError("quadrature did not converge: 16- and 8-node rules differ by "
                               "%g on %g" % (estimate, value), error_estimate=estimate)
    return value, estimate


def _series(nu, y, z, sign):
    # z + sum_{k>=2} sign^(k+1) z^k / k^mu for mu = nu and nu - 1 from one
    # z^k: FD alternates (sign -1), BE does not.  k runs to the first z^k <=
    # 1e-18 z, a count set by ln z alone (ln 1e18 < 41.45); adding the terms
    # before z keeps the sum within an ulp or two
    w = sign * z
    wk, value, slope = w, 0.0, 0.0
    for p, q in islice(_K_POWERS[nu], math.ceil(41.45 / -y)):
        wk *= w
        value += wk / p
        slope += wk / q
    return z + sign * value, z + sign * slope


def _fd_taylor(nu, y):
    """(f_nu(e^y), f_{nu-1}(e^y)) by Horner over the table row nearest y: 46
    terms, since 0.4^46 < 1e-18 and |y - c| <= 0.4 of the radius there."""
    i = bisect(FD_EDGES, y)
    row, h = FD_ROWS[i][int(2.5 - nu):], y - FD_CENTRES[i]
    value, slope = row[45], row[46]
    for n in range(45, 0, -1):
        value = row[n - 1] + value * h / n
        slope = row[n] + slope * h / n
    return value, slope


def _pow_or_inf(x, p):
    """x ** p, or math.inf once that leaves double range (or divides by 0)."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _sommerfeld(nu, y):
    # sum_k 2 eta(2k) y^(mu-2k)/Gamma(mu+1-2k) for mu = nu and nu - 1: ten
    # terms, as at y = 65 the tenth of F_{-1/2} is 4e-18 of the first; y^mu as
    # (y^(mu/2))^2, as it overflows first
    t, power, value, slope = 1.0 / (y * y), 1.0, 0.0, 0.0
    for two_eta, gamma_value, gamma_slope in _SOMMERFELD_TERMS[nu]:
        value += two_eta * power / gamma_value
        slope += two_eta * power / gamma_slope
        power *= t
    root, root_next = _pow_or_inf(y, 0.5 * nu), _pow_or_inf(y, 0.5 * (nu - 1.0))
    return root * (root * value), root_next * (root_next * slope)


def _be_expansion(nu, alpha):
    # Gamma(1-mu) alpha^(mu-1) + sum_k zeta(mu-k) (-alpha)^k/k! for mu = nu and
    # nu - 1 from one (-alpha)^k/k!.  The terms fall like (alpha/2pi)^k; the stop
    # on alpha^k/k! < 1e-18 comes by k = 20 at alpha < 1, the table's last for
    # nu = 1/2.  The terms from k = 2 are summed first, then k = 1, k = 0 and the
    # lead, which cancel most as alpha nears 1; a lead past double range, or at z = 1, is inf
    terms, zeta0, zeta1, zeta2, gamma_value, gamma_slope = _BE_TERMS[nu]
    factor, value, slope = 0.5 * alpha * alpha, 0.0, 0.0
    for a, b, k_next in terms:
        value += a * factor
        slope += b * factor
        if abs(factor) < 1e-18:
            break
        factor *= -alpha / k_next
    lead = gamma_value * _pow_or_inf(alpha, nu - 1.0)
    lead_next = gamma_slope * _pow_or_inf(alpha, nu - 2.0)
    return (lead + (zeta0 + (zeta1 * -alpha + value)),
            lead_next + (zeta1 + (zeta2 * -alpha + slope)))


def _pair(stat, nu, y, z):
    # (F_nu, F_{nu-1}) at z = e^y for FD or BE, with y finite (y <= 0 for BE)
    if z <= SERIES_FUGACITY_MAX:
        return _series(nu, y, z, -1.0 if stat is Statistics.FERMI_DIRAC else 1.0)
    if stat is Statistics.BOSE_EINSTEIN:
        return _be_expansion(nu, -y)
    if y < SOMMERFELD_LOG_Z:
        return _fd_taylor(nu, y)
    return _sommerfeld(nu, y)


def density_and_slope(stat, log_z):
    """(F_{3/2}, F_{1/2}) at e^log_z for FD or BE, the density and its slope
    in ln z, as quantum_integral gives them; log_z is not checked."""
    return _pair(stat, 1.5, log_z, exp_or_inf(log_z))


def quantum_integral(stat, order, z=None, *, log_z=None):
    """f_order(z) (FERMI_DIRAC), g_order(z) (BOSE_EINSTEIN) or z (MAXWELL_BOLTZMANN).

    order is 1/2, 3/2 or 5/2; pass z > 0 (<= 1 for BE) or log_z = ln z, which
    FD needs once z overflows.  Relative accuracy is 1e-10 or better over ln z
    in [-28, 1e4] (FD) and [-28, 0] (BE).  math.inf stands for g_{1/2}(1), the
    MB identity once z overflows and an FD value past double range (ln z above
    ~3.9e205 for F_{3/2}, ~1.6e123 for F_{5/2}).  DomainError: z <= 0, z or
    log_z not a finite real number, both or neither given, an unknown order
    or stat, BE z > 1.
    """
    try:
        nu = QuantumIntegralOrder(order if isinstance(order, QuantumIntegralOrder)
                                  else _real(order)).value
    except ValueError:
        raise DomainError("order must be one of 1/2, 3/2, 5/2; got %r" % (order,)) from None
    if not isinstance(stat, Statistics):
        raise DomainError("stat must be a Statistics member, got %r" % (stat,))
    if (z is None) == (log_z is None):
        raise DomainError("pass exactly one of z or log_z")
    if log_z is None:
        z = _positive("z", z)
        x = math.log(z)
    else:
        x = _finite("ln z", log_z)
        z = exp_or_inf(x)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return z
    if stat is Statistics.BOSE_EINSTEIN and x > 0.0:
        raise DomainError("Bose-Einstein integral needs z <= 1, got ln z = %g" % x)
    return _pair(stat, nu, x, z)[0]


def thermal_wavelength(m, T, unit_system=UnitSystem.REDUCED):
    """lambda = sqrt(2 pi hbar^2 / (m k T)) for m > 0 and T > 0, in the length
    unit of unit_system: REDUCED (hbar = k = 1) or SI (CODATA-2018); math.inf
    past double range, a subnormal or 0 below the normal doubles."""
    return _thermal_wavelength(_positive("m", m), _positive("T", T), unit_system)


def _thermal_wavelength(m, T, unit_system):
    """thermal_wavelength of an m and a T already checked, as GasParameters holds them.
    2 pi/(m k T) is formed at the mantissas of m and T, doubled (exactly) where their
    exponents sum to an odd e, so its root scales back by 2^-((e + 1)//2)."""
    consts = constants_for(unit_system)
    (m, e_m), (T, e_T) = math.frexp(m), math.frexp(T)
    ratio = math.ldexp(2.0 * math.pi / (m * consts.k_B * T), (e_m + e_T) & 1)
    return ldexp_or_inf(consts.hbar * math.sqrt(ratio), -((e_m + e_T + 1) // 2))
