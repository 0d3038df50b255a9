"""Quantum occupation integrals and the thermal de Broglie wavelength.

F_nu(z) = integral_0^inf t^(nu-1) dt / (Gamma(nu) (e^t/z +- 1)), nu in {1/2,
3/2, 5/2}, is f_nu for Fermi-Dirac (+) and g_nu for Bose-Einstein (-); the
Maxwell-Boltzmann value is z.  Every branch is a pure-Python closed form: the
power series for z <= 1/e; for FD, Taylor series in y = ln z < 65 from mpmath
tables of f_{5/2-k}(e^c) (d/dy f_nu(e^y) = f_{nu-1}(e^y), so one walk gives a
value and its slope), then the Sommerfeld series; for BE, Robinson's
expansion in alpha = -ln z < 1.  Only quad_checked uses numpy, imported on use.
"""

import math
from bisect import bisect
from enum import Enum
from functools import lru_cache

from ._kernel_tables import FD_CENTRES, FD_EDGES, FD_ROWS, TWO_ETA_EVEN
from ._kernel_tables import ZETA_HALF_INTEGERS as _ZETA_HALF_INTEGERS
from .constants import UnitSystem, constants_for
from .errors import ConvergenceError, DomainError, _positive

__all__ = ["Statistics", "QuantumIntegralOrder", "quantum_integral", "thermal_wavelength"]

# Power series at or below this fugacity (ln z <= -1), both statistics.
SERIES_FUGACITY_MAX = math.exp(-1.0)
# BE alpha-expansion for 0 <= -ln z < 1; past 1 it cancels against Gamma(1-nu) a^(nu-1).
BOSE_EXPANSION_ALPHA = 1.0
# FD Taylor tables below this ln z, the Sommerfeld series from it on.
SOMMERFELD_LOG_Z = 65.0


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


@lru_cache(maxsize=None)
def _gauss_legendre():
    # 16 then 8 nodes on [-1, 1]; weight column 0 is the 16-node rule, 1 the 8
    import numpy as np

    (x16, w16), (x8, w8) = (np.polynomial.legendre.leggauss(n) for n in (16, 8))
    return np.r_[x16, x8], np.stack([np.r_[w16, 0.0 * w8], np.r_[0.0 * w16, w8]], axis=1)


def quad_checked(func, a, b, points=None):
    """(value, error_estimate) of a composite 16-node Gauss-Legendre rule on
    the panels [a, *points, b]; the estimate is the gap to the 8-node rule,
    and ConvergenceError is raised past 1e-6 of the value.  func maps a numpy
    array elementwise; its overflow is ignored (e^w -> inf: occupation 0)."""
    import numpy as np

    nodes, weights = _gauss_legendre()
    edges = np.concatenate(([a], [] if points is None else points, [b]))
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        f = func(centre[:, None] + half[:, None] * nodes)
        value, coarse = (half @ f @ weights).tolist()
    estimate = abs(value - coarse)
    if not estimate <= 1e-6 * abs(value):
        raise ConvergenceError("quadrature did not converge: 16- and 8-node rules differ by "
                               "%g on %g" % (estimate, value), error_estimate=estimate)
    return value, estimate


def _series(nu, z, sign):
    # sum_k sign^(k+1) z^k / k^nu: FD alternates (sign -1), BE does not
    terms, zk = [], 1.0
    for k in range(1, 200):
        zk *= z
        term = zk / k ** nu
        terms.append(term if k % 2 else sign * term)
        if term <= 1e-18 * terms[0]:  # also stops at once when z underflows to 0
            break
    return math.fsum(terms)


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


def _sommerfeld(nu, y):
    # sum_k 2 eta(2k) y^(nu-2k)/Gamma(nu+1-2k); y^nu as (y^(nu/2))^2, as it overflows first
    try:
        root = y ** (0.5 * nu)
    except OverflowError:
        return math.inf
    t, total, power = 1.0 / (y * y), 0.0, 1.0
    for k, two_eta in enumerate(TWO_ETA_EVEN):
        term = two_eta * power / math.gamma(nu + 1.0 - 2 * k)
        total += term
        if abs(term) < 1e-17 * total:
            break
        power *= t
    return root * (root * total)


def _be_expansion(nu, alpha):
    # Gamma(1-nu) alpha^(nu-1) + sum_k zeta(nu-k) (-alpha)^k/k!: the terms
    # fall like (alpha/2pi)^k, so the table's 40 reach far past 1e-18
    if alpha == 0.0 and nu == 0.5:
        return math.inf  # g_{1/2} diverges at z = 1
    terms, factor = [math.gamma(1.0 - nu) * alpha ** (nu - 1.0)], 1.0
    for k, zeta in enumerate(_ZETA_HALF_INTEGERS[int(2.5 - nu):]):
        terms.append(zeta * factor)
        if abs(terms[-1]) < 1e-18:
            break
        factor *= -alpha / (k + 1.0)
    return math.fsum(terms)


def _integral(stat, nu, y, z):
    # F_nu(z = e^y) for FD or BE, with y finite (y <= 0 for BE)
    if z <= SERIES_FUGACITY_MAX:
        return _series(nu, z, -1.0 if stat is Statistics.FERMI_DIRAC else 1.0)
    if stat is Statistics.BOSE_EINSTEIN:
        return _be_expansion(nu, -y)
    if y < SOMMERFELD_LOG_Z:
        return _fd_taylor(nu, y)[0]
    return _sommerfeld(nu, y)


def density_and_slope(stat, log_z):
    """(F_{3/2}, F_{1/2}) at e^log_z for FD or BE, the density and its slope in ln z, as
    quantum_integral gives them but from one FD table walk; log_z is not checked."""
    z = exp_or_inf(log_z)
    if stat is Statistics.FERMI_DIRAC and SERIES_FUGACITY_MAX < z and log_z < SOMMERFELD_LOG_Z:
        return _fd_taylor(1.5, log_z)
    return _integral(stat, 1.5, log_z, z), _integral(stat, 0.5, log_z, z)


def quantum_integral(stat, order, z=None, *, log_z=None):
    """f_order(z) (FERMI_DIRAC), g_order(z) (BOSE_EINSTEIN) or z (MAXWELL_BOLTZMANN).

    order is 1/2, 3/2 or 5/2; pass z > 0 (<= 1 for BE) or log_z = ln z, which
    FD needs once z overflows.  Relative accuracy is 1e-10 or better over ln z
    in [-28, 1e4] (FD) and [-28, 0] (BE).  math.inf stands for g_{1/2}(1), the
    MB identity once z overflows and an FD value past double range (ln z above
    ~3.9e205 for F_{3/2}, ~1.6e123 for F_{5/2}).  DomainError: z <= 0, z or
    log_z not finite, both or neither given, an unknown order or stat, BE z > 1.
    """
    try:
        nu = QuantumIntegralOrder(order if isinstance(order, QuantumIntegralOrder)
                                  else float(order)).value
    except ValueError:
        raise DomainError("order must be one of 1/2, 3/2, 5/2; got %r" % (order,)) from None
    if not isinstance(stat, Statistics):
        raise DomainError("stat must be a Statistics member, got %r" % (stat,))
    if (z is None) == (log_z is None):
        raise DomainError("pass exactly one of z or log_z")
    x = math.log(_positive("z", z)) if log_z is None else float(log_z)
    if not math.isfinite(x):
        raise DomainError("ln z must be finite, got %r" % (x,))
    z = exp_or_inf(x) if z is None else z
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return z
    if stat is Statistics.BOSE_EINSTEIN and x > 0.0:
        raise DomainError("Bose-Einstein integral needs z <= 1, got ln z = %g" % x)
    return _integral(stat, nu, x, z)


def thermal_wavelength(m, T, unit_system=UnitSystem.REDUCED):
    """lambda = sqrt(2 pi hbar^2 / (m k T)) for m > 0 and T > 0, in the length
    unit of unit_system: REDUCED (hbar = k = 1) or SI (CODATA-2018)."""
    m, T = _positive("m", m), _positive("T", T)
    consts = constants_for(unit_system)
    return consts.hbar * math.sqrt(2.0 * math.pi / (m * consts.k_B * T))
