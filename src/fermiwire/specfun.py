"""Quantum occupation integrals and the thermal de Broglie wavelength.

The central objects are the Fermi-Dirac and Bose-Einstein integrals

    f_nu(z) = (1/Gamma(nu)) * integral_0^inf t^(nu-1) dt / (exp(t)/z + 1)
    g_nu(z) = (1/Gamma(nu)) * integral_0^inf t^(nu-1) dt / (exp(t)/z - 1)

for nu in {1/2, 3/2, 5/2}, with the Maxwell-Boltzmann member of the family
degenerating to the identity f(z) = z.  Evaluation is by power series for
small fugacity and adaptive quadrature with an analytic tail elsewhere;
near the Bose condensation point an expansion in alpha = -ln z takes over
because the quadrature peak at the origin becomes unresolvable.
"""

import math
import warnings
from enum import Enum

from scipy import integrate, special

from .constants import UnitSystem, constants_for
from .errors import ConvergenceError, DomainError

__all__ = [
    "Statistics",
    "QuantumIntegralOrder",
    "quantum_integral",
    "thermal_wavelength",
    "quad_checked",
]

# Power series below this fugacity, quadrature above.
SERIES_FUGACITY_MAX = 0.5
# Integration window above the Fermi edge: integrand < e^-60 past it.
TAIL_OFFSET = 60.0
# Switch to the alpha-expansion when -ln z drops below this (Bose only).
BOSE_EXPANSION_ALPHA = 0.25

_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-13
_QUAD_LIMIT = 200


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


def _coerce_order(order):
    if isinstance(order, QuantumIntegralOrder):
        return order.value
    try:
        return QuantumIntegralOrder(float(order)).value
    except ValueError:
        raise DomainError(
            "order must be one of 1/2, 3/2, 5/2; got %r" % (order,)
        ) from None


def exp_or_inf(x):
    """e^x, or math.inf once that overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def fermi_function(w):
    """1/(e^w + 1); exp_or_inf keeps it free of overflow (0.0 for huge w)."""
    return 1.0 / (1.0 + exp_or_inf(w))


def quad_checked(func, a, b, points=None):
    """scipy.integrate.quad that raises ConvergenceError instead of warning.

    Returns (value, error_estimate).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, estimate = integrate.quad(
                func,
                a,
                b,
                epsabs=_QUAD_EPSABS,
                epsrel=_QUAD_EPSREL,
                limit=_QUAD_LIMIT,
                points=points,
            )
        except integrate.IntegrationWarning as warn:
            raise ConvergenceError(
                "quadrature did not converge: %s" % warn, error_estimate=None
            ) from None
    return value, estimate


def _fd_series(order, z):
    terms = []
    zk = 1.0
    for k in range(1, 200):
        zk *= z
        term = zk / k ** order if k % 2 else -zk / k ** order
        terms.append(term)
        if abs(term) < 1e-18 * terms[0]:
            break
    return math.fsum(terms)


def _be_series(order, z):
    terms = []
    zk = 1.0
    for k in range(1, 200):
        zk *= z
        term = zk / k ** order
        terms.append(term)
        if term < 1e-18 * terms[0]:
            break
    return math.fsum(terms)


def _fd_quadrature(order, x):
    """f_order(e^x) for any real x by quadrature plus analytic tail.

    Substituting t = u^2 removes the t^(order-1) endpoint singularity.  The
    integration window [0, x+60] covers everything above round-off; the
    remainder is the Boltzmann tail, integrated analytically to second
    order in 1/T at the cut.  Interior break points pin the Fermi edge so
    the adaptive rule cannot overlook it when x is large.
    """
    t_cut = max(x, 0.0) + TAIL_OFFSET
    u_max = math.sqrt(t_cut)
    p = 2.0 * order - 1.0

    def integrand(u):
        return 2.0 * u ** p / (math.exp(u * u - x) + 1.0)

    if x > 45.0:
        points = [math.sqrt(x - 45.0), math.sqrt(x), math.sqrt(x + 45.0)]
    elif x > 0.0:
        points = [math.sqrt(x)]
    else:
        points = None
    value, _ = quad_checked(integrand, 0.0, u_max, points=points)

    log_tail = (
        x
        - t_cut
        + (order - 1.0) * math.log(t_cut)
        - math.lgamma(order)
        + math.log1p(
            (order - 1.0) / t_cut + (order - 1.0) * (order - 2.0) / t_cut / t_cut
        )
    )
    return value / math.gamma(order) + math.exp(log_tail)


def _be_quadrature(order, alpha):
    """g_order(e^-alpha) by quadrature for alpha >= BOSE_EXPANSION_ALPHA or 0."""
    u_max = math.sqrt(TAIL_OFFSET)
    p = 2.0 * order - 1.0

    def integrand(u):
        return 2.0 * u ** p / math.expm1(u * u + alpha)

    points = [math.sqrt(alpha)] if 0.0 < alpha < TAIL_OFFSET else None
    value, _ = quad_checked(integrand, 0.0, u_max, points=points)

    log_tail = (
        -alpha
        - TAIL_OFFSET
        + (order - 1.0) * math.log(TAIL_OFFSET)
        - math.lgamma(order)
        + math.log1p(
            (order - 1.0) / TAIL_OFFSET
            + (order - 1.0) * (order - 2.0) / TAIL_OFFSET ** 2
        )
    )
    return value / math.gamma(order) + math.exp(log_tail)


def _be_expansion(order, alpha):
    """g_order(e^-alpha) for small alpha > 0.

    g_nu(e^-a) = Gamma(1-nu) a^(nu-1) + sum_k zeta(nu-k) (-a)^k / k!,
    convergent for a < 2*pi; terms fall off like (a/2pi)^k, so the loop
    below is far past double precision at alpha <= 0.25.
    """
    terms = [math.gamma(1.0 - order) * alpha ** (order - 1.0)]
    factor = 1.0
    for k in range(0, 30):
        terms.append(float(special.zeta(order - k)) * factor)
        factor *= -alpha / (k + 1.0)
        if abs(factor) * 1e3 < 1e-18:
            break
    return math.fsum(terms)


def quantum_integral(stat, order, z=None, *, log_z=None):
    """Evaluate f_order(z), g_order(z), or the Boltzmann identity z.

    Parameters
    ----------
    stat : Statistics
        FERMI_DIRAC gives f_order, BOSE_EINSTEIN gives g_order,
        MAXWELL_BOLTZMANN returns the fugacity unchanged.
    order : QuantumIntegralOrder or float
        One of 1/2, 3/2, 5/2.
    z : float, optional
        Fugacity, z > 0.  Bose-Einstein requires z <= 1.
    log_z : float, optional
        ln z, accepted instead of z.  Required once z overflows a double
        (Fermi-Dirac degenerate regime, supported up to ln z = 1e4) and
        useful for Bose fugacities within a few ulp of 1.

    Returns
    -------
    float
        The integral value; relative accuracy 1e-10 or better over
        ln z in [-28, 1e4] (FD) and [-28, 0] (BE).  g_{1/2}(1) is the one
        divergent corner and returns math.inf; so does the Maxwell-Boltzmann
        identity once z overflows.

    Raises
    ------
    DomainError
        If z <= 0, if z or log_z is not finite, if both or neither of
        z/log_z are given, or if a Bose-Einstein fugacity exceeds 1.
    """
    nu = _coerce_order(order)
    if not isinstance(stat, Statistics):
        raise DomainError("stat must be a Statistics member, got %r" % (stat,))
    if (z is None) == (log_z is None):
        raise DomainError("pass exactly one of z or log_z")
    if z is not None:
        if not z > 0.0:
            raise DomainError("fugacity must be positive, got %r" % (z,))
        x = math.log(z)
    else:
        x = float(log_z)
        z = exp_or_inf(x)
    if not math.isfinite(x):
        raise DomainError("ln z must be finite, got %r" % (x,))

    if stat is Statistics.MAXWELL_BOLTZMANN:
        return z

    if stat is Statistics.FERMI_DIRAC:
        if z <= SERIES_FUGACITY_MAX:
            return _fd_series(nu, z)
        return _fd_quadrature(nu, x)

    # Bose-Einstein
    if x > 0.0:
        raise DomainError(
            "Bose-Einstein integral needs z <= 1, got ln z = %g" % x
        )
    if z <= SERIES_FUGACITY_MAX:
        return _be_series(nu, z)
    alpha = -x
    if alpha == 0.0:
        if nu == 0.5:
            return math.inf
        return _be_quadrature(nu, 0.0)
    if alpha < BOSE_EXPANSION_ALPHA:
        return _be_expansion(nu, alpha)
    return _be_quadrature(nu, alpha)


def thermal_wavelength(m, T, unit_system=UnitSystem.REDUCED):
    """Thermal de Broglie wavelength lambda = sqrt(2 pi hbar^2 / (m k T)).

    Parameters
    ----------
    m : float
        Particle mass, > 0.
    T : float
        Temperature, > 0.
    unit_system : UnitSystem
        REDUCED (hbar = k = 1) or SI (CODATA-2018 constants).

    Returns
    -------
    float
        The wavelength in the length unit of the active system.
    """
    if not m > 0.0:
        raise DomainError("mass must be positive, got %r" % (m,))
    if not T > 0.0:
        raise DomainError("temperature must be positive, got %r" % (T,))
    consts = constants_for(unit_system)
    return consts.hbar * math.sqrt(2.0 * math.pi / (m * consts.k_B * T))
