"""Quantum occupation integrals and the thermal de Broglie wavelength.

The central objects are the Fermi-Dirac and Bose-Einstein integrals

    f_nu(z) = (1/Gamma(nu)) * integral_0^inf t^(nu-1) dt / (exp(t)/z + 1)
    g_nu(z) = (1/Gamma(nu)) * integral_0^inf t^(nu-1) dt / (exp(t)/z - 1)

for nu in {1/2, 3/2, 5/2}, with the Maxwell-Boltzmann member of the family
degenerating to the identity f(z) = z.  Evaluation is by power series for
small fugacity and elsewhere by fixed-panel Gauss-Legendre quadrature in
u = sqrt(t) (quad_checked, panel_edges), with the tail below e^-60
dropped; near the Bose condensation point an expansion in alpha = -ln z,
with tabulated zeta values, takes over because the peak at the origin
narrows to width sqrt(alpha).
"""

import math
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

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
# quad_checked fails once its 16- and 8-node values differ by more than this.
_QUAD_RTOL = 1e-6

# Gauss-Legendre nodes on [-1, 1], 16 then 8; column 0 of _WEIGHTS weighs
# the 16-node rule and column 1 the 8-node rule, each 0 at the other's nodes.
(_X16, _W16), (_X8, _W8) = leggauss(16), leggauss(8)
_NODES = np.concatenate([_X16, _X8])
_WEIGHTS = np.stack([np.r_[_W16, 0.0 * _W8], np.r_[0.0 * _W16, _W8]], axis=1)
_FD_T_STEPS = np.linspace(0.0, 1.0, 26)
_BE_EDGES = np.linspace(0.0, math.sqrt(TAIL_OFFSET), 17)

# zeta(5/2 - j) for j = 0..16 (float(mpmath.zeta) at 30 digits): the
# alpha-expansion reads zeta(nu - k) at j = k + 5/2 - nu.
_ZETA_HALF_INTEGERS = (
    1.341487257250917, 2.612375348685488, -1.4603545088095868,
    -0.20788622497735457, -0.025485201889833036, 0.008516928777850331,
    0.004441011335479432, -0.0030916692472158338, -0.0026714580198992244,
    0.0027467679395368687, 0.00326903957260022, -0.00441603287300489,
    -0.006672172296466641, 0.011146122473942813, 0.02039697871594279,
    -0.04057496748119458, -0.08717525590621725,
)


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
    """Composite 16-node Gauss-Legendre rule over the panels [a, *points, b].

    func takes a numpy array of abscissae and returns the integrand at each,
    elementwise.  Overflow inside func is ignored, so e^w -> inf may stand
    for an occupation of 0.  The error estimate is the gap to the 8-node
    rule on the same panels.

    Returns (value, error_estimate); raises ConvergenceError when the
    estimate exceeds 1e-6 of the value.
    """
    edges = np.concatenate(([a], [] if points is None else points, [b]))
    centre = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    with np.errstate(over="ignore"):
        f = func(centre[:, None] + half[:, None] * _NODES)
    value, coarse = (half @ f @ _WEIGHTS).tolist()
    estimate = abs(value - coarse)
    if not estimate <= _QUAD_RTOL * abs(value):
        raise ConvergenceError(
            "quadrature did not converge: 16- and 8-node rules differ by %g on %g"
            % (estimate, value),
            error_estimate=estimate,
        )
    return value, estimate


def panel_edges(stat, log_z):
    """Edges in u = sqrt(t) of the quad_checked panels for F_nu(e^log_z).

    FD: one panel up to 40 below the Fermi edge t = ln z, then 25 panels
    even in t up to max(ln z, 0) + 60; the integrand past that is below
    e^-60 and is dropped.  MB: the FD edges at ln z = 0.  BE: 16 equal
    panels over [0, sqrt(60)], plus edges at sqrt(alpha) 2^k (alpha = -ln z)
    that resolve the peak of width sqrt(alpha) at the origin.
    """
    if stat is Statistics.BOSE_EINSTEIN:
        graded = []
        u = math.sqrt(-log_z)
        while u < _BE_EDGES[-1]:
            graded.append(u)
            u *= 2.0
        return np.union1d(_BE_EDGES, graded)
    if stat is Statistics.MAXWELL_BOLTZMANN:
        log_z = 0.0
    t_lo = max(log_z - 40.0, 0.0)
    t = t_lo + (max(log_z, 0.0) + TAIL_OFFSET - t_lo) * _FD_T_STEPS
    return np.sqrt(np.concatenate(([0.0], t)))


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


def mean_occupation(stat, w):
    """Elementwise occupation at w = beta eps - ln z; e^w -> inf reads as 0."""
    if stat is Statistics.FERMI_DIRAC:
        return 1.0 / (np.exp(w) + 1.0)
    if stat is Statistics.BOSE_EINSTEIN:
        return 1.0 / np.expm1(w)
    return np.exp(-w)


def _quadrature(stat, order, log_z, edges):
    """F_order(e^log_z) by quad_checked over u = sqrt(t) panels.

    Substituting t = u^2 removes the t^(order-1) endpoint singularity.
    """
    p = 2.0 * order - 1.0
    value, _ = quad_checked(
        lambda u: 2.0 * u ** p * mean_occupation(stat, u * u - log_z),
        edges[0], edges[-1], edges[1:-1],
    )
    return value / math.gamma(order)


def _be_expansion(order, alpha):
    """g_order(e^-alpha) for small alpha > 0.

    g_nu(e^-a) = Gamma(1-nu) a^(nu-1) + sum_k zeta(nu-k) (-a)^k / k!,
    convergent for a < 2*pi; terms fall off like (a/2pi)^k, so the loop
    below is far past double precision at alpha < 0.25, where it stops by
    k = 14.
    """
    terms = [math.gamma(1.0 - order) * alpha ** (order - 1.0)]
    factor = 1.0
    for k, zeta in enumerate(_ZETA_HALF_INTEGERS[int(2.5 - order):]):
        terms.append(zeta * factor)
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
        return _quadrature(stat, nu, x, panel_edges(stat, x))

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
    elif alpha < BOSE_EXPANSION_ALPHA:
        return _be_expansion(nu, alpha)
    # 16 equal u-panels keep the pole at u = i sqrt(alpha) outside each
    # panel's convergence ellipse
    return _quadrature(stat, nu, x, _BE_EDGES)


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
