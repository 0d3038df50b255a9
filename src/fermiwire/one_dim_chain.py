"""One-dimensional closure: radiation-law energy density against the Fermi scale.

A chain of N fermions on length L has spacing d = L/N, Fermi velocity
v_F = hbar pi/(m d), and a 1D radiation energy density
e = pi (kT)^2/(6 hbar v_F).  Demanding kT = e*d closes the loop and pins
kT = 6 hbar^2/(m d^2), a fixed fraction 12/(6 pi^2)^(2/3) ~ 0.790 of the
Fermi temperature built from nu = d^3.  closure_temperature forms it free of
scale, so its fixed-point residual holds wherever T is a normal double.
"""

import math
from collections import namedtuple

from .constants import UnitSystem, constants_for
from .errors import _Checked, _normal, _positive
from .specfun import ldexp_or_inf

__all__ = [
    "ChainParameters",
    "ClosureResult",
    "CLOSURE_RATIO",
    "fermi_velocity",
    "energy_density_1d",
    "closure_temperature",
]

# 12/(6 pi^2)^(2/3), the scale-free closure ratio T/T_F.
CLOSURE_RATIO = 12.0 / (6.0 * math.pi ** 2) ** (2.0 / 3.0)


class ChainParameters(_Checked, namedtuple("ChainParameters", "N L m")):
    """N fermions on a wire of length L; the spacing d = L/N is derived and must be normal."""

    __slots__ = ()

    def _check(self):
        N, L, m = _positive("N", self.N), _positive("L", self.L), _positive("m", self.m)
        _normal("d = L/N", L / N)
        return N, L, m

    @property
    def d(self):
        return self.L / self.N


ClosureResult = namedtuple("ClosureResult", "T ratio residual")


def fermi_velocity(chain, unit_system=UnitSystem.REDUCED):
    """v_F = hbar pi / (m d), formed at the mantissas of m and d; math.inf past
    double range, a subnormal or 0 below the normal doubles."""
    (m, e_m), (d, e_d) = math.frexp(chain.m), math.frexp(chain.d)
    return ldexp_or_inf(constants_for(unit_system).hbar * math.pi / (m * d), -e_m - e_d)


def energy_density_1d(T, v_F, unit_system=UnitSystem.REDUCED):
    """1D radiation energy density e = pi (kT)^2 / (6 hbar v_F)."""
    consts = constants_for(unit_system)
    kT = consts.k_B * _positive("T", T)
    return math.pi * kT * kT / (6.0 * consts.hbar * _positive("v_F", v_F))


def closure_temperature(chain, unit_system=UnitSystem.REDUCED):
    """Solve kT = e(T) * d for the chain; the fixed point is analytic.

    With e = pi (kT)^2/(6 hbar v_F) and v_F = hbar pi/(m d), kT = e*d has
    the one positive root kT = 6 hbar^2/(m d^2); its ratio to
    kT_F = (hbar^2/2m)(6 pi^2)^(2/3)/d^2 (nu = d^3) is 12/(6 pi^2)^(2/3).
    All of it is formed at the mantissas of m and d, every intermediate normal
    in both unit systems; T and the residual scale back by 2^(-e_m - 2 e_d),
    which changes no rounding.  DomainError naming the chain where T is not
    normal.
    """
    consts = constants_for(unit_system)
    (m, e_m), (d, e_d) = math.frexp(chain.m), math.frexp(chain.d)
    scale = -e_m - 2 * e_d
    kT = 6.0 * consts.hbar ** 2 / (m * d * d)
    T = kT / consts.k_B
    T_chain = _normal("T = 6 hbar^2/(m d^2 k_B) at %r", ldexp_or_inf(T, scale), chain)
    v_F = fermi_velocity(ChainParameters(1.0, d, m), unit_system)
    residual = abs(kT - energy_density_1d(T, v_F, unit_system) * d)
    kT_F = (consts.hbar ** 2 / (2.0 * m)) * (6.0 * math.pi ** 2) ** (2.0 / 3.0) / (d * d)
    return ClosureResult(T_chain, kT / kT_F, ldexp_or_inf(residual, scale))
