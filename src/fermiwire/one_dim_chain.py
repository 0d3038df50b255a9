"""One-dimensional closure: radiation-law energy density against the Fermi scale.

A chain of N fermions on length L has spacing d = L/N, Fermi velocity
v_F = hbar pi/(m d), and a 1D radiation energy density
e = pi (kT)^2/(6 hbar v_F).  Demanding kT = e*d closes the loop and pins
kT = 6 hbar^2/(m d^2), a fixed fraction 12/(6 pi^2)^(2/3) ~ 0.790 of the
Fermi temperature built from nu = d^3.
"""

import math
from collections import namedtuple

from .constants import UnitSystem, constants_for
from .errors import DomainError, _positive

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


class ChainParameters(namedtuple("ChainParameters", "N L m")):
    """N fermions on a wire of length L; the spacing d = L/N is derived."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("N", "L", "m", "d"):
            _positive(name, getattr(self, name))
        return self

    @property
    def d(self):
        return self.L / self.N


ClosureResult = namedtuple("ClosureResult", "T ratio residual")


def fermi_velocity(chain, unit_system=UnitSystem.REDUCED):
    """v_F = hbar pi / (m d)."""
    consts = constants_for(unit_system)
    return consts.hbar * math.pi / (chain.m * chain.d)


def energy_density_1d(T, v_F, unit_system=UnitSystem.REDUCED):
    """1D radiation energy density e = pi (kT)^2 / (6 hbar v_F)."""
    consts = constants_for(unit_system)
    kT = consts.k_B * _positive("T", T)
    return math.pi * kT * kT / (6.0 * consts.hbar * _positive("v_F", v_F))


def closure_temperature(chain, unit_system=UnitSystem.REDUCED):
    """Solve kT = e(T) * d for the chain; the fixed point is analytic.

    Substituting e = pi (kT)^2/(6 hbar v_F) and v_F = hbar pi/(m d) turns
    kT = e*d into kT = 6 hbar^2/(m d^2), the unique positive solution.
    The ratio against kT_F = (hbar^2/2m)(6 pi^2)^(2/3)/d^2 (nu = d^3) is
    the pure constant 12/(6 pi^2)^(2/3), independent of d and m.  DomainError
    when kT leaves double range; residual is inf or nan where (kT)^2 or v_F does.
    """
    consts = constants_for(unit_system)
    d = chain.d
    md2 = chain.m * d * d
    kT = 6.0 * consts.hbar ** 2 / md2 if md2 else math.inf
    if not kT < math.inf:
        raise DomainError("kT = 6 hbar^2/(m d^2) leaves double range at %r" % (chain,))
    T = kT / consts.k_B
    v_F = fermi_velocity(chain, unit_system)
    # energy_density_1d rejects the v_F = inf of a tiny m d; no residual can be formed there
    residual = abs(kT - energy_density_1d(T, v_F, unit_system) * d) if v_F < math.inf else math.nan
    # the ratio is free of m and d: form it at their mantissas, which changes
    # no rounding and cannot overflow
    m, d = math.frexp(chain.m)[0], math.frexp(d)[0]
    kT_F = (consts.hbar ** 2 / (2.0 * m)) * (6.0 * math.pi ** 2) ** (2.0 / 3.0) / (d * d)
    return ClosureResult(T=T, ratio=6.0 * consts.hbar ** 2 / (m * d * d) / kT_F, residual=residual)
