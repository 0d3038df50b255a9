"""One-dimensional closure: radiation-law energy density against the Fermi scale.

A chain of N fermions on length L has spacing d = L/N, Fermi velocity
v_F = hbar pi/(m d), and a 1D radiation energy density
e = pi (kT)^2/(6 hbar v_F).  Demanding kT = e*d closes the loop and pins
kT = 6 hbar^2/(m d^2), a fixed fraction 12/(6 pi^2)^(2/3) ~ 0.790 of the
Fermi temperature built from nu = d^3.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .constants import UnitSystem, constants_for
from .errors import DomainError

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


@dataclass(frozen=True)
class ChainParameters:
    """N fermions on a wire of length L; the spacing d = L/N is derived."""

    N: float
    L: float
    m: float

    def __post_init__(self):
        for name in ("N", "L", "m", "d"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError("%s must be positive and finite, got %r" % (name, value))

    @property
    def d(self):
        return self.L / self.N


class ClosureResult(NamedTuple):
    T: float
    ratio: float
    residual: float


def fermi_velocity(chain, unit_system=UnitSystem.REDUCED):
    """v_F = hbar pi / (m d)."""
    consts = constants_for(unit_system)
    return consts.hbar * math.pi / (chain.m * chain.d)


def energy_density_1d(T, v_F, unit_system=UnitSystem.REDUCED):
    """1D radiation energy density e = pi (kT)^2 / (6 hbar v_F)."""
    if not T > 0.0:
        raise DomainError("temperature must be positive")
    if not v_F > 0.0:
        raise DomainError("Fermi velocity must be positive")
    consts = constants_for(unit_system)
    kT = consts.k_B * T
    return math.pi * kT * kT / (6.0 * consts.hbar * v_F)


def closure_temperature(chain, unit_system=UnitSystem.REDUCED):
    """Solve kT = e(T) * d for the chain; the fixed point is analytic.

    Substituting e = pi (kT)^2/(6 hbar v_F) and v_F = hbar pi/(m d) turns
    kT = e*d into kT = 6 hbar^2/(m d^2), the unique positive solution.
    The ratio against kT_F = (hbar^2/2m)(6 pi^2)^(2/3)/d^2 (nu = d^3) is
    the pure constant 12/(6 pi^2)^(2/3), independent of d and m.
    """
    consts = constants_for(unit_system)
    d = chain.d
    kT = 6.0 * consts.hbar ** 2 / (chain.m * d * d)
    T = kT / consts.k_B
    v_F = fermi_velocity(chain, unit_system)
    residual = abs(kT - energy_density_1d(T, v_F, unit_system) * d)
    kT_F = (consts.hbar ** 2 / (2.0 * chain.m)) * (6.0 * math.pi ** 2) ** (2.0 / 3.0) / (d * d)
    return ClosureResult(
        T=T,
        ratio=kT / kT_F,
        residual=residual,
    )
