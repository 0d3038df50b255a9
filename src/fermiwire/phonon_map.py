"""Debye-side correspondence: maximum phonon frequency, momentum, energy.

The Debye cutoff omega_m = c (6 pi^2/nu)^(1/3) carries a de Broglie
momentum p_m = hbar omega_m / c in which the sound speed cancels, so the
maximum phonon energy p_m^2/2m coincides with the Fermi energy built from
the same specific volume and the same spinless counting.
"""

import math
from dataclasses import dataclass

from .constants import UnitSystem, constants_for
from .errors import DomainError
from .gas_statistics import GasParameters, fermi_energy, fermi_momentum

__all__ = [
    "PhononMedium",
    "CorrespondenceReport",
    "debye_omega_max",
    "debye_wavelength",
    "debye_momentum",
    "phonon_max_energy",
    "correspondence_check",
]


@dataclass(frozen=True)
class PhononMedium:
    """Sound speed and specific volume per mode."""

    c: float
    nu: float

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise DomainError("sound speed must be positive and finite")
        if not self.nu > 0.0:
            raise DomainError("specific volume must be positive")
        if not math.isfinite(debye_omega_max(self)):
            raise DomainError("Debye frequency overflows at c = %r, nu = %r" % (self.c, self.nu))


@dataclass(frozen=True)
class CorrespondenceReport:
    eps_m: float
    eps_F: float
    p_m: float
    p_F: float
    rel_diff_energy: float
    rel_diff_momentum: float


def debye_omega_max(medium):
    """omega_m = c (6 pi^2 / nu)^(1/3)."""
    return medium.c * (6.0 * math.pi ** 2 / medium.nu) ** (1.0 / 3.0)


def debye_wavelength(medium):
    """lambda_m = 2 pi c / omega_m, the wavelength at the Debye cutoff."""
    return 2.0 * math.pi * medium.c / debye_omega_max(medium)


def debye_momentum(medium, unit_system=UnitSystem.REDUCED):
    """p_m = hbar omega_m / c; the sound speed cancels."""
    consts = constants_for(unit_system)
    return consts.hbar * debye_omega_max(medium) / medium.c


def phonon_max_energy(medium, m, unit_system=UnitSystem.REDUCED):
    """eps_m = p_m^2 / (2m)."""
    if not m > 0.0:
        raise DomainError("mass must be positive")
    p_m = debye_momentum(medium, unit_system)
    return p_m * p_m / (2.0 * m)


def correspondence_check(medium, m, unit_system=UnitSystem.REDUCED):
    """Compare (eps_m, p_m) against (eps_F, p_F) at shared nu and m.

    The two sides are identical closed forms, so the relative differences
    are pure floating-point noise (<= 1e-12 by a wide margin); the report
    carries them so callers can assert rather than trust.
    """
    params = GasParameters(m=m, T=1.0, nu=medium.nu, unit_system=unit_system)
    eps_m = phonon_max_energy(medium, m, unit_system)
    p_m = debye_momentum(medium, unit_system)
    eps_f = fermi_energy(params)
    p_f = fermi_momentum(params)
    return CorrespondenceReport(
        eps_m=eps_m,
        eps_F=eps_f,
        p_m=p_m,
        p_F=p_f,
        rel_diff_energy=abs(eps_m - eps_f) / eps_f,
        rel_diff_momentum=abs(p_m - p_f) / p_f,
    )
