"""Debye-side correspondence: maximum phonon frequency, momentum, energy.

The Debye cutoff wavenumber k_m = (6 pi^2/nu)^(1/3) gives omega_m = c k_m
and the de Broglie momentum p_m = hbar k_m, free of the sound speed, so the
maximum phonon energy p_m^2/2m coincides with the Fermi energy built from
the same specific volume and the same spinless counting.
"""

import math
from collections import namedtuple

from .constants import UnitSystem, constants_for
from .errors import _Checked, _normal, _positive
from .gas_statistics import GasParameters, _fermi_wavenumber, _kinetic, fermi_momentum

__all__ = [
    "PhononMedium",
    "CorrespondenceReport",
    "debye_omega_max",
    "debye_wavelength",
    "debye_momentum",
    "phonon_max_energy",
    "correspondence_check",
]


class PhononMedium(_Checked, namedtuple("PhononMedium", "c nu")):
    """Sound speed and specific volume per mode; their Debye frequency must be normal."""

    __slots__ = ()

    def _check(self):
        c, nu = _positive("c", self.c), _positive("nu", self.nu)
        _normal("Debye frequency at c = %r, nu = %r", c * _fermi_wavenumber(nu), c, nu)
        return c, nu


CorrespondenceReport = namedtuple(
    "CorrespondenceReport", "eps_m eps_F p_m p_F rel_diff_energy rel_diff_momentum")


def debye_omega_max(medium):
    """omega_m = c k_m = c (6 pi^2 / nu)^(1/3)."""
    return medium.c * _fermi_wavenumber(medium.nu)


def debye_wavelength(medium):
    """lambda_m = 2 pi / k_m, the wavelength at the Debye cutoff; c-free."""
    return 2.0 * math.pi / _fermi_wavenumber(medium.nu)


def debye_momentum(medium, unit_system=UnitSystem.REDUCED):
    """p_m = hbar k_m = hbar omega_m / c, formed without c."""
    return constants_for(unit_system).hbar * _fermi_wavenumber(medium.nu)


def phonon_max_energy(medium, m, unit_system=UnitSystem.REDUCED):
    """eps_m = p_m^2 / (2m)."""
    return _kinetic(debye_momentum(medium, unit_system), _positive("m", m))


def correspondence_check(medium, m, unit_system=UnitSystem.REDUCED):
    """Compare (eps_m, p_m) against (eps_F, p_F) at shared nu and m.

    The two sides are identical closed forms, so the relative differences
    are pure floating-point noise (<= 1e-12 by a wide margin); the report
    carries them so callers can assert rather than trust.  DomainError when
    one of eps_m, p_m, eps_F, p_F is not a positive normal double.
    """
    params = GasParameters(m=m, T=1.0, nu=medium.nu, unit_system=unit_system)
    p_m = _normal("p_m", debye_momentum(medium, unit_system))
    eps_m = _normal("eps_m", _kinetic(p_m, params.m))
    p_f = _normal("p_F", fermi_momentum(params))
    eps_f = _normal("eps_F", _kinetic(p_f, params.m))
    return CorrespondenceReport(
        eps_m=eps_m,
        eps_F=eps_f,
        p_m=p_m,
        p_F=p_f,
        rel_diff_energy=abs(eps_m - eps_f) / eps_f,
        rel_diff_momentum=abs(p_m - p_f) / p_f,
    )
