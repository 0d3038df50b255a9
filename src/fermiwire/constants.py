"""Unit systems and physical constants.

Reduced units set hbar = k_B = 1 with mass measured against a reference
mass m0 = 1; every closed-form check in the test suite is then a pure
number.  SI values are pinned to CODATA-2018 in this one location.
"""

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["UnitSystem", "PhysicalConstants", "constants_for"]


class UnitSystem(Enum):
    REDUCED = "reduced"
    SI = "si"


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float   # reduced Planck constant
    k_B: float    # Boltzmann constant
    mass_ref: float  # default mass when a caller does not supply one

    @property
    def h(self):
        return 2.0 * math.pi * self.hbar


# CODATA-2018: h and k are exact defined values, m_e is the 2018 adjustment.
_H_SI = 6.62607015e-34        # J s
_K_SI = 1.380649e-23          # J/K
_M_ELECTRON_SI = 9.1093837015e-31  # kg

_CONSTANTS = {
    UnitSystem.REDUCED: PhysicalConstants(hbar=1.0, k_B=1.0, mass_ref=1.0),
    UnitSystem.SI: PhysicalConstants(
        hbar=_H_SI / (2.0 * math.pi), k_B=_K_SI, mass_ref=_M_ELECTRON_SI
    ),
}


def constants_for(unit_system):
    """Constants table for a UnitSystem."""
    return _CONSTANTS[unit_system]
