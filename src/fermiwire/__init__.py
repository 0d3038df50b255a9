"""Quantum statistics of ideal gases squeezed into quasi-1D wires.

The package provides Fermi-Dirac / Bose-Einstein / Maxwell-Boltzmann
integrals of half-integer order, fugacity inversion, a thin-wire regime
classifier, the matching 1D chain and Debye-phonon scales, and a discrete
box-spectrum oracle for validating every continuum formula.  It exports
each of those modules' __all__.
"""

from . import (
    box_oracle,
    constants,
    errors,
    gas_statistics,
    one_dim_chain,
    phonon_map,
    specfun,
    thin_wire,
)
from .box_oracle import *
from .constants import *
from .errors import *
from .gas_statistics import *
from .one_dim_chain import *
from .phonon_map import *
from .specfun import *
from .thin_wire import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (box_oracle, constants, errors, gas_statistics, one_dim_chain, phonon_map,
                   specfun, thin_wire)
    for name in module.__all__
)
