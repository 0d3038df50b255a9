"""The dimensional formulas over the whole double range, against 40-digit mpmath.

Each of lambda, v_F, p_F, eps_F, T_F, p_m, eps_m, omega_max, lambda_m, the 1D
energy density e_1D, the box's n = 1 level and its default cutoff is swept over
inputs 10^k (k = -320..303, step 7), 5e-324 and 1.7e308, in both unit systems.
Where the exact answer, from the exact doubles of the inputs and the constants,
is a normal double, the result is within 1e-15 of it; past the largest double
the result is inf, below the normal doubles it is 0 or subnormal, and
PhononMedium, which holds omega_max to the normal rule, raises DomainError
instead, as its docstring says.  Where the answer is an error class, the box
raises that error: DomainError for a level that is not normal, and
ResourceLimitError for a default cutoff past MAX_LEVELS.
"""

import math
import sys

import pytest

from fermiwire import (
    ChainParameters,
    DomainError,
    GasParameters,
    PhononMedium,
    ResourceLimitError,
    UnitSystem,
    constants_for,
    debye_momentum,
    debye_omega_max,
    debye_wavelength,
    energy_density_1d,
    enumerate_levels,
    fermi_energy,
    fermi_momentum,
    fermi_temperature,
    fermi_velocity,
    phonon_max_energy,
    thermal_wavelength,
)
from fermiwire.box_oracle import BETA_EPS_CUTOFF, MAX_LEVELS

mpmath = pytest.importorskip("mpmath")

GRID = [float("1e%d" % k) for k in range(-320, 309, 7)] + [5e-324, 1.7e308]
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max


def exact(x):
    return mpmath.mpf(x)


def wavenumber(nu):
    # (6 pi^2/nu)^(1/3)
    return mpmath.cbrt(6 * mpmath.pi ** 2 / exact(nu))


def fault(args, got, want):
    """None if got is what the exact answer want allows, else a line naming the case;
    a want that is an error class allows that error alone."""
    if isinstance(want, type):
        ok, want = got is want, want.__name__
    elif isinstance(got, type):
        ok = got is DomainError and not DBL_MIN <= want <= DBL_MAX
    elif want > DBL_MAX:
        ok = got == math.inf
    elif want < DBL_MIN:
        ok = 0.0 <= got < DBL_MIN
    else:
        ok = abs(exact(got) - want) <= 1e-15 * want
    return None if ok else "%r: got %r, want %s" % (
        args, got, want if isinstance(want, str) else mpmath.nstr(want, 17))


def call(function, *args):
    """function(*args), or DomainError or ResourceLimitError, the class, where it raises one."""
    try:
        return function(*args)
    except (DomainError, ResourceLimitError) as error:
        return type(error)


def normal_or_refused(value):
    return value if DBL_MIN <= value <= DBL_MAX else DomainError


def box_level(L, m, n, c):
    # (h n/L)^2/2m, the level of n on an axis of edge L
    return (exact(c.h) * n / exact(L)) ** 2 / (2 * exact(m))


def default_cutoff(L, m, beta, c):
    """The L x L x L box's default cutoff ceil(L sqrt(2m 45/beta)/h), at least 1, or the
    error enumerate_levels raises: its cutoff overflows, its top level is not normal, or
    its (2c + 1)^3 levels pass MAX_LEVELS, in the order it checks them."""
    cut = exact(L) * mpmath.sqrt(2 * exact(m) * BETA_EPS_CUTOFF / exact(beta)) / exact(c.h)
    if cut > DBL_MAX:
        return ResourceLimitError
    cut = max(1, int(mpmath.ceil(cut)))
    if normal_or_refused(box_level(L, m, cut, c)) is DomainError:
        return DomainError
    return ResourceLimitError if (2 * cut + 1) ** 3 > MAX_LEVELS else mpmath.mpf(cut)


def pairs():
    return [(a, b) for a in GRID for b in GRID]


# name -> (inputs, function of inputs and unit system, exact answer of inputs and constants)
CASES = {
    "lambda": (pairs(), lambda m, T, us: thermal_wavelength(m, T, us),
               lambda m, T, c: exact(c.hbar) * mpmath.sqrt(
                   2 * mpmath.pi / (exact(m) * exact(c.k_B) * exact(T)))),
    # ChainParameters holds d = L/N to the normal rule (tests/test_chain.py)
    "v_F": ([(m, d) for m, d in pairs() if d >= DBL_MIN],
            lambda m, d, us: fermi_velocity(ChainParameters(1.0, d, m), us),
            lambda m, d, c: exact(c.hbar) * mpmath.pi / (exact(m) * exact(d))),
    "p_F": ([(nu,) for nu in GRID], lambda nu, us: fermi_momentum(GasParameters(1.0, 1.0, nu, us)),
            lambda nu, c: exact(c.hbar) * wavenumber(nu)),
    "eps_F": (pairs(), lambda m, nu, us: fermi_energy(GasParameters(m, 1.0, nu, us)),
              lambda m, nu, c: (exact(c.hbar) * wavenumber(nu)) ** 2 / (2 * exact(m))),
    "T_F": (pairs(), lambda m, nu, us: fermi_temperature(GasParameters(m, 1.0, nu, us)),
            lambda m, nu, c: (exact(c.hbar) * wavenumber(nu)) ** 2
            / (2 * exact(m) * exact(c.k_B))),
    "p_m": ([(nu,) for nu in GRID], lambda nu, us: debye_momentum(PhononMedium(1.0, nu), us),
            lambda nu, c: exact(c.hbar) * wavenumber(nu)),
    "eps_m": (pairs(), lambda m, nu, us: phonon_max_energy(PhononMedium(1.0, nu), m, us),
              lambda m, nu, c: (exact(c.hbar) * wavenumber(nu)) ** 2 / (2 * exact(m))),
    "omega_max": (pairs(), lambda sound, nu, us: debye_omega_max(PhononMedium(sound, nu)),
                  lambda sound, nu, c: exact(sound) * wavenumber(nu)),
    "lambda_m": ([(nu,) for nu in GRID], lambda nu, us: debye_wavelength(PhononMedium(1.0, nu)),
                 lambda nu, c: 2 * mpmath.pi / wavenumber(nu)),
    "e_1D": (pairs(), lambda T, v_F, us: energy_density_1d(T, v_F, us),
             lambda T, v_F, c: mpmath.pi * (exact(c.k_B) * exact(T)) ** 2
             / (6 * exact(c.hbar) * exact(v_F))),
    "box-level": (pairs(), lambda L, m, us: enumerate_levels(L, L, m, 1, unit_system=us)
                  .axis_levels[0][1],
                  lambda L, m, c: normal_or_refused(box_level(L, m, 1, c))),
    # the cutoff depends on m/beta alone: one sweep over m at beta = 1, one over beta at m = 1
    "cutoff-m": (pairs(), lambda L, m, us: enumerate_levels(L, L, m, beta=1.0, unit_system=us)
                 .cutoff[0],
                 lambda L, m, c: default_cutoff(L, m, 1.0, c)),
    "cutoff-beta": (pairs(), lambda L, beta, us: enumerate_levels(L, L, 1.0, beta=beta,
                                                                  unit_system=us).cutoff[0],
                    lambda L, beta, c: default_cutoff(L, 1.0, beta, c)),
}


@pytest.mark.parametrize("units", list(UnitSystem), ids=lambda u: u.value)
@pytest.mark.parametrize("name", list(CASES))
def test_formula_over_the_double_range(name, units):
    inputs, function, answer = CASES[name]
    consts = constants_for(units)
    faults = []
    with mpmath.workdps(40):
        for args in inputs:
            line = fault(args, call(function, *args, units), answer(*args, consts))
            if line:
                faults.append(line)
    assert not faults, "%d faults, the first: %s" % (len(faults), faults[:5])


def test_fault_reads_each_side_of_the_range():
    with mpmath.workdps(40):
        assert fault((), 1.0, exact(1) + exact(2) ** -60) is None
        assert fault((), 1.0, exact(1) + exact(10) ** -14) is not None
        assert fault((), math.inf, exact(10) ** 400) is None
        assert fault((), DBL_MAX, exact(10) ** 400) is not None
        assert fault((), 0.0, exact(10) ** -400) is None
        assert fault((), 5e-324, exact(10) ** -323) is None
        assert fault((), DBL_MIN, exact(10) ** -400) is not None
        assert fault((), DomainError, exact(10) ** 400) is None
        assert fault((), DomainError, exact(1)) is not None
        assert fault((), DomainError, DomainError) is None
        assert fault((), ResourceLimitError, DomainError) is not None
        assert fault((), 1e308, ResourceLimitError) is not None
        assert fault((), ResourceLimitError, exact(3)) is not None
        assert fault((), ResourceLimitError, exact(10) ** 400) is not None
        assert fault((), 3, exact(3)) is None
        assert fault((), 4, exact(3)) is not None
