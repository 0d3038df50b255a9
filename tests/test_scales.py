"""The dimensional formulas over the whole double range, against 40-digit mpmath.

Each of lambda, v_F, p_F, eps_F, T_F, p_m, eps_m, omega_max and lambda_m is
swept over inputs 10^k (k = -320..303, step 7), 5e-324 and 1.7e308, in both
unit systems.  Where the exact answer, from the exact doubles of the inputs and
the constants, is a normal double, the result is within 1e-15 of it; past the
largest double the result is inf, below the normal doubles it is 0 or
subnormal, and PhononMedium, which holds omega_max to the normal rule, raises
DomainError instead, as its docstring says.
"""

import math
import sys

import pytest

from fermiwire import (
    ChainParameters,
    DomainError,
    GasParameters,
    PhononMedium,
    UnitSystem,
    constants_for,
    debye_momentum,
    debye_omega_max,
    debye_wavelength,
    fermi_energy,
    fermi_momentum,
    fermi_temperature,
    fermi_velocity,
    phonon_max_energy,
    thermal_wavelength,
)

mpmath = pytest.importorskip("mpmath")

GRID = [float("1e%d" % k) for k in range(-320, 309, 7)] + [5e-324, 1.7e308]
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max


def exact(x):
    return mpmath.mpf(x)


def wavenumber(nu):
    # (6 pi^2/nu)^(1/3)
    return mpmath.cbrt(6 * mpmath.pi ** 2 / exact(nu))


def fault(args, got, want):
    """None if got is what the exact answer want allows, else a line naming the case."""
    if got is DomainError:
        ok = not DBL_MIN <= want <= DBL_MAX
    elif want > DBL_MAX:
        ok = got == math.inf
    elif want < DBL_MIN:
        ok = 0.0 <= got < DBL_MIN
    else:
        ok = abs(exact(got) - want) <= 1e-15 * want
    return None if ok else "%r: got %r, want %s" % (args, got, mpmath.nstr(want, 17))


def call(function, *args):
    """function(*args), or DomainError, the class, where it raises one."""
    try:
        return function(*args)
    except DomainError:
        return DomainError


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
