"""Input checks: one positive-finite rule, one message form, a typed error at every entry."""

import csv
import io
import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fermiwire import (
    ChainParameters,
    DomainError,
    GasParameters,
    PhononMedium,
    Statistics,
    ThermalState,
    UnitSystem,
    WireGeometry,
    closure_temperature,
    direct_number_sum,
    energy_density_1d,
    enumerate_levels,
    occupation,
    phonon_max_energy,
    quantum_integral,
    solve_log_fugacity,
    thermal_wavelength,
    truncation_bound,
)
from fermiwire.cli import main
from fermiwire.errors import _normal

FD = Statistics.FERMI_DIRAC

SPECTRUM = enumerate_levels(2.0, 1.0, 1.0, cutoff=2)

# "<site>.<field>", and a call that passes value as that field and valid values elsewhere
POSITIVE_FIELDS = {
    "GasParameters.m": lambda v: GasParameters(m=v, T=1.0, nu=1.0),
    "GasParameters.T": lambda v: GasParameters(m=1.0, T=v, nu=1.0),
    "GasParameters.nu": lambda v: GasParameters(m=1.0, T=1.0, nu=v),
    "ThermalState.lam": lambda v: ThermalState(log_z=0.0, lam=v, degeneracy=1.0),
    "ThermalState.degeneracy": lambda v: ThermalState(log_z=0.0, lam=1.0, degeneracy=v),
    "occupation.z": lambda v: occupation(FD, v, 1.0, 1.0),
    "solve_log_fugacity.degeneracy": lambda v: solve_log_fugacity(FD, v),
    "quantum_integral.z": lambda v: quantum_integral(FD, 1.5, v),
    "thermal_wavelength.m": lambda v: thermal_wavelength(v, 1.0),
    "thermal_wavelength.T": lambda v: thermal_wavelength(1.0, v),
    "WireGeometry.sigma_tilde": lambda v: WireGeometry(v),
    "ChainParameters.N": lambda v: ChainParameters(N=v, L=1.0, m=1.0),
    "ChainParameters.L": lambda v: ChainParameters(N=1.0, L=v, m=1.0),
    "ChainParameters.m": lambda v: ChainParameters(N=1.0, L=1.0, m=v),
    "energy_density_1d.T": lambda v: energy_density_1d(v, 1.0),
    "energy_density_1d.v_F": lambda v: energy_density_1d(1.0, v),
    "PhononMedium.c": lambda v: PhononMedium(c=v, nu=1.0),
    "PhononMedium.nu": lambda v: PhononMedium(c=1.0, nu=v),
    "phonon_max_energy.m": lambda v: phonon_max_energy(PhononMedium(c=1.0, nu=1.0), v),
    "enumerate_levels.L_long": lambda v: enumerate_levels(v, 1.0, 1.0, cutoff=1),
    "enumerate_levels.a_transverse": lambda v: enumerate_levels(1.0, v, 1.0, cutoff=1),
    "enumerate_levels.m": lambda v: enumerate_levels(1.0, 1.0, v, cutoff=1),
    "enumerate_levels.beta": lambda v: enumerate_levels(1.0, 1.0, 1.0, cutoff=1, beta=v),
    "direct_number_sum.z": lambda v: direct_number_sum(SPECTRUM, FD, v, 1.0),
    "direct_number_sum.beta": lambda v: direct_number_sum(SPECTRUM, FD, 0.5, v),
    "truncation_bound.z": lambda v: truncation_bound(SPECTRUM, v, 1.0),
    "truncation_bound.beta": lambda v: truncation_bound(SPECTRUM, 0.5, v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan, "1"],
                         ids=["zero", "negative", "inf", "-inf", "nan", "str"])
@pytest.mark.parametrize("site", POSITIVE_FIELDS)
def test_positive_finite_rule(site, value):
    # inf once passed several of these: an occupation of 1, a wavelength of 0,
    # an energy density of inf, a nan box sum; a str raised TypeError
    with pytest.raises(DomainError) as info:
        POSITIVE_FIELDS[site](value)
    field = site.split(".")[1]
    assert str(info.value) == "%s must be a positive finite number, got %r" % (field, value)


@pytest.mark.parametrize("value", [sys.float_info.min, 1.0, sys.float_info.max],
                         ids=["min", "one", "max"])
def test_normal_rule_accepts_normal_doubles(value):
    assert _normal("x", value) is value


@pytest.mark.parametrize(
    "value",
    [math.nextafter(sys.float_info.min, 0.0), 5e-324, 0.0, -0.0, -1, math.inf, math.nan],
    ids=["largest subnormal", "smallest subnormal", "zero", "-zero", "negative", "inf", "nan"])
def test_normal_rule_rejects(value):
    with pytest.raises(DomainError) as info:
        _normal("x", value)
    assert str(info.value) == "x must be a positive normal double, got %r" % (value,)


def test_normal_rule_formats_its_name_with_args():
    with pytest.raises(DomainError) as info:
        _normal("level at L = %r, n = %d", 0.0, 2.0, 3)
    assert str(info.value) == "level at L = 2.0, n = 3 must be a positive normal double, got 0.0"


def test_normal_rule_formats_nothing_when_it_passes():
    class Unprintable:
        def __repr__(self):
            raise AssertionError("formatted")

    assert _normal("at %r", 1.0, Unprintable()) == 1.0


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("field", ["beta", "eps"])
def test_occupation_rejects_non_finite_beta_and_eps(field, value):
    # occupation(FD, 1, inf, 0) and occupation(FD, 1, nan, 1) returned nan
    args = {"beta": 1.0, "eps": 1.0, field: value}
    with pytest.raises(DomainError) as info:
        occupation(FD, 1.0, **args)
    assert str(info.value) == "%s must be a non-negative finite number, got %r" % (field, value)


@pytest.mark.parametrize("call", [
    lambda: occupation("fd", 1.0, 1.0, 1.0),
    lambda: solve_log_fugacity("fd", 1.0),
    lambda: quantum_integral("fd", 1.5, 0.5),
], ids=["occupation", "solve_log_fugacity", "quantum_integral"])
def test_statistics_must_be_a_member(call):
    with pytest.raises(DomainError, match="^stat must be a Statistics member, got 'fd'$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: thermal_wavelength(1.0, 1.0, "si"),
    lambda: closure_temperature(ChainParameters(N=1.0, L=1.0, m=1.0), "si"),
    lambda: GasParameters(1.0, 1.0, 1.0, "si").beta,
    lambda: enumerate_levels(1.0, 1.0, 1.0, cutoff=1, unit_system="si"),
], ids=["thermal_wavelength", "closure_temperature", "GasParameters.beta", "enumerate_levels"])
def test_unit_system_must_be_a_member(call):
    # each raised a bare KeyError: 'si'
    with pytest.raises(DomainError, match="^unit_system must be a UnitSystem member, got 'si'$"):
        call()


def test_unit_system_may_be_unhashable():
    # a list raised TypeError from the table lookup
    with pytest.raises(DomainError, match=r"^unit_system must be a UnitSystem member, got \[\]$"):
        thermal_wavelength(1.0, 1.0, [])
    assert thermal_wavelength(1.0, 1.0, UnitSystem.SI) > 0.0


@pytest.mark.parametrize("value", ["x", "1.5", b"1.5", math.inf, math.nan, 1j, 10 ** 400],
                         ids=["str", "numeric str", "bytes", "inf", "nan", "complex", "10**400"])
@pytest.mark.parametrize("call, message", [
    (lambda v: quantum_integral(FD, 1.5, log_z=v), "ln z must be finite, got %r"),
    (lambda v: ThermalState(log_z=v, lam=1.0, degeneracy=1.0), "log_z must be finite, got %r"),
], ids=["quantum_integral", "ThermalState"])
def test_log_z_must_be_a_finite_number(call, message, value):
    # quantum_integral raised a bare ValueError for "x", read "1.5" and b"1.5" as 1.5 and raised
    # TypeError for 1j and OverflowError for 10**400; ThermalState raised TypeError for
    # text and 1j and OverflowError for 10**400
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == message % (value,)


@pytest.mark.parametrize("log_z", [1, True, np.int64(1), np.float64(1.0), np.float32(1.0),
                                   Fraction(1), Decimal(1)],
                         ids=["int", "bool", "numpy int", "numpy float64", "numpy float32",
                              "Fraction", "Decimal"])
def test_log_z_takes_any_finite_real(log_z):
    assert quantum_integral(FD, 1.5, log_z=log_z) == quantum_integral(FD, 1.5, log_z=1.0)
    assert ThermalState(log_z=log_z, lam=1.0, degeneracy=1.0).z == math.e


@pytest.mark.parametrize("cutoff, value", [
    (2.5, 2.5), ((2, 2.9, 3), 2.9), (math.inf, math.inf), (math.nan, math.nan), ("3", "3"),
    ((3, 3, "3"), "3"), (2.0, 2.0),
], ids=["2.5", "(2, 2.9, 3)", "inf", "nan", "str", "str in a tuple", "2.0"])
def test_cutoff_must_be_an_integer(cutoff, value):
    # 2.5 built cutoff 2 and (2, 2.9, 3) built (2, 2, 3); inf raised OverflowError,
    # nan ValueError, and "3" was read as 3
    with pytest.raises(DomainError) as info:
        enumerate_levels(1.0, 1.0, 1.0, cutoff=cutoff)
    assert str(info.value) == "cutoff must be an integer, got %r" % (value,)


@pytest.mark.parametrize("cutoff, cutoffs", [
    (2, (2, 2, 2)), (True, (1, 1, 1)), (np.int64(2), (2, 2, 2)),
    ((3, np.int32(1), True), (3, 1, 1)), ([1, 2, 3], (1, 2, 3)),
], ids=["int", "bool", "numpy int", "mixed tuple", "list"])
def test_cutoff_takes_integers(cutoff, cutoffs):
    spec = enumerate_levels(1.0, 1.0, 1.0, cutoff=cutoff)
    assert spec.cutoff == cutoffs and all(type(c) is int for c in spec.cutoff)


@pytest.mark.parametrize("cutoff", [0, -1, False, (2, 0, 3), (1, 2)],
                         ids=["0", "-1", "False", "(2, 0, 3)", "two of them"])
def test_cutoff_below_one_keeps_its_message(cutoff):
    with pytest.raises(DomainError, match="^cutoff must be a positive integer or 3 of them$"):
        enumerate_levels(1.0, 1.0, 1.0, cutoff=cutoff)


@pytest.mark.parametrize("stat", ["fd", "mb"])
def test_occupation_table_rejects_infinite_fugacity(capsys, stat):
    # it wrote an occupation of 1 (FD) or inf (MB) on every row and exited 0
    assert main(["tabulate", "occupation", "--stat", stat, "--z", "inf", "--grid", "0:1:3"]) == 1
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows == ['%s,inf,%s,,"z must be a positive finite number, got inf"' % (stat, be)
                    for be in ("0", "0.5", "1")]


# Finite flag values from the smallest subnormal to near the largest double.
EXTREMES = ["5e-324", "1e-300", "1", "1e300", "1.7e308", "1e-150", "1e150"]
STATS = ["fd", "be", "mb"]
UNITS = ["reduced", "si"]


def covering_rows(q, strength, columns):
    """q^strength rows of indices below q (a prime) in which any `strength`
    of the columns take each combination of indices exactly once.

    Row c holds the polynomial sum_i c_i x^i mod q at x = 0..q-1, then its
    top coefficient: a polynomial of degree < strength is fixed by its
    values at any `strength` points, or by its top coefficient and its
    values at one point fewer.
    """
    for coeffs in itertools.product(range(q), repeat=strength):
        row = [sum(c * x ** i for i, c in enumerate(coeffs)) % q for x in range(q)]
        yield (row + [coeffs[-1]])[:columns]


def extreme_rows(columns):
    # every triple of the first five EXTREMES, and every pair of all seven
    return [*covering_rows(5, 3, columns), *covering_rows(7, 2, columns)]


def single_point(i):
    return "%s:%s:1" % (EXTREMES[i], EXTREMES[i])


EXTREME_INVOCATIONS = {
    "verify": [["verify", "--units", units] for units in UNITS],
    "scan": [
        ["scan", "--T", single_point(T), "--nu", single_point(nu), "--sigma", single_point(sigma),
         "--stat", STATS[stat % 3], "--units", UNITS[units % 2]]
        for T, nu, sigma, stat, units in extreme_rows(5)
    ],
    "occupation": [
        ["tabulate", "occupation", "--stat", stat, "--z", EXTREMES[z], "--grid", single_point(be)]
        for stat, z, be in itertools.product(STATS, range(7), range(7))
    ],
    "phonon": [
        ["tabulate", "phonon", "--nu", single_point(nu), "--m", EXTREMES[m], "--c", EXTREMES[c],
         "--units", UNITS[units % 2]]
        for nu, m, c, units in extreme_rows(4)
    ],
    "oracle": [
        ["oracle", "--cutoff", "1", "--z", EXTREMES[z], "--L", EXTREMES[L], "--a", EXTREMES[a],
         "--T", EXTREMES[T], "--stat", STATS[stat % 3], "--units", UNITS[units % 2]]
        for z, L, a, T, stat, units in extreme_rows(6)
    ],
}


# The computed columns of each table.  An input cell may be subnormal, as it
# is exact; a computed one would have lost bits.  rhs_approx and rhs_exact are
# left out: each is sigma_tilde times a ratio formed first, near 1 for the
# three scans with sigma_tilde = 5e-324 that print a subnormal count.
COMPUTED_COLUMNS = {
    "scan": {"z", "lambda", "degeneracy"},
    "phonon": {"omega_max", "lambda_m", "p_m", "eps_m", "eps_F", "p_F"},
    "oracle": {"N_discrete"},
}


def subnormal_cells(command, rows):
    """The subnormal cells in the computed columns of a table's CSV rows."""
    if not rows:
        return []
    columns = [i for i, name in enumerate(rows[0]) if name in COMPUTED_COLUMNS.get(command, ())]
    return [row[i] for row in rows[1:] for i in columns
            if row[i] and 0.0 < abs(float(row[i])) < sys.float_info.min]


@pytest.mark.parametrize("command", EXTREME_INVOCATIONS)
def test_extreme_inputs_end_in_an_exit_code(capsys, command):
    # 98 of these 671 calls raised, at five sites in the box oracle (two of
    # them RuntimeWarnings) and two in the phonon table, and 12 tables that
    # exited 0 held a nan cell; 8 phonon tables that exited 0 held an inf
    # lambda_m, 2 pi c / omega_m with 2 pi c past double range; 2 scans that
    # exited 0 held a subnormal z and degeneracy, and 3 phonon tables (2
    # distinct calls) a subnormal omega_max
    bad = {"nan", "inf", "-inf"} if command in ("phonon", "oracle") else {"nan"}
    failures = []
    for argv in EXTREME_INVOCATIONS[command]:
        try:
            code = main(argv)
        except Exception as exc:
            failures.append((argv, repr(exc)))
            capsys.readouterr()
            continue
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        cells = {cell for row in rows for cell in row}
        if code not in (0, 1, 2) or code == 0 and (bad & cells or subnormal_cells(command, rows)):
            failures.append((argv, code))
    assert failures == []
