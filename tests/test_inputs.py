"""Input checks: one positive-finite rule, one message form, a typed error at every entry."""

import math

import numpy as np
import pytest

from fermiwire import (
    ChainParameters,
    DomainError,
    GasParameters,
    PhononMedium,
    Statistics,
    ThermalState,
    WireGeometry,
    direct_number_sum,
    energy_density_1d,
    enumerate_levels,
    occupation,
    phonon_max_energy,
    quantum_integral,
    solve_log_fugacity,
    thermal_wavelength,
)
from fermiwire import gas_statistics
from fermiwire.cli import main

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
    lambda: gas_statistics._occupations("fd", np.zeros(3)),
    lambda: solve_log_fugacity("fd", 1.0),
    lambda: quantum_integral("fd", 1.5, 0.5),
], ids=["occupation", "_occupations", "solve_log_fugacity", "quantum_integral"])
def test_statistics_must_be_a_member(call):
    with pytest.raises(DomainError, match="^stat must be a Statistics member, got 'fd'$"):
        call()


@pytest.mark.parametrize("stat", ["fd", "mb"])
def test_occupation_table_rejects_infinite_fugacity(capsys, stat):
    # it wrote an occupation of 1 (FD) or inf (MB) on every row and exited 0
    assert main(["tabulate", "occupation", "--stat", stat, "--z", "inf", "--grid", "0:1:3"]) == 1
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows == ['%s,inf,%s,,"z must be a positive finite number, got inf"' % (stat, be)
                    for be in ("0", "0.5", "1")]
