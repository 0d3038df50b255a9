import math
import re

import pytest

from fermiwire import (
    CLOSURE_RATIO,
    ChainParameters,
    DomainError,
    GasParameters,
    UnitSystem,
    closure_temperature,
    energy_density_1d,
    fermi_temperature,
    fermi_velocity,
)
from oracles import CLOSURE_RATIO as CLOSURE_RATIO_ORACLE


def test_fermi_velocity_reference():
    assert fermi_velocity(ChainParameters(N=1.0, L=1.0, m=1.0)) == pytest.approx(
        math.pi, rel=1e-15
    )


def test_fermi_velocity_scaling():
    base = fermi_velocity(ChainParameters(N=4.0, L=4.0, m=1.0))
    assert fermi_velocity(ChainParameters(N=4.0, L=8.0, m=1.0)) == pytest.approx(
        base / 2.0, rel=1e-15
    )
    assert fermi_velocity(ChainParameters(N=4.0, L=4.0, m=2.0)) == pytest.approx(
        base / 2.0, rel=1e-15
    )


def test_energy_density_reference():
    # kT = 1, v_F = pi gives e = 1/6
    assert energy_density_1d(1.0, math.pi) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_energy_density_scaling():
    e = energy_density_1d(3.0, 2.0)
    assert energy_density_1d(6.0, 2.0) == pytest.approx(4.0 * e, rel=1e-15)
    assert energy_density_1d(3.0, 4.0) == pytest.approx(e / 2.0, rel=1e-15)


def test_energy_density_rejects_bad_inputs():
    with pytest.raises(DomainError):
        energy_density_1d(0.0, 1.0)
    with pytest.raises(DomainError):
        energy_density_1d(1.0, -1.0)


def test_closure_reference_point():
    result = closure_temperature(ChainParameters(N=1.0, L=1.0, m=1.0))
    assert result.T == pytest.approx(6.0, rel=1e-15)
    assert result.residual <= 1e-12 * result.T


def test_closure_fixed_point_residual():
    for d in (0.1, 1.0, 7.0):
        for m in (0.3, 1.0, 12.0):
            chain = ChainParameters(N=1.0, L=d, m=m)
            result = closure_temperature(chain)
            kT = result.T
            e = energy_density_1d(result.T, fermi_velocity(chain))
            assert abs(kT - e * d) <= 1e-12 * kT


def test_closure_ratio_value():
    result = closure_temperature(ChainParameters(N=1.0, L=1.0, m=1.0))
    assert abs(result.ratio - CLOSURE_RATIO_ORACLE) < 1e-13
    assert abs(CLOSURE_RATIO - CLOSURE_RATIO_ORACLE) < 1e-15


def test_closure_ratio_scale_invariant():
    ratios = [
        closure_temperature(ChainParameters(N=1.0, L=d, m=m)).ratio
        for d in (0.05, 0.5, 1.0, 4.0, 30.0)
        for m in (0.1, 0.7, 1.0, 6.0, 40.0)
    ]
    assert max(ratios) - min(ratios) <= 1e-12


def test_closure_is_sub_fermi():
    result = closure_temperature(ChainParameters(N=3.0, L=2.0, m=0.8))
    assert result.ratio < 1.0


def test_ratio_consistent_with_bulk_fermi_temperature():
    # the ratio uses nu = d^3; rebuild it through the bulk Fermi scale
    chain = ChainParameters(N=1.0, L=2.0, m=1.5)
    result = closure_temperature(chain)
    params = GasParameters(m=chain.m, T=1.0, nu=chain.d ** 3)
    assert result.ratio == pytest.approx(
        result.T / fermi_temperature(params), rel=1e-13
    )


def test_si_units():
    chain = ChainParameters(N=1.0, L=1e-9, m=9.1093837015e-31)
    result = closure_temperature(chain, UnitSystem.SI)
    assert result.residual <= 1e-12 * result.T * 1.380649e-23
    assert result.ratio == pytest.approx(CLOSURE_RATIO_ORACLE, rel=1e-12)


def test_chain_validation():
    with pytest.raises(DomainError):
        ChainParameters(N=0.0, L=1.0, m=1.0)
    with pytest.raises(DomainError):
        ChainParameters(N=1.0, L=-1.0, m=1.0)
    assert ChainParameters(N=4.0, L=2.0, m=1.0).d == 0.5


@pytest.mark.parametrize(
    "N, L, m, field",
    [
        (math.inf, 1.0, 1.0, "N"),
        (1e300, 1e-300, 1.0, "d"),  # L/N underflows to 0
        (1.0, math.inf, 1.0, "L"),
        (1e-300, 1e300, 1.0, "d"),  # L/N overflows
        (1.0, 1.0, math.inf, "m"),
    ],
)
def test_chain_rejects_non_finite_input(N, L, m, field):
    # these reached closure_temperature, which divided by zero or blamed the temperature
    with pytest.raises(DomainError, match="^%s must be a positive finite number, got " % field):
        ChainParameters(N=N, L=L, m=m)


@pytest.mark.parametrize(
    "N, L, m, in_range",
    [
        (1.0, 1e-170, 1.0, False),  # m d^2 underflows to 0
        (1.0, 1e170, 1e-300, True),  # d^2 overflows, m d^2 does not
        (1.0, 1.0, 1e-320, False),  # kT overflows
        (1.0, 1e10, 1e-308, True),  # hbar^2/(2m) (6 pi^2)^(2/3) overflows, kT does not
        (1.0, 1.0, 4e-308, True),  # kT = 1.5e308, so kT_F = 1.27 kT is past double range
        (1.0, 10.0, 1e-309, True),  # v_F = hbar pi/(m d) overflows, kT does not
    ],
)
def test_closure_at_the_edges_of_double_range(N, L, m, in_range):
    # these divided by zero or returned T = inf with ratio nan, or ratio 0
    chain = ChainParameters(N=N, L=L, m=m)
    if not in_range:
        with pytest.raises(DomainError, match=re.escape(repr(chain))):
            closure_temperature(chain)
        return
    result = closure_temperature(chain)
    assert 0.0 < result.T < math.inf
    assert abs(result.ratio - CLOSURE_RATIO) <= 1e-12
