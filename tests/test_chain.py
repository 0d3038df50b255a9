import math
import random
import re
import sys

import pytest

from fermiwire import (
    CLOSURE_RATIO,
    ChainParameters,
    ClosureResult,
    DomainError,
    GasParameters,
    UnitSystem,
    closure_temperature,
    constants_for,
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
        (1e16, 5e-308, 1e300, "d"),  # L/N is subnormal, so a closure T would be 2.4 % off
    ],
)
def test_chain_rejects_non_finite_input(N, L, m, field):
    # these reached closure_temperature, which divided by zero or blamed the temperature;
    # d = L/N is computed, so it is held to the computed-number rule
    if field == "d":
        message = "^d = L/N must be a positive normal double, got "
    else:
        message = "^%s must be a positive finite number, got " % field
    with pytest.raises(DomainError, match=message):
        ChainParameters(N=N, L=L, m=m)


@pytest.mark.parametrize(
    "N, L, m, in_range",
    [
        (1.0, 1e-170, 1.0, False),  # m d^2 underflows to 0
        (1.0, 1e170, 1e-300, True),  # d^2 overflows, m d^2 does not
        (1.0, 1.0, 1e-320, False),  # kT overflows
        (1.0, 1e10, 1e-308, True),  # hbar^2/(2m) (6 pi^2)^(2/3) overflows, kT does not
        (1.0, 1.0, 4e-308, True),  # kT = 1.5e308, so kT_F = 1.27 kT is past double range
        (1.0, 10.0, 1e-309, True),  # v_F = hbar pi/(m d) overflows, kT does not: residual nan
        (1.0, 1e-80, 1.0, True),  # (kT)^2 overflows: residual inf
        (1.0, 1e80, 1.0, True),  # (kT)^2 is subnormal: residual 1.9e-6 kT
        (1.0, 1e160, 1.0, False),  # T is 6e-320, and read 0: "T must be a positive finite ..."
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
    assert result.residual <= 1e-12 * result.T


@pytest.mark.parametrize("N, L, m", [(1.0, 1e-200, 1e-200), (1.0, 1e-150, 1e-170)])
def test_fermi_velocity_past_double_range(N, L, m):
    # m d underflowed to 0 in the first and divided by zero; the second was inf already
    assert fermi_velocity(ChainParameters(N=N, L=L, m=m)) == math.inf


def test_fermi_velocity_keeps_its_bits():
    for chain in (ChainParameters(3.0, 0.7, 1.3), ChainParameters(1.0, 1e-150, 1e-157)):
        assert fermi_velocity(chain) == math.pi / (chain.m * chain.d)


def reference_closure(chain, unit_system):
    """The closure formed at m and d themselves, as it was before its mantissa form.

    None where an intermediate of that formula is not a normal double.
    """
    consts = constants_for(unit_system)
    d = chain.d
    md, md2 = chain.m * d, chain.m * d * d
    try:
        kT = 6.0 * consts.hbar ** 2 / md2
        T = kT / consts.k_B
        v_F = consts.hbar * math.pi / md
        kT2 = consts.k_B * T
        e = math.pi * kT2 * kT2 / (6.0 * consts.hbar * v_F)
    except ZeroDivisionError:
        return None
    steps = [md, md2, kT, T, v_F, kT2, math.pi * kT2, math.pi * kT2 * kT2,
             6.0 * consts.hbar * v_F, e, e * d]
    if not all(sys.float_info.min <= x < math.inf for x in steps):
        return None
    residual = abs(kT - e * d)
    m, d = math.frexp(chain.m)[0], math.frexp(d)[0]
    kT_F = (consts.hbar ** 2 / (2.0 * m)) * (6.0 * math.pi ** 2) ** (2.0 / 3.0) / (d * d)
    return ClosureResult(T=T, ratio=6.0 * consts.hbar ** 2 / (m * d * d) / kT_F, residual=residual)


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


@pytest.mark.parametrize("unit_system", list(UnitSystem))
def test_closure_matches_its_reference_bit_for_bit(unit_system):
    rng = random.Random(20)
    compared = 0
    for _ in range(16000):
        chain = ChainParameters(log_uniform(rng, -5, 5), log_uniform(rng, -100, 100),
                                log_uniform(rng, -100, 100))
        reference = reference_closure(chain, unit_system)
        if reference is not None:
            assert closure_temperature(chain, unit_system) == reference, chain
            compared += 1
    assert compared >= 10000


@pytest.mark.parametrize("unit_system", list(UnitSystem))
def test_closure_holds_at_every_scale(unit_system):
    # the residual was inf or 1.9e-6 kT at the ends of double range, and a T
    # that underflowed to 0 was blamed on the temperature argument
    k_B = constants_for(unit_system).k_B
    rng = random.Random(21)
    for _ in range(10000):
        chain = ChainParameters(log_uniform(rng, -5, 5), log_uniform(rng, -170, 170),
                                log_uniform(rng, -300, 300))
        try:
            result = closure_temperature(chain, unit_system)
        except DomainError as exc:
            assert repr(chain) in str(exc)
            continue
        assert abs(result.ratio - CLOSURE_RATIO) <= 1e-12, chain
        kT = k_B * result.T
        assert kT < sys.float_info.min or result.residual <= 1e-12 * kT, chain
