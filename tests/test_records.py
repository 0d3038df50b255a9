"""The record contract: every record is an immutable collections.namedtuple."""

import math
import re

import pytest

from fermiwire import (
    BoxSpectrum,
    ChainParameters,
    ClosureResult,
    ConfigError,
    ContinuumComparison,
    CorrespondenceReport,
    DomainError,
    GasParameters,
    PhononMedium,
    PhysicalConstants,
    Regime,
    RegimeReport,
    RegimeThresholds,
    Statistics,
    ThermalState,
    UnitSystem,
    WireGeometry,
    solve_thermal_state,
)
from fermiwire.cli import AxisSpec, ScanConfig

SCAN_DEFAULTS = dict(
    t_axis=AxisSpec(2.0 * math.pi, 2.0 * math.pi, 1),
    nu_axis=AxisSpec(1.0, 1.0, 1),
    sigma_axis=AxisSpec(1e-6, 1e-6, 1),
    statistics=Statistics.FERMI_DIRAC,
    thresholds=RegimeThresholds(z_degenerate=100.0, deg_classical=0.01),
    unit_system=UnitSystem.REDUCED,
    out_path="-",
    out_format="csv",
)

# (record, field values in field order, its defaults, invalid fields, the error they raise)
RECORDS = [
    (PhysicalConstants, dict(hbar=1.0, k_B=2.0, mass_ref=3.0), {}, None, None),
    (GasParameters, dict(m=1.0, T=2.0, nu=3.0, unit_system=UnitSystem.SI),
     dict(unit_system=UnitSystem.REDUCED), dict(m=1.0, T=-1.0, nu=1.0),
     DomainError("T must be a positive finite number, got -1.0")),
    (ThermalState, dict(log_z=0.5, lam=1.0, degeneracy=2.0), {},
     dict(log_z=math.nan, lam=1.0, degeneracy=1.0), DomainError("log_z must be finite, got nan")),
    (ChainParameters, dict(N=1.0, L=2.0, m=3.0), {}, dict(N=1.0, L=0.0, m=1.0),
     DomainError("L must be a positive finite number, got 0.0")),
    (ClosureResult, dict(T=1.0, ratio=0.5, residual=0.0), {}, None, None),
    (PhononMedium, dict(c=1.0, nu=2.0), {}, dict(c=1e300, nu=1e-300),
     DomainError("Debye frequency at c = 1e+300, nu = 1e-300 must be a positive normal double,"
                 " got inf")),
    (CorrespondenceReport, dict(eps_m=1.0, eps_F=2.0, p_m=3.0, p_F=4.0, rel_diff_energy=0.5,
                                rel_diff_momentum=0.25), {}, None, None),
    (WireGeometry, dict(sigma_tilde=0.5), {}, dict(sigma_tilde=math.inf),
     DomainError("sigma_tilde must be a positive finite number, got inf")),
    (RegimeThresholds, dict(z_degenerate=50.0, deg_classical=0.1),
     dict(z_degenerate=100.0, deg_classical=0.01), dict(deg_classical=1.0),
     DomainError("thresholds must satisfy z_degenerate > 1 > deg_classical > 0")),
    (RegimeReport, dict(rhs_approx=1.0, rhs_exact=2.0, inequality_holds=False,
                        regime=Regime.BOSONIZED), {}, None, None),
    # axis_levels holds one tuple of floats per axis
    (BoxSpectrum, dict(cutoff=(1, 1, 1), axis_levels=((0.0, 1.0),) * 3), {}, None, None),
    (ContinuumComparison, dict(N_discrete=1.0, N_continuum_3d=2.0, N_continuum_quasi1d=3.0,
                               rel_err_3d=4.0, rel_err_quasi1d=5.0, ground_mode_fraction=0.5,
                               sigma_tilde_fitted=6.0, truncation_bound=7.0), {}, None, None),
    (AxisSpec, dict(minimum=1.0, maximum=2.0, points=3, spacing="log"), dict(spacing="linear"),
     dict(minimum=2.0, maximum=1.0, points=3), ConfigError("axis needs min <= max, got 2 > 1")),
    (ScanConfig, dict(SCAN_DEFAULTS, statistics=Statistics.BOSE_EINSTEIN, out_format="json"),
     SCAN_DEFAULTS, None, None),
]


@pytest.mark.parametrize("record, fields, defaults, invalid, error", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(record, fields, defaults, invalid, error):
    by_name, by_position = record(**fields), record(*fields.values())
    assert record._fields == tuple(fields)
    assert by_name == by_position == tuple(fields.values())
    assert type(by_name) is type(by_position) is record
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_name, name, 1.0)
    assert by_name == by_position
    assert record._field_defaults == defaults
    required = [value for name, value in fields.items() if name not in defaults]
    assert record(*required) == (*required, *defaults.values())
    if error is not None:
        # _replace builds through _make: neither may skip the constructor's checks
        for build in (lambda: record(**invalid), lambda: by_name._replace(**invalid),
                      lambda: record._make({**fields, **invalid}.values())):
            with pytest.raises(type(error), match="^%s$" % re.escape(str(error))) as info:
                build()
            assert type(info.value) is type(error)


def test_fugacity_is_not_assignable():
    state = solve_thermal_state(GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0))
    z = state.z
    with pytest.raises(AttributeError):
        state.z = 5.0
    assert state.z == z == math.exp(state.log_z)
