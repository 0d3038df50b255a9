import csv
import io
import math

import pytest

from fermiwire import (
    DomainError,
    GasParameters,
    PhononMedium,
    UnitSystem,
    constants_for,
    correspondence_check,
    debye_momentum,
    debye_omega_max,
    debye_wavelength,
    fermi_energy,
    fermi_momentum,
    phonon_max_energy,
)
from fermiwire.cli import main
from oracles import DEBYE_SPACING_RATIO, EPS_F_REDUCED, OMEGA_M_REDUCED


def test_omega_max_reference():
    value = debye_omega_max(PhononMedium(c=1.0, nu=1.0))
    assert abs(value - OMEGA_M_REDUCED) / OMEGA_M_REDUCED < 1e-14


def test_omega_max_scaling():
    base = debye_omega_max(PhononMedium(c=1.0, nu=1.0))
    assert debye_omega_max(PhononMedium(c=2.0, nu=1.0)) == pytest.approx(
        2.0 * base, rel=1e-15
    )
    assert debye_omega_max(PhononMedium(c=1.0, nu=8.0)) == pytest.approx(
        base / 2.0, rel=1e-15
    )


def test_momentum_is_c_independent():
    values = {debye_momentum(PhononMedium(c=c, nu=1.0)) for c in (0.1, 1.0, 10.0)}
    assert len(values) == 1
    assert values.pop() == pytest.approx((6.0 * math.pi ** 2) ** (1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("nu", [1e-300, 1e-150, 0.7, 1e150, 1e300])
def test_wavelength_and_momentum_read_no_sound_speed(nu):
    # c enters omega_m alone: every c the medium takes gives the same bits
    media = []
    for c in [10.0 ** e for e in range(-300, 308, 7)] + [1.7e308]:
        try:
            media.append(PhononMedium(c=c, nu=nu))
        except DomainError:  # omega_m = c k_m past double range
            pass
    assert len(media) > 40
    assert len({debye_wavelength(medium) for medium in media}) == 1
    for unit_system in UnitSystem:
        assert len({debye_momentum(medium, unit_system) for medium in media}) == 1


def phonon_row(capsys, args):
    """Exit code and the one row of an in-process `tabulate phonon`, keyed by column."""
    code = main(["tabulate", "phonon", *args])
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    return code, dict(zip(header, map(float, row)))


def test_wavelength_past_two_pi_c_overflow(capsys):
    # 2 pi c overflowed at c = 1.7e308, and lambda_m read inf; the value is 40-digit mpmath's
    code, row = phonon_row(capsys, ["--nu", "1e300:1e300:1", "--c", "1.7e308"])
    assert code == 0
    assert row["lambda_m"] == 1.6119919540164696e+100


def test_si_momentum_at_tiny_sound_speed(capsys):
    # hbar omega_m / c underflowed at c = 1e-300, and eps_m with it
    code, row = phonon_row(capsys, ["--c", "1e-300", "--units", "si"])
    assert code == 0
    assert row["p_m"] == row["p_F"] == 4.1104858702863606e-34
    assert row["eps_m"] == row["eps_F"]


def test_de_broglie_relation():
    for c in (0.5, 1.0, 4.0):
        for nu in (0.2, 1.0, 5.0):
            medium = PhononMedium(c=c, nu=nu)
            h = constants_for(UnitSystem.REDUCED).h
            product = debye_wavelength(medium) * debye_momentum(medium)
            assert abs(product - h) / h < 1e-12


def test_wavelength_to_spacing_ratio():
    # lambda_m over nu^{1/3} is the pure number 2 pi / (6 pi^2)^{1/3} ~ 1.612
    for nu in (0.3, 1.0, 27.0):
        medium = PhononMedium(c=1.7, nu=nu)
        ratio = debye_wavelength(medium) / nu ** (1.0 / 3.0)
        assert abs(ratio - DEBYE_SPACING_RATIO) / DEBYE_SPACING_RATIO < 1e-13


def test_max_energy_reference():
    value = phonon_max_energy(PhononMedium(c=3.0, nu=1.0), 1.0)
    assert abs(value - EPS_F_REDUCED) / EPS_F_REDUCED < 1e-13


def test_max_energy_scaling():
    base = phonon_max_energy(PhononMedium(c=1.0, nu=1.0), 1.0)
    assert phonon_max_energy(PhononMedium(c=1.0, nu=8.0), 1.0) == pytest.approx(
        base / 4.0, rel=1e-13
    )
    assert phonon_max_energy(PhononMedium(c=9.0, nu=1.0), 1.0) == pytest.approx(
        base, rel=1e-14
    )


def test_correspondence_identity():
    report = correspondence_check(PhononMedium(c=1.0, nu=1.0), 1.0)
    assert report.rel_diff_energy <= 1e-12
    assert report.rel_diff_momentum <= 1e-12
    assert report.eps_m == pytest.approx(report.eps_F, rel=1e-14)


def test_correspondence_grid():
    grid = [0.5, 1.0, 2.0, 4.0]
    for nu in grid:
        for m in grid:
            for c in grid:
                report = correspondence_check(PhononMedium(c=c, nu=nu), m)
                assert report.rel_diff_energy <= 1e-12
                assert report.rel_diff_momentum <= 1e-12


def test_correspondence_against_fermi_module():
    medium = PhononMedium(c=2.2, nu=0.7)
    params = GasParameters(m=1.3, T=1.0, nu=0.7)
    assert phonon_max_energy(medium, 1.3) == pytest.approx(
        fermi_energy(params), rel=1e-13
    )
    assert debye_momentum(medium) == pytest.approx(fermi_momentum(params), rel=1e-13)


def test_si_units():
    medium = PhononMedium(c=5000.0, nu=1e-29)
    report = correspondence_check(medium, 9.1093837015e-31, UnitSystem.SI)
    assert report.rel_diff_energy <= 1e-12
    assert report.rel_diff_momentum <= 1e-12


def test_medium_validation():
    with pytest.raises(DomainError):
        PhononMedium(c=0.0, nu=1.0)
    with pytest.raises(DomainError):
        PhononMedium(c=1.0, nu=-1.0)
