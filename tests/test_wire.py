"""Quasi-1D reduction: the count bound, the exact integral, the classifier."""

import math

import numpy as np
import pytest

from fermiwire import (
    DomainError,
    GasParameters,
    QuantumIntegralOrder,
    Regime,
    RegimeThresholds,
    Statistics,
    ThermalState,
    WireGeometry,
    ZETA_THREE_HALVES,
    classify_regime,
    classify_wire,
    number_integral_quasi1d,
    quantum_integral,
    rhs_eq3,
    sigma_critical,
    solve_thermal_state,
)
from oracles import ETA_HALF, fd_series

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN


def make_state(z, degeneracy, lam=1.0):
    return ThermalState(log_z=math.log(z), lam=lam, degeneracy=degeneracy)


class TestRhs:
    def test_examples(self):
        assert rhs_eq3(make_state(1.0, 1.0), WireGeometry(1e-6)) == 1e-6
        assert rhs_eq3(make_state(2.0, 0.2), WireGeometry(0.05)) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_linearity(self):
        state = make_state(3.0, 0.7)
        base = rhs_eq3(state, WireGeometry(1e-6)) / 1e-6
        for s in np.geomspace(1e-6, 1.0, 10):
            ratio = rhs_eq3(state, WireGeometry(float(s))) / float(s)
            assert abs(ratio / base - 1.0) <= 1e-12

    def test_doubling_sigma_doubles(self):
        state = make_state(1.3, 0.4)
        one = rhs_eq3(state, WireGeometry(0.01))
        two = rhs_eq3(state, WireGeometry(0.02))
        assert two == pytest.approx(2.0 * one, rel=1e-15)


class TestNumberIntegral:
    def test_mb_closed_form(self):
        for z in (1e-3, 0.5, 2.0, 50.0):
            for deg in (0.1, 1.0, 3.0):
                state = make_state(z, deg)
                wire = WireGeometry(0.05)
                exact = number_integral_quasi1d(MB, state, wire)
                assert abs(exact / rhs_eq3(state, wire) - 1.0) < 1e-10

    def test_fd_at_unit_fugacity(self):
        value = number_integral_quasi1d(FD, make_state(1.0, 1.0), WireGeometry(1.0))
        assert abs(value - ETA_HALF) / ETA_HALF < 1e-11

    def test_fd_matches_series_oracle(self):
        for z in np.geomspace(1e-3, 1.0, 10):
            value = number_integral_quasi1d(
                FD, make_state(float(z), 1.0), WireGeometry(1.0)
            )
            assert abs(value - fd_series(0.5, float(z))) / fd_series(0.5, float(z)) < 1e-9

    def test_fd_matches_f_half_above_series_domain(self):
        for z in np.geomspace(1.0, 10.0, 8):
            value = number_integral_quasi1d(
                FD, make_state(float(z), 1.0), WireGeometry(1.0)
            )
            f_half = quantum_integral(FD, QuantumIntegralOrder.ONE_HALF, float(z))
            assert abs(value - f_half) / f_half < 1e-9

    def test_fd_below_mb(self):
        for z in (0.01, 0.5, 2.0, 20.0):
            state = make_state(z, 1.0)
            wire = WireGeometry(0.3)
            assert number_integral_quasi1d(FD, state, wire) < number_integral_quasi1d(
                MB, state, wire
            )

    def test_be_above_mb(self):
        for z in (0.01, 0.5, 0.95):
            state = make_state(z, 1.0)
            wire = WireGeometry(0.3)
            assert number_integral_quasi1d(BE, state, wire) > number_integral_quasi1d(
                MB, state, wire
            )

    def test_be_requires_subunit_fugacity(self):
        with pytest.raises(DomainError):
            number_integral_quasi1d(BE, make_state(1.0, 1.0), WireGeometry(0.1))

    def test_mb_fugacity_past_double_range(self):
        # up to ln z = ln(DBL_MAX) the count sigma_tilde z/degeneracy holds; past
        # it e^(ln z - pi q^2) overflows at the nodes and so does the count
        top = ThermalState(log_z=math.log(1.7976931348623157e308), lam=1.0, degeneracy=1.0)
        value = number_integral_quasi1d(MB, top, WireGeometry(1.0))
        assert abs(value / top.z - 1.0) < 1e-10
        for log_z in (709.79, 800.0):
            state = ThermalState(log_z=log_z, lam=1.0, degeneracy=1.0)
            with pytest.raises(DomainError, match="double range"):
                number_integral_quasi1d(MB, state, WireGeometry(1.0))

    def test_degenerate_fd(self):
        # deep in the degenerate regime the integral tracks 2 sqrt(ln z / pi)
        state = make_state(math.exp(500.0), 1.0)
        value = number_integral_quasi1d(FD, state, WireGeometry(1.0))
        f_half = quantum_integral(FD, QuantumIntegralOrder.ONE_HALF, log_z=500.0)
        assert abs(value - f_half) / f_half < 1e-9


# Dense sweeps of number_integral_quasi1d at sigma_tilde = degeneracy = 1,
# where it equals F_{1/2}(z): BE alpha = -ln z, FD ln z on both sides of 0
# up to 1e4, MB ln z up to 700 (the count is then z itself).
DENSE_BE_ALPHA = [float(a) for a in np.geomspace(1e-12, 28.0, 60)]
DENSE_FD_LOG_Z = (
    [-float(x) for x in np.geomspace(28.0, 1e-6, 20)]
    + [0.0]
    + [float(x) for x in np.geomspace(1e-6, 1e4, 30)]
)
DENSE_MB_LOG_Z = [float(x) for x in np.linspace(-28.0, 700.0, 40)]


@pytest.mark.parametrize(
    "stat, log_zs, reference",
    [
        (BE, [-a for a in DENSE_BE_ALPHA], lambda mp, x: mp.polylog(0.5, mp.exp(x))),
        (FD, DENSE_FD_LOG_Z, lambda mp, x: -mp.polylog(0.5, -mp.exp(x))),
        (MB, DENSE_MB_LOG_Z, lambda mp, x: mp.exp(x)),
    ],
    ids=["be", "fd", "mb"],
)
def test_number_integral_dense_against_mpmath(stat, log_zs, reference):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for log_z in log_zs:
            want = float(mpmath.re(reference(mpmath, mpmath.mpf(log_z))))
            state = ThermalState(log_z=log_z, lam=1.0, degeneracy=1.0)
            got = number_integral_quasi1d(stat, state, WireGeometry(1.0))
            assert abs(got - want) / want <= 1e-12, log_z


class TestClassifier:
    def consistent(self, nu, stat=FD, sigma=1e-6, thresholds=None):
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=nu)
        return classify_regime(params, WireGeometry(sigma), thresholds, stat)

    def test_bosonized_example(self):
        state = make_state(1.0, 1.0)
        f_half = quantum_integral(FD, QuantumIntegralOrder.ONE_HALF, log_z=0.0)
        report = classify_wire(state, f_half, WireGeometry(1e-6))
        assert report.regime is Regime.BOSONIZED
        assert report.rhs_approx == pytest.approx(1e-6, rel=1e-12)
        assert not report.inequality_holds

    def test_bosonized_classical_example(self):
        report = self.consistent(nu=1e3)  # degeneracy 1e-3 < 0.01, tiny sigma
        assert report.regime is Regime.BOSONIZED_CLASSICAL
        assert not report.inequality_holds

    def test_boltzmann_converged_example(self):
        # same dilute state but a cross-section big enough to satisfy the bound
        report = self.consistent(nu=1e3, sigma=2e3)
        assert report.regime is Regime.BOLTZMANN_CONVERGED
        assert report.inequality_holds

    def test_degenerate_example(self):
        lnz = 200.0
        deg = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, log_z=lnz)
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0 / deg)
        report = classify_regime(params, WireGeometry(1e-6))
        assert report.regime is Regime.DEGENERATE_SUB_FERMI

    def test_degenerate_takes_priority(self):
        # a point satisfying both the degenerate and Boltzmann branches must
        # land on DegenerateSubFermi (documented cascade order)
        thresholds = RegimeThresholds(z_degenerate=1.1, deg_classical=0.9)
        state = make_state(1.15, 0.85)
        f_half = quantum_integral(FD, QuantumIntegralOrder.ONE_HALF, log_z=state.log_z)
        report = classify_wire(state, f_half, WireGeometry(10.0), thresholds)
        assert report.inequality_holds
        assert state.degeneracy <= thresholds.deg_classical
        assert report.regime is Regime.DEGENERATE_SUB_FERMI

    def test_totality_and_determinism(self):
        # rhs_exact is the closed form sigma_tilde F_{1/2}(z)/degeneracy in the
        # state's statistics; the q-space quadrature is its reference
        for stat in (FD, BE, MB):
            for nu in np.geomspace(1e-2, 1e4, 12):
                if stat is BE and 1.0 / nu > ZETA_THREE_HALVES:
                    continue  # condensed: no Bose fugacity
                params = GasParameters(m=1.0, T=2.0 * math.pi, nu=float(nu))
                state = solve_thermal_state(params, stat)
                for sigma in (1e-6, 0.5, 1e2):
                    first = self.consistent(nu=float(nu), stat=stat, sigma=sigma)
                    second = self.consistent(nu=float(nu), stat=stat, sigma=sigma)
                    assert isinstance(first.regime, Regime)
                    assert first.regime is second.regime
                    assert first.rhs_exact == second.rhs_exact
                    assert first.inequality_holds == (first.rhs_approx > 1.0)
                    quad = number_integral_quasi1d(stat, state, WireGeometry(sigma))
                    assert abs(first.rhs_exact - quad) / quad <= 1e-9

    def test_bosonized_monotone_in_sigma(self):
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0)
        sigma0 = 0.3
        assert classify_regime(params, WireGeometry(sigma0)).regime is Regime.BOSONIZED
        for sigma in np.geomspace(1e-9, sigma0, 12):
            report = classify_regime(params, WireGeometry(float(sigma)))
            assert report.regime is Regime.BOSONIZED

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            RegimeThresholds(z_degenerate=0.5)  # must sit above 1
        with pytest.raises(DomainError):
            RegimeThresholds(deg_classical=1.5)  # must sit below 1
        RegimeThresholds()


class TestSigmaCritical:
    def test_examples(self):
        assert sigma_critical(make_state(1.0, 1.0)) == 1.0
        assert sigma_critical(make_state(2.0, 0.2)) == pytest.approx(0.1, rel=1e-14)

    def test_rhs_at_critical_sigma_is_one(self):
        for z in (0.1, 1.0, 7.0):
            for deg in (0.05, 1.0, 2.5):
                state = make_state(z, deg)
                star = sigma_critical(state)
                assert abs(rhs_eq3(state, WireGeometry(star)) - 1.0) <= 1e-12

    def test_exact_variant(self):
        state = make_state(0.7, 1.3)
        star_exact = sigma_critical(state, FD)
        f_half = quantum_integral(FD, QuantumIntegralOrder.ONE_HALF, 0.7)
        assert star_exact == pytest.approx(
            sigma_critical(state) * 0.7 / f_half, rel=1e-12
        )
        value = number_integral_quasi1d(FD, state, WireGeometry(star_exact))
        assert value == pytest.approx(1.0, rel=1e-9)


def test_wire_geometry_validation():
    with pytest.raises(DomainError):
        WireGeometry(0.0)
    with pytest.raises(DomainError):
        WireGeometry(-0.5)
    for value in (math.inf, math.nan):
        with pytest.raises(DomainError,
                           match="^sigma_tilde must be a positive finite number, got %r$" % value):
            WireGeometry(value)
