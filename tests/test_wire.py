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
from fermiwire import specfun
from fermiwire._kernel_tables import GAUSS_LEGENDRE_16
from fermiwire.cli import AxisSpec
from fermiwire.thin_wire import _panel_edges
from oracles import ETA_HALF, fd_series, occupation_at

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

    def test_be_alpha_past_reciprocal_range(self):
        # below alpha = -ln z = 1/DBL_MAX the integrand's top, 1/expm1(alpha)
        # = 1/alpha, overflows; at the smallest normal alpha it still holds
        for alpha in (5e-324, 1e-320, 1e-310):
            state = ThermalState(log_z=-alpha, lam=1.0, degeneracy=1.0)
            with pytest.raises(DomainError, match="1/ln z finite, got ln z = -%r" % alpha):
                number_integral_quasi1d(BE, state, WireGeometry(1.0))
        state = ThermalState(log_z=-2.3e-308, lam=1.0, degeneracy=1.0)
        got = number_integral_quasi1d(BE, state, WireGeometry(1.0))
        want = quantum_integral(BE, QuantumIntegralOrder.ONE_HALF, log_z=-2.3e-308)
        assert abs(got / want - 1.0) < 1e-9

    def test_layout_cache_stays_small(self):
        # 200 distinct BE panel edge sets leave at most the cache's few layouts
        specfun._layout.cache_clear()
        for alpha in AxisSpec(1e-3, 30.0, 200, "log").values():
            number_integral_quasi1d(BE, ThermalState(-alpha, 1.0, 1.0), WireGeometry(1.0))
        info = specfun._layout.cache_info()
        assert info.misses == 200
        assert info.currsize <= info.maxsize <= 4

    @pytest.mark.parametrize("stat,log_z", [
        *((FD, y) for y in (-700.0, -30.0, -1.0, -1e-9, 0.0, 1e-9, 3.0, 39.5, 65.0, 1234.5, 1e4)),
        *((BE, -alpha) for alpha in (2.3e-308, 1e-200, 1e-12, 1e-3, 0.5, 1.0, 7.0, 30.0)),
        *((MB, y) for y in (-700.0, -30.0, 0.0, 3.0, 300.0, 709.0)),
    ])
    def test_batched_integrand_is_the_per_node_sum(self, stat, log_z):
        # the level-by-level rule at each 16-node point, panel by panel, the
        # terms through math.fsum: every bit the same as one call per rule
        # (FD at ln z = -700 takes e^w's overflow fallback at the top nodes)
        nodes, weights = GAUSS_LEGENDRE_16
        edges = [u / math.sqrt(math.pi) for u in _panel_edges(stat, log_z)]
        value = math.fsum(
            half * w * occupation_at(stat.value, math.pi * q * q - log_z)
            for a, b in zip(edges, edges[1:]) for centre, half in [(0.5 * (b + a), 0.5 * (b - a))]
            for x, w in zip(nodes, weights) for q in [centre + half * x])
        state = ThermalState(log_z=log_z, lam=1.0, degeneracy=1.3)
        assert number_integral_quasi1d(stat, state, WireGeometry(0.7)) == 0.7 * (2.0 * value / 1.3)

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

    def test_count_formed_ratio_first(self):
        # sigma_tilde * F/degeneracy is about 1e-150, though sigma_tilde * F
        # alone underflows; relative error compared directly, as approx's
        # default absolute tolerance would pass a 0
        state = ThermalState(log_z=math.log(1e-225), lam=1.0, degeneracy=1e-225)
        wire = WireGeometry(1e-150)
        want = rhs_eq3(state, wire)
        for stat in (MB, FD, BE):
            assert abs(number_integral_quasi1d(stat, state, wire) / want - 1.0) < 1e-14, stat

    def test_bose_panel_edges_match_union1d(self):
        # the set merge of the even and graded edges is np.union1d's array,
        # element for element, over alpha from 1e-300 to 100 and at alphas
        # whose sqrt lands on an even edge
        top = math.sqrt(60.0)
        even = np.linspace(0.0, top, 17)
        rng = np.random.default_rng(28)
        alphas = [*(10.0 ** rng.uniform(-300.0, 2.0, 5000)).tolist(),
                  *(float(e) ** 2 for e in even[1:]), *(60.0 / 4.0 ** k for k in range(8)),
                  5e-324, 60.0, 100.0]
        for alpha in alphas:
            root = math.sqrt(alpha)
            graded = [root * 2.0 ** k for k in range(600) if root * 2.0 ** k < top]
            want = np.union1d(even, graded)
            got = _panel_edges(BE, -alpha)
            assert got == want.tolist(), alpha

    @pytest.mark.parametrize("stat", [FD, BE, MB], ids=lambda s: s.value)
    @pytest.mark.parametrize("log_z", [-700.0, -28.0, -1.0, -1e-9, 0.0, 1e-9, 3.0, 39.5, 40.0,
                                       65.0, 1234.5, 1e4])
    def test_panel_edges_match_numpy(self, stat, log_z):
        # the pure-Python edges are the numpy expressions they replace, bit
        # for bit, as Python floats
        if stat is BE and not log_z < 0.0:
            return
        if stat is BE:
            want = np.union1d(np.linspace(0.0, math.sqrt(60.0), 17),
                              [math.sqrt(-log_z) * 2.0 ** k for k in range(600)
                               if math.sqrt(-log_z) * 2.0 ** k < math.sqrt(60.0)])
        else:
            y = 0.0 if stat is MB else log_z
            t_lo = max(y - 40.0, 0.0)
            t = t_lo + (max(y, 0.0) + 60.0 - t_lo) * np.linspace(0.0, 1.0, 26)
            want = np.sqrt(np.concatenate(([0.0], t)))
        got = _panel_edges(stat, log_z)
        assert all(type(u) is float for u in got)
        assert got == want.tolist()


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

    @pytest.mark.parametrize("sigma", [3e-308, 1e-320, 5e-324])
    def test_subnormal_count_is_refused(self, sigma):
        # at lambda = nu = 1 a Bose rhs_approx of 3e-308 z/degeneracy read 2.1e-308
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0)
        with pytest.raises(DomainError, match="^rhs_approx must be a positive normal double or "
                                              "inf, got "):
            classify_regime(params, WireGeometry(sigma), stat=BE)

    def test_each_count_is_checked(self):
        # rhs_approx = 1e-300 is normal, rhs_exact = 1e-310 is not
        with pytest.raises(DomainError, match=r"^rhs_exact .* got 1e-310$"):
            classify_wire(make_state(1e10, 1.0), 1.0, WireGeometry(1e-310))
        # the least normal count passes, and so does a count past double range
        tiny = classify_wire(make_state(1.0, 1.0), 1.0, WireGeometry(2.2250738585072014e-308))
        assert tiny.rhs_approx == tiny.rhs_exact == 2.2250738585072014e-308
        huge = classify_wire(ThermalState(800.0, 1.0, 1.0), 1.0, WireGeometry(1.0))
        assert huge.rhs_approx == math.inf and huge.rhs_exact == 1.0

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
