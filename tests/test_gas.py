"""Occupation numbers, fugacity inversion, and the bulk Fermi scale."""

import math
import re
import warnings

import numpy as np
import pytest

from fermiwire import (
    CondensationError,
    ConvergenceError,
    DomainError,
    GasParameters,
    QuantumIntegralOrder,
    SingularityError,
    Statistics,
    ThermalState,
    UnitSystem,
    ZETA_THREE_HALVES,
    fermi_energy,
    fermi_momentum,
    fermi_temperature,
    occupation,
    quantum_integral,
    solve_fugacity,
    solve_log_fugacity,
    solve_thermal_state,
)
from fermiwire import gas_statistics
from oracles import EPS_F_REDUCED, ETA_THREE_HALVES, fd_series

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN
N32 = QuantumIntegralOrder.THREE_HALVES


class TestOccupation:
    def test_fd_symmetric_point(self):
        assert occupation(FD, 1.0, 1.0, 0.0) == 0.5

    def test_be_example(self):
        # z = 1/2, beta*eps = ln 2 puts the denominator at 4 - 1 = 3
        value = occupation(BE, 0.5, 1.0, math.log(2.0))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_mb_form(self):
        assert occupation(MB, 2.0, 0.5, 3.0) == pytest.approx(
            2.0 * math.exp(-1.5), rel=1e-15
        )

    def test_fd_vs_mb_small_z(self):
        fd = occupation(FD, 1e-4, 1.0, 0.0)
        mb = occupation(MB, 1e-4, 1.0, 0.0)
        assert abs(fd - mb) / mb == pytest.approx(1e-4, rel=1e-3)

    def test_fd_stays_in_unit_interval(self):
        for z in (1e-8, 1.0, 1e8):
            for be in (0.0, 1.0, 100.0, 700.0):
                n = occupation(FD, z, 1.0, be)
                assert 0.0 < n < 1.0 or (n == 0.0 and be >= 700.0 and z <= 1.0)

    def test_statistics_ordering(self):
        for z in (1e-3, 0.3, 0.9):
            for be in (0.0, 0.5, 2.0, 10.0):
                n_fd = occupation(FD, z, 1.0, be)
                n_mb = occupation(MB, z, 1.0, be)
                n_be = occupation(BE, z, 1.0, be)
                assert n_fd <= n_mb <= n_be
                assert n_fd < n_be

    def test_boltzmann_convergence_bounds(self):
        # sup over beta*eps of the relative gap is attained at beta*eps = 0
        for z in (1e-4, 1e-6):
            worst_fd = worst_be = 0.0
            for be in np.linspace(0.0, 50.0, 201):
                n_mb = occupation(MB, z, 1.0, float(be))
                worst_fd = max(worst_fd, abs(occupation(FD, z, 1.0, float(be)) - n_mb) / n_mb)
                worst_be = max(worst_be, abs(occupation(BE, z, 1.0, float(be)) - n_mb) / n_mb)
            assert worst_fd <= z
            assert worst_be <= 2.0 * z

    def test_be_pole_raises(self):
        with pytest.raises(SingularityError):
            occupation(BE, 1.0, 1.0, 0.0)
        with pytest.raises(SingularityError):
            occupation(BE, 2.0, 1.0, math.log(2.0) / 2.0)

    @pytest.mark.parametrize("stat", [FD, BE, MB], ids=lambda s: s.value)
    def test_array_rule_matches_scalar(self, stat):
        # w = eps - ln z from -690 to 1e4, across 709.78 where e^w overflows
        eps = [0.0, *np.geomspace(1e-9, 1e4, 1500).tolist(), *np.linspace(700.0, 750.0, 101).tolist()]
        pairs = [(1.0, e) for e in eps] + [(z, 0.0) for z in np.geomspace(1.0 + 1e-9, 1e300, 500).tolist()]
        pairs = [(z, e) for z, e in pairs if stat is not BE or e - math.log(z) > 0.0]
        w = np.array([1.0 * e - math.log(z) for z, e in pairs])
        scalar = np.array([occupation(stat, z, 1.0, e) for z, e in pairs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = gas_statistics._occupations(stat, w.copy())
        np.testing.assert_array_equal(array == 0.0, scalar == 0.0)
        # the same expression, but numpy's exp and expm1 are not libm's: they
        # differ by an ulp on a few per cent of arguments, so allow two
        same = w <= 0.0 if stat is FD else np.ones(w.shape, bool)
        np.testing.assert_allclose(array[same], scalar[same], rtol=2.0 ** -51, atol=0.0)
        # FD above w = 0 goes through e^-w / (1 + e^-w)
        np.testing.assert_allclose(array[~same], scalar[~same], rtol=1e-15, atol=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            occupation(FD, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            occupation(FD, 1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            occupation(FD, 1.0, 1.0, -1.0)


class TestSolveFugacity:
    def test_fd_two_term_series(self):
        # inverting x = z - z^2/2^{3/2} + O(z^3) at x = 1e-3
        z = solve_fugacity(FD, 1e-3)
        two_term = 1e-3 + (1e-3) ** 2 / 2.0 ** 1.5
        assert z == pytest.approx(two_term, rel=1e-6)
        assert z == pytest.approx(0.0010003536109462678, rel=1e-10)

    def test_fd_at_eta_three_halves(self):
        z = solve_fugacity(FD, ETA_THREE_HALVES)
        assert abs(z - 1.0) < 1e-8

    def test_be_condensation_threshold(self):
        with pytest.raises(CondensationError):
            solve_fugacity(BE, ZETA_THREE_HALVES + 1e-6)
        assert solve_fugacity(BE, ZETA_THREE_HALVES) == 1.0

    def test_mb_identity(self):
        assert solve_fugacity(MB, 0.37) == 0.37

    def test_fd_round_trip(self):
        for x in np.geomspace(1e-6, 50.0, 50):
            z = solve_fugacity(FD, float(x))
            back = quantum_integral(FD, N32, z)
            assert abs(back - x) / x < 1e-10

    def test_be_round_trip(self):
        for x in np.geomspace(1e-6, ZETA_THREE_HALVES - 1e-6, 50):
            z = solve_fugacity(BE, float(x))
            back = quantum_integral(BE, N32, z)
            assert abs(back - x) / x < 1e-10

    def test_be_log_solver_near_condensation(self):
        # within ~1e-7 of zeta(3/2) no double z meets the 1e-10 contract;
        # ln z does, judged by a 30-digit g_{3/2}
        mpmath = pytest.importorskip("mpmath")
        for k in range(3, 10):
            x = ZETA_THREE_HALVES - 10.0 ** -k
            y = solve_log_fugacity(BE, x)
            with mpmath.workdps(30):
                back = mpmath.polylog(1.5, mpmath.exp(mpmath.mpf(y)))
                assert abs(back - x) / x <= 1e-10

    def test_fd_log_space_return(self):
        # at ln z = 1e4 the plain fugacity overflows a double and reads inf;
        # the companion solver hands back ln z itself
        x = quantum_integral(FD, N32, log_z=1e4)
        assert solve_fugacity(FD, x) == math.inf
        y = solve_log_fugacity(FD, x)
        assert 9999.0 < y < 10001.0
        back = quantum_integral(FD, N32, log_z=y)
        assert abs(back - x) / x < 1e-10

    def test_log_solver_agrees_below_threshold(self):
        for x in (1e-3, 1.0, 40.0):
            z = solve_fugacity(FD, x)
            y = solve_log_fugacity(FD, x)
            assert math.log(z) == pytest.approx(y, abs=1e-12)

    def test_degenerate_round_trip_log_space(self):
        for lnz in (400.0, 2000.0, 1e4):
            x = quantum_integral(FD, N32, log_z=lnz)
            y = solve_log_fugacity(FD, x)
            assert abs(y - lnz) / lnz < 1e-10

    def test_rejects_bad_degeneracy(self):
        with pytest.raises(DomainError):
            solve_fugacity(FD, 0.0)
        with pytest.raises(DomainError):
            solve_fugacity(FD, -1.0)

    @pytest.mark.parametrize("stat", [FD, BE, MB])
    def test_rejects_infinite_degeneracy(self, stat):
        with pytest.raises(DomainError):
            solve_log_fugacity(stat, math.inf)

    @pytest.mark.parametrize(
        "stat, degeneracies",
        [
            (FD, np.concatenate([np.geomspace(1e-300, 1e300, 400), [1.3e308, 1.7e308]])),
            (
                BE,
                np.concatenate(
                    [
                        np.geomspace(1e-300, 2.6, 200),
                        [ZETA_THREE_HALVES - 10.0 ** -k for k in range(3, 16)],
                    ]
                ),
            ),
        ],
        ids=["fd", "be"],
    )
    def test_residual_sweep(self, stat, degeneracies):
        # every finite degeneracy solves: up to 1.7e308 (ln z ~ 3.7e205) for FD,
        # and up to a few ulp below zeta(3/2) for BE
        for x in degeneracies:
            x = float(x)
            y = solve_log_fugacity(stat, x)
            back = quantum_integral(stat, N32, log_z=y)
            assert abs(back - x) <= 1e-10 * x, (x, y, back)

    def test_kernel_calls_per_solve(self, monkeypatch):
        # the closed-form bracket and seed keep each solve to a few Newton
        # steps of one fused (F_{3/2}, F_{1/2}) call each
        calls = []
        kernel = gas_statistics.density_and_slope

        def counted(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(gas_statistics, "density_and_slope", counted)
        sweeps = {
            FD: np.geomspace(1e-6, 1e6, 60),
            BE: np.concatenate(
                [
                    np.geomspace(1e-6, 2.6, 60),
                    [ZETA_THREE_HALVES - 10.0 ** -k for k in range(3, 13)],
                ]
            ),
        }
        for stat, degeneracies in sweeps.items():
            calls.clear()
            for x in degeneracies:
                solve_log_fugacity(stat, float(x))
            assert 1.0 <= len(calls) / len(degeneracies) <= 8.0, stat

    def test_step_leaving_the_bracket_bisects(self, monkeypatch):
        # from ln z = -50 the Newton step for x = 1 lands near 1e22, far past
        # the bracket [-50, 50], so the next ln z is its midpoint 0
        tried = []
        kernel = gas_statistics.density_and_slope

        def recorded(stat, y):
            tried.append(y)
            return kernel(stat, y)

        monkeypatch.setattr(gas_statistics, "density_and_slope", recorded)
        y = gas_statistics._solve_log(FD, 1.0, -50.0, 50.0, -50.0)
        assert tried[:2] == [-50.0, 0.0]
        assert abs(quantum_integral(FD, N32, log_z=y) - 1.0) <= 1e-12

    def test_bracket_closed_on_a_jump_returns(self, monkeypatch):
        # a density that jumps by 2e-6 of itself at ln z = 0.3 never meets the
        # tolerance; once the bracket closes on the jump the midpoint repeats
        # ln z, and the solver returns it rather than running out of steps
        tried = []
        kernel = gas_statistics.density_and_slope

        def jump(stat, y):
            tried.append(y)
            density, slope = kernel(stat, y)
            return density * (1.0 + (1e-6 if y >= 0.3 else -1e-6)), slope

        x = kernel(FD, 0.3)[0]
        monkeypatch.setattr(gas_statistics, "density_and_slope", jump)
        y = gas_statistics._solve_log(FD, x, 0.0, 1.2, 1.2)
        assert math.nextafter(0.3, 0.0) <= y <= 0.3
        assert len(tried) < gas_statistics._MAX_ITER

    def test_exhausted_iterations_name_degeneracy_and_bracket(self, monkeypatch):
        # a density stuck at twice the target with a steep slope moves ln z
        # down 1e-6 a step: every step stays in the bracket and none converges
        monkeypatch.setattr(gas_statistics, "density_and_slope", lambda stat, y: (2.0, 1e6))
        with pytest.raises(ConvergenceError) as info:
            solve_log_fugacity(FD, 1.0)
        match = re.fullmatch(r"fugacity iteration did not converge at degeneracy 1\.0"
                             r" in the ln z bracket \[0\.0, (.+)\]", str(info.value))
        assert match is not None, str(info.value)
        # the seed is the top of the bracket, (1/C)^(2/3); 79 steps lower it
        top = (1.0 / gas_statistics.SOMMERFELD_COEFF) ** (2.0 / 3.0)
        assert float(match.group(1)) == pytest.approx(top - 79e-6, abs=1e-12)


class TestThermalState:
    def test_reduced_reference_point(self):
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0)
        state = solve_thermal_state(params, FD)
        assert state.lam == pytest.approx(1.0, rel=1e-15)
        assert state.degeneracy == pytest.approx(1.0, rel=1e-15)
        assert quantum_integral(FD, N32, state.z) == pytest.approx(1.0, rel=1e-10)

    def test_mb_state_fugacity_equals_degeneracy(self):
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=4.0)
        state = solve_thermal_state(params, MB)
        assert state.z == pytest.approx(state.degeneracy, rel=1e-14)

    def test_too_degenerate_gives_infinite_fugacity(self):
        # lambda^3/nu large enough that z = e^(ln z) overflows a double: the
        # state keeps ln z and reads z as inf
        params = GasParameters(m=1.0, T=2.0 * math.pi, nu=1e-9)
        state = solve_thermal_state(params, FD)
        assert state.log_z > 709.0
        assert state.z == math.inf
        back = quantum_integral(FD, N32, log_z=state.log_z)
        assert abs(back - state.degeneracy) / state.degeneracy < 1e-10

    def test_cached_fugacity_leaves_equality_hash_repr(self):
        read, fresh = (ThermalState(log_z=0.5, lam=1.0, degeneracy=2.0) for _ in range(2))
        assert read.z == math.exp(0.5)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)

    def test_overflowing_degeneracy_rejected(self):
        params = GasParameters(m=1.0, T=1e-300, nu=1.0)
        with pytest.raises(DomainError, match="lambda\\^3/nu overflows"):
            solve_thermal_state(params, FD)

    @pytest.mark.parametrize("log_z", [math.nan, math.inf, -math.inf])
    def test_state_rejects_non_finite_log_z(self, log_z):
        with pytest.raises(DomainError):
            ThermalState(log_z=log_z, lam=1.0, degeneracy=1.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            GasParameters(m=-1.0, T=1.0, nu=1.0)
        with pytest.raises(DomainError):
            GasParameters(m=1.0, T=0.0, nu=1.0)
        with pytest.raises(DomainError):
            GasParameters(m=1.0, T=1.0, nu=math.inf)

    def test_beta_property(self):
        params = GasParameters(m=1.0, T=4.0, nu=1.0)
        assert params.beta == 0.25
        si = GasParameters(m=9.1e-31, T=300.0, nu=1e-27, unit_system=UnitSystem.SI)
        assert si.beta == pytest.approx(1.0 / (1.380649e-23 * 300.0), rel=1e-15)


class TestFermiScale:
    def params(self, m=1.0, nu=1.0):
        return GasParameters(m=m, T=1.0, nu=nu)

    def test_reduced_reference_value(self):
        assert abs(fermi_energy(self.params()) - EPS_F_REDUCED) / EPS_F_REDUCED < 1e-13

    def test_volume_scaling(self):
        # nu -> nu/8 multiplies eps_F by 8^{2/3} = 4
        small = fermi_energy(self.params(nu=1.0 / 8.0))
        assert small == pytest.approx(4.0 * fermi_energy(self.params()), rel=1e-13)

    def test_mass_scaling(self):
        assert fermi_energy(self.params(m=2.0)) == pytest.approx(
            fermi_energy(self.params()) / 2.0, rel=1e-15
        )

    def test_energy_is_momentum_squared_over_2m(self):
        for m in (0.5, 1.0, 3.0):
            for nu in (0.2, 1.0, 9.0):
                p = self.params(m=m, nu=nu)
                p_f = fermi_momentum(p)
                assert fermi_energy(p) == p_f * p_f / (2.0 * m)

    def test_fermi_temperature_reduced(self):
        p = self.params()
        assert fermi_temperature(p) == fermi_energy(p)

    def test_fermi_temperature_si(self):
        p = GasParameters(
            m=9.1093837015e-31, T=1.0, nu=1e-28, unit_system=UnitSystem.SI
        )
        assert fermi_temperature(p) == pytest.approx(
            fermi_energy(p) / 1.380649e-23, rel=1e-15
        )


def test_solver_seed_regions_consistent():
    """The classical and degenerate seeds must hand off smoothly near x ~ 0.7."""
    for x in np.linspace(0.5, ETA_THREE_HALVES, 21):
        z = solve_fugacity(FD, float(x))
        assert abs(fd_series(1.5, z) - x) / x < 1e-10
