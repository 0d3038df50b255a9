"""Occupation numbers, fugacity inversion, and the bulk Fermi scale."""

import math
import re

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
    thermal_wavelength,
)
from fermiwire import gas_statistics
from fermiwire.cli import AxisSpec
from oracles import EPS_F_REDUCED, ETA_THREE_HALVES, fd_series, occupation_at

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
    def test_past_exp_overflow(self, stat):
        # e^w leaves double range above w = 709.78: FD reads e^-w, BE 0, and
        # MB e^-w, which underflows to 0 past w = 745.13; just below, FD and
        # BE are within an ulp or two of e^-w.  At w = -690 (z = 1e300) FD is 1.
        past = {FD: lambda w: math.exp(-w), BE: lambda w: 0.0, MB: lambda w: math.exp(-w)}[stat]
        for eps in (709.79, 710.0, 745.2, 1e4, 1e300):
            assert occupation(stat, 1.0, 1.0, eps) == past(eps), eps
        for eps in (700.0, 709.78):
            assert occupation(stat, 1.0, 1.0, eps) == pytest.approx(math.exp(-eps), rel=1e-15)
        if stat is not BE:
            high = occupation(stat, 1e300, 1.0, 0.0)
            assert high == (1.0 if stat is FD else pytest.approx(1e300, rel=1e-13))

    @pytest.mark.parametrize("stat", [FD, BE, MB], ids=lambda s: s.value)
    def test_rule_takes_each_w_of_a_list_alone(self, stat):
        # around e^w's overflow (the last double before it is 709.782712893384)
        # each w of one list takes its own branch: the list equals occupation
        # and the level-by-level rule element by element
        ws = [709.7, 709.78, 709.79, 745.0, 800.0, 709.782712893384, 709.7827128933841, 3.0]
        got = gas_statistics._occupations(stat, ws)
        assert got == [occupation(stat, 1.0, 1.0, w) for w in ws]
        assert got == [occupation_at(stat.value, w) for w in ws]

    def test_overflow_begins_past_w_max(self):
        # _W_MAX is the last w whose e^w and e^w - 1 are finite; in an
        # ascending list that crosses it mid-list, each w reads the
        # level-by-level rule bit for bit
        w_max = gas_statistics._W_MAX
        past = math.nextafter(w_max, math.inf)
        for f in (math.exp, math.expm1):
            assert f(w_max) < math.inf
            with pytest.raises(OverflowError):
                f(past)
        ws = [700.0, 709.78, math.nextafter(w_max, 0.0), w_max, past, 709.79, 745.2, 800.0, 1e4]
        for stat in (FD, BE, MB):
            got = gas_statistics._occupations(stat, ws)
            assert [g.hex() for g in got] == [occupation_at(stat.value, w).hex() for w in ws]

    def test_bose_list_with_a_pole_raises(self):
        for ws in ([3.0, -0.5, 1.0], [1.0, 0.0]):
            with pytest.raises(SingularityError, match="= %g <= 0" % min(ws)):
                gas_statistics._occupations(BE, ws)

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

    @staticmethod
    def count_calls(monkeypatch, stat, degeneracies):
        """density_and_slope calls of each solve_log_fugacity(stat, x)."""
        calls = []
        kernel = gas_statistics.density_and_slope

        def counted(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(gas_statistics, "density_and_slope", counted)
        counts = []
        for x in degeneracies:
            calls.clear()
            solve_log_fugacity(stat, float(x))
            counts.append(len(calls))
        return counts

    def test_kernel_calls_per_solve(self, monkeypatch):
        # the seed rows put F_{3/2} within a few 1e-15 of x, so Newton's first
        # (F_{3/2}, F_{1/2}) walk ends every solve: over the whole double range
        # for FD, and for BE over (0, zeta(3/2)) up to zeta(3/2) - 1e-15
        fd = self.count_calls(monkeypatch, FD, np.geomspace(2.3e-308, 1.7e308, 20001))
        assert set(fd) == {1}
        be = self.count_calls(monkeypatch, BE, [
            *(ZETA_THREE_HALVES * k / 15000 for k in range(1, 15000)),
            *(ZETA_THREE_HALVES - 10.0 ** (-k / 100) for k in range(1501))])
        assert set(be) == {1}

    def test_kernel_calls_on_the_bose_sweep(self, monkeypatch):
        # the degeneracies (2 pi/T)^(3/2) of the seed-1 be_sweep workload in
        # bench/run.py, 500 log-spaced T at nu = 1 from ~2.6 down to ~0.006:
        # one walk each
        axis = AxisSpec(3.333016638580184, 180.2754923795323, 500, "log")
        degeneracies = [thermal_wavelength(1.0, T) ** 3 for T in axis.values()]
        counts = self.count_calls(monkeypatch, BE, degeneracies)
        assert set(counts) == {1}

    @pytest.mark.parametrize("stat, degeneracies", [
        (FD, np.geomspace(1e-300, 1.7e308, 40)),
        (BE, [*np.geomspace(1e-300, 2.6, 30),
              *(ZETA_THREE_HALVES - 10.0 ** -k for k in range(1, 16, 3)),
              *(ZETA_THREE_HALVES - k / 10 for k in range(1, 6))]),
    ], ids=["fd", "be"])
    def test_round_trip_against_mpmath(self, stat, degeneracies):
        # F_{3/2}(e^y) at 30 digits, by mpmath and not the kernel: the polylog
        # below z = 1 and Jonquiere's formula above it (FD up to ln z ~ 3.7e205)
        mpmath = pytest.importorskip("mpmath")
        from make_kernel_tables import fermi_dirac

        for x in map(float, degeneracies):
            y = solve_log_fugacity(stat, x)
            with mpmath.workdps(30):
                if stat is FD and y >= 0.0:
                    back = fermi_dirac(1.5, y)
                else:
                    sign = -1 if stat is FD else 1
                    back = sign * mpmath.polylog(1.5, sign * mpmath.exp(y))
                assert abs(back - x) <= 1e-12 * x, (x, y)

    @pytest.mark.parametrize("stat, degeneracies", [
        (FD, [*np.geomspace(1e-6, 1e6, 150), 1.7e300]),
        (BE, [*np.geomspace(1e-6, 2.6, 150),
              *(ZETA_THREE_HALVES - 10.0 ** -k for k in range(3, 16)), ZETA_THREE_HALVES]),
        (MB, [*np.geomspace(1e-300, 1e300, 50)]),
    ], ids=["fd", "be", "mb"])
    def test_private_solve_gives_f_half_at_the_root(self, stat, degeneracies):
        # the scan's solve: the same ln z as solve_log_fugacity and, from the
        # last walk, the F_{1/2} that quantum_integral gives there, bit for
        # bit; MB's is z, and the Bose limit's is inf
        for x in map(float, degeneracies):
            y, f_half = gas_statistics._solve_log_fugacity(stat, x)
            assert y == solve_log_fugacity(stat, x), x
            assert f_half == quantum_integral(stat, 0.5, log_z=y), x
        assert gas_statistics._solve_log_fugacity(BE, ZETA_THREE_HALVES) == (0.0, math.inf)

    def test_step_leaving_the_bracket_bisects(self, monkeypatch):
        # from ln z = -50 the Newton step for x = 1 lands near 1e22, far past
        # the bracket [-50, 50], so the next ln z is its midpoint 0
        tried = []
        kernel = gas_statistics.density_and_slope

        def recorded(stat, y):
            tried.append(y)
            return kernel(stat, y)

        monkeypatch.setattr(gas_statistics, "density_and_slope", recorded)
        y, f_half = gas_statistics._solve_log(FD, 1.0, -50.0, 50.0, -50.0)
        assert tried[:2] == [-50.0, 0.0]
        assert abs(quantum_integral(FD, N32, log_z=y) - 1.0) <= 1e-12
        # the slope handed back is the last walk's, at the returned ln z
        assert tried[-1] == y and f_half == quantum_integral(FD, 0.5, log_z=y)

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
        y, f_half = gas_statistics._solve_log(FD, x, 0.0, 1.2, 1.2)
        assert math.nextafter(0.3, 0.0) <= y <= 0.3
        assert len(tried) < gas_statistics._MAX_ITER
        assert tried[-1] == y and f_half == quantum_integral(FD, 0.5, log_z=y)

    def test_exhausted_iterations_name_degeneracy_and_bracket(self, monkeypatch):
        # a density stuck at twice the target with a steep slope moves ln z
        # down 1e-6 a step: every step stays in the bracket and none converges
        walks = []

        def stuck(stat, y):
            walks.append(y)
            return 2.0, 1e6

        root = solve_log_fugacity(FD, 1.0)
        monkeypatch.setattr(gas_statistics, "density_and_slope", stuck)
        with pytest.raises(ConvergenceError) as info:
            solve_log_fugacity(FD, 1.0)
        match = re.fullmatch(r"fugacity iteration did not converge at degeneracy 1\.0"
                             r" in the ln z bracket \[0\.0, (.+)\]", str(info.value))
        assert match is not None, str(info.value)
        # the first walk is at the seed, the root itself; each walk above the
        # target closes the bracket on it, so the top is the 80th walk, 79
        # steps of 1e-6 below the seed
        assert len(walks) == gas_statistics._MAX_ITER
        assert walks[0] == pytest.approx(root, abs=1e-14)
        assert float(match.group(1)) == walks[-1]
        assert walks[-1] == pytest.approx(walks[0] - 79e-6, abs=1e-12)


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

    def test_fugacity_leaves_equality_hash_repr(self):
        read, fresh = (ThermalState(log_z=0.5, lam=1.0, degeneracy=2.0) for _ in range(2))
        assert read.z == math.exp(0.5)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)

    def test_overflowing_degeneracy_rejected(self):
        params = GasParameters(m=1.0, T=1e-300, nu=1.0)
        with pytest.raises(DomainError, match="^lambda\\^3/nu at T = 1e-300, nu = 1.0 must be a"
                                              " positive normal double, got inf$"):
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

    @pytest.mark.parametrize("T, unit_system", [
        (1e-300, UnitSystem.SI),  # k_B T is subnormal
        (5e-324, UnitSystem.REDUCED),  # T, and so k_B T, is subnormal
        (1e-310, UnitSystem.SI),  # k_B T underflows to 0
    ])
    def test_beta_needs_a_normal_thermal_energy(self, T, unit_system):
        params = GasParameters(m=1.0, T=T, nu=1.0, unit_system=unit_system)
        with pytest.raises(DomainError, match="^k_B T must be a positive normal double, got "):
            params.beta


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
    """Solves from x = 0.5 up to x = eta(3/2), where z = 1, round-trip against
    the alternating series."""
    for x in np.linspace(0.5, ETA_THREE_HALVES, 21):
        z = solve_fugacity(FD, float(x))
        assert abs(fd_series(1.5, z) - x) / x < 1e-10
