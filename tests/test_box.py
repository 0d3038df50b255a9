"""Discrete box spectrum against its own theta-sum oracle and the continuum."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fermiwire import (
    CondensationError,
    DomainError,
    QuantumIntegralOrder,
    ResourceLimitError,
    Statistics,
    UnitSystem,
    compare_continuum,
    constants_for,
    direct_number_sum,
    enumerate_levels,
    quantum_integral,
    thermal_wavelength,
    truncation_bound,
)
from oracles import brute_box_number, mb_box_number, occupation_at, theta_sum

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN

BETA = 1.0 / (2.0 * math.pi)  # lambda = 1 at m = 1
H = 2.0 * math.pi  # reduced units

# boxes whose per-axis energies and views are checked bit for bit
VIEW_BOXES = [
    (4.0, 1.0, (5, 2, 3)),
    pytest.param(2.0, 1.0, None, id="default-cutoff"),
    pytest.param(100.0, 100.0, 125, id="verify-box"),
    pytest.param(4.4e155, 1.0, (1000, 1, 1), id="subnormal-e1"),
]
# boxes summed both folded and over the full grid, or level by level
FOLDED_BOXES = [(2.0, 2.0, 6), (3.0, 1.0, None), (4.0, 1.0, (5, 2, 3)), (1.5, 2.5, (1, 4, 2))]
# the seven boxes of `fermiwire verify`, edges in thermal wavelengths
VERIFY_BOXES = [(100.0, 100.0, 125), *((size, size, None) for size in (1.0, 1.5, 2.0, 2.5, 3.0)),
                (30.0, math.sqrt(math.pi / 6.5), None)]


class TestEnumerate:
    def test_cutoff_one_gives_27_levels(self):
        spec = enumerate_levels(1.0, 1.0, 1.0, cutoff=1)
        assert spec.level_count == 27
        assert len(spec.levels) == 27

    def test_ground_level_once(self):
        spec = enumerate_levels(2.0, 1.0, 1.0, cutoff=2)
        assert spec.levels[0] == 0.0
        assert np.count_nonzero(spec.levels == 0.0) == 1

    def test_levels_sorted(self):
        spec = enumerate_levels(3.0, 1.5, 1.0, cutoff=3)
        assert np.all(np.diff(spec.levels) >= 0.0)

    def test_first_transverse_excitation(self):
        # n = (0, +-1, 0): eps = h^2/(2 m a^2); the long axis (L > a) puts
        # h^2/(2 m L^2) below it
        a = 0.7
        L = 5.0
        spec = enumerate_levels(L, a, 1.0, cutoff=2)
        h = 2.0 * math.pi  # reduced units
        expected_long = h ** 2 / (2.0 * L ** 2)
        expected_transverse = h ** 2 / (2.0 * a ** 2)
        nonzero = spec.levels[spec.levels > 0.0]
        assert nonzero[0] == pytest.approx(expected_long, rel=1e-14)
        assert expected_transverse in [
            pytest.approx(v, rel=1e-14) for v in np.unique(nonzero)
        ]

    def test_default_cutoff_rule(self):
        # smallest c with beta * (h^2/2mL^2) c^2 >= 45 per axis
        spec = enumerate_levels(2.0, 1.0, 1.0, beta=BETA)
        h = 2.0 * math.pi
        for L, c in zip((2.0, 1.0, 1.0), spec.cutoff):
            s = BETA * h * h / (2.0 * L * L)
            assert s * c * c >= 45.0
            assert s * (c - 1) * (c - 1) < 45.0

    def test_per_axis_cutoffs(self):
        spec = enumerate_levels(4.0, 1.0, 1.0, cutoff=(5, 2, 2))
        assert spec.cutoff == (5, 2, 2)
        assert spec.level_count == 11 * 5 * 5

    def test_axis_levels_hold_nonnegative_n(self):
        spec = enumerate_levels(4.0, 1.0, 1.0, cutoff=(5, 2, 3))
        for energies, L, c in zip(spec.axis_levels, (4.0, 1.0, 1.0), spec.cutoff):
            n = np.arange(c + 1)
            assert np.array_equal(energies, (H * n / L) ** 2 / 2.0)

    @pytest.mark.parametrize("L,a,cutoff", VIEW_BOXES)
    def test_axis_levels_are_numpys_floats(self, L, a, cutoff):
        # tuples of Python floats, each the numpy array expression's element bit for bit
        spec = enumerate_levels(L, a, 1.0, cutoff, beta=BETA)
        for energies, edge, c in zip(spec.axis_levels, (L, a, a), spec.cutoff):
            assert type(energies) is tuple and all(type(e) is float for e in energies)
            assert np.array_equal(energies, (H * np.arange(c + 1) / edge) ** 2 / (2.0 * 1.0))

    def test_repeated_boxes_leave_no_spare_tuples(self):
        # tuple() of a generator resizes its guess, and CPython parks the
        # spare tuples in its free lists: at 1.1 MB of traced memory over 600
        # rounds of verify's five default-cutoff boxes, that would read as a leak
        probe = "\n".join([
            "import math, tracemalloc",
            "from fermiwire import enumerate_levels",
            "def rounds(n):",
            "    for _ in range(n):",
            "        for size in (1.0, 1.5, 2.0, 2.5, 3.0):",
            "            enumerate_levels(size, size, 1.0, beta=1.0 / (2.0 * math.pi))",
            "tracemalloc.start()",
            "rounds(20)",
            "before = tracemalloc.get_traced_memory()[0]",
            "rounds(600)",
            "print(tracemalloc.get_traced_memory()[0] - before)",
        ])
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 200 * 1024

    @pytest.mark.parametrize("L,a,cutoff", VIEW_BOXES)
    def test_transverse_ground_is_sorted_mirror(self, L, a, cutoff):
        # the repeated axis row equals the sorted n = -c..c row bit for bit
        spec = enumerate_levels(L, a, 1.0, cutoff, beta=BETA)
        e = spec.axis_levels[0]
        if L > 1e100:
            assert 0.0 < e[1] < np.finfo(np.float64).tiny <= e[-1]
        assert np.array_equal(spec.levels_transverse_ground,
                              np.sort(np.concatenate((e[:0:-1], e))))

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            enumerate_levels(1.0, 1.0, 1.0, cutoff=300)

    def test_determinism(self):
        one = enumerate_levels(2.5, 1.25, 1.0, cutoff=4)
        two = enumerate_levels(2.5, 1.25, 1.0, cutoff=4)
        assert np.array_equal(one.levels, two.levels)

    def test_validation(self):
        with pytest.raises(DomainError):
            enumerate_levels(0.0, 1.0, 1.0, cutoff=1)
        with pytest.raises(DomainError):
            enumerate_levels(1.0, 1.0, 1.0, cutoff=0)
        with pytest.raises(ValueError):
            enumerate_levels(1.0, 1.0, 1.0)  # neither cutoff nor beta

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("cutoff", [None, 2])
    def test_rejects_bad_beta(self, beta, cutoff):
        message = "^beta must be a positive finite number, got %r$" % beta
        with pytest.raises(DomainError, match=message):
            enumerate_levels(1.0, 1.0, 1.0, cutoff, beta=beta)

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(DomainError):
            enumerate_levels(length, 1.0, 1.0, beta=1.0)


class TestDirectSum:
    def test_mb_matches_theta_product(self):
        h = 2.0 * math.pi
        for L, a, cutoff in ((1.0, 1.0, None), (3.0, 0.8, None), (6.0, 2.0, None),
                             *VERIFY_BOXES):
            spec = enumerate_levels(L, a, 1.0, cutoff, beta=BETA)
            axes = [BETA * h * h / (2.0 * edge * edge) for edge in (L, a, a)]
            want = mb_box_number(0.3, axes, spec.cutoff)
            got = direct_number_sum(spec, MB, 0.3, BETA)
            assert abs(got - want) / want < 1e-13

    def test_mb_linear_in_z(self):
        spec = enumerate_levels(2.0, 2.0, 1.0, beta=BETA)
        n1 = direct_number_sum(spec, MB, 1e-3, BETA)
        n2 = direct_number_sum(spec, MB, 2e-3, BETA)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-13)

    def test_fd_below_level_count(self):
        spec = enumerate_levels(2.0, 1.0, 1.0, cutoff=3)
        total = direct_number_sum(spec, FD, 50.0, BETA)
        assert total < spec.level_count

    def test_statistics_ordering(self):
        spec = enumerate_levels(2.0, 1.0, 1.0, beta=BETA)
        for z in (1e-3, 0.2, 0.9):
            n_fd = direct_number_sum(spec, FD, z, BETA)
            n_mb = direct_number_sum(spec, MB, z, BETA)
            n_be = direct_number_sum(spec, BE, z, BETA)
            assert n_fd <= n_mb <= n_be

    def test_be_condensation_guard(self):
        spec = enumerate_levels(2.0, 1.0, 1.0, cutoff=2)
        with pytest.raises(CondensationError):
            direct_number_sum(spec, BE, 1.0, BETA)

    @pytest.mark.parametrize("z", [9e306, 1.7e308], ids=["total", "slab"])
    def test_sum_past_double_range_reads_inf(self, z):
        # 27 levels near eps = 0 hold about z each, and the product
        # z theta_x theta_y theta_z, about 27 z, passes the largest double
        spec = enumerate_levels(1e100, 1e100, 1.0, cutoff=1)
        assert direct_number_sum(spec, MB, z, 1.0) == math.inf

    def test_levels_past_double_range_hold_zero(self):
        # beta (h/L)^2/2m overflows at the top levels: a RuntimeWarning, though they hold 0
        spec = enumerate_levels(1e-55, 1.0, 1.0, cutoff=1)
        assert direct_number_sum(spec, MB, 0.5, 1e200) == 0.5

    def test_determinism_bit_identical(self):
        spec = enumerate_levels(3.0, 1.0, 1.0, beta=BETA)
        runs = {direct_number_sum(spec, FD, 0.7, BETA) for _ in range(5)}
        assert len(runs) == 1

    def test_truncation_bound_is_a_bound(self):
        # enlarging the cutoff recovers less than the reported bound
        small = enumerate_levels(3.0, 3.0, 1.0, cutoff=4)
        large = enumerate_levels(3.0, 3.0, 1.0, cutoff=40)
        missed = direct_number_sum(large, MB, 0.2, BETA) - direct_number_sum(
            small, MB, 0.2, BETA
        )
        bound = truncation_bound(small, 0.2, BETA)
        assert 0.0 < missed <= bound


    @pytest.mark.parametrize("L,a,cutoff", FOLDED_BOXES)
    @pytest.mark.parametrize("stat,z", [(FD, 0.7), (FD, 50.0), (BE, 0.9), (MB, 0.3)])
    def test_folded_sum_matches_full_grid(self, L, a, cutoff, stat, z):
        spec = enumerate_levels(L, a, 1.0, cutoff=cutoff, beta=BETA)
        axes = [BETA * H * H / (2.0 * edge * edge) for edge in (L, a, a)]
        want = brute_box_number(stat.value, z, axes, spec.cutoff)
        got = direct_number_sum(spec, stat, z, BETA)
        assert abs(got - want) / want < 1e-13

    @pytest.mark.parametrize("L,a,cutoff", FOLDED_BOXES)
    @pytest.mark.parametrize("stat,z,beta", [(FD, 0.7, BETA), (FD, 50.0, BETA), (BE, 0.9, BETA),
                                             (MB, 0.3, BETA), (FD, 0.7, 60.0), (BE, 0.9, 60.0)])
    def test_batched_sum_is_the_per_level_sum(self, L, a, cutoff, stat, z, beta):
        # the folded sum level by level with the scalar rule, in the same x-slab
        # order (MB: the product of the axis sums): every bit the same.  At
        # beta = 60 the top levels pass e^w's overflow
        spec = enumerate_levels(L, a, 1.0, cutoff=cutoff, beta=BETA)
        log_z = math.log(z)

        def folded(energies):
            return zip(energies, [1.0] + [2.0] * (len(energies) - 1))

        if stat is MB:
            want = math.prod((math.fsum(weight * occupation_at("mb", beta * e - 0.0)
                                        for e, weight in folded(axis))
                              for axis in spec.axis_levels), start=z)
        else:
            ex, ey, ez = spec.axis_levels
            plane = [(e_y + e_z, w_y * w_z) for e_y, w_y in folded(ey) for e_z, w_z in folded(ez)]
            want = math.fsum([
                w_x * math.fsum(weight * occupation_at(stat.value, (p + e_x) * beta - log_z)
                                for p, weight in plane)
                for e_x, w_x in folded(ex)])
        assert direct_number_sum(spec, stat, z, beta) == want

    def test_verify_box_memory(self):
        # the 15.8M-level box of verify: a Maxwell-Boltzmann box sum is a
        # product of three axis sums, so it holds the axis energies and no level array
        tracemalloc.start()
        try:
            spec = enumerate_levels(100.0, 100.0, 1.0, cutoff=125)
            direct_number_sum(spec, MB, 0.1, BETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.level_count == 251 ** 3
        assert peak < 10 * 2 ** 20


class TestCompareContinuum:
    def test_large_box_agreement(self):
        spec = enumerate_levels(20.0, 20.0, 1.0, beta=BETA)
        report = compare_continuum(spec, MB, 0.1, BETA)
        assert report.rel_err_3d < 1e-2

    def test_error_decreases_monotonically(self):
        errs = []
        for size in (1.0, 1.5, 2.0, 2.5, 3.0):
            spec = enumerate_levels(size, size, 1.0, beta=BETA)
            errs.append(compare_continuum(spec, MB, 0.1, BETA).rel_err_3d)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_freeze_out_fraction(self):
        # beta h^2/(2 m a^2) = 6.5 freezes out transverse motion
        a = math.sqrt(math.pi / 6.5)
        spec = enumerate_levels(30.0, a, 1.0, beta=BETA)
        report = compare_continuum(spec, MB, 0.1, BETA)
        assert report.ground_mode_fraction > 0.99
        # classical bound on the excited share: 2 e^{-s} (1 + ...) per axis
        s = 6.5
        excited_bound = 2.0 * (2.0 * math.exp(-s) / (1.0 - math.exp(-s)))
        assert 1.0 - report.ground_mode_fraction <= excited_bound

    @pytest.mark.parametrize("L,a,cutoff", [(3.0, 0.8, None), (6.0, 2.0, (9, 4, 4)),
                                            *VERIFY_BOXES])
    def test_mb_ground_fraction_is_theta_ratio(self, L, a, cutoff):
        # z theta_x over z theta_x theta_y theta_z: the ground row's share is 1/(theta_y theta_z)
        spec = enumerate_levels(L, a, 1.0, cutoff, beta=BETA)
        theta_y, theta_z = (theta_sum(BETA * H * H / (2.0 * a * a), c) for c in spec.cutoff[1:])
        report = compare_continuum(spec, MB, 0.1, BETA)
        assert report.ground_mode_fraction == pytest.approx(1.0 / (theta_y * theta_z), rel=1e-14)

    def test_fitted_sigma_z_independent(self):
        a = math.sqrt(math.pi / 6.5)
        spec = enumerate_levels(30.0, a, 1.0, beta=BETA)
        fits = [
            compare_continuum(spec, MB, z, BETA).sigma_tilde_fitted
            for z in (1e-3, 1e-2, 1e-1)
        ]
        assert max(fits) - min(fits) <= 1e-10 * max(fits)

    def test_quasi1d_route_in_frozen_regime(self):
        # with sigma = (lambda/a)^2 the quasi-1D count is (L/lambda) F_{1/2};
        # in the frozen regime it approaches the discrete sum
        a = math.sqrt(math.pi / 12.0)
        spec = enumerate_levels(50.0, a, 1.0, beta=BETA)
        report = compare_continuum(spec, MB, 0.05, BETA)
        assert report.rel_err_quasi1d < 1e-3

    def test_fd_continuum_agreement(self):
        spec = enumerate_levels(20.0, 20.0, 1.0, beta=BETA)
        report = compare_continuum(spec, FD, 0.5, BETA)
        assert report.rel_err_3d < 1e-2


def seeded_boxes(unit_system, count, seed=1):
    """(L, a, T, z, stat, cutoff) boxes with edges 1e-40..1e40 thermal wavelengths
    and T in 1e-100..1e100, in the unit system's own units."""
    rng = random.Random(seed)
    m = constants_for(unit_system).mass_ref
    for _ in range(count):
        stat = rng.choice(list(Statistics))
        T = 10.0 ** rng.uniform(-100, 100)
        lam = thermal_wavelength(m, T, unit_system)
        L, a = (lam * 10.0 ** rng.uniform(-40, 40) for _ in range(2))
        z = 10.0 ** rng.uniform(-30, -1e-6 if stat is BE else 2)
        yield L, a, T, z, stat, tuple(rng.randint(1, 3) for _ in range(3))


# at a = 1e-150 in SI, 2 m a^2 underflows while the box's levels are finite
SI_THIN_BOX = (3.0, 1e-150, 2.0 * math.pi, 1.0, FD, (1, 1, 1))


@pytest.mark.parametrize("unit_system", list(UnitSystem), ids=lambda u: u.value)
def test_continuum_cells_against_mpmath(unit_system):
    # V/lambda^3, L/lambda and the truncation bound from the exact
    # s_i = beta h^2/(2 m L_i^2) of the double inputs, to 40 digits
    mpmath = pytest.importorskip("mpmath")
    consts = constants_for(unit_system)
    m, h = consts.mass_ref, mpmath.mpf(consts.h)
    boxes = list(seeded_boxes(unit_system, 300))
    if unit_system is UnitSystem.SI:
        boxes.append(SI_THIN_BOX)

    def rel(value, want):
        return float(abs(value - want) / want)

    for L, a, T, z, stat, cutoff in boxes:
        beta = 1.0 / (consts.k_B * T)
        report = compare_continuum(enumerate_levels(L, a, m, cutoff, unit_system=unit_system),
                                   stat, z, beta)
        f32 = quantum_integral(stat, QuantumIntegralOrder.THREE_HALVES, z)
        f12 = quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, z)
        with mpmath.workdps(40):
            s = [beta * h ** 2 / (2 * mpmath.mpf(m) * mpmath.mpf(edge) ** 2)
                 for edge in (L, a, a)]
            l_lam = mpmath.sqrt(mpmath.pi / s[0])
            v_lam3 = l_lam * mpmath.pi / s[1]
            thetas = [mpmath.fsum(mpmath.exp(-s_i * n * n) for n in range(-c, c + 1))
                      for s_i, c in zip(s, cutoff)]
            tails = [mpmath.sqrt(mpmath.pi / s_i) * mpmath.erfc(mpmath.sqrt(s_i) * c)
                     for s_i, c in zip(s, cutoff)]
            grown = [theta + tail for theta, tail in zip(thetas, tails)]
            bound = z * mpmath.fsum(mpmath.fprod(thetas[:i] + grown[i + 1:]) * tail
                                    for i, tail in enumerate(tails))
            # exp and erfc scale the relative error of s by up to s c^2
            condition = 1 + float(sum(s_i * c * c for s_i, c in zip(s, cutoff)))
            box = (L, a, T, z, stat, cutoff)
            assert rel(report.N_continuum_3d / f32, v_lam3) <= 2e-15, box
            assert rel(report.N_continuum_quasi1d / f12, l_lam) <= 2e-15, box
            fitted = report.sigma_tilde_fitted * f12 / report.N_discrete
            assert rel(fitted, 1 / v_lam3) <= 2e-15, box
            if bound > 1e-290:  # below it the tails underflow
                assert rel(report.truncation_bound, bound) <= 2e-15 * condition, box
