"""Discrete box spectrum against its own theta-sum oracle and the continuum."""

import math
import tracemalloc

import numpy as np
import pytest

from fermiwire import (
    CondensationError,
    DomainError,
    ResourceLimitError,
    Statistics,
    compare_continuum,
    direct_number_sum,
    enumerate_levels,
    truncation_bound,
)
from oracles import brute_box_number, mb_box_number, theta_sum

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN

BETA = 1.0 / (2.0 * math.pi)  # lambda = 1 at m = 1
H = 2.0 * math.pi  # reduced units


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
        for L, c in zip(spec.edge_lengths, spec.cutoff):
            s = BETA * h * h / (2.0 * L * L)
            assert s * c * c >= 45.0
            assert s * (c - 1) * (c - 1) < 45.0

    def test_per_axis_cutoffs(self):
        spec = enumerate_levels(4.0, 1.0, 1.0, cutoff=(5, 2, 2))
        assert spec.cutoff == (5, 2, 2)
        assert spec.level_count == 11 * 5 * 5

    def test_axis_levels_hold_nonnegative_n(self):
        spec = enumerate_levels(4.0, 1.0, 1.0, cutoff=(5, 2, 3))
        for energies, L, c in zip(spec.axis_levels, spec.edge_lengths, spec.cutoff):
            n = np.arange(c + 1)
            assert np.array_equal(energies, (H * n / L) ** 2 / 2.0)

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
        for L, a in ((1.0, 1.0), (3.0, 0.8), (6.0, 2.0)):
            spec = enumerate_levels(L, a, 1.0, beta=BETA)
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


    @pytest.mark.parametrize(
        "L,a,cutoff",
        [(2.0, 2.0, 6), (3.0, 1.0, None), (4.0, 1.0, (5, 2, 3)), (1.5, 2.5, (1, 4, 2))],
    )
    @pytest.mark.parametrize("stat,z", [(FD, 0.7), (FD, 50.0), (BE, 0.9), (MB, 0.3)])
    def test_folded_sum_matches_full_grid(self, L, a, cutoff, stat, z):
        spec = enumerate_levels(L, a, 1.0, cutoff=cutoff, beta=BETA)
        axes = [BETA * H * H / (2.0 * edge * edge) for edge in spec.edge_lengths]
        want = brute_box_number(stat.value, z, axes, spec.cutoff)
        got = direct_number_sum(spec, stat, z, BETA)
        assert abs(got - want) / want < 1e-13

    def test_verify_box_memory(self):
        # the 15.8M-level box of verify, summed one x-slab at a time
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
