"""Acceptance gate: the nine headline criteria, one test (and one line) each.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
criterion-by-criterion report.  Stated runtime budgets are asserted too.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fermiwire as fw
from fermiwire import Statistics
from oracles import (
    CLOSURE_RATIO,
    SOMMERFELD_COEFF,
    ZETA_THREE_HALVES,
    fd_log_series,
    fd_series,
)

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN


class Budget:
    """Context manager asserting a wall-clock budget for a criterion."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                "exceeded the %gs budget: %.2fs" % (self.seconds, self.elapsed)
            )
        return False


def test_criterion_1_fermi_debye_identity():
    with Budget(1.0) as budget:
        grid = [0.5, 1.0, 2.0, 4.0]
        worst_e = worst_p = 0.0
        for nu in grid:
            for m in grid:
                for c in grid:
                    report = fw.correspondence_check(fw.PhononMedium(c=c, nu=nu), m)
                    worst_e = max(worst_e, report.rel_diff_energy)
                    worst_p = max(worst_p, report.rel_diff_momentum)
        assert worst_e <= 1e-12
        assert worst_p <= 1e-12
    print(
        "PASS criterion 1: Fermi-Debye identity on 4x4x4 grid "
        "(worst energy %.2e, momentum %.2e, %.2fs)"
        % (worst_e, worst_p, budget.elapsed)
    )


def test_criterion_2_count_bound_structure():
    with Budget(1.0):
        state = fw.ThermalState(log_z=0.0, lam=1.0, degeneracy=1.0)
        base = fw.rhs_eq3(state, fw.WireGeometry(1e-6)) / 1e-6
        linearity = max(
            abs(fw.rhs_eq3(state, fw.WireGeometry(float(s))) / float(s) / base - 1.0)
            for s in np.geomspace(1e-6, 1.0, 10)
        )
        assert linearity <= 1e-12

        params = fw.GasParameters(m=1.0, T=2.0 * math.pi, nu=1.0)
        report = fw.classify_regime(params, fw.WireGeometry(1e-6))
        assert report.regime is fw.Regime.BOSONIZED

        worst_mb = 0.0
        for z, deg in ((0.5, 1.0), (2.0, 0.2), (1e-3, 5.0), (1.0, 1.0)):
            st = fw.ThermalState(log_z=math.log(z), lam=1.0, degeneracy=deg)
            wire = fw.WireGeometry(0.05)
            exact = fw.number_integral_quasi1d(MB, st, wire)
            worst_mb = max(worst_mb, abs(exact / fw.rhs_eq3(st, wire) - 1.0))
        assert worst_mb <= 1e-10
    print(
        "PASS criterion 2: count bound linear in sigma (%.2e), Bosonized at "
        "sigma=1e-6, MB integral matches bound (%.2e)" % (linearity, worst_mb)
    )


def test_criterion_3_fugacity_round_trip():
    with Budget(5.0):
        worst_fd = 0.0
        for x in np.geomspace(1e-6, 50.0, 50):
            z = fw.solve_fugacity(FD, float(x))
            back = fw.quantum_integral(FD, 1.5, z)
            worst_fd = max(worst_fd, abs(back - x) / x)
        assert worst_fd <= 1e-10

        worst_be = 0.0
        for x in np.geomspace(1e-6, ZETA_THREE_HALVES - 1e-6, 50):
            z = fw.solve_fugacity(BE, float(x))
            back = fw.quantum_integral(BE, 1.5, z)
            worst_be = max(worst_be, abs(back - x) / x)
        assert worst_be <= 1e-10

        with pytest.raises(fw.CondensationError):
            fw.solve_fugacity(BE, ZETA_THREE_HALVES + 1e-6)
    print(
        "PASS criterion 3: fugacity round trips (FD worst %.2e, BE worst %.2e), "
        "condensation rejected" % (worst_fd, worst_be)
    )


def test_criterion_4_degenerate_asymptotic():
    with Budget(1.0):
        ratio_100 = fw.quantum_integral(FD, 1.5, log_z=100.0) / 100.0 ** 1.5
        ratio_1000 = fw.quantum_integral(FD, 1.5, log_z=1000.0) / 1000.0 ** 1.5
        err_100 = abs(ratio_100 / SOMMERFELD_COEFF - 1.0)
        err_1000 = abs(ratio_1000 / SOMMERFELD_COEFF - 1.0)
        assert err_100 <= 1e-2
        assert err_1000 <= 1e-3
    print(
        "PASS criterion 4: degenerate asymptotic 4/(3 sqrt pi) "
        "(%.2e at ln z=100, %.2e at ln z=1000)" % (err_100, err_1000)
    )


def test_criterion_5_boltzmann_convergence():
    with Budget(1.0):
        z = 1e-4
        worst_fd = worst_be = 0.0
        for be in np.linspace(0.0, 50.0, 2001):
            n_mb = fw.occupation(MB, z, 1.0, float(be))
            n_fd = fw.occupation(FD, z, 1.0, float(be))
            n_be = fw.occupation(BE, z, 1.0, float(be))
            worst_fd = max(worst_fd, abs(n_fd - n_mb) / n_mb)
            worst_be = max(worst_be, abs(n_be - n_mb) / n_mb)
        assert worst_fd <= 1e-4
        assert worst_be <= 2e-4
    print(
        "PASS criterion 5: Boltzmann convergence at z=1e-4 "
        "(FD sup %.3e <= 1e-4, BE sup %.3e <= 2e-4)" % (worst_fd, worst_be)
    )


def test_criterion_6_one_dimensional_closure(capsys):
    with Budget(1.0):
        result = fw.closure_temperature(fw.ChainParameters(N=1.0, L=1.0, m=1.0))
        assert result.residual <= 1e-12 * result.T
        assert abs(result.ratio - CLOSURE_RATIO) <= 1e-9
        ratios = [
            fw.closure_temperature(fw.ChainParameters(N=1.0, L=d, m=m)).ratio
            for d in (0.1, 0.5, 1.0, 5.0, 20.0)
            for m in (0.2, 1.0, 3.0, 10.0, 50.0)
        ]
        assert max(ratios) - min(ratios) <= 1e-12
        assert result.ratio < 1.0
    print(
        "PASS criterion 6: closure fixed point (residual %.1e, ratio %.17g, "
        "scale-invariant, sub-Fermi)" % (result.residual, result.ratio)
    )
    print(
        "INFO criterion 6: ratio %.5f; the 3/5 = 0.6 sometimes quoted for "
        "this closure is not reproduced by the displayed chain" % result.ratio
    )


def test_criterion_7_box_oracle_agreement():
    with Budget(60.0):
        beta = 1.0 / (2.0 * math.pi)  # lambda = 1 at m = 1

        # L/lambda = 100 on every axis; cutoff 125 puts the Boltzmann tail
        # at half the 1% budget
        big = fw.enumerate_levels(100.0, 100.0, 1.0, cutoff=125)
        agreement = fw.compare_continuum(big, MB, 0.1, beta).rel_err_3d
        assert agreement <= 1e-2

        errs = []
        for size in (1.0, 1.5, 2.0, 2.5, 3.0):
            spec = fw.enumerate_levels(size, size, 1.0, beta=beta)
            errs.append(fw.compare_continuum(spec, MB, 0.1, beta).rel_err_3d)
        assert all(a > b for a, b in zip(errs, errs[1:]))

        # freeze-out demonstration point with beta h^2/(2 m a^2) = 6.5 >= 5
        a = math.sqrt(math.pi / 6.5)
        frozen = fw.enumerate_levels(30.0, a, 1.0, beta=beta)
        fraction = fw.compare_continuum(frozen, MB, 0.1, beta).ground_mode_fraction
        assert fraction > 0.99
    print(
        "PASS criterion 7: box oracle (rel err %.3e at L/lambda=100 over %d "
        "levels, errors %.2e..%.2e monotone, freeze-out fraction %.6f)"
        % (agreement, big.level_count, errs[0], errs[-1], fraction)
    )


def test_criterion_8_quadrature_series_equivalence():
    with Budget(5.0):
        worst = 0.0
        for z in np.geomspace(1e-3, 10.0, 30):
            z = float(z)
            state = fw.ThermalState(log_z=math.log(z), lam=1.0, degeneracy=1.0)
            quad = fw.number_integral_quasi1d(FD, state, fw.WireGeometry(1.0))
            series = fd_series(0.5, z) if z <= 1.0 else fd_log_series(0.5, math.log(z))
            worst = max(worst, abs(quad - series) / series)
        assert worst <= 1e-9
    print(
        "PASS criterion 8: wire quadrature matches f_{1/2} series oracle "
        "(worst %.2e over z in [1e-3, 10])" % worst
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli(args):
        return subprocess.run(
            [sys.executable, "-m", "fermiwire"] + args,
            capture_output=True,
            text=True,
            env=env,
        )

    start = time.perf_counter()
    verify = cli(["verify"])
    verify_elapsed = time.perf_counter() - start
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "0 failed" in verify.stdout

    scan_args = [
        "scan",
        "--T", "1:30:3:log",
        "--nu", "0.5:4:3:log",
        "--sigma", "1e-6:1:2:log",
    ]
    cli(scan_args + ["--out", str(tmp_path / "one.csv")])
    cli(scan_args + ["--out", str(tmp_path / "two.csv")])
    one = (tmp_path / "one.csv").read_bytes()
    assert one == (tmp_path / "two.csv").read_bytes()

    # golden column schemas, CSV and JSON
    assert one.split(b"\n")[0].decode() == (
        "T,nu,sigma_tilde,z,lambda,degeneracy,rhs_approx,rhs_exact,regime,message"
    )
    occupation = cli(["tabulate", "occupation", "--grid", "0:1:2"])
    assert occupation.stdout.split("\n")[0] == "stat,z,beta_eps,occupation,message"
    phonon = cli(["tabulate", "phonon"])
    assert phonon.stdout.split("\n")[0] == (
        "nu,m,c,omega_max,lambda_m,p_m,eps_m,eps_F,p_F,"
        "rel_diff_energy,rel_diff_momentum"
    )
    oracle = cli(["oracle", "--stat", "mb", "--cutoff", "6"])
    assert oracle.stdout.split("\n")[0] == (
        "L_long,a_transverse,m,T,z,stat,cutoff_x,cutoff_y,cutoff_z,level_count,"
        "N_discrete,N_continuum_3d,N_continuum_quasi1d,rel_err_3d,"
        "rel_err_quasi1d,ground_mode_fraction,sigma_tilde_fitted,"
        "truncation_bound,message"
    )
    scan_json = cli(["scan", "--format", "json"])
    payload = json.loads(scan_json.stdout)
    assert payload["columns"] == [
        "T", "nu", "sigma_tilde", "z", "lambda", "degeneracy",
        "rhs_approx", "rhs_exact", "regime", "message",
    ]

    # the verify budget: under 10 s even including its box section
    assert verify_elapsed < 10.0
    print(
        "PASS criterion 9: verify exit 0 in %.2fs, scans byte-identical "
        "(plain, repeated), schemas stable" % verify_elapsed
    )
