"""Command-line behaviour: exit codes, schemas, reproducibility, config."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fermiwire import (ConvergenceError, DomainError, GasParameters, RegimeThresholds, Statistics,
                       UnitSystem, WireGeometry, classify_regime, classify_wire, cli,
                       constants_for, errors, gas_statistics, quantum_integral,
                       solve_thermal_state, specfun, thermal_wavelength, verify)
from fermiwire.cli import AxisSpec, ScanConfig, main, parse_axis
from fermiwire.errors import ConfigError
from oracles import render_csv

MODULE_INVOCATION = [sys.executable, "-m", "fermiwire"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        MODULE_INVOCATION + args, capture_output=True, text=text, env=env
    )


def scan_rows(capsys, args):
    """Exit code and data rows (lists of fields) of an in-process scan."""
    code = main(["scan"] + args)
    lines = capsys.readouterr().out.strip().split("\n")
    return code, [line.split(",", 9) for line in lines[1:]]


class TestAxisParsing:
    def test_basic(self):
        axis = parse_axis("1:10:4")
        assert axis.values() == [1.0, 4.0, 7.0, 10.0]

    def test_log(self):
        axis = parse_axis("1:100:3:log")
        values = axis.values()
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(10.0)
        assert values[2] == pytest.approx(100.0)

    def test_single_point(self):
        assert parse_axis("5:5:1").values() == [5.0]

    def test_rejections(self):
        for bad in ("1:10", "1:10:0", "10:1:3", "a:b:c", "1:10:3:weird", "0:1:2:log"):
            with pytest.raises(ConfigError):
                parse_axis(bad).values()

    def test_axis_spec_validation(self):
        with pytest.raises(ConfigError):
            AxisSpec(1.0, 2.0, 0)
        with pytest.raises(ConfigError):
            AxisSpec(-1.0, 2.0, 3, "log")
        # the only spacing check: parse_axis hands the text to AxisSpec
        with pytest.raises(ConfigError, match="^spacing must be linear or log, got 'weird'$"):
            parse_axis("1:10:3:weird")


class TestScan:
    def test_single_point_mb(self, capsys):
        code = main(
            [
                "scan",
                "--stat",
                "mb",
                "--T",
                "6.283185307179586:6.283185307179586:1",
                "--nu",
                "1:1:1",
                "--sigma",
                "1e-6:1e-6:1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == (
            "T,nu,sigma_tilde,z,lambda,degeneracy,rhs_approx,rhs_exact,"
            "regime,message"
        )
        fields = lines[1].split(",")
        assert float(fields[3]) == pytest.approx(1.0, rel=1e-12)  # z
        assert fields[8] == "Bosonized"

    def test_rows_in_lexicographic_grid_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "scan",
                "--T",
                "1:2:2",
                "--nu",
                "1:2:2",
                "--sigma",
                "0.1:0.2:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        key = [tuple(float(v) for v in r.split(",")[:3]) for r in rows]
        assert key == sorted(key)
        assert len(rows) == 8

    def test_fugacity_computed_once_per_state(self, capsys, monkeypatch):
        # 20 sigma rows of one state read z 41 times; e^ln z is formed once
        calls = []
        exp_or_inf = gas_statistics.exp_or_inf

        def counted(x):
            calls.append(x)
            return exp_or_inf(x)

        monkeypatch.setattr(gas_statistics, "exp_or_inf", counted)
        code, rows = scan_rows(capsys, ["--sigma", "1e-6:1:20:log"])
        assert code == 0 and len(rows) == 20
        assert len(calls) == 1

    def test_byte_identical(self, tmp_path):
        args = ["scan", "--T", "1:30:3:log", "--nu", "0.5:4:3:log", "--sigma", "1e-6:1:2:log"]
        first = run_cli(args + ["--out", str(tmp_path / "a.csv")])
        second = run_cli(args + ["--out", str(tmp_path / "b.csv")])
        assert first.returncode == second.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_counts_formed_ratio_first(self, capsys):
        # sigma_tilde z and sigma_tilde F_{1/2}(z) underflow here (about
        # 1e-150 times 1e-225), while each count is about sigma_tilde: the
        # scan forms z/degeneracy and F_{1/2}/degeneracy first
        code, rows = scan_rows(capsys, ["--T", "1e150:1e150:1", "--nu", "1:1:1",
                                        "--sigma", "1e-150:1e-150:1", "--stat", "be"])
        assert code == 0
        z, degeneracy, rhs_approx, rhs_exact = (float(rows[0][k]) for k in (3, 5, 6, 7))
        assert z < 1e-200 and degeneracy < 1e-200
        assert abs(rhs_approx - 1e-150) <= 1e-12 * 1e-150
        assert abs(rhs_exact - 1e-150) <= 1e-12 * 1e-150
        assert rows[0][8] == "BosonizedClassical"

    def test_rhs_exact_uses_scan_statistics(self, capsys):
        # rhs_exact = sigma_tilde F_{1/2}(z)/degeneracy with F the scan's own
        # integral; at lambda = nu = sigma_tilde = 1 it is F_{1/2}(z) itself
        mpmath = pytest.importorskip("mpmath")
        point = ["--T", "6.283185307179586:6.283185307179586:1", "--nu", "1:1:1"]
        code, rows = scan_rows(capsys, ["--stat", "be"] + point + ["--sigma", "1:1:1"])
        assert code == 0
        z, rhs_exact = float(rows[0][3]), float(rows[0][7])
        with mpmath.workdps(30):
            g_half = float(mpmath.polylog(0.5, mpmath.mpf(z)))
        assert abs(rhs_exact - g_half) / g_half <= 1e-10
        assert rhs_exact == pytest.approx(1.5721217158913372, rel=1e-10)

        # Maxwell-Boltzmann: F_{1/2}(z) = z, so the exact count is the bound
        code, rows = scan_rows(
            capsys, ["--stat", "mb", "--T", "1:1:1", "--nu", "1:1:1", "--sigma", "0.1:0.1:1"]
        )
        assert code == 0
        assert rows[0][7] == rows[0][6]
        z, deg = float(rows[0][3]), float(rows[0][5])
        assert float(rows[0][7]) == pytest.approx(0.1 * z / deg, rel=1e-15)

    def test_one_solve_per_temperature_and_volume(self, capsys, monkeypatch):
        # the scan solves through the private sibling of solve_log_fugacity,
        # which also hands back F_{1/2} at the root
        calls = []
        solve = gas_statistics._solve_log_fugacity

        def counted(stat, degeneracy):
            calls.append(degeneracy)
            return solve(stat, degeneracy)

        monkeypatch.setattr(gas_statistics, "_solve_log_fugacity", counted)
        code, rows = scan_rows(
            capsys, ["--T", "1:30:3:log", "--nu", "0.5:4:2:log", "--sigma", "1e-6:1:4:log"]
        )
        assert code == 0
        assert len(rows) == 24
        assert len(calls) == 6

    @pytest.mark.parametrize(
        "stat, t_min, messages",
        [
            (
                "be",
                "1",
                [
                    "degeneracy %s exceeds zeta(3/2) = 2.612375348685488: condensed phase" % d
                    for d in ("15.749609945722415", "7.8748049728612077")
                ],
            ),
            (
                # T = 1e-300: lambda^3 overflows a double
                "fd",
                "1e-300",
                [
                    '"lambda^3/nu at T = 1e-300, nu = %s must be a positive normal double,'
                    ' got inf"' % nu
                    for nu in ("1.0", "2.0")
                ],
            ),
        ],
    )
    def test_error_rows_per_pair_and_per_row(self, capsys, stat, t_min, messages):
        # a pair that cannot be solved puts its error on every sigma row; a
        # bad sigma fails only its own row
        axes = ["--stat", stat, "--T", t_min + ":6.283185307179586:2:log", "--nu", "1:2:2"]
        code, rows = scan_rows(capsys, axes + ["--sigma", "0:1:3"])
        assert code == 0
        lines = [",".join(r) for r in rows]
        assert lines[:6] == [
            "%s,%d,%s,,,,,,ERROR,%s" % (t_min, nu, sigma, message)
            for nu, message in zip((1, 2), messages)
            for sigma in ("0", "0.5", "1")
        ]
        for index, nu in ((6, 1), (9, 2)):
            assert lines[index] == (
                '6.2831853071795862,%d,0,,,,,,ERROR,'
                '"sigma_tilde must be a positive finite number, got 0.0"' % nu
            )
        code, positive = scan_rows(capsys, axes + ["--sigma", "0.5:1:2"])
        assert rows[7:9] + rows[10:12] == positive[4:8]
        assert all(r[8] == "Bosonized" for r in positive[4:8])

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_gives_error_row(self, capsys, sigma):
        # sigma_tilde = inf would make both counts inf in a solved row
        code, rows = scan_rows(
            capsys, ["--T", "1:1:1", "--nu", "1:1:1", "--sigma", "%s:%s:1" % (sigma, sigma)]
        )
        assert code == 1
        assert [",".join(r) for r in rows] == [
            '1,1,%s,,,,,,ERROR,"sigma_tilde must be a positive finite number, got %s"'
            % (sigma, sigma)
        ]

    def test_one_wire_per_sigma(self, capsys, monkeypatch):
        # each sigma's wire, or the DomainError that rejects it, is built once
        # and serves every (T, nu) pair, its error rows keeping their place
        built = []

        def counted(sigma):
            built.append(sigma)
            return wire_geometry(sigma)

        wire_geometry = cli.WireGeometry
        monkeypatch.setattr(cli, "WireGeometry", counted)
        code, rows = scan_rows(capsys, ["--T", "1:2:2", "--nu", "1:2:2", "--sigma=-1:1:3"])
        assert code == 0
        assert built == [-1.0, 0.0, 1.0]
        assert [tuple(r[:3]) for r in rows] == [
            (T, nu, sigma) for T in "12" for nu in "12" for sigma in ("-1", "0", "1")
        ]
        for row in rows:
            if row[2] == "1":
                assert "" not in row[3:9] and row[8] != "ERROR" and row[9] == ""
            else:
                assert row[3:] == ["", "", "", "", "", "ERROR",
                                   '"sigma_tilde must be a positive finite number, got %s.0"'
                                   % row[2]]

    def test_repeated_csv_runs_parse_back(self):
        # two runs give the same bytes, and csv.reader reads back every cell:
        # floats exactly, the quoted ERROR messages with their commas
        args = ["scan", "--T", "1:2:2", "--nu", "1:1:1", "--sigma=-1:1:3", "--format", "csv"]
        first, second = run_cli(args, text=False), run_cli(args, text=False)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        header, *rows = csv.reader(io.StringIO(first.stdout.decode("utf-8"), newline=""))
        assert header == cli.SCAN_COLUMNS
        assert [[float(v) for v in r[:3]] for r in rows] == [
            [T, 1.0, sigma] for T in (1.0, 2.0) for sigma in (-1.0, 0.0, 1.0)
        ]
        for row in rows[0:2] + rows[3:5]:
            assert row[3:] == ["", "", "", "", "", "ERROR",
                               "sigma_tilde must be a positive finite number, got %r"
                               % float(row[2])]
        for T, row in ((1.0, rows[2]), (2.0, rows[5])):
            params = gas_statistics.GasParameters(1.0, T, 1.0)
            state = gas_statistics.solve_thermal_state(params, gas_statistics.Statistics.FERMI_DIRAC)
            report = classify_regime(params, WireGeometry(1.0))
            assert [float(v) for v in row[3:8]] == [
                state.z, state.lam, state.degeneracy, report.rhs_approx, report.rhs_exact]
            assert row[8:] == [report.regime.value, ""]

    def test_error_rows_and_exit(self, capsys):
        # condensed BE points produce ERROR rows; exit 0 while any succeeds
        code = main(
            ["scan", "--stat", "be", "--T", "1:40:2:log", "--nu", "1:1:1", "--sigma", "0.1:0.1:1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert any(",ERROR," in r for r in rows)
        assert any(",ERROR," not in r for r in rows)

    def test_convergence_failure_gives_error_rows(self, capsys, monkeypatch):
        # a solve that runs out of steps fails its (T, nu) pair, not the scan
        monkeypatch.setattr(gas_statistics, "density_and_slope", lambda stat, y: (1e300, 1e306))
        code, rows = scan_rows(capsys, ["--T", "1:1:1", "--nu", "1:2:2", "--sigma", "0.5:1:2"])
        assert code == 1
        lam = thermal_wavelength(1.0, 1.0)
        for nu, pair in zip((1.0, 2.0), (rows[:2], rows[2:])):
            for row in pair:
                assert row[3:9] == ["", "", "", "", "", "ERROR"]
                assert row[9].startswith('"fugacity iteration did not converge at degeneracy %r'
                                         ' in the ln z bracket [' % (lam ** 3 / nu))

    def test_all_error_scan_exits_one(self, capsys):
        code = main(
            ["scan", "--stat", "be", "--T", "0.1:0.1:1", "--nu", "1:1:1", "--sigma", "0.1:0.1:1"]
        )
        capsys.readouterr()
        assert code == 1

    def test_zero_nu_gives_error_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--nu", "0:1:2", "--sigma", "0.5:1:2", "--out", str(out)])
        assert code == 0
        rows = [line.split(",", 9) for line in out.read_text().strip().split("\n")[1:]]
        assert [r[1] for r in rows] == ["0", "0", "1", "1"]
        assert all(
            r[8:] == ["ERROR", '"nu must be a positive finite number, got 0.0"']
            for r in rows[:2]
        )
        assert all(r[8] != "ERROR" for r in rows[2:])

    @pytest.mark.parametrize(
        "T,nu,message",
        [
            # lambda^3 itself overflows
            ("1e-300", "1:2:2",
             '"lambda^3/nu at T = 1e-300, nu = %s must be a positive normal double, got inf"'),
            # lambda^3 is finite, the division by nu overflows
            ("1", "1e-320:1e-320:2",
             '"lambda^3/nu at T = 1.0, nu = %s must be a positive normal double, got inf"'),
        ],
        # the ids the two cases were first collected under
        ids=['1e-300-1:2:2-"lambda^3/nu overflows at T = 1e-300, nu = %s"',
             '1-1e-320:1e-320:2-"lambda^3/nu overflows at T = 1.0, nu = %s"'],
    )
    def test_overflowing_degeneracy_gives_error_rows(self, tmp_path, T, nu, message):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--T", T + ":" + T + ":1", "--nu", nu, "--out", str(out)])
        assert code == 1
        rows = [line.split(",", 9) for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 2
        assert all(r[8:] == ["ERROR", message % repr(float(r[1]))] for r in rows)

    def test_subnormal_degeneracy_gives_an_error_row(self, capsys):
        # lambda^3/nu = 1.5750e-322 is subnormal: the row printed it as z =
        # degeneracy = 1.5810e-322, 0.4 % off, and exited 0
        code, rows = scan_rows(capsys, ["--T", "1e10:1e10:1", "--nu", "1e308:1e308:1",
                                        "--sigma", "1:1:1", "--stat", "be"])
        assert code == 1
        assert rows == [["10000000000", "1e+308", "1", "", "", "", "", "", "ERROR",
                         '"lambda^3/nu at T = 10000000000.0, nu = 1e+308 must be a positive'
                         ' normal double, got 1.6e-322"']]

    def test_si_wavelength_past_product_underflow(self, tmp_path):
        # m k_B T underflows to 0 at T = 1e-280 K; lambda = 7.46e132 m is
        # finite, and its cube overflows into an ERROR row, not a traceback
        out = tmp_path / "scan.csv"
        code = main(["scan", "--units", "si", "--T", "1e-280:1e-280:1", "--out", str(out)])
        assert code == 1
        rows = [line.split(",", 9) for line in out.read_text().strip().split("\n")[1:]]
        assert [r[8:] for r in rows] == [
            ["ERROR", '"lambda^3/nu at T = 1e-280, nu = 1.0 must be a positive normal double,'
                      ' got inf"']]

    def test_fugacity_past_double_range(self, capsys):
        # ln z = 1519 and 760 at T = 0.005 and 0.01: z and rhs_approx read
        # inf, rhs_exact = sigma_tilde f_{1/2}(z)/degeneracy stays finite
        mpmath = pytest.importorskip("mpmath")
        code, rows = scan_rows(capsys, ["--T", "0.005:0.02:3:log", "--nu", "1:1:1"])
        assert code == 0
        assert [r[8] for r in rows] == ["DegenerateSubFermi"] * 3
        for row in rows[:2]:
            assert row[3] == row[6] == "inf"
            sigma, deg, rhs_exact = float(row[2]), float(row[5]), float(row[7])
            y = gas_statistics.solve_log_fugacity(gas_statistics.Statistics.FERMI_DIRAC, deg)
            assert y > 709.0
            with mpmath.workdps(30):
                f_half = float((-mpmath.polylog(0.5, -mpmath.exp(y))).real)
            assert abs(rhs_exact - sigma * f_half / deg) <= 1e-10 * rhs_exact
        assert math.isfinite(float(rows[2][3]))

    def test_deep_degenerate_pair_solves(self, capsys):
        # lambda^3/nu ~ 1.6e301 puts ln z ~ 7.6e200; there f_{1/2}(e^y) =
        # (2/sqrt(pi)) sqrt(y) and y = (deg/C)^(2/3) to double precision
        code, rows = scan_rows(
            capsys, ["--T", "1e-200:1e-200:1", "--nu", "1:1:1", "--sigma", "1:1:1"]
        )
        assert code == 0
        assert len(rows) == 1 and rows[0][8] == "DegenerateSubFermi"
        sigma, deg, rhs_exact = float(rows[0][2]), float(rows[0][5]), float(rows[0][7])
        y = (deg / gas_statistics.SOMMERFELD_COEFF) ** (2.0 / 3.0)
        expected = 2.0 / math.sqrt(math.pi) * math.sqrt(y) * sigma / deg
        assert abs(rhs_exact - expected) <= 1e-10 * expected

    def test_json_format(self, capsys):
        code = main(["scan", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "T"
        assert len(payload["rows"]) == 1
        assert payload["rows"][0][8] == "Bosonized"

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps(
                {
                    "T": "6.283185307179586:6.283185307179586:1",
                    "nu": {"min": 1, "max": 1, "points": 1},
                    "sigma": "1e-6:1e-6:1",
                    "stat": "mb",
                }
            )
        )
        code = main(["scan", "--config", str(config)])
        base = capsys.readouterr().out
        assert code == 0
        assert float(base.strip().split("\n")[1].split(",")[3]) == pytest.approx(1.0)

        code = main(["scan", "--config", str(config), "--stat", "fd"])
        overridden = capsys.readouterr().out
        assert code == 0
        z = float(overridden.strip().split("\n")[1].split(",")[3])
        assert z != pytest.approx(1.0, rel=1e-6)  # fd root differs from mb

    def test_config_keys_match_flags(self, tmp_path, capsys):
        # every scan setting reads the same from a flag and from the file
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps(
                {
                    "T": "6.283185307179586:6.283185307179586:1",
                    "nu": {"min": 10, "max": 1000, "points": 3, "spacing": "log"},
                    "sigma": "1:1:1",
                    "stat": "mb",
                    "units": "reduced",
                    "format": "json",
                    "thresholds": {"z_degenerate": 50, "deg_classical": "0.5"},
                }
            )
        )
        assert main(["scan", "--config", str(config)]) == 0
        from_file = capsys.readouterr().out
        flags = ["--T", "6.283185307179586:6.283185307179586:1", "--nu", "10:1000:3:log",
                 "--sigma", "1:1:1", "--stat", "mb",
                 "--units", "reduced", "--format", "json", "--z-degenerate", "50",
                 "--deg-classical", "0.5"]
        assert main(["scan"] + flags) == 0
        assert capsys.readouterr().out == from_file
        # degeneracy 0.1 is classical under deg_classical = 0.5, not under 0.01
        assert main(["scan"] + flags[:-4]) == 0
        assert capsys.readouterr().out != from_file

    def test_threshold_flags(self, capsys):
        code = main(
            [
                "scan",
                "--stat",
                "mb",
                "--nu",
                "1000:1000:1",
                "--sigma",
                "1:1:1",
                "--deg-classical",
                "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # degeneracy 1e-3 < 0.002 and rhs >= 1: the Boltzmann branch
        assert out.strip().split("\n")[1].split(",")[8] == "BoltzmannConverged"

    def test_subnormal_count_is_an_error_row(self, capsys):
        # a normal sigma_tilde whose count is not: the row printed rhs_approx = 2.1e-308
        code = main(["scan", "--stat", "be", "--T", "6.283185307179586:6.283185307179586:1",
                     "--nu", "1:1:1", "--sigma", "3e-308:1e-307:2"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert code == 0
        assert rows[1].split(",")[8] == "Bosonized"
        assert rows[0] == ('6.2831853071795862,1,3.0000000000000002e-308,,,,,,ERROR,'
                           '"rhs_approx must be a positive normal double or inf, got '
                           '2.0958430774052e-308"')


# Invocations that must exit 2 with no traceback; a config is written to
# scan.json and passed with --config.
EXIT_TWO_CASES = [
    # a flag another command or kind reads
    (["oracle", "--m", "5"], None),
    (["tabulate", "phonon", "--stat", "be"], None),
    (["tabulate", "occupation", "--units", "si"], None),
    (["tabulate", "occupation", "--cutoff", "7"], None),
    (["oracle", "--grid", "0:1:2"], None),
    # scan values that flags and the config file reject alike
    (["scan", "--z-degenerate", "0.5"], None),
    (["scan"], {"thresholds": {"z_degenerate": "abc"}}),
    (["scan"], {"T": {"min": "x", "max": 1, "points": 1}}),
    (["scan"], {"out": 5}),
    (["scan"], {"T": {"min": 1, "max": 2, "points": 2.5}}),
    # a table input outside its domain
    (["tabulate", "phonon", "--nu", "0:1:2"], None),
    (["tabulate", "phonon", "--c", "inf"], None),
    # omega_max overflows; at c = 1 it reads 1.8e107
    (["tabulate", "phonon", "--nu", "1e-320:1e-320:1", "--c", "1e250"], None),
    # these raised ZeroDivisionError; omega_max underflows to 0, and eps_m underflows
    (["tabulate", "phonon", "--nu", "1e300:1e300:1", "--c", "1e-300"], None),
    (["tabulate", "phonon", "--m", "1e308", "--nu", "1e300:1e300:1"], None),
    (["tabulate", "phonon", "--m", "1e-320"], None),  # eps_m = eps_F = inf: a nan row, exit 0
    # config files and an output path the scan cannot use
    (["scan"], {"T": {"min": 1, "max": 2}}),  # an axis object without points
    (["scan"], {"T": 5}),  # an axis neither text nor an object
    (["scan"], [1]),  # a root that is not an object
    (["scan", "--config", "missing.json"], None),
    (["scan", "--out", "missing/scan.csv"], None),
]


class TestExitCodeTwo:
    def test_corrupt_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out_file = tmp_path / "never.csv"
        code = main(["scan", "--config", str(bad), "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert not out_file.exists()  # no partial output
        assert "configuration error" in captured.err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mystery": 3}')
        code = main(["scan", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_zero_point_axis(self, capsys):
        code = main(["scan", "--T", "1:2:0"])
        capsys.readouterr()
        assert code == 2

    def test_bad_stat_and_format(self, capsys):
        assert main(["scan", "--stat", "xx"]) == 2
        capsys.readouterr()
        assert main(["scan", "--format", "xml"]) == 2
        capsys.readouterr()

    def test_sigma_thin_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scan", "--sigma-thin", "0.1"])
        assert exit_info.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"thresholds": {"sigma_thin": 0.1}}')
        assert main(["scan", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["oracle", "--z", "abc"],
            ["oracle", "--cutoff", "2.5"],
            ["tabulate", "occupation", "--grid", "1:2"],
            ["tabulate", "phonon", "--units", "xx"],
        ],
        ids=" ".join,
    )
    def test_bad_table_flag_value_names_the_flag(self, tmp_path, monkeypatch, capsys, args):
        # a table flag's value goes through the same parse path as scan's,
        # so a bad one is a configuration error, not an argparse usage error
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: %s: " % args[-2])
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        # the argparse tree is built once per process, not on every call
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert main(["scan", "--T", "1:1:1"]) == 0
        assert main(["tabulate", "phonon"]) == 0
        capsys.readouterr()
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize(
        "args, config",
        EXIT_TWO_CASES,
        ids=[" ".join(a) + ("" if c is None else " " + json.dumps(c)) for a, c in EXIT_TWO_CASES],
    )
    def test_exit_two_without_traceback(self, tmp_path, monkeypatch, capsys, args, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "scan.json").write_text(json.dumps(config))
            args = args + ["--config", "scan.json"]
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code == 2
        assert "error" in capsys.readouterr().err
        # nothing written, not even a file named after a bad "out"
        assert [p.name for p in tmp_path.iterdir()] == (["scan.json"] if config else [])


class TestTabulate:
    def test_occupation_example(self, capsys):
        code = main(["tabulate", "occupation", "--z", "1", "--grid", "0:10:101"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "stat,z,beta_eps,occupation,message"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[3]) == 0.5

    def test_occupation_be_pole_row(self, capsys):
        code = main(
            ["tabulate", "occupation", "--stat", "be", "--z", "1", "--grid", "0:2:3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows[0].split(",")[3] == ""  # pole row has no value, only message
        assert float(rows[1].split(",")[3]) > 0.0

    def test_phonon_example(self, capsys):
        code = main(["tabulate", "phonon"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["eps_m"]) == pytest.approx(7.596333120575995, rel=1e-12)
        assert float(row["rel_diff_energy"]) <= 1e-12

    def test_oracle_example(self, capsys):
        code = main(["tabulate", "oracle", "--stat", "mb", "--z", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().split("\n")
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["rel_err_3d"]) < 1e-2

    def test_oracle_alias_matches_tabulate(self, tmp_path):
        a = tmp_path / "alias.csv"
        b = tmp_path / "kind.csv"
        assert main(["oracle", "--stat", "mb", "--z", "0.1", "--out", str(a)]) == 0
        assert (
            main(["tabulate", "oracle", "--stat", "mb", "--z", "0.1", "--out", str(b)])
            == 0
        )
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_bose_levels_past_expm1_overflow(self, capsys):
        # the 0.2-wide axes put beta*eps ~ 987 at n_y = n_z = 1, where expm1
        # overflows: those levels hold 0, with no RuntimeWarning (an error here),
        # so the ground-mode share is 1, its value to within 1.1e-214
        code = main(["oracle", "--stat", "be", "--a", "0.2", "--T", "1", "--z", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.split("\n")[1] == (
            "3,0.20000000000000001,1,1,0.5,be,5,1,1,99,1.1182987119066414,"
            "0.0047607809181810417,0.9647940995497486,0.99574283608887981,"
            "0.13726619795097092,1,182.07195812476445,6.9531137395436824e-26,"
        )

    @pytest.mark.parametrize("T, value",
                             [("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"), ("nan", "nan")])
    def test_oracle_bad_temperature_row(self, capsys, T, value):
        # the temperature is checked, and named, before beta = 1/(k_B T) is formed
        code = main(["oracle", "--T", T])
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert code == 1
        assert row.endswith(',"T must be a positive finite number, got %s"' % value)

    @pytest.mark.parametrize(
        "args, message",
        [
            # BE at z = 1 cannot be summed over a spectrum whose ground state is 0
            (["--stat", "be", "--z", "1.0"], "Bose box sum needs z < 1"),
            # V/lambda^3 underflows a double
            (["--T", "1e-300"], '"V/lambda^3 must be a positive normal double, got 0.0"'),
            # the level spacing (h/L)^2/2m overflows a double
            (["--L", "1e-300", "--a", "1e-300"],
             "level (h n/L)^2/2m at L = 1e-300, n = 1 must be a positive normal double, got inf"),
            # the beta*eps = 45 cutoff L sqrt(2 m 45/beta)/h overflows a double
            (["--L", "1e300", "--T", "1e300"], "default cutoff overflows at L = 1e+300"),
            # k_B T underflows to 0 in SI below about 4e-301 K
            (["--T", "1e-310", "--units", "si"],
             '"k_B T must be a positive normal double, got 0.0"'),
            (["--L", "0"], '"L_long must be a positive finite number, got 0.0"'),
            (["--a", "inf"], '"a_transverse must be a positive finite number, got inf"'),
            (["--z", "inf"], '"z must be a positive finite number, got inf"'),
            # an axis's eps_1 = (h/a)^2/2m underflows to 0, V/lambda^3 overflows,
            # (V/lambda^3) F_{1/2}(z) underflows to 0, and eps_1 = (h/L)^2/2m
            # underflows to 0
            (["--cutoff", "1", "--a", "1e200"],
             "level (h n/L)^2/2m at L = 1e+200, n = 1 must be a positive normal double, got 0.0"),
            (["--cutoff", "1", "--T", "1e300"],
             '"V/lambda^3 must be a positive normal double, got inf"'),
            (["--cutoff", "1", "--L", "1e-100", "--a", "1e-100", "--z", "1e-30"],
             '"(V/lambda^3) F_1/2(z) must be a positive normal double, got 0.0"'),
            (["--cutoff", "1", "--L", "1e300"],
             "level (h n/L)^2/2m at L = 1e+300, n = 1 must be a positive normal double, got 0.0"),
            # beta eps_1 overflows a double
            (["--cutoff", "1", "--T", "1e-150", "--L", "1e-150", "--z", "1e-300"],
             '"s = beta eps_1 on axis x must be a positive normal double, got inf"'),
            # s = 4.9e-300 would be normal, but the subnormal eps_1 would leave it fewer
            # than 53 bits
            (["--cutoff", "1", "--L", "2e155", "--T", "1e-10"],
             "level (h n/L)^2/2m at L = 2e+155, n = 1 must be a positive normal double,"
             " got 4.9348022005447e-310"),
            # an MB box sum past double range: a RuntimeWarning, then a row of nan
            (["--cutoff", "1", "--stat", "mb", "--z", "1.7e308", "--units", "si", "--T", "1",
              "--L", "1", "--a", "1"], '"N_discrete must be a positive normal double, got inf"'),
        ],
        ids=["be z=1", "T=1e-300", "L=a=1e-300", "L=T=1e300", "si T=1e-310", "L=0", "a=inf",
             "z=inf", "a=1e200", "T=1e300", "V F_1/2 underflows", "L=1e300", "s overflows",
             "subnormal eps_1", "mb sum overflows"],
    )
    def test_oracle_error_row(self, capsys, args, message):
        code = main(["oracle", *args])
        out = capsys.readouterr().out
        assert code == 1
        row = out.strip().split("\n")[1]
        assert row.split(",")[-1] != ""
        assert message in row

    def test_oracle_thin_si_box_gives_a_finite_row(self, capsys):
        # 2 m a^2 underflows in SI at a = 1e-150 while every level of the box is
        # finite; the box's own scales s_i = beta eps_1 take it
        assert main(["oracle", "--cutoff", "1", "--a", "1e-150", "--units", "si"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        cells = dict(zip(header, row))
        assert (cells.pop("stat"), cells.pop("message")) == ("fd", "")
        assert all(0.0 < float(value) < math.inf for value in cells.values()), cells


# Tables the CSV renderer must write as the csv-module reference does.
NAN = float("nan")
RENDER_TABLES = {
    "quoting": (["a", "b,c", 'd"'], [
        ["x,y", 'say "hi"', "plain"],
        ["line\nbreak", "carriage\rreturn", "crlf\r\n"],
        ["", '"', ","],
        ['""', " spaced ", "tab\tand;semicolon"],
    ]),
    "none": (["a", "b", "c"], [[None, None, "x"], ["y", None, None]]),
    "signed zeros": (["a", "b"], [[0.0, 1.5], [-0.0, 1.5], [0.0, -0.0], [-0.0, 0.0]]),
    "non-finite": (["a", "b", "c"], [
        [NAN, math.inf, -math.inf],
        [float("nan"), -math.inf, math.nan],
        [NAN, math.inf, 2.5],
    ]),
    "int bool numpy": (["a", "b", "c", "d"], [
        [1, True, np.float64(0.1), np.float64(-0.0)],
        [10 ** 20, False, np.float64(0.1), np.float64(np.nan)],
        [-7, 0, 1e20, np.float64(1e20)],
    ]),
    "numpy float column": (["a", "b"], [[np.float64(0.1), 1.0], [np.float64(0.1), 1.0]]),
    "repeated floats": (["T", "nu", "sigma"], [
        [T, nu, sigma]
        for T in (0.045, 0.1 + 0.2, 1e-300)
        for nu in (0.3, 5e-324, 1.7976931348623157e308)
        for sigma in (1e-4, 0.1, 1.0 / 3.0, 100.0)
    ]),
    "error rows": (["T", "z", "regime", "message"], [
        [1.5, 2.0, "Bosonized", ""],
        [1.5, None, "ERROR", "sigma_tilde must be a positive finite number, got -1.0"],
        [2.5, 2.0, "DegenerateSubFermi", ""],
        [2.5, None, "ERROR", 'says "no"'],
    ]),
    "zero rows": (["a", "b"], []),
}


def scan_reference_rows(config):
    """The rows of config's scan built point by point: the pair's state from
    solve_thermal_state, F_{1/2}(z) from quantum_integral and the row from
    classify_wire, which classify_regime must match."""
    m = constants_for(config.unit_system).mass_ref
    rows = []
    for T in config.t_axis.values():
        for nu in config.nu_axis.values():
            for sigma in config.sigma_axis.values():
                try:
                    params = GasParameters(m, T, nu, config.unit_system)
                    state = solve_thermal_state(params, config.statistics)
                    f_half = quantum_integral(config.statistics, 0.5, log_z=state.log_z)
                    wire = WireGeometry(sigma)
                    report = classify_wire(state, f_half, wire, config.thresholds)
                except (ConvergenceError, DomainError) as exc:
                    rows.append([T, nu, sigma, None, None, None, None, None, "ERROR", str(exc)])
                    continue
                assert classify_regime(params, wire, config.thresholds, config.statistics) == report
                rows.append([T, nu, sigma, state.z, state.lam, state.degeneracy,
                             report.rhs_approx, report.rhs_exact, report.regime.value, ""])
    return rows


def tie_grid(stat):
    """Axes and thresholds with exact ties: deg_classical is the degeneracy of
    the pair at T = 50, where the top sigma is the first to give rhs_approx
    = 1; for FD and MB, z_degenerate is the z of the pair at T = 0.5 (a Bose
    z stays below 1, so BE takes T = 5 and the default threshold)."""
    t_low = 5.0 if stat is Statistics.BOSE_EINSTEIN else 0.5
    low, classical = (solve_thermal_state(GasParameters(1.0, T, 1.0), stat) for T in (t_low, 50.0))
    ratio = classical.z / classical.degeneracy  # rhs_approx = sigma * ratio
    sigma = (1.0 - 1e-15) / ratio
    while sigma * ratio < 1.0:
        sigma = math.nextafter(sigma, math.inf)
    assert sigma * ratio == 1.0
    z_degenerate = 100.0 if stat is Statistics.BOSE_EINSTEIN else low.z
    axes = (AxisSpec(t_low, 50.0, 2), AxisSpec(1.0, 1.0, 1),
            AxisSpec(math.nextafter(sigma, 0.0), sigma, 2))
    return axes, RegimeThresholds(z_degenerate, classical.degeneracy)


# (T, nu, sigma) axes of the streamed-scan grids, the thresholds default
SCAN_GRIDS = {
    "regimes": (AxisSpec(0.05, 200.0, 9, "log"), AxisSpec(0.5, 8.0, 4, "log"),
                AxisSpec(1e-4, 100.0, 9, "log")),
    "errors": (AxisSpec(1e-300, 2.0 * math.pi, 3, "log"), AxisSpec(0.0, 2.0, 3),
               AxisSpec(-1.0, 1.0, 3)),
    "z = inf": (AxisSpec(0.005, 0.02, 3, "log"), AxisSpec(1.0, 1.0, 1),
                AxisSpec(1e-6, 1.0, 3, "log")),
    "ints": (AxisSpec(1, 10 ** 20, 3, "log"), AxisSpec(1, 2, 2), AxisSpec(3, 3, 1)),
    "ties": None,
}


class TestStreamedScan:
    """run_scan writes what the per-point reference rows render to."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("stat", list(Statistics), ids=lambda s: s.value)
    @pytest.mark.parametrize("grid", list(SCAN_GRIDS))
    def test_matches_per_point_reference(self, tmp_path, grid, stat, out_format):
        axes, thresholds = tie_grid(stat) if grid == "ties" else (SCAN_GRIDS[grid],
                                                                  RegimeThresholds())
        config = ScanConfig(*axes, stat, thresholds, out_path=str(tmp_path / "scan"),
                            out_format=out_format)
        rows = scan_reference_rows(config)
        expected = (render_csv(cli.SCAN_COLUMNS, rows) if out_format == "csv"
                    else cli._render_table(cli.SCAN_COLUMNS, rows, "json"))
        code = cli.run_scan(config)
        assert (tmp_path / "scan").read_bytes() == expected.encode("utf-8")
        assert code == (0 if any(r[8] != "ERROR" for r in rows) else 1)
        regimes = Counter(r[8] for r in rows)
        if grid == "regimes" and stat is Statistics.FERMI_DIRAC:
            assert set(regimes) == {"Bosonized", "BosonizedClassical", "DegenerateSubFermi",
                                    "BoltzmannConverged"}
        if grid == "errors":
            messages = " ".join(r[9] for r in rows)
            for part in ("at T = 1e-300", "nu must be", "sigma_tilde must be"):
                assert part in messages
            assert ("condensed phase" in messages) == (stat is Statistics.BOSE_EINSTEIN)
        if grid == "z = inf" and stat is Statistics.FERMI_DIRAC:
            assert any(r[3] == math.inf for r in rows)
        if grid == "ties":
            # each tie goes to the regime first in the cascade
            lo, hi = rows[-2:]
            assert lo[5] == thresholds.deg_classical == hi[5]
            assert hi[6] == 1.0 > lo[6]
            assert (lo[8], hi[8]) == ("BosonizedClassical", "BoltzmannConverged")
            if stat is not Statistics.BOSE_EINSTEIN:
                assert rows[0][3] == thresholds.z_degenerate
                assert rows[0][8] == rows[1][8] == "DegenerateSubFermi"

    def test_each_input_checked_once(self, capsys, monkeypatch):
        # m once, each T and each nu value once and each sigma's wire once;
        # no record is built per (T, nu) pair
        calls = []
        positive = errors._positive

        def counted(name, value):
            calls.append(name)
            return positive(name, value)

        for name, module in list(sys.modules.items()):
            if name.startswith("fermiwire") and getattr(module, "_positive", None) is positive:
                monkeypatch.setattr(module, "_positive", counted)
        code, rows = scan_rows(
            capsys, ["--T", "1:30:3:log", "--nu", "0.5:4:2:log", "--sigma", "1e-6:1:4:log"]
        )
        assert code == 0 and len(rows) == 24
        assert Counter(calls) == {"m": 1, "T": 3, "nu": 2, "sigma_tilde": 4}

    @pytest.mark.parametrize(
        "stat, axes, bound",
        [
            # the seed-1 grids of bench/run.py: be_sweep, 500 pairs of one
            # sigma, and phase_map_fd, 50 pairs of 20 sigma each: one walk a
            # pair
            ("be", (AxisSpec(3.333016638580184, 180.2754923795323, 500, "log"),
                    AxisSpec(1.0, 1.0, 1), AxisSpec(1.634364244112401, 1.634364244112401, 1)),
             1.0),
            ("fd", (AxisSpec(0.04567182122056201, 162.71150605405848, 10, "log"),
                    AxisSpec(0.5105509847590646, 7.804055220591537, 5, "log"),
                    AxisSpec(9.990870174183882e-05, 98.98982129577476, 20, "log")), 1.0),
        ],
        ids=["be_sweep", "phase_map_fd"],
    )
    def test_kernel_walks_per_pair(self, tmp_path, monkeypatch, stat, axes, bound):
        # one solve a pair, its last walk's slope serving as F_{1/2}: the
        # walks are the solver's Newton steps alone
        walks = []
        kernel = specfun._pair

        def counted(*args):
            walks.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(specfun, "_pair", counted)
        config = ScanConfig(*axes, Statistics(stat), out_path=str(tmp_path / "scan"))
        assert cli.run_scan(config) == 0
        pairs = axes[0].points * axes[1].points
        assert len(walks) / pairs <= bound


class TestCsvRendering:
    @pytest.mark.parametrize("table", RENDER_TABLES.values(), ids=list(RENDER_TABLES))
    def test_matches_reference(self, table):
        columns, rows = table
        assert cli._render_table(columns, rows, "csv") == render_csv(columns, rows)

    def test_quoted_cells_parse_back(self):
        columns, rows = RENDER_TABLES["quoting"]
        text = cli._render_table(columns, rows, "csv")
        assert list(csv.reader(io.StringIO(text, newline=""))) == [columns, *rows]

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--stat", "be", "--T", "1:40:4:log", "--nu", "1:2:2", "--sigma=-1:1:3"],
            ["scan", "--T", "1e-300:6.283185307179586:2:log", "--nu", "0:2:3", "--sigma", "0:1:3"],
            ["scan", "--T", "0.005:0.02:3:log", "--nu", "1:1:1"],
            ["tabulate", "occupation", "--stat", "be", "--z", "1", "--grid", "0:2:3"],
            ["tabulate", "occupation", "--z=-0", "--grid=-0:0:3"],
            ["tabulate", "occupation", "--z", "0.5", "--grid", "0:800:800"],
            ["tabulate", "phonon", "--nu", "0.1:10:5:log"],
            ["oracle", "--stat", "mb", "--z", "0.1"],
            ["oracle", "--T", "1e-300"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_cli_output_matches_reference(self, capsys, monkeypatch, args):
        # a table command renders its rows once through _render_table; a CSV
        # scan writes its rows as text itself, so its reference rows are
        # built point by point from the public classifier
        tables = []
        render, scan = cli._render_table, cli.run_scan

        def recording(columns, rows, out_format):
            tables.append((columns, rows))
            return render(columns, rows, out_format)

        def scan_recording(config):
            tables.append((cli.SCAN_COLUMNS, scan_reference_rows(config)))
            return scan(config)

        monkeypatch.setattr(cli, "_render_table", recording)
        monkeypatch.setattr(cli, "run_scan", scan_recording)
        main(args)
        [(columns, rows)] = tables
        assert capsys.readouterr().out == render_csv(columns, rows)


VERIFY_ROWS = [
    "eps_m_equals_eps_F",
    "p_m_equals_p_F",
    "rhs_eq3_linear_in_sigma",
    "bosonized_at_vanishing_sigma",
    "mb_wire_integral_equals_rhs",
    "fd_fugacity_roundtrip",
    "be_fugacity_roundtrip",
    "be_condensation_rejected",
    "sommerfeld_ratio_lnz_100",
    "sommerfeld_ratio_lnz_1000",
    "boltzmann_convergence_fd",
    "boltzmann_convergence_be",
    "closure_fixed_point_residual",
    "closure_ratio",
    "closure_ratio_scale_invariant",
    "closure_below_fermi_temperature",
    "closure_ratio_vs_three_fifths",
    "box_mb_continuum_agreement",
    "box_error_monotone_decrease",
    "transverse_mode_freeze_out",
    "fd_wire_integral_matches_f_half",
]


class TestVerify:
    def test_nan_residual_fails(self, capsys, monkeypatch):
        # max(worst, nan) keeps worst, so a nan residual must not fold away
        integral = verify.number_integral_quasi1d

        def nan_when_degenerate(stat, state, wire):
            if stat is gas_statistics.Statistics.FERMI_DIRAC and state.log_z > 0.0:
                return math.nan
            return integral(stat, state, wire)

        monkeypatch.setattr(verify, "number_integral_quasi1d", nan_when_degenerate)
        assert verify.run_verify() == 1
        *rows, summary = capsys.readouterr().out.split("\n")[:-1]
        assert rows[-1].startswith("fd_wire_integral_matches_f_half")
        assert "computed=nan " in rows[-1] and rows[-1].endswith(" FAIL")
        assert summary == "19 passed, 1 failed, 1 info"

    def test_unraised_condensation_fails(self, capsys, monkeypatch):
        # a Bose solve that returns past zeta(3/2) instead of raising must fail the row
        solve = verify.solve_fugacity

        def lenient(stat, degeneracy):
            if stat is Statistics.BOSE_EINSTEIN and degeneracy > gas_statistics.ZETA_THREE_HALVES:
                return 1.0
            return solve(stat, degeneracy)

        monkeypatch.setattr(verify, "solve_fugacity", lenient)
        assert verify.run_verify() == 1
        *rows, summary = capsys.readouterr().out.split("\n")[:-1]
        [row] = [r for r in rows if r.startswith("be_condensation_rejected ")]
        assert "computed=no error " in row and row.endswith(" FAIL")
        assert summary == "19 passed, 1 failed, 1 info"

    def test_classical_occupation_evaluated_once(self, capsys, monkeypatch):
        # the shared Maxwell-Boltzmann reference is evaluated once, then FD
        # and BE, each one rule call over the 501 grid points
        calls = []
        occupations = verify._occupations

        def counted(stat, ws):
            calls.append((stat, len(ws)))
            return occupations(stat, ws)

        monkeypatch.setattr(verify, "_occupations", counted)
        assert verify.run_verify() == 0
        capsys.readouterr()
        assert calls == [(Statistics.MAXWELL_BOLTZMANN, 501), (Statistics.FERMI_DIRAC, 501),
                         (Statistics.BOSE_EINSTEIN, 501)]

    @pytest.mark.parametrize("units", ["reduced", "si"])
    def test_repeated_runs_print_the_same_bytes(self, capsys, units):
        # the first run starts from an empty quadrature layout cache, the
        # second from the layout the first one left
        specfun._layout.cache_clear()
        outputs = []
        for _ in range(2):
            assert verify.run_verify(UnitSystem(units)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("units", ["reduced", "si"])
    def test_closure_residual_is_relative(self, capsys, units):
        # the residual is divided by k_B T, so the tolerance means the same in
        # both unit systems
        assert main(["verify", "--units", units]) == 0
        [row] = [r for r in capsys.readouterr().out.split("\n")
                 if r.startswith("closure_fixed_point_residual ")]
        _, computed, expected, tol, status = row.split()
        assert (expected, tol, status) == ("expected=0", "tol=1e-12", "PASS")
        residual = float(computed[len("computed="):])
        assert residual == 0.0 if units == "reduced" else 0.0 < residual < 1e-15

    @pytest.mark.parametrize("units", ["reduced", "si"])
    def test_row_names_and_summary(self, capsys, units):
        # the names and summary line bench/checks.py parses, through the
        # cli name the benchmark calls
        assert cli.run_verify is verify.run_verify
        assert main(["verify", "--units", units]) == 0
        *rows, summary = capsys.readouterr().out.split("\n")[:-1]
        assert [row.split()[0] for row in rows] == VERIFY_ROWS
        assert summary == "20 passed, 0 failed, 1 info"


ORACLE_FLAGS = ["--stat", "--z", "--L", "--a", "--T", "--cutoff", "--units", "--out", "--format"]
HELP_FLAGS = {
    "verify": ["--units"],
    "scan": ["--config", "--T", "--nu", "--sigma", "--stat", "--units", "--out", "--format",
             "--z-degenerate", "--deg-classical"],
    "tabulate occupation": ["--stat", "--z", "--grid", "--out", "--format"],
    "tabulate phonon": ["--nu", "--m", "--c", "--units", "--out", "--format"],
    "tabulate oracle": ORACLE_FLAGS,
    "oracle": ORACLE_FLAGS,
}


class TestVerifySubprocess:
    def test_verify_passes(self):
        result = run_cli(["verify"])
        assert result.returncode == 0
        assert "0 failed" in result.stdout
        assert "closure_ratio_vs_three_fifths" in result.stdout
        assert "INFO" in result.stdout
        assert "FAIL" not in result.stdout

    @pytest.mark.parametrize("command", HELP_FLAGS)
    def test_help_lists_each_flag(self, command):
        result = run_cli(command.split() + ["--help"])
        assert result.returncode == 0
        options = result.stdout.split("\noptions:\n")[1]
        # an option line has a two-space indent; wrapped help is indented further
        listed = [line.split()[0] for line in options.splitlines() if line.startswith("  --")]
        assert listed == HELP_FLAGS[command]

    def test_entry_point_help(self):
        result = run_cli(["--help"])
        assert result.returncode == 0
        for sub in ("verify", "scan", "tabulate", "oracle"):
            assert sub in result.stdout
