"""Command-line front end: verification suite, phase-map scans, tables.

Exit codes: 0 success, 1 verification/scan failure, 2 configuration error.
Output files are written in one shot after all rows are computed, so a
failed run never leaves partial output, and identical invocations produce
byte-identical files.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .box_oracle import compare_continuum, enumerate_levels
from .constants import UnitSystem, constants_for
from .errors import (
    CondensationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ResourceLimitError,
    SingularityError,
    TruncationError,
)
from .gas_statistics import (
    GasParameters,
    SOMMERFELD_COEFF,
    ThermalState,
    ZETA_THREE_HALVES,
    occupation,
    solve_fugacity,
    solve_thermal_state,
)
from .one_dim_chain import CLOSURE_RATIO, ChainParameters, closure_temperature
from .phonon_map import (
    PhononMedium,
    correspondence_check,
    debye_omega_max,
    debye_wavelength,
)
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    quantum_integral,
    thermal_wavelength,
)
from .thin_wire import (
    Regime,
    RegimeThresholds,
    WireGeometry,
    classify_regime,
    classify_wire,
    number_integral_quasi1d,
    rhs_eq3,
)

SCAN_COLUMNS = [
    "T",
    "nu",
    "sigma_tilde",
    "z",
    "lambda",
    "degeneracy",
    "rhs_approx",
    "rhs_exact",
    "regime",
    "message",
]
OCCUPATION_COLUMNS = ["stat", "z", "beta_eps", "occupation", "message"]
PHONON_COLUMNS = [
    "nu",
    "m",
    "c",
    "omega_max",
    "lambda_m",
    "p_m",
    "eps_m",
    "eps_F",
    "p_F",
    "rel_diff_energy",
    "rel_diff_momentum",
]
ORACLE_COLUMNS = [
    "L_long",
    "a_transverse",
    "m",
    "T",
    "z",
    "stat",
    "cutoff_x",
    "cutoff_y",
    "cutoff_z",
    "level_count",
    "N_discrete",
    "N_continuum_3d",
    "N_continuum_quasi1d",
    "rel_err_3d",
    "rel_err_quasi1d",
    "ground_mode_fraction",
    "sigma_tilde_fitted",
    "truncation_bound",
    "message",
]

@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: min:max:points with linear or log spacing."""

    minimum: float
    maximum: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError("axis needs points >= 1, got %d" % self.points)
        if self.minimum > self.maximum:
            raise ConfigError(
                "axis needs min <= max, got %g > %g" % (self.minimum, self.maximum)
            )
        if self.spacing not in ("linear", "log"):
            raise ConfigError("spacing must be linear or log, got %r" % (self.spacing,))
        if self.spacing == "log" and not self.minimum > 0.0:
            raise ConfigError("log spacing needs min > 0")

    def values(self):
        if self.points == 1:
            return [self.minimum]
        if self.spacing == "log":
            return [float(v) for v in np.geomspace(self.minimum, self.maximum, self.points)]
        return [float(v) for v in np.linspace(self.minimum, self.maximum, self.points)]


def parse_axis(text):
    """Parse 'min:max:points[:log]' into an AxisSpec."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("axis must look like min:max:points[:log], got %r" % (text,))
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError("unparseable axis %r" % (text,)) from None
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] not in ("log", "linear"):
            raise ConfigError("axis spacing must be 'log' or 'linear', got %r" % (parts[3],))
        spacing = parts[3]
    return AxisSpec(lo, hi, n, spacing)


@dataclass(frozen=True)
class ScanConfig:
    t_axis: AxisSpec = AxisSpec(2.0 * math.pi, 2.0 * math.pi, 1)
    nu_axis: AxisSpec = AxisSpec(1.0, 1.0, 1)
    sigma_axis: AxisSpec = AxisSpec(1e-6, 1e-6, 1)
    statistics: Statistics = Statistics.FERMI_DIRAC
    thresholds: RegimeThresholds = field(default_factory=RegimeThresholds)
    unit_system: UnitSystem = UnitSystem.REDUCED
    out_path: str = "-"
    out_format: str = "csv"


_CONFIG_KEYS = {"T", "nu", "sigma", "stat", "thresholds", "units", "out", "format"}
_THRESHOLD_KEYS = {"z_degenerate", "deg_classical"}


def _axis_from_config(entry, name):
    if isinstance(entry, str):
        return parse_axis(entry)
    if isinstance(entry, dict):
        unknown = set(entry) - {"min", "max", "points", "spacing"}
        if unknown:
            raise ConfigError("unknown %s axis keys: %s" % (name, sorted(unknown)))
        try:
            return AxisSpec(
                float(entry["min"]),
                float(entry["max"]),
                int(entry["points"]),
                str(entry.get("spacing", "linear")),
            )
        except KeyError as missing:
            raise ConfigError("%s axis needs min/max/points" % name) from missing
    raise ConfigError("%s axis must be a string or object" % name)


def load_scan_config(path):
    """Read a JSON scan configuration; raises ConfigError on anything off."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    config = ScanConfig()
    updates = {}
    if "T" in raw:
        updates["t_axis"] = _axis_from_config(raw["T"], "T")
    if "nu" in raw:
        updates["nu_axis"] = _axis_from_config(raw["nu"], "nu")
    if "sigma" in raw:
        updates["sigma_axis"] = _axis_from_config(raw["sigma"], "sigma")
    if "stat" in raw:
        updates["statistics"] = _parse_stat(raw["stat"])
    if "units" in raw:
        updates["unit_system"] = _parse_units(raw["units"])
    if "thresholds" in raw:
        entry = raw["thresholds"]
        if not isinstance(entry, dict) or set(entry) - _THRESHOLD_KEYS:
            raise ConfigError("thresholds must be an object with keys %s" % sorted(_THRESHOLD_KEYS))
        defaults = RegimeThresholds()
        updates["thresholds"] = RegimeThresholds(
            z_degenerate=float(entry.get("z_degenerate", defaults.z_degenerate)),
            deg_classical=float(entry.get("deg_classical", defaults.deg_classical)),
        )
    if "out" in raw:
        updates["out_path"] = str(raw["out"])
    if "format" in raw:
        updates["out_format"] = _parse_format(raw["format"])
    return _replace_config(config, updates)


def _replace_config(config, updates):
    from dataclasses import replace

    return replace(config, **updates) if updates else config


def _parse_stat(text):
    try:
        return Statistics(str(text))
    except ValueError:
        raise ConfigError("stat must be fd, be, or mb; got %r" % (text,)) from None


def _parse_units(text):
    try:
        return UnitSystem(str(text))
    except ValueError:
        raise ConfigError("units must be reduced or si; got %r" % (text,)) from None


def _parse_format(text):
    if text not in ("csv", "json"):
        raise ConfigError("format must be csv or json, got %r" % (text,))
    return text


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % value


def _render_table(columns, rows, out_format):
    """Render rows (lists aligned with columns) to CSV or JSON text."""
    if out_format == "json":
        payload = {"columns": columns, "rows": [list(r) for r in rows]}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _write_output(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verify


def _check_rows(unit_system=UnitSystem.REDUCED):
    rows = []

    def add(name, computed, expected, tol, ok):
        rows.append((name, _fmt(computed), expected, tol, "PASS" if ok else "FAIL"))

    def info(name, computed, note):
        rows.append((name, _fmt(computed), note, "", "INFO"))

    # every check below is a scale-free identity: reference scales come from
    # the chosen unit system so the suite is meaningful under both
    consts = constants_for(unit_system)
    m = consts.mass_ref
    T_ref = 2.0 * math.pi if unit_system is UnitSystem.REDUCED else 300.0
    lam = thermal_wavelength(m, T_ref, unit_system)
    beta = 1.0 / (consts.k_B * T_ref)

    # Debye cutoff versus Fermi scale on a (nu, m, c) grid
    grid = [0.5, 1.0, 2.0, 4.0]
    worst_e = worst_p = 0.0
    for nu in grid:
        for mass in grid:
            for c in grid:
                report = correspondence_check(
                    PhononMedium(c=c, nu=nu), mass, unit_system
                )
                worst_e = max(worst_e, report.rel_diff_energy)
                worst_p = max(worst_p, report.rel_diff_momentum)
    add("eps_m_equals_eps_F", worst_e, "0", "1e-12", worst_e <= 1e-12)
    add("p_m_equals_p_F", worst_p, "0", "1e-12", worst_p <= 1e-12)

    # wire count bound: linearity in sigma, the vanishing-sigma regime, MB identity
    params = GasParameters(m=m, T=T_ref, nu=lam ** 3, unit_system=unit_system)
    state = ThermalState(log_z=0.0, lam=lam, degeneracy=1.0)
    base = rhs_eq3(state, WireGeometry(1e-6)) / 1e-6
    dev = max(
        abs(rhs_eq3(state, WireGeometry(s)) / s / base - 1.0)
        for s in np.geomspace(1e-6, 1.0, 10)
    )
    add("rhs_eq3_linear_in_sigma", dev, "0", "1e-12", dev <= 1e-12)

    report = classify_regime(params, WireGeometry(1e-6))
    add(
        "bosonized_at_vanishing_sigma",
        report.regime.value,
        "Bosonized",
        "exact",
        report.regime is Regime.BOSONIZED and not report.inequality_holds,
    )

    worst = 0.0
    for z, deg in ((0.5, 1.0), (2.0, 0.2), (1e-3, 5.0)):
        mb_state = ThermalState(log_z=math.log(z), lam=lam, degeneracy=deg)
        wire = WireGeometry(0.05)
        exact = number_integral_quasi1d(Statistics.MAXWELL_BOLTZMANN, mb_state, wire)
        worst = max(worst, abs(exact / rhs_eq3(mb_state, wire) - 1.0))
    add("mb_wire_integral_equals_rhs", worst, "0", "1e-10", worst <= 1e-10)

    # fugacity round trips
    worst = 0.0
    for x in np.geomspace(1e-6, 50.0, 50):
        z = solve_fugacity(Statistics.FERMI_DIRAC, float(x))
        back = quantum_integral(Statistics.FERMI_DIRAC, QuantumIntegralOrder.THREE_HALVES, z)
        worst = max(worst, abs(back - x) / x)
    add("fd_fugacity_roundtrip", worst, "0", "1e-10", worst <= 1e-10)

    worst = 0.0
    for x in np.geomspace(1e-6, ZETA_THREE_HALVES - 1e-6, 50):
        z = solve_fugacity(Statistics.BOSE_EINSTEIN, float(x))
        back = quantum_integral(Statistics.BOSE_EINSTEIN, QuantumIntegralOrder.THREE_HALVES, z)
        worst = max(worst, abs(back - x) / x)
    add("be_fugacity_roundtrip", worst, "0", "1e-10", worst <= 1e-10)

    try:
        solve_fugacity(Statistics.BOSE_EINSTEIN, ZETA_THREE_HALVES + 1e-6)
        raised = False
    except CondensationError:
        raised = True
    add("be_condensation_rejected", "raised" if raised else "no error", "raised", "exact", raised)

    # degenerate asymptotic f_{3/2} ~ 4/(3 sqrt pi) (ln z)^{3/2}
    for lnz, tol in ((100.0, 1e-2), (1000.0, 1e-3)):
        val = quantum_integral(
            Statistics.FERMI_DIRAC, QuantumIntegralOrder.THREE_HALVES, log_z=lnz
        )
        ratio = val / lnz ** 1.5
        err = abs(ratio / SOMMERFELD_COEFF - 1.0)
        add(
            "sommerfeld_ratio_lnz_%d" % int(lnz),
            ratio,
            _fmt(SOMMERFELD_COEFF),
            _fmt(tol),
            err <= tol,
        )

    # classical convergence of both quantum statistics
    z = 1e-4
    grid_be = np.linspace(0.0, 50.0, 501)
    worst_fd = max(
        abs(occupation(Statistics.FERMI_DIRAC, z, 1.0, float(be)) / occupation(Statistics.MAXWELL_BOLTZMANN, z, 1.0, float(be)) - 1.0)
        for be in grid_be
    )
    worst_be = max(
        abs(occupation(Statistics.BOSE_EINSTEIN, z, 1.0, float(be)) / occupation(Statistics.MAXWELL_BOLTZMANN, z, 1.0, float(be)) - 1.0)
        for be in grid_be
    )
    add("boltzmann_convergence_fd", worst_fd, "0", "1e-4", worst_fd <= 1e-4)
    add("boltzmann_convergence_be", worst_be, "0", "2e-4", worst_be <= 2e-4)

    # 1D closure
    chain = ChainParameters(N=1.0, L=1.0, m=m)
    closure = closure_temperature(chain, unit_system)
    add(
        "closure_fixed_point_residual",
        closure.residual,
        "0",
        "1e-12*kT",
        closure.residual <= 1e-12 * closure.T,
    )
    add(
        "closure_ratio",
        closure.ratio,
        _fmt(CLOSURE_RATIO),
        "1e-9",
        abs(closure.ratio - CLOSURE_RATIO) <= 1e-9,
    )
    ratios = [
        closure_temperature(ChainParameters(N=1.0, L=d, m=mass), unit_system).ratio
        for d in (0.1, 0.5, 1.0, 5.0, 20.0)
        for mass in (0.2, 1.0, 3.0, 10.0, 50.0)
    ]
    spread = max(ratios) - min(ratios)
    add("closure_ratio_scale_invariant", spread, "0", "1e-12", spread <= 1e-12)
    add("closure_below_fermi_temperature", closure.ratio, "< 1", "exact", closure.ratio < 1.0)
    info(
        "closure_ratio_vs_three_fifths",
        closure.ratio,
        "3/5 = 0.6 sometimes quoted for this closure; not reproduced (see README)",
    )

    # box oracle versus continuum; edges set in units of lambda
    big = enumerate_levels(
        100.0 * lam, 100.0 * lam, m, cutoff=125, unit_system=unit_system
    )
    comparison = compare_continuum(big, Statistics.MAXWELL_BOLTZMANN, 0.1, beta)
    add(
        "box_mb_continuum_agreement",
        comparison.rel_err_3d,
        "0",
        "1e-2",
        comparison.rel_err_3d <= 1e-2,
    )

    errors = []
    for size in (1.0, 1.5, 2.0, 2.5, 3.0):
        spec = enumerate_levels(
            size * lam, size * lam, m, beta=beta, unit_system=unit_system
        )
        errors.append(
            compare_continuum(spec, Statistics.MAXWELL_BOLTZMANN, 0.1, beta).rel_err_3d
        )
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    add(
        "box_error_monotone_decrease",
        "%.3g .. %.3g" % (errors[0], errors[-1]),
        "decreasing over 5 sizes",
        "strict",
        monotone,
    )

    a = lam * math.sqrt(math.pi / 6.5)  # beta h^2/(2 m a^2) = 6.5
    frozen = enumerate_levels(30.0 * lam, a, m, beta=beta, unit_system=unit_system)
    fraction = compare_continuum(
        frozen, Statistics.MAXWELL_BOLTZMANN, 0.1, beta
    ).ground_mode_fraction
    add("transverse_mode_freeze_out", fraction, "> 0.99", "exact", fraction > 0.99)

    # wire integral against the f_{1/2} route
    worst = 0.0
    for z in np.geomspace(1e-3, 10.0, 15):
        st = ThermalState(log_z=math.log(z), lam=lam, degeneracy=1.0)
        wire = WireGeometry(1.0)
        exact = number_integral_quasi1d(Statistics.FERMI_DIRAC, st, wire)
        f_half = quantum_integral(Statistics.FERMI_DIRAC, QuantumIntegralOrder.ONE_HALF, float(z))
        worst = max(worst, abs(exact - f_half) / f_half)
    add("fd_wire_integral_matches_f_half", worst, "0", "1e-9", worst <= 1e-9)

    return rows


def run_verify(unit_system=UnitSystem.REDUCED):
    """Run the identity/property suite; print a table; 0 iff everything passes."""
    rows = _check_rows(unit_system)
    width = max(len(r[0]) for r in rows)
    failures = 0
    infos = 0
    for name, computed, expected, tol, status in rows:
        print(
            "%-*s  computed=%-24s expected=%-28s tol=%-10s %s"
            % (width, name, computed, expected, tol, status)
        )
        if status == "FAIL":
            failures += 1
        elif status == "INFO":
            infos += 1
    passed = len(rows) - failures - infos
    print("%d passed, %d failed, %d info" % (passed, failures, infos))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# scan


def _solve_pair(config, m, T, nu):
    """State and F_{1/2}(z) of one (T, nu) pair: the part of a row free of sigma."""
    stat = config.statistics
    state = solve_thermal_state(GasParameters(m, T, nu, config.unit_system), stat)
    return state, quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, log_z=state.log_z)


def _error_row(T, nu, sigma, exc):
    return [T, nu, sigma, None, None, None, None, None, "ERROR", str(exc)]


def run_scan(config):
    """Solve and classify every grid point; write one row per point.

    Rows follow the grid in lexicographic (T, nu, sigma) order.  The fugacity
    depends on (T, nu) alone and both count bounds are linear in sigma, so
    each pair is solved once and its sigma rows reuse that solution.
    """
    m = constants_for(config.unit_system).mass_ref
    nus, sigmas = config.nu_axis.values(), config.sigma_axis.values()
    rows = []
    for T in config.t_axis.values():
        for nu in nus:
            try:
                state, f_half = _solve_pair(config, m, T, nu)
            except (CondensationError, ConvergenceError, DomainError) as exc:
                rows.extend(_error_row(T, nu, sigma, exc) for sigma in sigmas)
                continue
            for sigma in sigmas:
                try:
                    wire = WireGeometry(sigma)
                except DomainError as exc:
                    rows.append(_error_row(T, nu, sigma, exc))
                    continue
                report = classify_wire(state, f_half, wire, config.thresholds)
                rows.append([T, nu, sigma, state.z, state.lam, state.degeneracy,
                             report.rhs_approx, report.rhs_exact, report.regime.value, ""])
    text = _render_table(SCAN_COLUMNS, rows, config.out_format)
    _write_output(text, config.out_path)
    succeeded = sum(1 for r in rows if r[8] != "ERROR")
    return 0 if succeeded >= 1 else 1


# ---------------------------------------------------------------------------
# tabulate


def run_tabulate_occupation(stat, z, grid, out_path, out_format):
    rows = []
    for be in grid.values():
        try:
            value = occupation(stat, z, 1.0, be)
            rows.append([stat.value, z, be, value, ""])
        except (DomainError, SingularityError) as exc:
            rows.append([stat.value, z, be, None, str(exc)])
    _write_output(_render_table(OCCUPATION_COLUMNS, rows, out_format), out_path)
    return 0 if any(r[4] == "" for r in rows) else 1


def run_tabulate_phonon(nu_axis, m, c, unit_system, out_path, out_format):
    rows = []
    for nu in nu_axis.values():
        medium = PhononMedium(c=c, nu=nu)
        report = correspondence_check(medium, m, unit_system)
        rows.append(
            [
                nu,
                m,
                c,
                debye_omega_max(medium),
                debye_wavelength(medium),
                report.p_m,
                report.eps_m,
                report.eps_F,
                report.p_F,
                report.rel_diff_energy,
                report.rel_diff_momentum,
            ]
        )
    _write_output(_render_table(PHONON_COLUMNS, rows, out_format), out_path)
    return 0


def run_tabulate_oracle(stat, L, a, z, T, cutoff, unit_system, out_path, out_format):
    consts = constants_for(unit_system)
    m = consts.mass_ref
    beta = 1.0 / (consts.k_B * T)
    try:
        spec = enumerate_levels(
            L, a, m, cutoff=cutoff, beta=beta, unit_system=unit_system
        )
        cmp_ = compare_continuum(spec, stat, z, beta)
        row = [
            L,
            a,
            m,
            T,
            z,
            stat.value,
            spec.cutoff[0],
            spec.cutoff[1],
            spec.cutoff[2],
            spec.level_count,
            cmp_.N_discrete,
            cmp_.N_continuum_3d,
            cmp_.N_continuum_quasi1d,
            cmp_.rel_err_3d,
            cmp_.rel_err_quasi1d,
            cmp_.ground_mode_fraction,
            cmp_.sigma_tilde_fitted,
            cmp_.truncation_bound,
            "",
        ]
        code = 0
    except (CondensationError, DomainError, ResourceLimitError, TruncationError) as exc:
        row = [L, a, m, T, z, stat.value] + [None] * 12 + [str(exc)]
        code = 1
    _write_output(_render_table(ORACLE_COLUMNS, [row], out_format), out_path)
    return code


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fermiwire",
        description="Quantum statistics of fermions in a quasi-1D wire",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity/property suite")
    p_verify.add_argument("--units", default="reduced", help="reduced|si")

    p_scan = sub.add_parser("scan", help="phase-map scan over (T, nu, sigma)")
    p_scan.add_argument("--config", help="JSON file mirroring the scan configuration")
    p_scan.add_argument("--T", dest="t_axis", help="axis min:max:points[:log]")
    p_scan.add_argument("--nu", dest="nu_axis", help="axis min:max:points[:log]")
    p_scan.add_argument("--sigma", dest="sigma_axis", help="axis min:max:points[:log]")
    p_scan.add_argument("--stat", help="fd|be|mb")
    p_scan.add_argument("--units", help="reduced|si")
    p_scan.add_argument("--out", help="output path, - for stdout")
    p_scan.add_argument("--format", dest="out_format", help="csv|json")
    p_scan.add_argument("--z-degenerate", type=float, help="classifier threshold")
    p_scan.add_argument("--deg-classical", type=float, help="classifier threshold")

    p_tab = sub.add_parser("tabulate", help="emit plottable tables")
    p_tab.add_argument("kind", choices=["occupation", "phonon", "oracle"])
    _add_table_flags(p_tab)

    p_oracle = sub.add_parser("oracle", help="box-spectrum versus continuum table")
    _add_table_flags(p_oracle)

    return parser


def _add_table_flags(parser):
    parser.add_argument("--stat", default="fd", help="fd|be|mb")
    parser.add_argument("--units", default="reduced", help="reduced|si")
    parser.add_argument("--out", default="-", help="output path, - for stdout")
    parser.add_argument("--format", dest="out_format", default="csv", help="csv|json")
    parser.add_argument("--z", type=float, default=1.0, help="fugacity")
    parser.add_argument(
        "--grid", default="0:10:101", help="beta*eps axis min:max:points[:log]"
    )
    parser.add_argument("--nu", default="1:1:1", help="specific-volume axis")
    parser.add_argument("--m", type=float, default=None, help="mass (default: unit-system reference)")
    parser.add_argument("--c", type=float, default=1.0, help="sound speed")
    parser.add_argument("--L", type=float, default=3.0, help="box long edge")
    parser.add_argument("--a", type=float, default=3.0, help="box transverse edge")
    parser.add_argument("--T", type=float, default=2.0 * math.pi, help="temperature")
    parser.add_argument("--cutoff", type=int, default=None, help="per-axis max |n|")


def _scan_config_from_args(args):
    config = ScanConfig() if args.config is None else load_scan_config(args.config)
    updates = {}
    if args.t_axis is not None:
        updates["t_axis"] = parse_axis(args.t_axis)
    if args.nu_axis is not None:
        updates["nu_axis"] = parse_axis(args.nu_axis)
    if args.sigma_axis is not None:
        updates["sigma_axis"] = parse_axis(args.sigma_axis)
    if args.stat is not None:
        updates["statistics"] = _parse_stat(args.stat)
    if args.units is not None:
        updates["unit_system"] = _parse_units(args.units)
    if args.out is not None:
        updates["out_path"] = args.out
    if args.out_format is not None:
        updates["out_format"] = _parse_format(args.out_format)
    thresholds = config.thresholds
    if args.z_degenerate is not None or args.deg_classical is not None:
        updates["thresholds"] = RegimeThresholds(
            z_degenerate=thresholds.z_degenerate
            if args.z_degenerate is None
            else args.z_degenerate,
            deg_classical=thresholds.deg_classical
            if args.deg_classical is None
            else args.deg_classical,
        )
    return _replace_config(config, updates)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(_parse_units(args.units))
        if args.command == "scan":
            return run_scan(_scan_config_from_args(args))
        if args.command in ("tabulate", "oracle"):
            kind = args.kind if args.command == "tabulate" else "oracle"
            stat = _parse_stat(args.stat)
            units = _parse_units(args.units)
            out_format = _parse_format(args.out_format)
            if kind == "occupation":
                return run_tabulate_occupation(
                    stat, args.z, parse_axis(args.grid), args.out, out_format
                )
            if kind == "phonon":
                m = args.m if args.m is not None else constants_for(units).mass_ref
                return run_tabulate_phonon(
                    parse_axis(args.nu), m, args.c, units, args.out, out_format
                )
            return run_tabulate_oracle(
                stat, args.L, args.a, args.z, args.T, args.cutoff, units, args.out, out_format
            )
        raise ConfigError("unknown command %r" % (args.command,))
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
