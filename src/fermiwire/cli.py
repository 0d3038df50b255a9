"""Command-line front end: flag parsing, phase-map scans, tables.

The verify suite lives in fermiwire.verify; run_verify is re-exported here.

Exit codes: 0 success, 1 a failed check or no row computed, 2 configuration
error (a flag the command does not take, or a bad flag or config value).
Output files are written in one shot after all rows are computed, so a
failed run never leaves partial output, and identical invocations produce
byte-identical files.
"""

import argparse
import json
import math
import sys
from collections import namedtuple

from .box_oracle import compare_continuum, enumerate_levels
from .constants import UnitSystem, constants_for
from .errors import ConfigError, ConvergenceError, DomainError, ResourceLimitError, _positive
from .gas_statistics import GasParameters, occupation
from .phonon_map import (
    PhononMedium,
    correspondence_check,
    debye_omega_max,
    debye_wavelength,
)
from .specfun import Statistics
from .thin_wire import RegimeThresholds, WireGeometry, _state_and_f_half, classify_wire
from .verify import run_verify

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

class AxisSpec(namedtuple("AxisSpec", "minimum maximum points spacing", defaults=("linear",))):
    """One scan axis: min:max:points with linear or log spacing."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    def values(self):
        """The grid: a + i*step with the exact end point, as np.linspace gives
        it bit for bit; log axes take that grid in log10 and then 10**v."""
        if self.points == 1:
            return [self.minimum]
        log = self.spacing == "log"
        a, b = (math.log10(self.minimum), math.log10(self.maximum)) if log else (
            self.minimum, self.maximum)
        step = (b - a) / (self.points - 1)
        grid = [a + i * step for i in range(self.points - 1)] + [b]
        if log:
            grid = [self.minimum] + [10.0 ** v for v in grid[1:-1]] + [self.maximum]
        return grid


def parse_axis(text):
    """Parse 'min:max:points[:log]' into an AxisSpec."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("axis must look like min:max:points[:log], got %r" % (text,))
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError("unparseable axis %r" % (text,)) from None
    return AxisSpec(lo, hi, n, *parts[3:])


ScanConfig = namedtuple(
    "ScanConfig",
    "t_axis nu_axis sigma_axis statistics thresholds unit_system out_path out_format",
    defaults=(AxisSpec(2.0 * math.pi, 2.0 * math.pi, 1), AxisSpec(1.0, 1.0, 1),
              AxisSpec(1e-6, 1e-6, 1), Statistics.FERMI_DIRAC, RegimeThresholds(),
              UnitSystem.REDUCED, "-", "csv"))


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


def _parse_path(value):
    if not isinstance(value, str):
        raise ConfigError("out must be a path, got %r" % (value,))
    return value


def _parse_threshold(value):
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError("threshold must be a number, got %r" % (value,))


def _parse_scan_axis(value):
    """A scan axis as min:max:points[:log] text or a {min, max, points[, spacing]} object."""
    if isinstance(value, dict):
        keys = set(value)
        if not {"min", "max", "points"} <= keys <= {"min", "max", "points", "spacing"}:
            raise ConfigError("axis object needs min, max, points [, spacing]; got %s" % sorted(keys))
        value = "%s:%s:%s:%s" % (
            value["min"], value["max"], value["points"], value.get("spacing", "linear"))
    if not isinstance(value, str):
        raise ConfigError("axis must be min:max:points[:log] or an object, got %r" % (value,))
    return parse_axis(value)


_THRESHOLD_KEYS = ("z_degenerate", "deg_classical")
# Scan settings a --config file holds at its root, under their flag's name.
_SCAN_KEYS = ("t_axis", "nu_axis", "sigma_axis", "statistics", "unit_system", "out_path",
              "out_format")


def _read_scan_file(path):
    """A JSON scan config's settings keyed by runner parameter, as the flags are."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except ValueError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    thresholds = raw.pop("thresholds", {})
    keys = {_FLAGS[key][0][2:]: key for key in _SCAN_KEYS}
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    if not isinstance(thresholds, dict) or set(thresholds) - set(_THRESHOLD_KEYS):
        raise ConfigError("thresholds must be an object with keys %s" % list(_THRESHOLD_KEYS))
    return {**{keys[name]: value for name, value in raw.items()}, **thresholds}


def _fmt(value):
    """CSV text of one cell: floats as %.17g, a str holding a comma, a double
    quote, CR or LF quoted with each double quote doubled (QUOTE_MINIMAL)."""
    if value is None:
        return ""
    if isinstance(value, str):
        if "," in value or '"' in value or "\r" in value or "\n" in value:
            return '"%s"' % value.replace('"', '""')
        return value
    if isinstance(value, int):
        return str(int(value))
    return "%.17g" % value


def _column_text(column):
    """CSV text of one column's cells.

    A column of floats alone, none of them zero, formats each distinct value
    once: 0.0 == -0.0 would share a dict key, while a NaN key is found by
    identity and always reads nan.  Any other column formats cell by cell.
    """
    if set(map(type, column)) == {float}:
        text = dict.fromkeys(column)
        if 0.0 not in text:
            text = dict(zip(text, map("%.17g".__mod__, text)))
            return map(text.__getitem__, column)
    return map(_fmt, column)


def _render_table(columns, rows, out_format):
    """Render rows (lists aligned with columns) to CSV or JSON text."""
    if out_format == "json":
        payload = {"columns": columns, "rows": [list(r) for r in rows]}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    cells = zip(*map(_column_text, zip(*rows)))
    return "\n".join([",".join(map(_fmt, columns)), *map(",".join, cells)]) + "\n"


def _write_output(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# scan


def _error_row(T, nu, sigma, exc):
    return [T, nu, sigma, None, None, None, None, None, "ERROR", str(exc)]


def run_scan(config):
    """Solve and classify every grid point; write one row per point.

    Rows follow the grid in lexicographic (T, nu, sigma) order.  The fugacity
    depends on (T, nu) alone and both count bounds are linear in sigma, so
    each pair is solved once and its sigma rows reuse that solution; each
    sigma's wire (or the DomainError that rejects it) is built once.
    """
    m = constants_for(config.unit_system).mass_ref
    nus = config.nu_axis.values()
    wires = []
    for sigma in config.sigma_axis.values():
        try:
            wires.append((sigma, WireGeometry(sigma)))
        except DomainError as exc:
            wires.append((sigma, exc))
    rows = []
    for T in config.t_axis.values():
        for nu in nus:
            try:
                state, f_half = _state_and_f_half(
                    GasParameters(m, T, nu, config.unit_system), config.statistics)
            except (ConvergenceError, DomainError) as exc:
                rows.extend(_error_row(T, nu, sigma, exc) for sigma, _ in wires)
                continue
            z = state.z
            for sigma, wire in wires:
                if isinstance(wire, DomainError):
                    rows.append(_error_row(T, nu, sigma, wire))
                    continue
                report = classify_wire(state, f_half, wire, config.thresholds)
                rows.append([T, nu, sigma, z, state.lam, state.degeneracy,
                             report.rhs_approx, report.rhs_exact, report.regime.value, ""])
    text = _render_table(SCAN_COLUMNS, rows, config.out_format)
    _write_output(text, config.out_path)
    succeeded = sum(1 for r in rows if r[8] != "ERROR")
    return 0 if succeeded >= 1 else 1


# ---------------------------------------------------------------------------
# tabulate


def run_tabulate_occupation(statistics=Statistics.FERMI_DIRAC, z=1.0,
                            grid=AxisSpec(0.0, 10.0, 101), out_path="-", out_format="csv"):
    rows = []
    for be in grid.values():
        try:
            value = occupation(statistics, z, 1.0, be)
            rows.append([statistics.value, z, be, value, ""])
        except DomainError as exc:
            rows.append([statistics.value, z, be, None, str(exc)])
    _write_output(_render_table(OCCUPATION_COLUMNS, rows, out_format), out_path)
    return 0 if any(r[4] == "" for r in rows) else 1


def run_tabulate_phonon(nu_axis=AxisSpec(1.0, 1.0, 1), m=None, c=1.0,
                        unit_system=UnitSystem.REDUCED, out_path="-", out_format="csv"):
    """One row per nu; m defaults to the unit system's reference mass."""
    if m is None:
        m = constants_for(unit_system).mass_ref
    rows = []
    try:
        for nu in nu_axis.values():
            medium = PhononMedium(c=c, nu=nu)
            report = correspondence_check(medium, m, unit_system)
            rows.append([nu, m, c, debye_omega_max(medium), debye_wavelength(medium),
                         report.p_m, report.eps_m, report.eps_F, report.p_F,
                         report.rel_diff_energy, report.rel_diff_momentum])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    _write_output(_render_table(PHONON_COLUMNS, rows, out_format), out_path)
    return 0


def run_tabulate_oracle(statistics=Statistics.FERMI_DIRAC, L=3.0, a=3.0, z=1.0, T=2.0 * math.pi,
                        cutoff=None, unit_system=UnitSystem.REDUCED, out_path="-",
                        out_format="csv"):
    consts = constants_for(unit_system)
    m = consts.mass_ref
    try:
        # k_B T underflows to 0 in SI below about 4e-301 K
        beta = 1.0 / _positive("k_B T", consts.k_B * _positive("T", T))
        spec = enumerate_levels(L, a, m, cutoff=cutoff, beta=beta, unit_system=unit_system)
        cmp_ = compare_continuum(spec, statistics, z, beta)
        row = [L, a, m, T, z, statistics.value, *spec.cutoff, spec.level_count,
               cmp_.N_discrete, cmp_.N_continuum_3d, cmp_.N_continuum_quasi1d,
               cmp_.rel_err_3d, cmp_.rel_err_quasi1d, cmp_.ground_mode_fraction,
               cmp_.sigma_tilde_fitted, cmp_.truncation_bound, ""]
        code = 0
    except (DomainError, ResourceLimitError) as exc:
        row = [L, a, m, T, z, statistics.value] + [None] * 12 + [str(exc)]
        code = 1
    _write_output(_render_table(ORACLE_COLUMNS, [row], out_format), out_path)
    return code


def _run_scan_settings(**settings):
    """run_scan on parsed settings, the two thresholds gathered into one object."""
    try:
        thresholds = RegimeThresholds(
            **{key: settings.pop(key) for key in _THRESHOLD_KEYS if key in settings})
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return run_scan(ScanConfig(thresholds=thresholds, **settings))


# ---------------------------------------------------------------------------
# argument parsing

# Every flag, keyed by the runner parameter it sets: (flag, parser, help).
_FLAGS = {
    "config": ("--config", _read_scan_file, "JSON file of scan settings; flags override it"),
    "t_axis": ("--T", _parse_scan_axis,
               "axis min:max:points[:log]; write a negative min as --T=-1:1:3"),
    "nu_axis": ("--nu", _parse_scan_axis,
                "axis min:max:points[:log]; write a negative min as --nu=-1:1:3"),
    "sigma_axis": ("--sigma", _parse_scan_axis,
                   "axis min:max:points[:log]; write a negative min as --sigma=-1:1:3"),
    "grid": ("--grid", parse_axis,
             "beta*eps axis min:max:points[:log]; write a negative min as --grid=-5:5:3"),
    "statistics": ("--stat", _parse_stat, "fd|be|mb"),
    "z": ("--z", float, "fugacity"),
    "m": ("--m", float, "mass (default: unit-system reference)"),
    "c": ("--c", float, "sound speed"),
    "L": ("--L", float, "box long edge"),
    "a": ("--a", float, "box transverse edge"),
    "T": ("--T", float, "temperature"),
    "cutoff": ("--cutoff", int, "per-axis max |n|"),
    "unit_system": ("--units", _parse_units, "reduced|si"),
    "out_path": ("--out", _parse_path, "output path, - for stdout"),
    "out_format": ("--format", _parse_format, "csv|json"),
    "z_degenerate": ("--z-degenerate", _parse_threshold, "classifier threshold"),
    "deg_classical": ("--deg-classical", _parse_threshold, "classifier threshold"),
}
# Every command and tabulate kind: its runner, its help and the parameters its flags set.
_COMMANDS = {
    "verify": (run_verify, "run the identity/property suite", ("unit_system",)),
    "scan": (_run_scan_settings, "phase-map scan over (T, nu, sigma)",
             ("config", *_SCAN_KEYS, *_THRESHOLD_KEYS)),
    "occupation": (run_tabulate_occupation, "occupation number over a beta*eps grid",
                   ("statistics", "z", "grid", "out_path", "out_format")),
    "phonon": (run_tabulate_phonon, "Debye scales against the Fermi scale",
               ("nu_axis", "m", "c", "unit_system", "out_path", "out_format")),
    "oracle": (run_tabulate_oracle, "box-spectrum versus continuum table",
               ("statistics", "z", "L", "a", "T", "cutoff", "unit_system", "out_path",
                "out_format")),
}


def _add_command(subparsers, name):
    _, help_text, keys = _COMMANDS[name]
    parser = subparsers.add_parser(name, help=help_text, allow_abbrev=False,
                                   argument_default=argparse.SUPPRESS)
    for key in keys:
        flag, _, flag_help = _FLAGS[key]
        parser.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"),
                            help=flag_help)
    parser.set_defaults(command=name)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fermiwire",
        description="Quantum statistics of fermions in a quasi-1D wire",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(required=True)
    _add_command(sub, "verify")
    _add_command(sub, "scan")
    kinds = sub.add_parser("tabulate", help="emit plottable tables").add_subparsers(required=True)
    for kind in ("occupation", "phonon", "oracle"):
        _add_command(kinds, kind)
    _add_command(sub, "oracle")

    settings = vars(parser.parse_args(argv))
    run, _, keys = _COMMANDS[settings.pop("command")]
    try:
        if "config" in settings:  # the flags given are laid over the file's settings
            settings = {**_read_scan_file(settings.pop("config")), **settings}
        values = {}
        for key, value in settings.items():
            flag, parse, _ = _FLAGS[key]
            try:
                values[key] = parse(value)
            except ValueError as exc:
                if "config" in keys:  # a scan value may come from the file: no flag to name
                    raise
                raise ConfigError("%s: %s" % (flag, exc)) from None
        return run(**values)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
