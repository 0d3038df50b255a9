"""Command-line front end: flag parsing, phase-map scans, tables.

The verify suite lives in fermiwire.verify; run_verify is re-exported here.

Exit codes: 0 success, 1 a failed check or no row computed, 2 configuration
error (a flag the command does not take, or a bad flag or config value).
Output files are written in one shot after all rows are computed, so a
failed run never leaves partial output, and identical invocations produce
byte-identical files.
"""

import json
import math
import sys
from collections import namedtuple
from functools import lru_cache
from operator import index

from .box_oracle import ContinuumComparison, compare_continuum, enumerate_levels
from .constants import UnitSystem, constants_for
from .errors import (ConfigError, ConvergenceError, DomainError, ResourceLimitError, _Checked,
                     _NORMAL_MIN, _normal, _positive, _real)
from .gas_statistics import _solve_pair, occupation
from .phonon_map import (
    PhononMedium,
    correspondence_check,
    debye_omega_max,
    debye_wavelength,
)
from .specfun import Statistics, _linspace
from .thin_wire import RegimeThresholds, WireGeometry, _lost_count, _regimes
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
    *ContinuumComparison._fields,
    "message",
]

class AxisSpec(_Checked, namedtuple("AxisSpec", "minimum maximum points spacing",
                                    defaults=("linear",))):
    """One scan axis: min:max:points with linear or log spacing; min and max are
    any real numbers, points an integer as operator.index takes it."""

    __slots__ = ()

    def _check(self):
        try:
            points = index(self.points)
        except TypeError:
            raise ConfigError("axis points must be an integer, got %r" % (self.points,)) from None
        if points < 1:
            raise ConfigError("axis needs points >= 1, got %d" % points)
        minimum, maximum = _real(self.minimum), _real(self.maximum)
        if minimum is None or maximum is None:
            raise ConfigError("axis min and max must be numbers, got %r and %r"
                              % (self.minimum, self.maximum))
        if minimum > maximum:
            raise ConfigError("axis needs min <= max, got %g > %g" % (minimum, maximum))
        if self.spacing not in ("linear", "log"):
            raise ConfigError("spacing must be linear or log, got %r" % (self.spacing,))
        if self.spacing == "log" and not minimum > 0.0:
            raise ConfigError("log spacing needs min > 0")
        return minimum, maximum, points, self.spacing

    def values(self):
        """The grid: np.linspace's, bit for bit (specfun._linspace); log axes
        take that grid in log10 and then 10**v, with the exact end points."""
        if self.points == 1:
            return [self.minimum]
        if self.spacing == "linear":
            return _linspace(self.minimum, self.maximum, self.points)
        grid = _linspace(math.log10(self.minimum), math.log10(self.maximum), self.points)
        return [self.minimum] + [10.0 ** v for v in grid[1:-1]] + [self.maximum]


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


_THRESHOLD_KEYS = RegimeThresholds._fields
# Scan settings a --config file holds at its root, under their flag's name.
_SCAN_KEYS = tuple(key for key in ScanConfig._fields if key != "thresholds")


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


def _render_table(columns, rows, out_format):
    """Render rows (lists aligned with columns) to CSV or JSON text."""
    if out_format == "json":
        payload = {"columns": columns, "rows": [list(r) for r in rows]}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return "\n".join(",".join(map(_fmt, row)) for row in [columns, *rows]) + "\n"


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


def run_scan(config):
    """Solve and classify every grid point; write one row per point.

    Rows follow the grid in lexicographic (T, nu, sigma) order.  The fugacity
    depends on (T, nu) alone and both count bounds are linear in sigma, so
    each pair is solved once (which also gives F_{1/2}(z)), with no record
    built for it, and its sigma rows take one of the two labels _regimes gives
    it.  m, each T, each nu and each sigma's wire are checked once (the error
    that rejects one goes to all its rows).  A CSV row is written as the text
    _fmt gives: axis values are formatted once, z, lambda and the degeneracy
    (floats) once per pair, so each row formats only its two counts.  A row
    whose count is 0 or subnormal is an ERROR row, with classify_wire's error.
    """
    unit_system, stat = config.unit_system, config.statistics
    m = _positive("m", constants_for(unit_system).mass_ref)
    thresholds = RegimeThresholds() if config.thresholds is None else config.thresholds
    text = config.out_format == "csv"

    def error_row(T, nu, sigma, exc):
        row = [T, nu, sigma, None, None, None, None, None, "ERROR", str(exc)]
        return ",".join(map(_fmt, row)) if text else row

    def checked(axis, check):
        # (value, its cell, the DomainError that rejects it or None) of each axis value
        for value in axis.values():
            error = None
            try:
                check(value)
            except DomainError as exc:
                error = exc
            yield value, _fmt(value), error

    nus = list(checked(config.nu_axis, lambda nu: _positive("nu", nu)))
    sigmas = list(checked(config.sigma_axis, WireGeometry))
    valid = sum(error is None for _, _, error in sigmas)
    rows, solved = [], 0
    for T, T_cell, T_error in checked(config.t_axis, lambda T: _positive("T", T)):
        for nu, nu_cell, nu_error in nus:
            error = T_error or nu_error
            if not error:
                try:
                    _, z, lam, degeneracy, f_half = _solve_pair(m, T, nu, unit_system, stat)
                except (ConvergenceError, DomainError) as exc:
                    error = exc
            if error:
                rows.extend(error_row(T, nu, sigma, error) for sigma, _, _ in sigmas)
                continue
            solved += valid
            # Regime.value, without the enum property's cost
            below, above = (regime._value_ for regime in _regimes(z, degeneracy, thresholds))
            z_ratio, f_ratio = z / degeneracy, f_half / degeneracy
            tail = ",%.17g,%.17g,%.17g," % (z, lam, degeneracy)
            for sigma, sigma_cell, sigma_error in sigmas:
                if sigma_error:
                    rows.append(error_row(T, nu, sigma, sigma_error))
                    continue
                rhs_approx, rhs_exact = sigma * z_ratio, sigma * f_ratio
                if rhs_approx < _NORMAL_MIN or rhs_exact < _NORMAL_MIN:
                    solved -= 1
                    rows.append(error_row(T, nu, sigma, _lost_count(rhs_approx, rhs_exact)))
                    continue
                label = above if rhs_approx >= 1.0 else below
                if text:
                    rows.append("%s,%s,%s%s%.17g,%.17g,%s," % (
                        T_cell, nu_cell, sigma_cell, tail, rhs_approx, rhs_exact, label))
                else:
                    rows.append([T, nu, sigma, z, lam, degeneracy, rhs_approx, rhs_exact,
                                 label, ""])
    _write_output("\n".join([",".join(SCAN_COLUMNS), *rows]) + "\n" if text
                  else _render_table(SCAN_COLUMNS, rows, "json"), config.out_path)
    return 0 if solved else 1


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
        # k_B T leaves the normal range in SI below about 1.6e-285 K
        beta = 1.0 / _normal("k_B T", consts.k_B * _positive("T", T))
        spec = enumerate_levels(L, a, m, cutoff=cutoff, beta=beta, unit_system=unit_system)
        cmp_ = compare_continuum(spec, statistics, z, beta)
        row = [L, a, m, T, z, statistics.value, *spec.cutoff, spec.level_count, *cmp_, ""]
        code = 0
    except (DomainError, ResourceLimitError) as exc:
        row = [L, a, m, T, z, statistics.value] + [None] * (len(ORACLE_COLUMNS) - 7) + [str(exc)]
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
    import argparse
    _, help_text, keys = _COMMANDS[name]
    parser = subparsers.add_parser(name, help=help_text, allow_abbrev=False,
                                   argument_default=argparse.SUPPRESS)
    for key in keys:
        flag, _, flag_help = _FLAGS[key]
        parser.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"),
                            help=flag_help)
    parser.set_defaults(command=name)


@lru_cache(maxsize=None)
def _parser():
    # built once per process: parsing leaves the tree as it was.  argparse
    # (and its gettext) loads here, not with the module, for run_scan callers
    import argparse
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
    return parser


def main(argv=None):
    settings = vars(_parser().parse_args(argv))
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
