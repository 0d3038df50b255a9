"""Correctness checks made apart from fermiwire.

Nothing here imports the program.  Fermi-Dirac and Bose-Einstein integrals
come from mpmath's polylogarithm, f_nu(z) = -Li_nu(-z) and g_nu(z) = Li_nu(z);
wavelength, degeneracy and the count bound from their closed forms; box
particle numbers from the exact Maxwell-Boltzmann identity
N = z * Theta_x * Theta_y * Theta_z with one-dimensional theta sums.
Each check returns a list of problems; an empty list means the output
is right.
"""

import csv
import io
import math

import mpmath

mpmath.mp.dps = 30

# README regime cascade with the documented default thresholds.
Z_DEGENERATE = 100.0
DEG_CLASSICAL = 0.01

INTEGRAL_TOL = 1e-10  # the package's relative-accuracy contract
CLOSED_FORM_TOL = 1e-13  # a few roundings of the same arithmetic
PERTURBATION = 1e-8  # the self-test moves z by this relative amount

SCAN_COLUMNS = [
    "T", "nu", "sigma_tilde", "z", "lambda", "degeneracy",
    "rhs_approx", "rhs_exact", "regime", "message",
]


def _rel(a, b):
    return abs(a - b) / abs(b)


def axis_values(minimum, maximum, points, spacing):
    """Grid values as the README defines them, computed with plain math."""
    if points == 1:
        return [minimum]
    steps = points - 1
    if spacing == "log":
        ratio = math.log(maximum / minimum)
        return [minimum * math.exp(ratio * i / steps) for i in range(points)]
    return [minimum + (maximum - minimum) * i / steps for i in range(points)]


def expected_regime(z, degeneracy, rhs_approx):
    if z >= Z_DEGENERATE:
        return "DegenerateSubFermi"
    if degeneracy <= DEG_CLASSICAL and rhs_approx >= 1.0:
        return "BoltzmannConverged"
    if degeneracy <= DEG_CLASSICAL:
        return "BosonizedClassical"
    return "Bosonized"


class ScanChecker:
    """Row-by-row checks of a fermiwire scan in reduced units (m = 1)."""

    def __init__(self, spec):
        self.stat = spec["stat"]
        self.grid = [
            (T, nu, sigma)
            for T in axis_values(*spec["T"])
            for nu in axis_values(*spec["nu"])
            for sigma in axis_values(*spec["sigma"])
        ]
        self._integrals = {}

    def integral(self, order, z):
        """f_order(z) or g_order(z), cached per (order, z)."""
        key = (order, z)
        if key not in self._integrals:
            if self.stat == "fd":
                value = -mpmath.polylog(order, -mpmath.mpf(z))
            else:
                value = mpmath.polylog(order, mpmath.mpf(z))
            self._integrals[key] = float(mpmath.re(value))
        return self._integrals[key]

    def check(self, text):
        """(rows, failed rows, problems) for the CSV text of one scan."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != SCAN_COLUMNS:
            return 0, 0, ["header %r" % (header,)]
        rows = list(reader)
        problems = []
        if len(rows) != len(self.grid):
            problems.append("%d rows for a %d-point grid" % (len(rows), len(self.grid)))
        failed = 0
        for index, (row, point) in enumerate(zip(rows, self.grid)):
            if row[8] == "ERROR":
                failed += 1
                continue
            problems += ["row %d: %s" % (index, p) for p in self.check_row(row, point)]
        return len(rows), failed, problems

    def check_row(self, row, point):
        problems = []
        T, nu, sigma = (float(v) for v in row[:3])
        if any(_rel(v, w) > 1e-12 for v, w in zip((T, nu, sigma), point)):
            return ["grid point %r, expected %r" % (row[:3], point)]
        z, lam, deg, rhs_approx, rhs_exact = (float(v) for v in row[3:8])
        if not (0.0 < z < math.inf) or (self.stat == "be" and not z < 1.0):
            return ["fugacity z = %r out of range" % z]
        lam_exact = math.sqrt(2.0 * math.pi / T)
        deg_exact = lam_exact ** 3 / nu
        if _rel(lam, lam_exact) > CLOSED_FORM_TOL:
            problems.append("lambda %r, closed form %r" % (lam, lam_exact))
        if _rel(deg, deg_exact) > CLOSED_FORM_TOL:
            problems.append("degeneracy %r, closed form %r" % (deg, deg_exact))
        f32 = self.integral(1.5, z)
        if _rel(f32, deg_exact) > INTEGRAL_TOL:
            problems.append("F_3/2(z) = %r, degeneracy %r" % (f32, deg_exact))
        approx = sigma * z / deg_exact
        if _rel(rhs_approx, approx) > CLOSED_FORM_TOL:
            problems.append("rhs_approx %r, closed form %r" % (rhs_approx, approx))
        if self.stat == "fd":
            exact = sigma * self.integral(0.5, z) / deg_exact
            if _rel(rhs_exact, exact) > INTEGRAL_TOL:
                problems.append("rhs_exact %r, mpmath %r" % (rhs_exact, exact))
        elif not (0.0 < rhs_exact < math.inf):
            # rhs_exact of a Bose scan is computed with Fermi-Dirac
            # statistics by the program, so only its range is checked.
            problems.append("rhs_exact %r not positive and finite" % rhs_exact)
        regime = expected_regime(z, deg, rhs_approx)
        if row[8] != regime:
            problems.append("regime %s, cascade gives %s" % (row[8], regime))
        if row[9]:
            problems.append("message %r on a solved row" % row[9])
        return problems

    def self_test(self, text):
        """Problems if a row whose z is moved by PERTURBATION passes.

        One row per regime is moved, since each regime leans on different
        columns of the check."""
        picks = {}
        for index, row in enumerate(list(csv.reader(io.StringIO(text)))[1:]):
            if row[8] != "ERROR":
                picks.setdefault(row[8], (index, row))
        problems = []
        for index, row in picks.values():
            row[3] = repr(float(row[3]) * (1.0 + PERTURBATION))
            if not self.check_row(row, self.grid[index]):
                problems.append("self-test: row %d with perturbed z passes" % index)
        return problems


def check_scan(spec, text, codes):
    """(rows, failed rows, problems) for the CSV text of one scan pass."""
    if any(code != 0 for code in codes):
        return 0, 0, ["scan exit codes %r" % sorted(set(codes))]
    checker = ScanChecker(spec)
    rows, failed, problems = checker.check(text)
    return rows, failed, problems + checker.self_test(text)


# ---------------------------------------------------------------------------
# verify


def _theta(s, cutoff):
    """sum_{|n| <= cutoff} exp(-s n^2)."""
    s = mpmath.mpf(s)
    return mpmath.fsum(mpmath.exp(-s * n * n) for n in range(-cutoff, cutoff + 1))


def _cube_rel_err(edge, cutoff):
    """rel_err_3d of an MB cube with edge = L/lambda and |n_i| <= cutoff.

    beta*eps of level n along an axis is s n^2 with s = pi (lambda/L)^2, so
    N_discrete = z Theta^3 and the continuum gives N_3d = z (L/lambda)^3;
    z cancels in the relative error.
    """
    edge = mpmath.mpf(edge)
    theta3 = _theta(mpmath.pi / edge ** 2, cutoff) ** 3
    return float(abs(theta3 - edge ** 3) / theta3)


def _default_cutoff(edge):
    # enumerate_levels' documented rule: keep levels up to beta*eps = 45,
    # i.e. the smallest c with s c^2 >= 45.
    return max(1, math.ceil(edge * math.sqrt(45.0 / math.pi)))


def expected_box_numbers():
    """name -> (values, relative tolerance, absolute tolerance) of the box
    figures verify prints, from the theta-sum identity."""
    # transverse edge a with beta h^2/(2 m a^2) = 6.5; the long axis cancels
    transverse = _theta(6.5, _default_cutoff(math.sqrt(math.pi / 6.5)))
    return {
        "box_mb_continuum_agreement": ([_cube_rel_err(100.0, 125)], 1e-9, 0.0),
        # printed with %.3g: half a unit in the third digit, plus the
        # rounding of a difference of two O(1) sums
        "box_error_monotone_decrease": (
            [_cube_rel_err(edge, _default_cutoff(edge)) for edge in (1.0, 3.0)],
            5e-3,
            1e-14,
        ),
        "transverse_mode_freeze_out": ([float(1 / transverse ** 2)], 1e-12, 0.0),
    }


def parse_verify(text):
    """[(name, computed, status)] of the check rows, and the summary line."""
    lines = text.splitlines()
    rows = []
    for line in lines[:-1]:
        name = line.split()[0]
        computed = line.split("computed=", 1)[1].split(" expected=", 1)[0].strip()
        rows.append((name, computed, line.split()[-1]))
    return rows, lines[-1] if lines else ""


def check_box_numbers(rows, expected):
    """Problems where a printed box figure disagrees with the identity."""
    printed = {name: computed for name, computed, _ in rows}
    problems = []
    for name, (values, rel_tol, abs_tol) in expected.items():
        got = [float(v) for v in printed.get(name, "nan").split(" .. ")]
        if len(got) != len(values) or not all(
            abs(g - e) <= rel_tol * abs(e) + abs_tol for g, e in zip(got, values)
        ):
            problems.append("%s printed %s, theta sums give %r" % (name, printed.get(name), values))
    return problems


def check_verify(text, codes):
    """(rows, failed rows, problems) for one verify pass's printed table."""
    rows, summary = parse_verify(text)
    failed = sum(1 for _, _, status in rows if status == "FAIL")
    problems = []
    if any(status not in ("PASS", "INFO", "FAIL") for _, _, status in rows):
        problems.append("unparsed status in %r" % [r[2] for r in rows])
    passed = sum(1 for _, _, status in rows if status == "PASS")
    infos = len(rows) - passed - failed
    if summary != "%d passed, %d failed, %d info" % (passed, failed, infos):
        problems.append("summary line %r" % summary)
    if any(code != (1 if failed else 0) for code in codes):
        problems.append("exit codes %r with %d FAIL rows" % (sorted(set(codes)), failed))
    expected = expected_box_numbers()
    problems += check_box_numbers(rows, expected)
    # self-test: a box figure moved by PERTURBATION must be rejected
    name = "box_mb_continuum_agreement"
    moved = [
        (n, repr(float(c) * (1.0 + PERTURBATION)) if n == name else c, s)
        for n, c, s in rows
    ]
    if not check_box_numbers(moved, {name: expected[name]}):
        problems.append("self-test: perturbed %s passes" % name)
    return len(rows), failed, problems
