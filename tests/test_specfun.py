"""Quantum-integral and thermal-wavelength checks against independent oracles."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermiwire import (
    ConvergenceError,
    DomainError,
    QuantumIntegralOrder,
    Statistics,
    UnitSystem,
    quantum_integral,
    thermal_wavelength,
)
from fermiwire import _kernel_tables, specfun
from fermiwire.specfun import _ZETA_HALF_INTEGERS, density_and_slope, quad_checked
from oracles import (
    ETA_FIVE_HALVES,
    ETA_HALF,
    ETA_THREE_HALVES,
    LAMBDA_ELECTRON_300K,
    SOMMERFELD_COEFF,
    ZETA_FIVE_HALVES,
    ZETA_THREE_HALVES,
    be_series,
    fd_series,
    sommerfeld_fd,
)

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN
MB = Statistics.MAXWELL_BOLTZMANN

ORDERS = [
    QuantumIntegralOrder.ONE_HALF,
    QuantumIntegralOrder.THREE_HALVES,
    QuantumIntegralOrder.FIVE_HALVES,
]


def rel(a, b):
    return abs(a - b) / abs(b)


class TestFermiDirac:
    def test_small_z_leading_term(self):
        # f_{3/2}(z) = z - z^2/2^{3/2} + ..., so the deviation from z is < 4e-7
        value = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, 1e-6)
        assert rel(value, 1e-6) < 4e-7

    def test_unit_fugacity_is_eta(self):
        expectations = {
            0.5: ETA_HALF,
            1.5: ETA_THREE_HALVES,
            2.5: ETA_FIVE_HALVES,
        }
        for order in ORDERS:
            value = quantum_integral(FD, order, 1.0)
            assert rel(value, expectations[order.value]) < 1e-12

    @pytest.mark.parametrize("z", [1e-4, 0.1, 1.0])
    def test_matches_series_oracle(self, z):
        for order in ORDERS:
            value = quantum_integral(FD, order, z)
            assert rel(value, fd_series(order.value, z)) < 1e-10

    def test_series_quadrature_seam(self):
        # the evaluation strategy switches at z = 1/2; both sides of the seam
        # must agree with the series oracle and with each other
        for order in ORDERS:
            below = quantum_integral(FD, order, 0.4999)
            above = quantum_integral(FD, order, 0.5001)
            assert rel(below, fd_series(order.value, 0.4999)) < 1e-11
            assert rel(above, fd_series(order.value, 0.5001)) < 1e-11
            assert below < above

    def test_classical_limit_bound(self):
        for z in np.geomspace(1e-6, 0.1, 25):
            value = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, float(z))
            assert abs(value / z - 1.0) <= z

    def test_sommerfeld_regime(self):
        value = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, log_z=100.0)
        assert rel(value / 100.0 ** 1.5, SOMMERFELD_COEFF) < 1e-2
        value = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, log_z=1000.0)
        assert rel(value / 1000.0 ** 1.5, SOMMERFELD_COEFF) < 1e-3

    @pytest.mark.parametrize("x", [200.0, 700.0, 1e4])
    def test_matches_asymptotic_oracle(self, x):
        # Sommerfeld expansion truncated at its smallest term is accurate to
        # well beyond 1e-10 for ln z >= 200
        for order in ORDERS:
            value = quantum_integral(FD, order, log_z=x)
            assert rel(value, sommerfeld_fd(order.value, x)) < 1e-12

    def test_log_z_consistent_with_plain_z(self):
        for lnz in (-2.0, 0.0, 3.0, 50.0):
            for order in ORDERS:
                a = quantum_integral(FD, order, math.exp(lnz))
                b = quantum_integral(FD, order, log_z=lnz)
                assert rel(a, b) < 1e-12

    def test_monotone_in_z(self):
        for order in ORDERS:
            grid = np.geomspace(1e-12, 1e4, 100)
            values = [quantum_integral(FD, order, float(z)) for z in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_log_z(self):
        grid = np.linspace(10.0, 1e4, 100)
        values = [
            quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, log_z=float(x))
            for x in grid
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestBoseEinstein:
    def test_unit_fugacity_is_zeta(self):
        v32 = quantum_integral(BE, QuantumIntegralOrder.THREE_HALVES, 1.0)
        v52 = quantum_integral(BE, QuantumIntegralOrder.FIVE_HALVES, 1.0)
        assert rel(v32, ZETA_THREE_HALVES) < 1e-12
        assert rel(v52, ZETA_FIVE_HALVES) < 1e-12

    def test_half_order_diverges_at_one(self):
        assert quantum_integral(BE, QuantumIntegralOrder.ONE_HALF, 1.0) == math.inf

    @pytest.mark.parametrize("z", [1e-4, 0.1, 0.5])
    def test_matches_series_oracle(self, z):
        for order in ORDERS:
            value = quantum_integral(BE, order, z)
            assert rel(value, be_series(order.value, z)) < 1e-10

    def test_near_condensation(self):
        # the direct series is useless this close to z = 1 (it would need
        # ~1/(1-z) terms); check against arbitrary-precision polylogs instead
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for z in (1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13):
            for order in ORDERS:
                want = float(mpmath.polylog(order.value, mpmath.mpf(z)).real)
                got = quantum_integral(BE, order, z)
                assert rel(got, want) < 1e-10

    def test_log_z_route_near_condensation(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for lnz in (-1e-8, -1e-12):
            want = float(
                mpmath.polylog(1.5, mpmath.exp(mpmath.mpf(lnz))).real
            )
            got = quantum_integral(BE, QuantumIntegralOrder.THREE_HALVES, log_z=lnz)
            assert rel(got, want) < 1e-12

    def test_monotone_in_z(self):
        for order in ORDERS:
            grid = np.geomspace(1e-12, 1.0 - 1e-9, 100)
            values = [quantum_integral(BE, order, float(z)) for z in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_fugacity_above_one(self):
        with pytest.raises(DomainError):
            quantum_integral(BE, QuantumIntegralOrder.THREE_HALVES, 1.0 + 1e-12)
        with pytest.raises(DomainError):
            quantum_integral(BE, QuantumIntegralOrder.THREE_HALVES, log_z=1e-12)


class TestMaxwellBoltzmann:
    def test_identity(self):
        for order in ORDERS:
            for z in (1e-12, 0.3, 7.0, 1e5):
                assert quantum_integral(MB, order, z) == z

    def test_log_space_identity(self):
        assert quantum_integral(MB, 1.5, log_z=2.0) == math.exp(2.0)

    def test_overflowing_fugacity_is_infinite(self):
        assert quantum_integral(MB, 1.5, log_z=800.0) == math.inf


class TestOrdering:
    def test_fd_below_mb_below_be(self):
        for z in np.geomspace(1e-6, 1.0 - 1e-9, 40):
            f = quantum_integral(FD, QuantumIntegralOrder.THREE_HALVES, float(z))
            g = quantum_integral(BE, QuantumIntegralOrder.THREE_HALVES, float(z))
            assert f < z < g


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
def test_against_mpmath(order):
    """High-precision cross-check of both statistics over the whole domain."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in [1e-12, 1e-6, 0.3, 0.5, 0.9, 2.0, 50.0, 1e4]:
        want = float((-mpmath.polylog(order, -z)).real)
        got = quantum_integral(FD, order, z)
        assert rel(got, want) < 1e-11
    for z in [1e-12, 1e-6, 0.3, 0.7, 0.99, 0.9999999]:
        want = float(mpmath.polylog(order, z).real)
        got = quantum_integral(BE, order, z)
        assert rel(got, want) < 1e-11


# Dense log-spaced grids over the advertised domain: FD ln z in [-28, 1e4]
# on both sides of 0, BE alpha = -ln z in {0} and [5e-324, 28].
DENSE_FD_LOG_Z = (
    [-float(x) for x in np.geomspace(28.0, 1e-6, 13)]
    + [0.0]
    + [float(x) for x in np.geomspace(1e-6, 1e4, 26)]
)
DENSE_BE_ALPHA = (
    [0.0, 5e-324]
    + [float(a) for a in np.geomspace(1e-300, 1e-12, 9)[:-1]]
    + [float(a) for a in np.geomspace(1e-12, 28.0, 39)]
)


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
def test_dense_sweep_against_mpmath(order):
    """Relative error within 4e-15 of mpmath, checked densely in log space,
    for quantum_integral and for density_and_slope's element of this order.
    z = e^-alpha keeps alpha's digits only if mpmath carries 30 past them."""
    mpmath = pytest.importorskip("mpmath")
    element = {1.5: 0, 0.5: 1}.get(order)

    def check(stat, y, want):
        assert rel(quantum_integral(stat, order, log_z=y), want) <= 4e-15, y
        if element is not None:
            assert rel(density_and_slope(stat, y)[element], want) <= 4e-15, y

    with mpmath.workdps(30):
        for x in DENSE_FD_LOG_Z:
            check(FD, x, float((-mpmath.polylog(order, -mpmath.exp(x))).real))
    for alpha in DENSE_BE_ALPHA:
        if order == 0.5 and alpha == 0.0:
            continue  # g_{1/2}(1) diverges
        with mpmath.workdps(30 + max(0, -math.floor(math.log10(alpha or 1.0)))):
            check(BE, -alpha, float(mpmath.polylog(order, mpmath.exp(-mpmath.mpf(alpha))).real))


@pytest.mark.parametrize("alpha", [1e-200, 1e-300, 5e-324])
def test_bose_edge_at_tiny_alpha(alpha):
    # g_{1/2} ~ sqrt(pi/alpha) stays finite where the lead alpha^(-3/2) of
    # g_{-1/2}, summed beside it, overflows; g_{3/2} and g_{5/2} are zeta
    g = {nu: quantum_integral(BE, nu, log_z=-alpha) for nu in (0.5, 1.5, 2.5)}
    assert rel(g[0.5], math.sqrt(math.pi) / math.sqrt(alpha)) <= 1e-15
    assert g[1.5] == ZETA_THREE_HALVES
    assert g[2.5] == ZETA_FIVE_HALVES
    assert density_and_slope(BE, -alpha) == (g[1.5], g[0.5])


SRC = Path(__file__).resolve().parents[1] / "src"


def test_nothing_imports_scipy():
    importers = set()
    for path in (SRC / "fermiwire").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == set()


def test_scan_and_tables_load_no_numpy(tmp_path):
    # no command loads numpy: scans, tables, verify, the box oracle and the
    # wire quadrature all run in pure Python, each in a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = str(tmp_path / "out.csv")
    commands = [
        ["scan", "--T", "0.05:160:4:log", "--nu", "0.5:8:3:log", "--sigma", "1e-4:100:3:log"],
        ["scan", "--stat", "be", "--T", "3.4:170:4:log", "--sigma", "2:2:1"],
        ["tabulate", "occupation", "--stat", "be", "--z", "0.5"],
        ["tabulate", "phonon", "--nu", "0.5:4:3:log"],
        *(["oracle", "--stat", stat, "--z", "0.5"] for stat in ("fd", "be", "mb")),
    ]
    checks = [
        *("main(%r) == 0" % (argv + ["--out", out],) for argv in commands),
        "main(['verify']) == 0",
        "main(['verify', '--units', 'si']) == 0",
        *("number_integral_quasi1d(Statistics.%s, ThermalState(%r, 1.0, 1.0), WireGeometry(1.0))"
          " > 0.0" % (stat, log_z)
          for stat, log_z in (("FERMI_DIRAC", 3.0), ("BOSE_EINSTEIN", -0.5),
                              ("MAXWELL_BOLTZMANN", -2.0))),
    ]
    for check in checks:
        probe = "\n".join([
            "import contextlib, io, sys",
            "from fermiwire import Statistics, ThermalState, WireGeometry, number_integral_quasi1d",
            "from fermiwire.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert %s" % check,
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, (check, proc.stderr)
        assert proc.stdout.strip() == "[]", check


def test_runtime_paths_load_no_numpy_submodule(tmp_path):
    # verify, the box oracle and the Bose wire integral load no numpy module
    # past what a bare `import numpy` loads, even where numpy is already in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "\n".join([
        "import contextlib, io, sys",
        "import numpy",
        "bare = {m for m in sys.modules if m.split('.')[0] == 'numpy'}",
        "from fermiwire import Statistics, ThermalState, WireGeometry, number_integral_quasi1d",
        "from fermiwire.cli import main",
        "from fermiwire.verify import run_verify",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [run_verify(), main(['oracle', '--out', %r])]" % str(tmp_path / "out.csv"),
        "state = ThermalState(log_z=-0.5, lam=1.0, degeneracy=1.0)",
        "number_integral_quasi1d(Statistics.BOSE_EINSTEIN, state, WireGeometry(1.0))",
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' and m not in bare))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


def test_cli_import_loads_no_argparse():
    # the parser is built on use: run_scan and run_verify callers pay for
    # neither argparse nor the gettext it loads; main still parses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, fermiwire.cli; "
        "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules)); "
        "fermiwire.cli._parser(); "
        "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "['argparse', 'gettext']"]


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, fermiwire.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quad_checked_contract():
    # func maps a rule's node list to its values; exact for a cubic on any
    # panels, and an integrand the 8-node rule cannot resolve raises,
    # carrying the 16- vs 8-node gap
    value, estimate = quad_checked(lambda us: [u ** 3 for u in us], [0.0, 0.5, 1.0, 2.0])
    assert rel(value, 4.0) < 1e-15
    assert estimate < 1e-14
    with pytest.raises(ConvergenceError) as info:
        quad_checked(lambda us: [math.cos(40.0 * u) for u in us], [0.0, 1.0])
    assert info.value.error_estimate > 1e-6 * abs(math.sin(40.0) / 40.0)


def test_quad_checked_calls_func_once_per_rule():
    # one call with the 16 P nodes of the fine rule, one with the 8 P of the
    # coarse rule, over P = 3 panels, each list ascending panel by panel
    calls = []

    def func(us):
        calls.append(list(us))
        return [1.0] * len(us)

    value, _ = quad_checked(func, [0.0, 0.5, 1.0, 2.0])
    assert [len(us) for us in calls] == [16 * 3, 8 * 3]
    for us in calls:
        assert 0.0 < us[0] and us == sorted(us) and us[-1] < 2.0
    assert rel(value, 2.0) < 1e-15


def _quad_reference(func, edges):
    # quad_checked's arithmetic written out with no layout cache: each node
    # c + half*x and weight half*w, panel by panel, the terms through math.fsum
    panels = [(0.5 * (b + a), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    value, coarse = (
        math.fsum(w * f for w, f in zip(
            [half * w for _, half in panels for w in weights],
            func([c + half * x for c, half in panels for x in nodes])))
        for nodes, weights in (_kernel_tables.GAUSS_LEGENDRE_16, _kernel_tables.GAUSS_LEGENDRE_8))
    return value, abs(value - coarse)


class TestQuadLayout:
    EDGES_A = [0.0, 0.5, 1.0, 2.0]
    EDGES_B = [0.0, 0.3, 1.1, 2.5, 4.0, 6.5]

    @staticmethod
    def func(us):
        return [u * u * math.exp(-u * u) for u in us]

    def test_same_bits_cold_warm_list_tuple_interleaved(self):
        want = {tuple(e): _quad_reference(self.func, e) for e in (self.EDGES_A, self.EDGES_B)}
        specfun._layout.cache_clear()
        got = [quad_checked(self.func, self.EDGES_A),  # cold
               quad_checked(self.func, self.EDGES_A),  # warm
               quad_checked(self.func, tuple(self.EDGES_A)),
               quad_checked(self.func, self.EDGES_B),
               quad_checked(self.func, self.EDGES_A)]
        assert got[:3] == [want[tuple(self.EDGES_A)]] * 3
        assert got[3:] == [want[tuple(self.EDGES_B)], want[tuple(self.EDGES_A)]]
        assert specfun._layout.cache_info().hits >= 2

    def test_func_gets_an_immutable_sequence(self):
        seen = []

        def func(us):
            seen.append(us)
            with pytest.raises(TypeError):
                us[0] = 1.0
            return [1.0] * len(us)

        quad_checked(func, self.EDGES_B)
        quad_checked(func, self.EDGES_B)
        assert [type(us) for us in seen] == [tuple] * 4


def test_kernel_tables_regenerate():
    """Every entry of _kernel_tables.py within 1e-15 of a fresh mpmath run."""
    pytest.importorskip("mpmath")
    from make_kernel_tables import tables

    fresh = tables()
    assert sorted(fresh) == sorted(
        name for name in vars(_kernel_tables) if name.isupper()
    )
    for name, want_rows in fresh.items():
        got_rows = getattr(_kernel_tables, name)
        if isinstance(want_rows, float):  # FD_INVERSE_LOG_TOP, FD_INVERSE_U_TOP
            want_rows, got_rows = [[want_rows]], [[got_rows]]
        elif not isinstance(want_rows[0], tuple):
            want_rows, got_rows = [want_rows], [got_rows]
        assert len(got_rows) == len(want_rows), name
        for got_row, want_row in zip(got_rows, want_rows):
            assert len(got_row) == len(want_row), name
            for k, (got, want) in enumerate(zip(got_row, want_row)):
                assert abs(got - want) <= 1e-15 * abs(want), (name, k)


def test_kernel_tables_end_where_the_stop_rules_do():
    # the alpha-expansion runs at alpha < 1 only; at the largest such alpha its
    # stop on alpha^k/k! < 1e-18 fires on the last zeta term nu = 1/2 reads
    alpha = math.nextafter(1.0, 0.0)
    terms = specfun._BE_TERMS[0.5][0]
    factor, stops = 0.5 * alpha * alpha, []
    for _, _, k_next in terms:
        stops.append(abs(factor) < 1e-18)
        factor *= -alpha / k_next
    assert stops == [False] * (len(terms) - 1) + [True]
    # the Sommerfeld series reads every 2 eta(2k): ten terms, as at y = 65 the
    # tenth of F_{-1/2}, the slowest, is below 1e-17 of the first and the ninth is not
    y = specfun.SOMMERFELD_LOG_Z
    assert all(len(specfun._SOMMERFELD_TERMS[nu]) == len(_kernel_tables.TWO_ETA_EVEN) == 10
               for nu in (2.5, 1.5, 0.5))
    shares = [two_eta * y ** (-2 * k) * math.gamma(0.5) / gamma_slope
              for k, (two_eta, _, gamma_slope) in enumerate(specfun._SOMMERFELD_TERMS[0.5])]
    assert abs(shares[-1]) < 1e-17 < abs(shares[-2])


def test_gauss_legendre_rules_exact():
    # each n-node rule integrates x^k over [-1, 1] to 1e-15 for k <= 2n - 1
    # (k = 0: its weights sum to 2), and its nodes and weights are symmetric
    mpmath = pytest.importorskip("mpmath")
    for n, (nodes, weights) in ((16, _kernel_tables.GAUSS_LEGENDRE_16),
                                (8, _kernel_tables.GAUSS_LEGENDRE_8)):
        assert len(nodes) == len(weights) == n
        assert list(nodes) == sorted(nodes) and nodes == tuple(-x for x in reversed(nodes))
        assert weights == weights[::-1]
        with mpmath.workdps(40):
            for k in range(2 * n):
                got = mpmath.fsum(w * mpmath.mpf(x) ** k for x, w in zip(nodes, weights))
                want = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                assert abs(got - want) <= 1e-15, (n, k)


def _fd_mpmath(order, y):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float((-mpmath.polylog(order, -mpmath.exp(mpmath.mpf(y)))).real)


def _be_mpmath(order, alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.polylog(order, mpmath.exp(-mpmath.mpf(alpha))).real)


def _both_sides(y):
    return [y - 1e-9, math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf), y + 1e-9]


# ln z of every switch between two closed forms: series / Taylor at
# ln(SERIES_FUGACITY_MAX), the Taylor centres' shared edges, and Taylor /
# Sommerfeld at SOMMERFELD_LOG_Z
FD_SEAMS = (
    [math.log(specfun.SERIES_FUGACITY_MAX)]
    + list(_kernel_tables.FD_EDGES)
    + [specfun.SOMMERFELD_LOG_Z]
)


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("seam", FD_SEAMS, ids=lambda y: "%.4g" % y)
def test_fd_seams_against_mpmath(order, seam):
    for y in _both_sides(seam):
        want = _fd_mpmath(order, y)
        assert rel(quantum_integral(FD, order, log_z=y), want) <= 2e-15, y


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
def test_be_seam_against_mpmath(order):
    # power series for alpha = -ln z >= BOSE_EXPANSION_ALPHA, the
    # alpha-expansion below it
    for y in _both_sides(-specfun.BOSE_EXPANSION_ALPHA):
        want = _be_mpmath(order, -y)
        assert rel(quantum_integral(BE, order, log_z=y), want) <= 3e-15, y


def test_seams_select_both_branches():
    # the seam tests straddle real switches: the series fugacity and the
    # Bose expansion's alpha are the same point, ln z = -1
    assert specfun.SERIES_FUGACITY_MAX == math.exp(-specfun.BOSE_EXPANSION_ALPHA)
    edges = list(_kernel_tables.FD_EDGES)
    centres = list(_kernel_tables.FD_CENTRES)
    assert all(c < e < d for c, e, d in zip(centres, edges, centres[1:]))
    assert edges[-1] < specfun.SOMMERFELD_LOG_Z


@pytest.mark.parametrize("stat", [FD, BE], ids=["fd", "be"])
def test_density_and_slope_matches_quantum_integral(stat):
    # the solver's fused call gives F_{3/2} and F_{1/2} bit for bit as
    # quantum_integral does, in every branch and on both sides of every seam
    grid = [-30.0, -1.5, -0.3, -1e-9, 0.0] + _both_sides(-1.0)
    if stat is FD:
        grid += [0.5, 3.0, 9.0, 20.0, 50.0, 300.0, 1e150]
        for seam in list(_kernel_tables.FD_EDGES) + [specfun.SOMMERFELD_LOG_Z]:
            grid += _both_sides(seam)
    for y in grid:
        pair = density_and_slope(stat, y)
        assert pair == (
            quantum_integral(stat, 1.5, log_z=y),
            quantum_integral(stat, 0.5, log_z=y),
        ), y


def test_fd_past_double_range_reads_inf():
    # an FD value past the largest double reads inf, however far past; the
    # Sommerfeld lead y^nu/Gamma(nu+1) says which values those are
    for y in (1e124, 1e206, 1e300):
        for order in ORDERS:
            nu = order.value
            value = quantum_integral(FD, order, log_z=y)
            if nu * math.log(y) - math.lgamma(nu + 1.0) > math.log(sys.float_info.max):
                assert value == math.inf, (y, order)
            else:
                assert rel(value, y ** nu / math.gamma(nu + 1.0)) < 1e-15, (y, order)
    assert quantum_integral(FD, 2.5, log_z=1e124) == math.inf
    assert quantum_integral(FD, 1.5, log_z=1e206) == math.inf
    assert math.isfinite(quantum_integral(FD, 0.5, log_z=1e300))


def test_zeta_table_against_mpmath():
    """_ZETA_HALF_INTEGERS[j] = zeta(5/2 - j), the alpha-expansion's table."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for j, value in enumerate(_ZETA_HALF_INTEGERS):
            want = float(mpmath.zeta(mpmath.mpf(5) / 2 - j))
            assert rel(value, want) <= 1e-15, j


def test_quantum_integral_rejects_bad_arguments():
    with pytest.raises(DomainError):
        quantum_integral(FD, 1.5, 0.0)
    with pytest.raises(DomainError):
        quantum_integral(FD, 1.5, -1.0)
    with pytest.raises(ValueError):
        quantum_integral(FD, 0.7, 1.0)  # unsupported order
    with pytest.raises(ValueError):
        quantum_integral(FD, 1.5)  # neither z nor log_z
    with pytest.raises(ValueError):
        quantum_integral(FD, 1.5, 1.0, log_z=0.0)  # both


@pytest.mark.parametrize("stat", [FD, BE, MB], ids=["fd", "be", "mb"])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"log_z": math.inf},
        {"log_z": math.nan},
        {"log_z": -math.inf},  # z = 0, rejected as z=0.0 is
        {"z": math.inf},
    ],
    ids=["log_z=inf", "log_z=nan", "log_z=-inf", "z=inf"],
)
def test_quantum_integral_rejects_non_finite(stat, kwargs):
    # a finite ln z whose z overflows stays valid: see
    # TestMaxwellBoltzmann.test_overflowing_fugacity_is_infinite
    with pytest.raises(DomainError):
        quantum_integral(stat, 1.5, **kwargs)


class TestThermalWavelength:
    def test_reduced_reference_point(self):
        assert thermal_wavelength(1.0, 2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_quarter_power_scaling(self):
        lam = thermal_wavelength(1.0, 3.0)
        assert thermal_wavelength(1.0, 12.0) == pytest.approx(lam / 2.0, rel=1e-15)

    def test_electron_at_room_temperature(self):
        m_e = 9.1093837015e-31
        lam = thermal_wavelength(m_e, 300.0, UnitSystem.SI)
        assert rel(lam, LAMBDA_ELECTRON_300K) < 1e-12
        assert lam == pytest.approx(4.30e-9, rel=1e-2)

    def test_product_past_double_range(self):
        # m k T underflows (to 0, or to a subnormal whose 2 pi/(m k T)
        # overflows) or overflows, while lambda is a finite double
        root = math.sqrt(2.0 * math.pi)
        for m, T, want in [(1e-200, 1e-200, root * 1e200), (1e-160, 1e-160, root * 1e160),
                           (1e300, 1e300, root * 1e-300)]:
            assert rel(thermal_wavelength(m, T), want) <= 1e-15, (m, T)
        assert rel(thermal_wavelength(9.1093837015e-31, 1e-280, UnitSystem.SI),
                   LAMBDA_ELECTRON_300K * math.sqrt(300.0 / 1e-280)) <= 1e-12
        assert thermal_wavelength(5e-324, 5e-324) == math.inf

    def test_bits_kept_inside_double_range(self):
        for m in (1e-150, 1e-30, 1.0, 1e30, 1e150):
            for T in (1e-150, 1e-3, 1.0, 1e150):
                assert thermal_wavelength(m, T) == math.sqrt(2.0 * math.pi / (m * T)), (m, T)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            thermal_wavelength(0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_wavelength(1.0, -2.0)
