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
from fermiwire.specfun import _ZETA_HALF_INTEGERS, quad_checked
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
# on both sides of 0, BE alpha = -ln z in {0} and [1e-12, 28].
DENSE_FD_LOG_Z = (
    [-float(x) for x in np.geomspace(28.0, 1e-6, 13)]
    + [0.0]
    + [float(x) for x in np.geomspace(1e-6, 1e4, 26)]
)
DENSE_BE_ALPHA = [0.0] + [float(a) for a in np.geomspace(1e-12, 28.0, 39)]


@pytest.mark.parametrize("order", [0.5, 1.5, 2.5])
def test_dense_sweep_against_mpmath(order):
    """The 1e-10 relative-accuracy contract, checked densely in log space."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in DENSE_FD_LOG_Z:
            want = float((-mpmath.polylog(order, -mpmath.exp(x))).real)
            assert rel(quantum_integral(FD, order, log_z=x), want) <= 1e-10, x
        for alpha in DENSE_BE_ALPHA:
            if order == 0.5 and alpha == 0.0:
                continue  # g_{1/2}(1) diverges
            want = float(mpmath.polylog(order, mpmath.exp(-alpha)).real)
            assert rel(quantum_integral(BE, order, log_z=-alpha), want) <= 1e-10, alpha


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
    # exact for a cubic on any panels; an integrand the 8-node rule cannot
    # resolve raises, carrying the 16- vs 8-node gap
    value, estimate = quad_checked(lambda u: u ** 3, 0.0, 2.0, points=[0.5, 1.0])
    assert rel(value, 4.0) < 1e-15
    assert estimate < 1e-14
    with pytest.raises(ConvergenceError) as info:
        quad_checked(lambda u: np.cos(40.0 * u), 0.0, 1.0)
    assert info.value.error_estimate > 1e-6 * abs(math.sin(40.0) / 40.0)


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

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            thermal_wavelength(0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_wavelength(1.0, -2.0)
