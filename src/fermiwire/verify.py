"""The identity/property suite behind `fermiwire verify`.

Every check is a scale-free identity, so the suite means the same in both
unit systems; check_rows builds its table and run_verify prints it.  The
classical-limit rows hand occupation's rule their whole 501-point w grid, one
call each for the MB reference, FD and BE.
"""

import math

from .box_oracle import compare_continuum, enumerate_levels
from .constants import UnitSystem, constants_for
from .errors import CondensationError
from .gas_statistics import (
    GasParameters,
    SOMMERFELD_COEFF,
    ThermalState,
    ZETA_THREE_HALVES,
    _occupations,
    solve_fugacity,
)
from .one_dim_chain import CLOSURE_RATIO, ChainParameters, closure_temperature
from .phonon_map import PhononMedium, correspondence_check
from .specfun import (
    QuantumIntegralOrder,
    Statistics,
    quantum_integral,
    thermal_wavelength,
)
from .thin_wire import (
    Regime,
    WireGeometry,
    classify_regime,
    number_integral_quasi1d,
    rhs_eq3,
)

__all__ = ["check_rows", "run_verify"]


def check_rows(unit_system=UnitSystem.REDUCED):
    """(name, computed, expected, tol, status) text of every check, in order."""
    from .cli import AxisSpec, _fmt  # cli imports this module

    rows = []

    def add(name, computed, expected, tol, ok):
        rows.append((name, _fmt(computed), expected, tol, "PASS" if ok else "FAIL"))

    def near_zero(name, errors, tol):
        # the largest error, a nan above all others (max() would pass it over)
        worst = max(errors, key=lambda error: (math.isnan(error), error))
        add(name, worst, "0", tol, worst <= float(tol))

    # reference scales come from the chosen unit system
    consts = constants_for(unit_system)
    m = consts.mass_ref
    T_ref = 2.0 * math.pi if unit_system is UnitSystem.REDUCED else 300.0
    lam = thermal_wavelength(m, T_ref, unit_system)
    params = GasParameters(m=m, T=T_ref, nu=lam ** 3, unit_system=unit_system)
    beta = params.beta

    # Debye cutoff versus Fermi scale on a (nu, m, c) grid
    grid = [0.5, 1.0, 2.0, 4.0]
    reports = [
        correspondence_check(PhononMedium(c=c, nu=nu), mass, unit_system)
        for nu in grid for mass in grid for c in grid
    ]
    near_zero("eps_m_equals_eps_F", [r.rel_diff_energy for r in reports], "1e-12")
    near_zero("p_m_equals_p_F", [r.rel_diff_momentum for r in reports], "1e-12")

    # wire count bound: linearity in sigma, the vanishing-sigma regime, MB identity
    state = ThermalState(log_z=0.0, lam=lam, degeneracy=1.0)
    base = rhs_eq3(state, WireGeometry(1e-6)) / 1e-6
    near_zero("rhs_eq3_linear_in_sigma", [
        abs(rhs_eq3(state, WireGeometry(s)) / s / base - 1.0)
        for s in AxisSpec(1e-6, 1.0, 10, "log").values()
    ], "1e-12")

    report = classify_regime(params, WireGeometry(1e-6))
    add("bosonized_at_vanishing_sigma", report.regime.value, "Bosonized", "exact",
        report.regime is Regime.BOSONIZED and not report.inequality_holds)

    wire = WireGeometry(0.05)
    errors = []
    for z, deg in ((0.5, 1.0), (2.0, 0.2), (1e-3, 5.0)):
        mb_state = ThermalState(log_z=math.log(z), lam=lam, degeneracy=deg)
        exact = number_integral_quasi1d(Statistics.MAXWELL_BOLTZMANN, mb_state, wire)
        errors.append(abs(exact / rhs_eq3(mb_state, wire) - 1.0))
    near_zero("mb_wire_integral_equals_rhs", errors, "1e-10")

    # fugacity round trips
    for name, stat, top in (
        ("fd_fugacity_roundtrip", Statistics.FERMI_DIRAC, 50.0),
        ("be_fugacity_roundtrip", Statistics.BOSE_EINSTEIN, ZETA_THREE_HALVES - 1e-6),
    ):
        errors = []
        for x in AxisSpec(1e-6, top, 50, "log").values():
            z = solve_fugacity(stat, x)
            back = quantum_integral(stat, QuantumIntegralOrder.THREE_HALVES, z)
            errors.append(abs(back - x) / x)
        near_zero(name, errors, "1e-10")

    try:
        solve_fugacity(Statistics.BOSE_EINSTEIN, ZETA_THREE_HALVES + 1e-6)
        raised = False
    except CondensationError:
        raised = True
    add("be_condensation_rejected", "raised" if raised else "no error", "raised", "exact", raised)

    # degenerate asymptotic f_{3/2} ~ 4/(3 sqrt pi) (ln z)^{3/2}
    for lnz, tol in ((100.0, 1e-2), (1000.0, 1e-3)):
        val = quantum_integral(Statistics.FERMI_DIRAC, QuantumIntegralOrder.THREE_HALVES, log_z=lnz)
        ratio = val / lnz ** 1.5
        add("sommerfeld_ratio_lnz_%d" % int(lnz), ratio, _fmt(SOMMERFELD_COEFF), _fmt(tol),
            abs(ratio / SOMMERFELD_COEFF - 1.0) <= tol)

    # classical convergence of both quantum statistics: z = 1e-4, beta*eps in [0, 50]
    log_z = math.log(1e-4)
    ws = [be - log_z for be in AxisSpec(0.0, 50.0, 501).values()]
    classical = _occupations(Statistics.MAXWELL_BOLTZMANN, ws)
    for name, stat, tol in (
        ("boltzmann_convergence_fd", Statistics.FERMI_DIRAC, "1e-4"),
        ("boltzmann_convergence_be", Statistics.BOSE_EINSTEIN, "2e-4"),
    ):
        near_zero(name, [abs(n / mb - 1.0) for n, mb in zip(_occupations(stat, ws), classical)],
                  tol)

    # 1D closure
    closure = closure_temperature(ChainParameters(N=1.0, L=1.0, m=m), unit_system)
    near_zero("closure_fixed_point_residual", [closure.residual / (consts.k_B * closure.T)],
              "1e-12")
    add("closure_ratio", closure.ratio, _fmt(CLOSURE_RATIO), "1e-9",
        abs(closure.ratio - CLOSURE_RATIO) <= 1e-9)
    ratios = [
        closure_temperature(ChainParameters(N=1.0, L=d, m=mass), unit_system).ratio
        for d in (0.1, 0.5, 1.0, 5.0, 20.0)
        for mass in (0.2, 1.0, 3.0, 10.0, 50.0)
    ]
    least = min(ratios)
    near_zero("closure_ratio_scale_invariant", [r - least for r in ratios], "1e-12")
    add("closure_below_fermi_temperature", closure.ratio, "< 1", "exact", closure.ratio < 1.0)
    rows.append(("closure_ratio_vs_three_fifths", _fmt(closure.ratio),
                 "3/5 = 0.6 sometimes quoted for this closure; not reproduced (see README)",
                 "", "INFO"))

    # box oracle versus continuum; edges in units of lambda
    def mb_box(L, a, cutoff=None):
        spec = enumerate_levels(L * lam, a * lam, m, cutoff, beta=beta, unit_system=unit_system)
        return compare_continuum(spec, Statistics.MAXWELL_BOLTZMANN, 0.1, beta)

    near_zero("box_mb_continuum_agreement", [mb_box(100.0, 100.0, 125).rel_err_3d], "1e-2")
    errors = [mb_box(size, size).rel_err_3d for size in (1.0, 1.5, 2.0, 2.5, 3.0)]
    add("box_error_monotone_decrease", "%.3g .. %.3g" % (errors[0], errors[-1]),
        "decreasing over 5 sizes", "strict", all(a > b for a, b in zip(errors, errors[1:])))
    # beta h^2/(2 m a^2) = 6.5
    fraction = mb_box(30.0, math.sqrt(math.pi / 6.5)).ground_mode_fraction
    add("transverse_mode_freeze_out", fraction, "> 0.99", "exact", fraction > 0.99)

    # wire integral against the f_{1/2} route
    wire = WireGeometry(1.0)
    errors = []
    for z in AxisSpec(1e-3, 10.0, 15, "log").values():
        st = ThermalState(log_z=math.log(z), lam=lam, degeneracy=1.0)
        exact = number_integral_quasi1d(Statistics.FERMI_DIRAC, st, wire)
        f_half = quantum_integral(Statistics.FERMI_DIRAC, QuantumIntegralOrder.ONE_HALF, z)
        errors.append(abs(exact - f_half) / f_half)
    near_zero("fd_wire_integral_matches_f_half", errors, "1e-9")

    return rows


def run_verify(unit_system=UnitSystem.REDUCED):
    """Run the identity/property suite; print a table; 0 iff everything passes."""
    rows = check_rows(unit_system)
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print("%-*s  computed=%-24s expected=%-28s tol=%-10s %s" % (width, *row))
    statuses = [r[4] for r in rows]
    failures = statuses.count("FAIL")
    print("%d passed, %d failed, %d info"
          % (statuses.count("PASS"), failures, statuses.count("INFO")))
    return 0 if failures == 0 else 1
