"""Write src/fermiwire/_kernel_tables.py, the constants of the closed-form kernel.

    python tests/make_kernel_tables.py

Every table entry is an mpmath value at 30 digits (40 for the quadrature
rules) rounded to a double, so test_specfun.py can regenerate the tables and
compare them entry by entry.

- ZETA_HALF_INTEGERS[j] = zeta(5/2 - j), j = 0..23, for the Bose
  alpha-expansion g_nu(e^-a) = Gamma(1-nu) a^(nu-1) + sum_k zeta(nu-k) (-a)^k/k!.
  It runs at a < 1 only, where its stop on a^k/k! < 1e-18 comes by k = 20;
  F_{-1/2} at k = 20 reads zeta(-41/2), j = 23.
- TWO_ETA_EVEN[k] = 2 eta(2k), k = 0..9, for the Sommerfeld series
  f_nu(e^y) ~ sum_k 2 eta(2k) y^(nu-2k) / Gamma(nu+1-2k), which takes ten terms.
- FD_ROWS[i][k] = f_{5/2-k}(e^c) at the centre c = FD_CENTRES[i],
  k = 0..48.  Since d/dy f_nu(e^y) = f_{nu-1}(e^y), row i read from
  offset 5/2 - nu holds the Taylor coefficients (times n!) of f_nu(e^y)
  around y = c.  The nearest singularities of f_nu(e^y) are at y = +-i pi,
  so centre c converges within sqrt(c^2 + pi^2); FD_EDGES[i], the upper end
  of centre i's interval, is where the distances to two neighbouring
  centres take the same share of their radii, about 0.4.  46 terms of each
  series are then below 1e-17 of its value.

The inverse rows seed the fugacity solve: y = ln z with F_{3/2}(e^y) = x,
each a Chebyshev series S(t) = sum_k row[k] T_k(t), t in [-1, 1],
interpolated at the first-kind nodes of its length, with C = 4/(3 sqrt pi)
and u = (x/C)^(2/3), the Sommerfeld lead:

- BE_INVERSE_ROWS[0], FD_INVERSE_ROWS[0]: 0 < x < 1, y = ln x + S(2x - 1),
  12 terms; ln(z/x) is analytic in x there.
- BE_INVERSE_ROWS[1]: 1 <= x < zeta(3/2), y = -s^2 with
  s = (zeta(3/2) - x) S(2(x - 1)/(zeta(3/2) - 1) - 1), 21 terms;
  s = sqrt(-ln z) is analytic through x = zeta(3/2), where it vanishes.
- FD_INVERSE_ROWS[1..3]: 1 <= x < e^FD_INVERSE_LOG_TOP = f_{3/2}(e^65),
  y = u + S_i(t) on three pieces equal in ln x, t mapping piece i,
  ln x in [i, i+1] FD_INVERSE_LOG_TOP/3, onto [-1, 1]; 21 terms each.
- FD_INVERSE_ROWS[4]: x >= f_{3/2}(e^65), y = u S(2 w - 1) with
  w = (FD_INVERSE_U_TOP/u)^2 in (0, 1], FD_INVERSE_U_TOP the u of
  f_{3/2}(e^65); 7 terms.  y/u is analytic in 1/u^2 through w = 0.

Every node's root is found by Newton's method in mpmath from a closed-form
start (ln x, u or s = (zeta(3/2) - x)/(2 sqrt pi)), not by fermiwire, so
the rows check the solver rather than repeat it.  With these lengths
each seed's F_{3/2} is within a few 1e-15 of x (away from the ulp of ln x
at tiny x), so the solver's first Newton walk accepts it.

The quadrature rows are the reference rule of specfun.quad_checked, in the
variable x on [-1, 1]:

- GAUSS_LEGENDRE_16, GAUSS_LEGENDRE_8: (nodes, weights) of the 16- and
  8-node Gauss-Legendre rules, nodes ascending.  Each node is the root of
  P_n found by Newton's method on the three-term recurrence
  (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} from cos(pi (i - 1/4)/(n + 1/2)),
  i = n..1, at 40 digits; its weight is 2/((1 - x^2) P_n'(x)^2).  Both are
  correctly rounded, where an eigen-solver's weights (numpy's leggauss) are
  off by up to about 60 ulp.
"""

import math
from pathlib import Path

import mpmath

TARGET = Path(__file__).resolve().parents[1] / "src" / "fermiwire" / "_kernel_tables.py"
FD_CENTRES = (0.0, 2.99, 8.26, 19.8, 46.5)
ROW_LENGTH = 49  # 46 terms, read from offsets 0..3
ZETA_COUNT = 24
ETA_COUNT = 10
# terms of each inverse row (see the docstring)
SMALL_TERMS, MIDDLE_TERMS, SOMMERFELD_TERMS = 12, 21, 7


def fermi_dirac(s, c):
    """f_s(e^c) = -Li_s(-e^c) for real non-integer s, by Jonquiere's formula

    Li_s(-e^c) = Gamma(1-s)/(2 pi)^(1-s) * 2 Re[i^(1-s) zeta(1-s, 1/2 - i c/(2 pi))],

    which, unlike mpmath.polylog near |c| < 2 pi, stays fast and accurate
    at large negative orders.
    """
    s = mpmath.mpf(s)
    a = mpmath.mpf(1) / 2 - 1j * mpmath.mpf(c) / (2 * mpmath.pi)
    inner = mpmath.power(1j, 1 - s) * mpmath.zeta(1 - s, a)
    return -mpmath.gamma(1 - s) / (2 * mpmath.pi) ** (1 - s) * 2 * inner.real


def bose_einstein(s, y):
    """g_s(e^y) = Li_s(e^y) for y < 0."""
    return mpmath.polylog(s, mpmath.exp(y))


def _newton(f, slope, y):
    """Root of f by Newton's method from y, to 1e-28 of max(1, |y|)."""
    for _ in range(60):
        step = f(y) / slope(y)
        y -= step
        if abs(step) <= mpmath.mpf(10) ** -28 * max(1, abs(y)):
            return y
    raise ArithmeticError("Newton did not converge from %s" % y)


def _fd_root(x):
    """y with f_{3/2}(e^y) = x, from ln x below x = 1 and from u above it."""
    start = mpmath.log(x) if x < 1 else (x / _sommerfeld_coeff()) ** (mpmath.mpf(2) / 3)
    return _newton(lambda y: fermi_dirac(1.5, y) - x, lambda y: fermi_dirac(0.5, y), start)


def _be_root(x):
    """y with g_{3/2}(e^y) = x < 1, from ln x."""
    return _newton(lambda y: bose_einstein(1.5, y) - x, lambda y: bose_einstein(0.5, y),
                   mpmath.log(x))


def _be_root_s(x, zeta):
    """s = sqrt(-y) with g_{3/2}(e^y) = x in [1, zeta(3/2)); d/ds = -2s g_{1/2}."""
    return _newton(lambda s: bose_einstein(1.5, -s * s) - x,
                   lambda s: -2 * s * bose_einstein(0.5, -s * s),
                   (zeta - x) / (2 * mpmath.sqrt(mpmath.pi)))


def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for n >= 1 and |x| < 1."""
    p_prev, p = mpmath.mpf(1), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1)


def gauss_legendre(n):
    """(nodes, weights) of the n-node Gauss-Legendre rule; see the docstring."""
    with mpmath.workdps(40):
        nodes = [_newton(lambda x: _legendre(n, x)[0], lambda x: _legendre(n, x)[1],
                         mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2)))
                 for i in range(n, 0, -1)]
        return (tuple(float(x) for x in nodes),
                tuple(float(2 / ((1 - x * x) * _legendre(n, x)[1] ** 2)) for x in nodes))


def _sommerfeld_coeff():
    """C = 4/(3 sqrt(pi)), at the working precision: f_{3/2}(e^y) ~ C y^(3/2)."""
    return 4 / (3 * mpmath.sqrt(mpmath.pi))


def chebyshev_row(func, n):
    """The n Chebyshev coefficients of func on [-1, 1] that interpolate it at
    the n first-kind nodes, row[0] halved so that S(t) = sum_k row[k] T_k(t)."""
    theta = [mpmath.pi * (k + mpmath.mpf(1) / 2) / n for k in range(n)]
    values = [func(mpmath.cos(t)) for t in theta]
    row = [2 * mpmath.fsum(v * mpmath.cos(j * t) for v, t in zip(values, theta)) / n
           for j in range(n)]
    row[0] /= 2
    return tuple(float(c) for c in row)


def inverse_tables():
    """The rows seeding the inversion of F_{3/2}; see the docstring."""
    two_thirds = mpmath.mpf(2) / 3
    zeta = mpmath.zeta(mpmath.mpf(3) / 2)
    log_top = mpmath.log(fermi_dirac(1.5, 65))
    u_top = (mpmath.exp(log_top) / _sommerfeld_coeff()) ** two_thirds

    def small(root):
        return chebyshev_row(lambda t: root((t + 1) / 2) - mpmath.log((t + 1) / 2), SMALL_TERMS)

    def near_zeta(t):
        x = 1 + (zeta - 1) * (t + 1) / 2
        return _be_root_s(x, zeta) / (zeta - x)

    def fd_piece(i):
        def correction(t):
            x = mpmath.exp(log_top * (i + (t + 1) / 2) / 3)
            return _fd_root(x) - (x / _sommerfeld_coeff()) ** two_thirds
        return chebyshev_row(correction, MIDDLE_TERMS)

    def sommerfeld(t):
        u = u_top / mpmath.sqrt((t + 1) / 2)
        return _fd_root(_sommerfeld_coeff() * u ** (1 / two_thirds)) / u

    return {
        "BE_INVERSE_ROWS": (small(_be_root), chebyshev_row(near_zeta, MIDDLE_TERMS)),
        "FD_INVERSE_ROWS": (small(_fd_root), *(fd_piece(i) for i in range(3)),
                            chebyshev_row(sommerfeld, SOMMERFELD_TERMS)),
        "FD_INVERSE_LOG_TOP": float(log_top),
        "FD_INVERSE_U_TOP": float(u_top),
    }


def _upper_edge(c, d):
    r, q = math.hypot(c, math.pi), math.hypot(d, math.pi)
    return (c * q + d * r) / (r + q)


def tables():
    """Name -> float, tuple of floats or tuple of rows of every table."""
    half = mpmath.mpf(5) / 2
    with mpmath.workdps(30):
        return {
            "ZETA_HALF_INTEGERS": tuple(
                float(mpmath.zeta(half - j)) for j in range(ZETA_COUNT)
            ),
            "TWO_ETA_EVEN": (1.0,) + tuple(
                float(2 * (1 - mpmath.mpf(2) ** (1 - 2 * k)) * mpmath.zeta(2 * k))
                for k in range(1, ETA_COUNT)
            ),
            "FD_CENTRES": FD_CENTRES,
            "FD_EDGES": tuple(_upper_edge(c, d) for c, d in zip(FD_CENTRES, FD_CENTRES[1:])),
            "FD_ROWS": tuple(
                tuple(float(fermi_dirac(half - k, c)) for k in range(ROW_LENGTH))
                for c in FD_CENTRES
            ),
            **inverse_tables(),
            "GAUSS_LEGENDRE_16": gauss_legendre(16),
            "GAUSS_LEGENDRE_8": gauss_legendre(8),
        }


def render(values):
    lines = [
        '"""Tables of the closed-form kernel in specfun; generated, do not edit.',
        "",
        "Written by tests/make_kernel_tables.py, which says what each one holds.",
        '"""',
    ]
    for name, value in values.items():
        lines.append("")
        if isinstance(value, float):
            lines.append("%s = %r" % (name, value))
            continue
        lines.append("%s = (" % name)
        for entry in value:
            if isinstance(entry, tuple):
                lines.append("    (")
                lines.extend("        %r," % v for v in entry)
                lines.append("    ),")
            else:
                lines.append("    %r," % entry)
        lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render(tables()), encoding="utf-8")
