"""Write src/fermiwire/_kernel_tables.py, the constants of the closed-form kernel.

    python tests/make_kernel_tables.py

Every table entry is an mpmath value at 30 digits rounded to a double, so
test_specfun.py can regenerate the tables and compare them entry by entry.

- ZETA_HALF_INTEGERS[j] = zeta(5/2 - j), j = 0..42, for the Bose
  alpha-expansion g_nu(e^-a) = Gamma(1-nu) a^(nu-1) + sum_k zeta(nu-k) (-a)^k/k!.
- TWO_ETA_EVEN[k] = 2 eta(2k), k = 0..15, for the Sommerfeld series
  f_nu(e^y) ~ sum_k 2 eta(2k) y^(nu-2k) / Gamma(nu+1-2k).
- FD_ROWS[i][k] = f_{5/2-k}(e^c) at the centre c = FD_CENTRES[i],
  k = 0..48.  Since d/dy f_nu(e^y) = f_{nu-1}(e^y), row i read from
  offset 5/2 - nu holds the Taylor coefficients (times n!) of f_nu(e^y)
  around y = c.  The nearest singularities of f_nu(e^y) are at y = +-i pi,
  so centre c converges within sqrt(c^2 + pi^2); FD_EDGES[i], the upper end
  of centre i's interval, is where the distances to two neighbouring
  centres take the same share of their radii, about 0.4.  46 terms of each
  series are then below 1e-17 of its value.
"""

import math
from pathlib import Path

import mpmath

TARGET = Path(__file__).resolve().parents[1] / "src" / "fermiwire" / "_kernel_tables.py"
FD_CENTRES = (0.0, 2.99, 8.26, 19.8, 46.5)
ROW_LENGTH = 49  # 46 terms, read from offsets 0..3
ZETA_COUNT = 43
ETA_COUNT = 16


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


def _upper_edge(c, d):
    r, q = math.hypot(c, math.pi), math.hypot(d, math.pi)
    return (c * q + d * r) / (r + q)


def tables():
    """Name -> tuple of floats (FD_ROWS: tuple of tuples) of every table."""
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
