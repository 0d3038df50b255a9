"""Independent reference values for the test suite.

Everything in this file is computed from scratch with elementary series:
alternating-series acceleration (Cohen-Rodriguez Villegas-Zagier), direct
power series, Euler-Maclaurin zeta sums, and one-dimensional Gaussian theta
sums.  None of it imports the package under test, so agreement between the
two is meaningful.  The CSV reference renders through the standard csv
module.
"""

import csv
import io
import math

# Frozen reference constants, cross-checked against mpmath at 40 digits.
ETA_HALF = 0.6048986434216304        # sum (-1)^(k+1) k^(-1/2)
ETA_THREE_HALVES = 0.765147024625408
ETA_FIVE_HALVES = 0.8671998890121841
ZETA_THREE_HALVES = 2.612375348685488
ZETA_FIVE_HALVES = 1.341487257250917
SOMMERFELD_COEFF = 0.7522527780636751       # 4/(3 sqrt(pi))
CLOSURE_RATIO = 0.7898547766089867          # 12/(6 pi^2)^(2/3)
EPS_F_REDUCED = 7.596333120575995           # (6 pi^2)^(2/3)/2 at m=1, nu=1
OMEGA_M_REDUCED = 3.897777089720754         # (6 pi^2)^(1/3) at c=1, nu=1
DEBYE_SPACING_RATIO = 1.6119919540164696    # 2 pi/(6 pi^2)^(1/3)
LAMBDA_ELECTRON_300K = 4.303475439595208e-09  # metres, CODATA-2018 inputs


def alternating_sum(term, n=48):
    """Sum_{k>=0} (-1)^k term(k) by Chebyshev-weighted acceleration.

    Converges like (3+sqrt(8))^(-n) for totally monotone term sequences,
    so n=48 is far past double precision.
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * term(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def fd_series(order, z):
    """f_order(z) = sum_{k>=1} (-1)^(k+1) z^k / k^order for 0 < z <= 1."""
    if not 0.0 < z <= 1.0:
        raise ValueError("fd_series needs 0 < z <= 1")
    if z <= 0.5:
        terms = []
        zk = 1.0
        for k in range(1, 200):
            zk *= z
            t = zk / k ** order if k % 2 else -zk / k ** order
            terms.append(t)
            if abs(t) < 1e-20 * abs(terms[0]):
                break
        return math.fsum(terms)
    return alternating_sum(lambda k: z ** (k + 1) * (k + 1.0) ** (-order))


def fd_log_series(order, x):
    """f_order(e^x) = sum_{k>=0} eta(order-k) x^k / k!, valid for |x| < pi.

    This is the log-fugacity expansion around z = 1; it covers the window
    1 < z <= 10 where the alternating series in z diverges.  The eta values
    at descending (mostly negative) arguments come from mpmath's zeta, which
    keeps this route independent of the package under test.
    """
    if not abs(x) < math.pi:
        raise ValueError("fd_log_series needs |ln z| < pi")
    import mpmath

    mpmath.mp.dps = 40
    terms = []
    xk = 1.0
    fact = 1.0
    for k in range(0, 80):
        if k > 0:
            xk *= x
            fact *= k
        s = order - k
        if s == 1.0:
            eta = math.log(2.0)
        else:
            eta = float((1.0 - mpmath.mpf(2.0) ** (1.0 - s)) * mpmath.zeta(s))
        terms.append(eta * xk / fact)
    return math.fsum(terms)


def be_series(order, z):
    """g_order(z) = sum_{k>=1} z^k / k^order for 0 < z < 1 (geometric tail)."""
    if not 0.0 < z < 1.0:
        raise ValueError("be_series needs 0 < z < 1")
    terms = []
    zk = 1.0
    for k in range(1, 100000):
        zk *= z
        t = zk / k ** order
        terms.append(t)
        if t < 1e-18 * terms[0]:
            break
    return math.fsum(terms)


def zeta_em(s, n=10000):
    """zeta(s) by Euler-Maclaurin; error ~ s^5 n^(-s-5) (~1e-24 at s=3/2)."""
    tot = [k ** (-s) for k in range(1, n + 1)]
    tot.append(n ** (1.0 - s) / (s - 1.0))
    tot.append(-0.5 * n ** (-s))
    tot.append(s * n ** (-s - 1.0) / 12.0)
    tot.append(-s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0)
    return math.fsum(tot)


def sommerfeld_fd(order, x, kmax=12):
    """Large-x asymptotic of f_order(e^x): x^order/Gamma(order+1) * series.

    The series is sum over k of 2*eta(2k) * prod_{j<2k}(order-j) * x^(-2k);
    exponentially small e^(-x) corrections are ignored, so this is only a
    reference for x >> 1 (error ~ e^(-x) + O(x^(order-2*kmax))).
    """
    total = 1.0
    for k in range(1, kmax):
        eta2k = alternating_sum(lambda j, k=k: (j + 1.0) ** (-2.0 * k))
        prod = 1.0
        for j in range(2 * k):
            prod *= order - j
        term = 2.0 * eta2k * prod * x ** (-2.0 * k)
        total += term
        if abs(term) < 1e-20:
            break
    return x ** order / math.gamma(order + 1.0) * total


def theta_sum(x, cutoff=None):
    """Sum_{n=-c..c} exp(-x n^2); cutoff None means sum until terms vanish."""
    if cutoff is None:
        cutoff = int(math.ceil(math.sqrt(45.0 / x))) + 2
    return math.fsum(math.exp(-x * n * n) for n in range(-cutoff, cutoff + 1))


def mb_box_number(z, beta_eps_axes, cutoffs):
    """Maxwell-Boltzmann box occupation sum as a product of theta sums.

    beta_eps_axes are the per-axis values of beta*h^2/(2 m L_i^2), i.e. the
    beta-energy of the first excited level on each axis, and cutoffs the
    per-axis max |n|.  Separability makes the triple sum a product.
    """
    prod = z
    for x, c in zip(beta_eps_axes, cutoffs):
        prod *= theta_sum(x, c)
    return prod


def brute_box_number(stat, z, beta_eps_axes, cutoffs):
    """Occupation sum over every level of the full (2c_x+1)(2c_y+1)(2c_z+1) grid.

    stat is "fd", "be" or "mb"; beta_eps_axes and cutoffs are as for
    mb_box_number.  Each level's beta*eps is sum_i x_i n_i^2, and the
    occupations are added with math.fsum, so no symmetry of the spectrum is
    used.
    """
    log_z = math.log(z)
    (cx, cy, cz), (sx, sy, sz) = cutoffs, beta_eps_axes
    terms = []
    for nx in range(-cx, cx + 1):
        for ny in range(-cy, cy + 1):
            for nz in range(-cz, cz + 1):
                w = sx * nx * nx + sy * ny * ny + sz * nz * nz - log_z
                if stat == "fd":
                    # 1/(e^w + 1) without overflow for large w
                    terms.append(math.exp(-w) / (1.0 + math.exp(-w)) if w > 0.0
                                 else 1.0 / (1.0 + math.exp(w)))
                elif stat == "be":
                    terms.append(1.0 / math.expm1(w))
                elif stat == "mb":
                    terms.append(math.exp(-w))
                else:
                    raise ValueError("stat must be fd, be or mb")
    return math.fsum(terms)


def occupation_at(stat, w):
    """One level's occupation at w = beta*eps - ln z, level by level: FD
    1/(1 + e^w), or e^-w once e^w overflows; BE 1/expm1(w), or 0 once that
    overflows; MB e^-w.  stat is "fd", "be" or "mb"; a BE w must be > 0."""
    if stat == "mb":
        return math.exp(-w)
    try:
        return 1.0 / (1.0 + math.exp(w)) if stat == "fd" else 1.0 / math.expm1(w)
    except OverflowError:
        return math.exp(-w) if stat == "fd" else 0.0


def _cell_text(value):
    """A table cell as the CLI's first renderer wrote it: None empty, str as
    is, int (bool too) as str(int(v)), anything else %.17g."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(int(value))
    return "%.17g" % value


def render_csv(columns, rows):
    """CSV text of a table (two or more columns) through csv.writer.

    Each row is written by csv.writer's QUOTE_MINIMAL rule with the line
    terminator "\\r\\n", which it strips, and ends in "\\n".  For cells
    holding no CR this is byte for byte csv.writer(lineterminator="\\n"),
    the CLI's first renderer; that writer leaves a bare CR unquoted, which
    csv.reader then rejects.
    """
    lines = []
    for row in [columns, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow([_cell_text(v) for v in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)
