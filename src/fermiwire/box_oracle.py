"""Brute-force spectral oracle: a finite periodic box summed level by level.

A wire is modelled as an L x a x a box with periodic boundary conditions,
momenta p_i = h n_i / L_i.  Summing occupations over the enumerated
spectrum gives particle counts with no continuum approximation at all,
which is what every integral in the package is checked against.

Each axis energy (h n_i / L_i)^2 / 2m is even in n_i, so the spectrum is
stored as three per-axis arrays over n_i = 0..c_i, and a sum over the full
(2c+1)^3 grid becomes a sum over n_i >= 0 in which every n_i > 0 counts
twice.  The sum streams over x-slabs in a fixed order, one
(c_y+1) x (c_z+1) plane at a time, so its memory is that of one plane and
repeated runs agree bit for bit.  The full sorted level array is built only
on request, for inspecting small boxes.  numpy is imported on first use, so
importing the package does not load it.
"""

import math
from collections import namedtuple

from .constants import UnitSystem, constants_for
from .errors import CondensationError, DomainError, ResourceLimitError, _positive
from .gas_statistics import _occupations
from .specfun import QuantumIntegralOrder, Statistics, quantum_integral

__all__ = [
    "BoxSpectrum",
    "ContinuumComparison",
    "enumerate_levels",
    "direct_number_sum",
    "truncation_bound",
    "compare_continuum",
]

# Default per-axis truncation: keep levels up to beta*eps = 45 (tail e^-45).
BETA_EPS_CUTOFF = 45.0
# Largest spectrum enumerate_levels builds.
MAX_LEVELS = 10 ** 8


class BoxSpectrum(namedtuple(
        "BoxSpectrum",
        "L_long a_transverse m cutoff axis_levels levels_transverse_ground unit_system",
        defaults=(UnitSystem.REDUCED,))):
    """Complete single-particle spectrum of a periodic box.

    cutoff holds the three per-axis cutoffs c_i, and axis_levels, per axis,
    a numpy array of the energies for n_i = 0..c_i; each level of the box is
    a sum of one energy per axis, and n_i and -n_i share an energy.
    levels_transverse_ground is the sorted array of the subset with
    n_y = n_z = 0, used for mode freeze-out diagnostics.
    """

    __slots__ = ()

    @property
    def level_count(self):
        return math.prod(2 * c + 1 for c in self.cutoff)

    @property
    def levels(self):
        """All level_count energies sorted ascending, built on each access.

        It takes 8 bytes per level plus a sort copy; meant for small boxes.
        """
        import numpy as np

        ex, ey, ez = (_mirrored(e) for e in self.axis_levels)
        return np.sort((ex[:, None, None] + ey[None, :, None] + ez[None, None, :]).ravel())

    @property
    def edge_lengths(self):
        return (self.L_long, self.a_transverse, self.a_transverse)


def _mirrored(energies):
    # energies for n = 0..c extended to n = -c..c
    import numpy as np

    return np.concatenate((energies[:0:-1], energies))


def _axis_cutoff(length, m, beta, h):
    # smallest c with beta * (h c / L)^2 / (2m) >= BETA_EPS_CUTOFF
    c = length * math.sqrt(2.0 * m * BETA_EPS_CUTOFF / beta) / h
    if not math.isfinite(c):
        raise ResourceLimitError(
            "default cutoff overflows at L = %r: spectrum would hold more than %d levels"
            % (length, MAX_LEVELS)
        )
    return max(1, math.ceil(c))


def enumerate_levels(
    L_long,
    a_transverse,
    m,
    cutoff=None,
    *,
    beta=None,
    unit_system=UnitSystem.REDUCED,
):
    """Spectrum of all box levels with |n_i| <= cutoff_i.

    cutoff may be a single integer (applied to every axis), a 3-tuple, or
    None, in which case the per-axis default keeps everything below
    beta*eps = 45 and beta must be supplied.

    Raises DomainError when an axis's top level (h c_i/L_i)^2/2m overflows a
    double, and ResourceLimitError when the level count would exceed
    MAX_LEVELS or a default cutoff overflows a double.
    """
    for name, value in (("L_long", L_long), ("a_transverse", a_transverse), ("m", m)):
        _positive(name, value)
    if beta is not None:
        _positive("beta", beta)
    h = constants_for(unit_system).h
    lengths = (L_long, a_transverse, a_transverse)
    if cutoff is None:
        if beta is None:
            raise DomainError("default cutoff rule needs beta")
        cutoffs = tuple(_axis_cutoff(L, m, beta, h) for L in lengths)
    elif isinstance(cutoff, (tuple, list)):
        cutoffs = tuple(int(c) for c in cutoff)
    else:
        cutoffs = (int(cutoff),) * 3
    if len(cutoffs) != 3 or any(c < 1 for c in cutoffs):
        raise DomainError("cutoff must be a positive integer or 3 of them")
    for L, c in zip(lengths, cutoffs):
        if not math.isfinite((h * c / L) * (h * c / L) / (2.0 * m)):
            raise DomainError("level (h n/L)^2/2m overflows at L = %r, n = %d" % (L, c))

    count = math.prod(2 * c + 1 for c in cutoffs)
    if count > MAX_LEVELS:
        raise ResourceLimitError(
            "spectrum would hold %d levels, above the limit %d" % (count, MAX_LEVELS)
        )

    import numpy as np

    axis_levels = tuple(
        (h * np.arange(c + 1, dtype=np.float64) / L) ** 2 / (2.0 * m)
        for L, c in zip(lengths, cutoffs)
    )
    return BoxSpectrum(
        L_long=L_long,
        a_transverse=a_transverse,
        m=m,
        cutoff=cutoffs,
        axis_levels=axis_levels,
        levels_transverse_ground=np.sort(_mirrored(axis_levels[0])),
        unit_system=unit_system,
    )


def _parity_weights(energies):
    # n = 0 stands for itself, every n > 0 for the pair +n, -n
    import numpy as np

    weights = np.full(energies.size, 2.0)
    weights[0] = 1.0
    return weights


def truncation_bound(spec, z, beta):
    """Upper estimate of the occupation weight lost beyond the cutoffs.

    Per axis the discarded Boltzmann weight is below the Gaussian integral
    tail sqrt(pi/s) * erfc(sqrt(s) c) with s = beta h^2/(2 m L^2); the
    bound is the product defect of the per-axis theta sums.  Exact for
    Maxwell-Boltzmann as an upper bound; Fermi-Dirac occupations are
    smaller still.  For Bose-Einstein it underestimates by at most
    1/(1 - z e^(-beta eps_cut)), which is ~1 whenever the cutoff is sane.
    """
    h = constants_for(spec.unit_system).h
    thetas = []
    tails = []
    for L, c in zip(spec.edge_lengths, spec.cutoff):
        s = beta * h * h / (2.0 * spec.m * L * L)
        thetas.append(math.fsum(math.exp(-s * n * n) for n in range(-c, c + 1)))
        tails.append(math.sqrt(math.pi / s) * math.erfc(math.sqrt(s) * c))
    # expand prod(theta + tail) - prod(theta) term by term; the direct
    # subtraction cancels to zero once the tails drop below one ulp
    defect = 0.0
    for i, tail in enumerate(tails):
        term = tail
        for j, theta in enumerate(thetas):
            if j < i:
                term *= theta
            elif j > i:
                term *= theta + tails[j]
        defect += term
    return z * defect


def direct_number_sum(spec, stat, z, beta):
    """Sum occupations over every level of the spectrum.

    The x-slabs n_x = 0..c_x are summed in order, each over the same
    (c_y+1) x (c_z+1) plane of transverse energies with parity weights, and
    the slab sums are added with math.fsum.  truncation_bound estimates
    what the cutoffs leave out.
    """
    _positive("z", z)
    _positive("beta", beta)
    if stat is Statistics.BOSE_EINSTEIN and not z < 1.0:
        raise CondensationError(
            "Bose box sum needs z < 1 (ground level at eps = 0), got %r" % (z,)
        )
    import numpy as np

    log_z = math.log(z)
    ex, ey, ez = spec.axis_levels
    plane = ey[:, None] + ez[None, :]
    plane_weights = np.outer(_parity_weights(ey), _parity_weights(ez))
    # one set of plane buffers for all slabs: the speed of per-slab
    # temporaries depended on the heap layout left by import order
    w, n = np.empty_like(plane), np.empty_like(plane)
    slab_sums = []
    for e, weight in zip(ex, _parity_weights(ex)):
        # w = beta * (plane + e) - ln z
        np.subtract(np.multiply(np.add(plane, e, out=w), beta, out=w), log_z, out=w)
        _occupations(stat, w, n)
        slab_sums.append(weight * float(np.sum(np.multiply(n, plane_weights, out=n))))
    return math.fsum(slab_sums)


ContinuumComparison = namedtuple(
    "ContinuumComparison",
    "N_discrete N_continuum_3d N_continuum_quasi1d rel_err_3d rel_err_quasi1d"
    " ground_mode_fraction sigma_tilde_fitted truncation_bound")


def compare_continuum(spec, stat, z, beta):
    """Discrete sum against both continuum replacements of it.

    N_continuum_3d is (V/h^3) integral d^3p n(p) = V F_{3/2}(z)/lambda^3;
    the quasi-1D variant takes the freeze-out cross-section
    sigma_tilde = (lambda/a)^2, under which it is the pure 1D count
    (L/lambda) F_{1/2}(z).  Relative errors are against N_discrete;
    ground_mode_fraction is the occupation share of levels with no
    transverse excitation.  DomainError when lambda^3 or (lambda/a)^2
    overflows a double.
    """
    h = constants_for(spec.unit_system).h
    lam = h * math.sqrt(beta / (2.0 * math.pi * spec.m))
    volume = spec.L_long * spec.a_transverse ** 2

    n_disc = direct_number_sum(spec, stat, z, beta)
    try:
        lam3, sigma_tilde = lam ** 3, (lam / spec.a_transverse) ** 2
    except OverflowError:
        raise DomainError("lambda^3 or (lambda/a)^2 overflows at lambda = %r" % (lam,)) from None
    f32 = quantum_integral(stat, QuantumIntegralOrder.THREE_HALVES, z)
    f12 = quantum_integral(stat, QuantumIntegralOrder.ONE_HALF, z)
    n_3d = volume * f32 / lam3
    n_q1d = volume * sigma_tilde * f12 / lam3

    w = spec.levels_transverse_ground * beta
    w -= math.log(z)
    ground = float(_occupations(stat, w).sum())
    return ContinuumComparison(
        N_discrete=n_disc,
        N_continuum_3d=n_3d,
        N_continuum_quasi1d=n_q1d,
        rel_err_3d=abs(n_disc - n_3d) / n_disc,
        rel_err_quasi1d=abs(n_disc - n_q1d) / n_disc,
        ground_mode_fraction=ground / n_disc,
        sigma_tilde_fitted=n_disc * lam3 / (volume * f12),
        truncation_bound=truncation_bound(spec, z, beta),
    )
