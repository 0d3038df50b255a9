"""Brute-force spectral oracle: a finite periodic box summed level by level.

A wire is modelled as an L x a x a box with periodic boundary conditions,
momenta p_i = h n_i / L_i.  Summing occupations over the enumerated
spectrum gives particle counts with no continuum approximation at all,
which is what every integral in the package is checked against.

Each axis energy (h n_i / L_i)^2 / 2m is even in n_i, so the spectrum is
stored as three per-axis tuples over n_i = 0..c_i, and a sum over the full
(2c+1)^3 grid becomes a sum over n_i >= 0 in which every n_i > 0 counts twice.
Every sum is pure Python, on occupation's one rule given a whole axis or plane
at once.  The Maxwell-Boltzmann sum is the product of three axis sums, the
same finite sum rearranged; the Fermi-Dirac and Bose-Einstein sums stream over
x-slabs in a fixed order, one (c_y+1) x (c_z+1) plane at a time, so repeated
runs agree bit for bit.  The full sorted level array, for inspecting small
boxes, and the levels with no transverse excitation are numpy arrays built
from the axis energies on each read; nothing else here uses numpy.
"""

import math
from collections import namedtuple
from operator import index, mul

from .constants import UnitSystem, constants_for
from .errors import CondensationError, DomainError, ResourceLimitError, _normal, _positive
from .gas_statistics import _occupations
from .specfun import Statistics, _pair

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


class BoxSpectrum(namedtuple("BoxSpectrum", "cutoff axis_levels")):
    """Complete single-particle spectrum of a periodic box.

    cutoff holds the three per-axis cutoffs c_i, and axis_levels, per axis,
    a tuple of the energies for n_i = 0..c_i; each level of the box is
    a sum of one energy per axis, and n_i and -n_i share an energy.
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

        ex, ey, ez = (np.array(e[:0:-1] + e) for e in self.axis_levels)
        return np.sort((ex[:, None, None] + ey[None, :, None] + ez[None, None, :]).ravel())

    @property
    def levels_transverse_ground(self):
        """The 2 c_x + 1 levels with n_y = n_z = 0 in ascending order: the x axis's
        e_0, e_1, e_1, e_2, e_2, ..., since its energies never fall as n rises."""
        import numpy as np

        return np.repeat(self.axis_levels[0], 2)[1:]


def _axis_cutoff(length, m, beta, h):
    # smallest c with beta * (h c / L)^2 / (2m) >= BETA_EPS_CUTOFF
    c = length * math.sqrt(2.0 * m * BETA_EPS_CUTOFF / beta) / h
    if not math.isfinite(c):
        raise ResourceLimitError(
            "default cutoff overflows at L = %r: spectrum would hold more than %d levels"
            % (length, MAX_LEVELS)
        )
    return max(1, math.ceil(c))


def _cutoff_index(c):
    try:
        return index(c)
    except TypeError:
        raise DomainError("cutoff must be an integer, got %r" % (c,)) from None


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
    beta*eps = 45 and beta must be supplied.  An integer is what
    operator.index takes (int, bool, a numpy integer); anything else, a
    float or a str, is a DomainError naming it.  A cutoff below 1 is a
    DomainError too.

    Raises DomainError when an axis's top level (h c_i/L_i)^2/2m is not a
    normal double, and ResourceLimitError when the level count would exceed
    MAX_LEVELS or a default cutoff overflows a double.
    """
    L_long, a_transverse, m = (_positive("L_long", L_long),
                               _positive("a_transverse", a_transverse), _positive("m", m))
    if beta is not None:
        beta = _positive("beta", beta)
    h = constants_for(unit_system).h
    lengths = (L_long, a_transverse, a_transverse)
    if cutoff is None:
        if beta is None:
            raise DomainError("default cutoff rule needs beta")
        cutoffs = tuple([_axis_cutoff(L, m, beta, h) for L in lengths])
    elif isinstance(cutoff, (tuple, list)):
        cutoffs = tuple([_cutoff_index(c) for c in cutoff])
    else:
        cutoffs = (_cutoff_index(cutoff),) * 3
    if len(cutoffs) != 3 or any(c < 1 for c in cutoffs):
        raise DomainError("cutoff must be a positive integer or 3 of them")
    for L, c in zip(lengths, cutoffs):
        _normal("level (h n/L)^2/2m at L = %r, n = %d",
                (h * c / L) * (h * c / L) / (2.0 * m), L, c)

    count = math.prod(2 * c + 1 for c in cutoffs)
    if count > MAX_LEVELS:
        raise ResourceLimitError(
            "spectrum would hold %d levels, above the limit %d" % (count, MAX_LEVELS)
        )

    # tuples of lists: tuple(generator) resizes, parking spare tuples in CPython's free lists
    axis_levels = tuple([
        tuple([(h * n / L) * (h * n / L) / (2.0 * m) for n in range(c + 1)])
        for L, c in zip(lengths, cutoffs)
    ])
    return BoxSpectrum(cutoffs, axis_levels)


def _weights(terms):
    # weight per term of n = 0..c: n = 0 stands for itself, every n > 0 for the pair +n, -n
    return [1.0] + [2.0] * (len(terms) - 1)


def _axis_sum(stat, log_z, beta, energies):
    """Occupations summed over one axis's 2c + 1 levels, with math.fsum."""
    return math.fsum(map(mul, _weights(energies),
                         _occupations(stat, [beta * e - log_z for e in energies])))


def _axis_scales(spec, beta):
    # s_i = beta eps_1 = pi (lambda/L_i)^2 from each axis's n = 1 level; no constant enters
    scales = []
    for axis, levels in zip("xyz", spec.axis_levels):
        eps_1 = _normal("eps_1 on axis %s", levels[1], axis)
        scales.append(_normal("s = beta eps_1 on axis %s", beta * eps_1, axis))
    return scales


def truncation_bound(spec, z, beta):
    """Upper estimate of the occupation weight lost beyond the cutoffs.

    Per axis the discarded Boltzmann weight is below the Gaussian integral
    tail sqrt(pi/s) * erfc(sqrt(s) c) with s = beta eps_1 = pi (lambda/L)^2,
    eps_1 the axis's n = 1 level; the bound is the product defect of the
    per-axis theta sums.  Exact for Maxwell-Boltzmann as an upper bound;
    Fermi-Dirac occupations are smaller still.  For Bose-Einstein it
    underestimates by at most 1/(1 - z e^(-beta eps_cut)), which is ~1
    whenever the cutoff is sane.  DomainError when an eps_1 or an s, both
    computed, is not a positive normal double, and when z or beta is not
    positive and finite.
    """
    z, beta = _positive("z", z), _positive("beta", beta)
    thetas, tails = [], []
    for s, c in zip(_axis_scales(spec, beta), spec.cutoff):
        terms = [math.exp(-s * n * n) for n in range(c + 1)]  # n and -n share a term
        thetas.append(math.fsum(map(mul, _weights(terms), terms)))
        tails.append(math.sqrt(math.pi / s) * math.erfc(math.sqrt(s) * c))
    # expand prod(theta + tail) - prod(theta) term by term: tail i times the
    # thetas before it and the theta + tail after it; the direct subtraction
    # cancels to zero once the tails drop below one ulp
    grown = [theta + tail for theta, tail in zip(thetas, tails)]
    return z * math.fsum(math.prod(thetas[:i] + grown[i + 1:], start=tail)
                         for i, tail in enumerate(tails))


def direct_number_sum(spec, stat, z, beta):
    """Sum occupations over every level of the spectrum.

    Maxwell-Boltzmann: z times the product of the three axis sums of
    e^(-beta eps).  Otherwise the x-slabs n_x = 0..c_x are summed in order,
    each over the same (c_y+1) x (c_z+1) plane of transverse energies with
    parity weights; each slab, and then the slab sums, go through math.fsum.
    A level whose beta*eps overflows holds 0.  An MB sum past double range
    reads inf; FD and BE sums cannot get there, as no occupation tops 1e16
    and no box holds more than MAX_LEVELS levels.  truncation_bound
    estimates what the cutoffs leave out.
    """
    z, beta = _positive("z", z), _positive("beta", beta)
    if stat is Statistics.BOSE_EINSTEIN and not z < 1.0:
        raise CondensationError(
            "Bose box sum needs z < 1 (ground level at eps = 0), got %r" % (z,)
        )
    if stat is Statistics.MAXWELL_BOLTZMANN:
        return math.prod((_axis_sum(stat, 0.0, beta, e) for e in spec.axis_levels), start=z)
    log_z = math.log(z)
    ex, ey, ez = spec.axis_levels
    plane = [e_y + e_z for e_y in ey for e_z in ez]
    weights = [w_y * w_z for w_y in _weights(ey) for w_z in _weights(ez)]
    return math.fsum([w_x * math.fsum(map(mul, weights, _occupations(
                          stat, [(p + e_x) * beta - log_z for p in plane])))
                      for e_x, w_x in zip(ex, _weights(ex))])


ContinuumComparison = namedtuple(
    "ContinuumComparison",
    "N_discrete N_continuum_3d N_continuum_quasi1d rel_err_3d rel_err_quasi1d"
    " ground_mode_fraction sigma_tilde_fitted truncation_bound")


def compare_continuum(spec, stat, z, beta):
    """Discrete sum against both continuum replacements of it.

    N_continuum_3d is (V/h^3) integral d^3p n(p) = (V/lambda^3) F_{3/2}(z);
    the quasi-1D variant takes the freeze-out cross-section sigma_tilde =
    (lambda/a)^2, under which it is the pure 1D count (L/lambda) F_{1/2}(z).
    Both come from the box's s_i of truncation_bound: L/lambda = sqrt(pi/s_x)
    and V/lambda^3 = (L/lambda) pi/s_y; F_{3/2}(z) and F_{1/2}(z) from one
    kernel walk, the value and its slope (MB: z and z).  Relative errors are against
    N_discrete; ground_mode_fraction is the occupation share of levels with
    no transverse excitation.  DomainError when an eps_1, s_i, N_discrete,
    V/lambda^3 or (V/lambda^3) F_{1/2}(z) is not a positive normal double.
    """
    z, beta = _positive("z", z), _positive("beta", beta)
    n_disc = _normal("N_discrete", direct_number_sum(spec, stat, z, beta))
    s_x, s_y, _ = _axis_scales(spec, beta)
    l_lam = math.sqrt(math.pi / s_x)
    v_lam3 = _normal("V/lambda^3", l_lam * (math.pi / s_y))
    log_z = math.log(z)
    f32, f12 = (z, z) if stat is Statistics.MAXWELL_BOLTZMANN else _pair(stat, 1.5, log_z, z)
    n_3d = v_lam3 * f32
    n_q1d = l_lam * f12

    ground = _axis_sum(stat, log_z, beta, spec.axis_levels[0])
    return ContinuumComparison(
        N_discrete=n_disc,
        N_continuum_3d=n_3d,
        N_continuum_quasi1d=n_q1d,
        rel_err_3d=abs(n_disc - n_3d) / n_disc,
        rel_err_quasi1d=abs(n_disc - n_q1d) / n_disc,
        ground_mode_fraction=ground / n_disc,
        sigma_tilde_fitted=n_disc / _normal("(V/lambda^3) F_1/2(z)", v_lam3 * f12),
        truncation_bound=truncation_bound(spec, z, beta),
    )
