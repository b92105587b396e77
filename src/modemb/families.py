"""Generators for the extremal function families driving the experiments.

Every family is synthesized exactly on the frequency side, and a member is
that spectrum: a frequency-side GridFunction. The spectrum is compact, so the
space samples are those of the continuum object's periodization with period
2 pi M, not of the object itself: its tails wrap around, and the norms
depend on the grid. Measured against the same member with M and N doubled
(ROADMAP item 13): in d = 1, single_box moves by 0.22 at p = 1 and 0.76 at
p = 1/2 (NARROW_BUMP's edge spans about one sample at M = 64), the comb by
0.11 in M at p = 1, the annulus by 6.7e-5 in M at p = 1; in d = 2 the
level-3 annulus reads M[p=1,q=1] 15 % low at M = 8. Slopes mostly survive,
as the error is nearly the same at every level; absolute values do not.
The norms read a member without a forward transform; ``in_space()`` gives
the space samples. Identical parameters yield bit-identical samples.

The family table, ``_TABLE``, is the one place a family kind is defined: one
``Kind`` row holds its options, fit coordinate, generator, default grid size
and catalogued growth. Other modules read kinds only through ``KINDS``,
``kind_row``, ``member`` and ``grid_for``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .exponents import as_fraction
from .grid import FREQUENCY, MAX_SAMPLES, BandLimitError, GridFunction, GridSpec, band_leak, \
    separable, spectral_support, _next_pow2
from .partitions import (
    ResolutionError,
    _annulus_membership,
    _integer_level,
    build_dyadic,
    index_set,
    smooth_profile,
)


class PeriodError(ValueError):
    """Spatial period too small for the requested translates."""


def _skewed_bump(edge0: float, edge1: float, power: float):
    """C-infinity cutoff with an edge biased toward 1: the mollifier blend
    evaluated at ((t-edge0)/(edge1-edge0))^power. Wider effective plateau
    keeps the comb family's sup norms flat across the level range."""
    inner = smooth_profile(0.0, 1.0)

    def prof(t):
        t = np.asarray(t, dtype=float)
        x = np.clip((t - edge0) / (edge1 - edge0), 0.0, 1.0)
        return inner(x ** power)

    return prof


# eta-hat style per-axis bump: 1 on |t| <= 7/64 (in particular on the
# [-1/16, 1/16] core), 0 outside |t| < 1/8.
NARROW_BUMP = _skewed_bump(7.0 / 64.0, 1.0 / 8.0, 6.0)
# Wide kernel profile: 1 on |t| <= 1, 0 outside |t| < 9/8.
WIDE_BUMP = smooth_profile(1.0, 9.0 / 8.0)


def _margin(spec: GridSpec) -> float:
    """The band a family spectrum must stay inside: Omega less two samples."""
    return float(spec.omega) * (1.0 - 2.0 / spec.n)


def _finish(spec: GridSpec, values: np.ndarray) -> GridFunction:
    """The member whose spectrum is ``values``, after the band-margin check
    on the bins above the spectral floor."""
    f = GridFunction(spec, values, FREQUENCY)
    support = spectral_support(f)
    if band_leak(support, support.outside_cube(_margin(spec))) > 1e-12:
        raise BandLimitError("family spectrum violates the grid band margin")
    return f


def _axis_offsets(spec: GridSpec, center_k: int, half_width: int) -> np.ndarray:
    """Sample indices center + o for o in [-w, w], or raise if off the grid."""
    center = spec.n // 2 + center_k * spec.oversampling
    lo, hi = center - half_width, center + half_width
    if lo < 0 or hi >= spec.n:
        raise BandLimitError(
            f"box at lattice point {center_k} (half-width {half_width} samples) "
            "leaves the frequency grid"
        )
    return np.arange(lo, hi + 1)


def _box_term_axis(spec: GridSpec, k: int, width: float, modulated: bool):
    """(indices, values) of one axis factor exp(-i k (xi - k)) * eta_hat((xi-k)/?).

    ``width`` rescales the bump: eta((x-k)/a) has spectrum a * eta_hat(a(xi-k))
    per axis, supported in |xi - k| < 1/(8a).
    """
    m = spec.oversampling
    a = float(width)
    w = int(np.ceil(m / (8.0 * a)))
    idx = _axis_offsets(spec, k, w)
    offsets = (idx - (spec.n // 2 + k * m)) / m
    vals = a * NARROW_BUMP(np.abs(a * offsets)).astype(np.complex128)
    if modulated:
        vals = vals * np.exp(-1j * k * offsets)
    return idx, vals


def _add_box(spectrum: np.ndarray, spec: GridSpec, k: tuple[int, ...],
             coeff: complex, width: float = 1.0, modulated: bool = True) -> None:
    idx, vals = zip(*(_box_term_axis(spec, c, width, modulated) for c in k))
    spectrum[np.ix_(*idx)] += coeff * separable(np.multiply, vals)


def _check_period(spec: GridSpec, points) -> None:
    max_k = max((max(abs(c) for c in k) for k in points), default=0)
    if spec.period < 4.0 * max_k - 1e-9:
        raise PeriodError(
            f"period {spec.period:.4g} < 4 * max|k| = {4 * max_k}; translates overlap"
        )


def _unit_parameter(value, name: str, symbol: str) -> Fraction:
    """``value`` as an exact rational in (0, 1], or a ValueError naming it."""
    x = as_fraction(value)
    if not 0 < x <= 1:
        raise ValueError(f"{name} must satisfy 0 < {symbol} <= 1, got {x}")
    return x


_comb_width = partial(_unit_parameter, name="comb width", symbol="a")
_dilation_lambda = partial(_unit_parameter, name="dilation parameter", symbol="lambda")
_kernel_t = partial(_unit_parameter, name="kernel parameter", symbol="t")


def family_dilation(spec: GridSpec, lam) -> GridFunction:
    """f_lambda(x) = f(lambda x) with spectrum lambda^-d eta(xi/lambda),
    supported in lambda [-1/8, 1/8]^d."""
    lam = _dilation_lambda(lam)
    if lam * spec.oversampling < 48:
        raise ResolutionError(
            f"lambda = {lam} leaves fewer than 6 samples across the bump; "
            f"need oversampling >= {int(np.ceil(48 / lam))}"
        )
    lf = float(lam)
    axis_vals = NARROW_BUMP(np.abs(spec.freq_axis()) / lf)
    scale = lf ** (-spec.d)
    return _finish(spec, (scale * separable(np.multiply, (axis_vals,) * spec.d))
                   .astype(np.complex128))


def smallest_box_point(level: int, d: int) -> tuple[int, ...]:
    k = next(_annulus_membership(_integer_level(level), d, inside=True), None)
    if k is None:
        raise ValueError(f"A_{level} is empty in dimension {d}")
    return k


def family_single_box(spec: GridSpec, level: int) -> GridFunction:
    """Spectrum eta(xi - k_l) at the lexicographically smallest k_l in A_l:
    exactly one active uniform box, dyadic levels within |j - l| <= 3."""
    if _integer_level(level) < 2:
        raise ValueError(f"single-box family needs level >= 2, got {level}")
    k = smallest_box_point(level, spec.d)
    out = np.zeros(spec.shape(), dtype=np.complex128)
    _add_box(out, spec, k, 1.0, width=1.0, modulated=False)
    return _finish(spec, out)


def family_annulus(spec: GridSpec, level: int) -> GridFunction:
    """Spectrum phi_level: the dyadic window itself. The partition dies within
    the expression, so its arrays are freed before the member's copy is made."""
    level = _integer_level(level, least=0)
    return _finish(spec, build_dyadic(spec, levels=max(level, 1)).window(level)
                   .astype(np.complex128))


def family_lattice_comb(spec: GridSpec, level: int, width=1) -> GridFunction:
    """f(x) = sum_{k in A_level} e^{ikx} eta((x-k)/a): modulated translates
    whose spectra tile the boxes k + [-1/(8a), 1/(8a)]^d."""
    a = _comb_width(width)
    points = index_set("A", level, spec.d).members
    if not points:
        raise ValueError(f"A_{level} is empty in dimension {spec.d}")
    _check_period(spec, points)
    out = np.zeros(spec.shape(), dtype=np.complex128)
    for k in points:
        _add_box(out, spec, k, 1.0, width=float(a), modulated=True)
    return _finish(spec, out)


def family_dilated_kernel(spec: GridSpec, t) -> GridFunction:
    """f(x) = t^-d eta(x/t) with eta_hat = 1 on [-1,1]^d: the spectrum
    eta_hat(t xi) equals 1 on (1/t)[-1,1]^d."""
    tf = float(_kernel_t(t))
    axis_vals = WIDE_BUMP(np.abs(tf * spec.freq_axis()))
    return _finish(spec, separable(np.multiply, (axis_vals,) * spec.d).astype(np.complex128))


def _octaves(parameter) -> float:
    """log2(1/parameter) for a lambda or t; infinite at a parameter <= 0, so
    that member sizes the grid, which refuses it."""
    x = float(as_fraction(parameter))
    return -np.log2(x) if x > 0 else np.inf


class Kind(NamedTuple):
    """A family kind: the grid_for keywords and command-line options it reads,
    member parameter first; the fit abscissa, whose largest value picks the
    member that sizes the default grid; ``generator(spec, parameter, width)``;
    ``size(d, parameter, width)``, the default grid's (M, Omega); and
    ``growth(p, q, d)``, the log2 growth of ||f||_M / ||f||_X at s = 0 in the
    Besov p and the modulation q, or None if none is catalogued."""
    options: tuple
    coordinate: Callable
    generator: Callable
    size: Callable
    growth: Callable | None


# A generator is looked up when called, so a generator rebound on this module
# is the one called. Sizes are exact: a large parameter meets GridSpec's budget.
_TABLE = {
    # the top member's spectrum reaches (3/2) 2^level
    "single_box": Kind(
        ("level",), float, lambda spec, level, a: family_single_box(spec, level),
        lambda d, level, a: (64 if d == 1 else 8, _next_pow2(Fraction(3, 2) * 2 ** level + 4)),
        lambda p, q, d: 0),
    # one octave of headroom: the top member's spectrum reaches (3/2) 2^level,
    # which the dyadic cover only clears at J = level + 1
    "annulus": Kind(
        ("level",), float, lambda spec, level, a: family_annulus(spec, level),
        lambda d, level, a: (64 if d == 1 else 8, _next_pow2(3 * 2 ** level + 4)),
        lambda p, q, d: d * (p.reciprocal() + q.reciprocal() - 1)),
    # room for the translates at |k| ~ 2^level: P = 2 pi M >= 8 * 2^level, and
    # as 1 < 4/pi < 2 the least such power of two is M = 2^(level+1)
    "lattice_comb": Kind(
        ("level", "width"), float, lambda spec, level, a: family_lattice_comb(spec, level, a),
        lambda d, level, a: (
            max(64 if d == 1 else 8, _next_pow2(2 ** (level + 1))),
            _next_pow2(Fraction(5, 4) * 2 ** level + 1 / (8 * _comb_width(a)) + 4)),
        lambda p, q, d: d * (q.reciprocal() - p.reciprocal())),
    # six samples across the bump lambda [-1/8, 1/8]
    "dilation": Kind(
        ("lam",), _octaves, lambda spec, lam, a: family_dilation(spec, lam),
        lambda d, lam, a: (max(64, _next_pow2(48 / _dilation_lambda(lam))), 8), None),
    # the uniform band edge kmax - 1 = omega - 2 must clear the support 9/(8t)
    "dilated_kernel": Kind(
        ("t",), _octaves, lambda spec, t, a: family_dilated_kernel(spec, t),
        lambda d, t, a: (8, _next_pow2(9 / (8 * _kernel_t(t)) + 2)), None),
}
KINDS = tuple(_TABLE)


def kind_row(kind: str) -> Kind:
    """The family table's row for ``kind``."""
    if kind not in _TABLE:
        raise ValueError(f"unknown family kind {kind!r}")
    return _TABLE[kind]


def member(kind: str, spec: GridSpec, parameter, width=1) -> GridFunction:
    """The member of family ``kind`` at ``parameter``: its level, lambda or t.
    Only a kind with ``width`` among its options reads ``width``."""
    return kind_row(kind).generator(spec, parameter, width)


def random_band_limited(spec: GridSpec, band_radius: float, center=None,
                        rng=None, seed: int = 0) -> GridFunction:
    """Random trigonometric polynomial band-limited to the Euclidean ball
    B(center, band_radius): iid complex gaussian spectral coefficients."""
    if rng is None:
        rng = np.random.default_rng(seed)
    ax = spec.freq_axis()
    c = np.zeros(spec.d) if center is None else np.atleast_1d(center).astype(float)
    if c.shape != (spec.d,):
        raise ValueError(f"center {center} does not match dimension {spec.d}")
    dist = np.sqrt(separable(np.add, [(ax - cx) ** 2 for cx in c]))
    mask = dist <= band_radius
    margin = _margin(spec)
    center_inf = float(np.abs(c).max())
    if band_radius + center_inf > margin:
        raise BandLimitError(
            f"band radius {band_radius} at center offset {center_inf} exceeds "
            f"the grid margin {margin:.6g}"
        )
    coeffs = rng.standard_normal(spec.shape()) + 1j * rng.standard_normal(spec.shape())
    out = np.where(mask, coeffs, 0.0).astype(np.complex128)
    return _finish(spec, out)


def _check_level_budget(level) -> None:
    """ValueError if no grid for ``level`` fits the sample budget. A level
    member's spectrum reaches past 2^level, so N > 2^level: from
    2^level >= MAX_SAMPLES on, the level is refused before 2 ** level is
    formed."""
    if level >= MAX_SAMPLES.bit_length() - 1:
        raise ValueError(f"a grid for level {level} exceeds the budget of "
                         f"{MAX_SAMPLES} samples")


def grid_for(kind: str, d: int = 1, level: int | None = None, lam=None, t=None,
             width=1) -> GridSpec:
    """A default grid for one family at its largest level, sized by the kind's
    row. The family's parameter in (0, 1] (the comb width, lambda or t) is
    checked before it sizes the grid."""
    row = kind_row(kind)
    option = row.options[0]
    parameter = {"level": level, "lam": lam, "t": t}[option]
    if parameter is None:
        raise ValueError(f"{option} is required for the {kind} family")
    if option == "level":
        _check_level_budget(parameter)
    m, omega = row.size(d, parameter, width)
    return GridSpec(d=d, n=2 * m * omega, oversampling=m)
