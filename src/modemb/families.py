"""Generators for the extremal function families driving the experiments.

Every family is synthesized exactly on the frequency side (compact spectral
support, so the grid function is the exact periodization of the continuum
object), and a member is that spectrum: a frequency-side GridFunction. The
norms read it without a forward transform; ``in_space()`` gives the space
samples. Identical parameters yield bit-identical samples.

The family table, ``_table``, is the one place a family kind is defined;
other modules read kinds only through ``KINDS``, ``kind_row``, ``member`` and
``grid_for``.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exponents import as_fraction
from .grid import FREQUENCY, BandLimitError, GridFunction, GridSpec, band_leak, separable, \
    _next_pow2
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


def _finish(spec: GridSpec, values: np.ndarray) -> GridFunction:
    """The member whose spectrum is ``values``, after the band-margin check."""
    _assert_margin(spec, values)
    return GridFunction(spec, values, FREQUENCY)


def _assert_margin(spec: GridSpec, freq_values: np.ndarray) -> None:
    margin = float(spec.omega) * (1.0 - 2.0 / spec.n)
    if band_leak(freq_values, spec.freq_outside_cube(margin)) > 1e-12:
        raise BandLimitError("family spectrum violates the grid band margin")


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


def family_dilation(spec: GridSpec, lam) -> GridFunction:
    """f_lambda(x) = f(lambda x) with spectrum lambda^-d eta(xi/lambda),
    supported in lambda [-1/8, 1/8]^d."""
    lam = _unit_parameter(lam, "dilation parameter", "lambda")
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
    return _finish(spec, build_dyadic(spec, levels=max(_integer_level(level), 1)).window(level)
                   .astype(np.complex128))


def family_lattice_comb(spec: GridSpec, level: int, width=1) -> GridFunction:
    """f(x) = sum_{k in A_level} e^{ikx} eta((x-k)/a): modulated translates
    whose spectra tile the boxes k + [-1/(8a), 1/(8a)]^d."""
    a = _unit_parameter(width, "comb width", "a")
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
    tf = float(_unit_parameter(t, "kernel parameter", "t"))
    axis_vals = WIDE_BUMP(np.abs(tf * spec.freq_axis()))
    return _finish(spec, separable(np.multiply, (axis_vals,) * spec.d).astype(np.complex128))


def _octaves(parameter) -> float:
    """log2(1/parameter) for a lambda or t; infinite at a parameter <= 0, so
    that member sizes the grid, which refuses it."""
    x = float(as_fraction(parameter))
    return -np.log2(x) if x > 0 else np.inf


def _table() -> dict:
    """kind -> (options, growth coordinate, generator). ``options`` are the
    grid_for keywords and command-line options the kind reads, its member
    parameter first. The largest coordinate picks the member that sizes the
    default grid; the coordinate is the fit abscissa. Built per call, so it
    holds the generators this module binds when called."""
    return {
        "single_box": (("level",), float, family_single_box),
        "annulus": (("level",), float, family_annulus),
        "lattice_comb": (("level", "width"), float, family_lattice_comb),
        "dilation": (("lam",), _octaves, family_dilation),
        "dilated_kernel": (("t",), _octaves, family_dilated_kernel),
    }


KINDS = tuple(_table())


def kind_row(kind: str) -> tuple:
    """The family table's row for ``kind``."""
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    return _table()[kind]


def member(kind: str, spec: GridSpec, parameter, width=1) -> GridFunction:
    """The member of family ``kind`` at ``parameter``: its level, lambda or t.
    Only a kind with ``width`` among its options reads ``width``."""
    options, _, generator = kind_row(kind)
    return generator(spec, parameter, *([width] if "width" in options else []))


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
    margin = float(spec.omega) * (1.0 - 2.0 / spec.n)
    center_inf = float(np.abs(c).max())
    if band_radius + center_inf > margin:
        raise BandLimitError(
            f"band radius {band_radius} at center offset {center_inf} exceeds "
            f"the grid margin {margin:.6g}"
        )
    coeffs = rng.standard_normal(spec.shape()) + 1j * rng.standard_normal(spec.shape())
    out = np.where(mask, coeffs, 0.0).astype(np.complex128)
    return _finish(spec, out)


def grid_for(kind: str, d: int = 1, level: int | None = None, lam=None, t=None,
             width=1) -> GridSpec:
    """A default grid sized for one family at its largest level.

    The resolved band Omega must clear the family's top frequency with
    margin; the comb additionally needs spatial room for its translates at
    |k| ~ 2^level (P >= 8 * 2^level). The family's parameter in (0, 1] (the
    comb width, lambda or t) is checked before it sizes the grid.
    """
    if kind == "single_box":
        m = 64 if d == 1 else 8
        omega = _next_pow2(1.5 * 2 ** level + 4)
    elif kind == "annulus":
        # one octave of headroom: the top member's spectrum reaches
        # (3/2) 2^level, which the dyadic cover only clears at J = level + 1
        m = 64 if d == 1 else 8
        omega = _next_pow2(3 * 2 ** level + 4)
    elif kind == "lattice_comb":
        a = float(_unit_parameter(width, "comb width", "a"))
        base = _next_pow2(8 * 2 ** level / (2 * np.pi))
        m = max(64 if d == 1 else 8, base)
        omega = _next_pow2(1.25 * 2 ** level + 1.0 / (8 * a) + 4)
    elif kind == "dilation":
        lam = _unit_parameter(lam, "dilation parameter", "lambda")
        m = max(64, _next_pow2(48 / lam))
        omega = 8
    elif kind == "dilated_kernel":
        tf = float(_unit_parameter(t, "kernel parameter", "t"))
        m = 8
        # the uniform band edge kmax - 1 = omega - 2 must clear the support 9/(8t)
        omega = _next_pow2(9.0 / (8.0 * tf) + 2)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return GridSpec(d=d, n=2 * m * omega, oversampling=m)
