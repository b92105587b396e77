"""Periodic sampled functions on a uniform grid and their discrete transforms.

Conventions. The spatial domain is the centered torus [-P/2, P/2)^d with
period P = 2*pi*M for an integer oversampling factor M, sampled at N points
per axis. The frequency grid is xi_j = j * delta with delta = 2*pi/P = 1/M,
j in [-N/2, N/2). The forward transform approximates the analytic
F f(xi) = integral f(x) exp(-i x xi) dx, so the frequency-side samples of a
band-limited periodic function match the continuous transform convention;
the inverse carries the (2*pi)^-d factor. For band-limited inputs the round
trip is the identity to machine precision.

Dimension. Every separable object is the d-fold outer product of one
per-axis array (``separable``), and the transforms are n-dimensional, so no
function here has a body per dimension. Only ``GridSpec``'s check branches
on d: it admits d in {1, 2}, the dimensions whose box syntheses
``norms`` implements and in which every numerical path is tested.

Ownership. A ``GridFunction``'s samples are read-only. The constructor
adopts, without a copy, an array that is complex128, C-contiguous, read-only
and owns its data; it copies any other input, so a caller's writable array
or view stays isolated from ``f.values``. An internal producer that built
its samples fresh (a transform or a family spectrum) hands the array over
with ``GridFunction.adopt``, which freezes it first; it keeps no other
reference to it. A producer that wrote only some bins of a fresh zero
spectrum (the single-box and annulus families) hands over their flat
indices too, as ``bins``; every other producer, and direct construction,
leaves ``bins`` None.

Support. ``GridFunction.support`` floors a spectrum at 1e-13 of its peak
and keeps the bins above the floor, with their coordinates and radii
computed at those bins alone; ``band_leak`` reads a band check off them. A
function with few nonzero bins is then checked and measured without a dense
N^d mask. The floor reads the whole spectrum, or only its ``bins`` when
they are set: every other bin is exactly 0 and cannot pass the floor, so
the Support is the whole spectrum's, array for array and bit for bit. The
floor is taken at most once per function: the Support is built on first
read and kept, and its arrays are read-only, so every reader (the family's
margin check and each norm) shares it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exponents import Exponent

SPACE = "space"
FREQUENCY = "frequency"


class BandLimitError(ValueError):
    """Spectral content violates a band or resolution requirement."""


class NonFiniteError(ValueError):
    """Samples or a sequence to be reduced contain NaN or Inf."""


# Largest grid, in samples N^d, that GridSpec admits: one complex128 array of
# this size takes 256 MiB, and a norm evaluation holds several.
MAX_SAMPLES = 2 ** 24


def separable(ufunc: np.ufunc, axes) -> np.ndarray:
    """The d-fold outer combination ufunc(a_1[i_1], ..., a_d[i_d]) of one
    array per axis, indexed (i_1, ..., i_d); in d = 1, a_1 itself (the same
    object, not a copy)."""
    return functools.reduce(ufunc.outer, axes)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _next_pow2(x) -> int:
    """The least power of two >= x, and 1 for x <= 1; exact on any real x
    that ``math.ceil`` takes."""
    return 1 << (max(math.ceil(x), 1) - 1).bit_length()


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the torus: dimension d, N samples per axis, P = 2*pi*M."""

    d: int
    n: int
    oversampling: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if not _is_power_of_two(self.n) or self.n < 16:
            raise ValueError(f"N must be a power of two >= 16, got {self.n}")
        if not _is_power_of_two(self.oversampling) or self.oversampling < 8:
            raise ValueError(
                f"oversampling M must be a power of two >= 8, got {self.oversampling}"
            )
        if self.n <= self.oversampling:
            raise ValueError("N must exceed the oversampling factor")
        if self.n ** self.d > MAX_SAMPLES:
            # N is a power of two here. Past 64 bits it is named by its exponent:
            # Python refuses to write an int of more than 4300 digits in decimal.
            n = self.n if self.n < 2 ** 64 else f"(2^{self.n.bit_length() - 1})"
            raise ValueError(
                f"a grid of N^d = {n}^{self.d} samples exceeds the budget of "
                f"{MAX_SAMPLES} samples"
            )

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.oversampling

    @property
    def delta(self) -> float:
        """Frequency spacing 2*pi/P = 1/M."""
        return 1.0 / self.oversampling

    @property
    def omega(self) -> Fraction:
        """Maximum resolved frequency N/(2M), exact."""
        return Fraction(self.n, 2 * self.oversampling)

    @property
    def cell_volume(self) -> float:
        """Spatial Riemann cell (P/N)^d."""
        return (self.period / self.n) ** self.d

    @property
    def freq_cell_volume(self) -> float:
        """Frequency Riemann cell delta^d."""
        return self.delta ** self.d

    def freq_axis(self) -> np.ndarray:
        return self.freq_at(np.arange(self.n))

    def freq_at(self, index: np.ndarray) -> np.ndarray:
        """xi at the per-axis sample indices ``index``: ``freq_axis()[index]``
        bit for bit, computed at those indices alone."""
        return (index - self.n // 2) * self.delta

    def freq_radius(self) -> np.ndarray:
        """|xi| at every frequency sample; sqrt(xi^2) is exactly |xi| in d = 1."""
        return np.sqrt(separable(np.add, (self.freq_axis() ** 2,) * self.d))

    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples of a periodic band-limited function, on either side.
    ``values`` is read-only and adopted or copied by the ownership rule of
    the module docstring; ``support`` is built on first read and kept.
    ``bins`` is None, or the read-only ascending flat indices outside which
    a frequency-side spectrum is exactly 0; only ``adopt`` sets it."""

    spec: GridSpec
    values: np.ndarray
    side: str
    bins: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.side not in (SPACE, FREQUENCY):
            raise ValueError(f"side must be 'space' or 'frequency', got {self.side!r}")
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype == np.complex128
                and values.flags.c_contiguous and not values.flags.writeable
                and values.base is None):
            values = np.array(values, dtype=np.complex128, order="C", copy=True)
            values.flags.writeable = False
        if values.shape != self.spec.shape():
            raise ValueError(f"expected shape {self.spec.shape()}, got {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def adopt(cls, spec: GridSpec, values: np.ndarray, side: str,
              bins: np.ndarray | None = None) -> "GridFunction":
        """The GridFunction that takes over ``values``, an array its caller
        built and keeps no other reference to. The array is frozen here; a
        complex128, C-ordered array that owns its data is then kept without a
        copy. ``bins``, the ascending flat indices of the only bins the
        caller wrote into a zero spectrum, is taken over and frozen the same
        way, so the floor reads those bins alone; a space-side function has
        none."""
        if bins is not None and side != FREQUENCY:
            raise ValueError("bins apply to a frequency-side spectrum only")
        values.flags.writeable = False
        f = cls(spec, values, side)
        if bins is not None:
            bins.flags.writeable = False
            object.__setattr__(f, "bins", bins)
        return f

    @functools.cached_property
    def support(self) -> "Support":
        """The bins of the spectrum whose magnitude exceeds _SPECTRUM_FLOOR
        times the peak, floored on first read (``_floor``) and kept, so every
        read returns the same object; a space-side function pays its one
        forward transform then. A NaN or Inf sample raises NonFiniteError on
        every read."""
        return _floor(self)

    def in_space(self) -> "GridFunction":
        return transform(self, SPACE)

    def in_frequency(self) -> "GridFunction":
        return transform(self, FREQUENCY)


# The DFT runs in place (``out=``, numpy >= 2.0) on the one copy ifftshift
# makes; the result is bit for bit fftshift(fftn(ifftshift(values))). On a
# 1-D array fftn and ifftn give the bytes of fft and ifft.
def _fft(values: np.ndarray) -> np.ndarray:
    shifted = np.fft.ifftshift(values)
    np.fft.fftn(shifted, out=shifted)
    return np.fft.fftshift(shifted)


def _ifft(values: np.ndarray) -> np.ndarray:
    shifted = np.fft.ifftshift(values)
    np.fft.ifftn(shifted, out=shifted)
    return np.fft.fftshift(shifted)


def transform(f: GridFunction, side: str) -> GridFunction:
    """Move f to the requested side with the analytic scaling convention."""
    if side not in (SPACE, FREQUENCY):
        raise ValueError(f"side must be 'space' or 'frequency', got {side!r}")
    if f.side == side:
        return f
    spec = f.spec
    if side == FREQUENCY:
        out, scale = _fft(f.values), (spec.period / spec.n) ** spec.d
    else:
        out, scale = _ifft(f.values), (spec.n / spec.period) ** spec.d
    out *= scale
    return GridFunction.adopt(spec, out, side)


def _riemann_lp(samples, cell_volume: float, p) -> float:
    """Riemann-sum L^p quasi-norm of sample magnitudes, which the caller
    takes with np.abs; max for p = inf. At p = 1 the magnitudes are summed
    as they are (x ** 1.0 is x).

    ``samples`` is one array, or the pair (mags, mirror) of a half-row
    synthesis (``norms._half_row_magnitudes``): both parts count. A mirror
    that is the view ``mags[1:-1]`` is not read again: the sum is twice
    mags' less its first and last rows, and the maximum is mags'.

    The magnitudes are >= 0, so a NaN or Inf among them makes the total NaN
    or Inf, and a finite total needs no scan. Only a non-finite one scans
    the samples, raising NonFiniteError on a NaN or Inf; finite samples
    whose sum overflows give inf."""
    mags, mirror = samples if isinstance(samples, tuple) else (samples, None)
    p = Exponent.of(p)
    twice = mirror is not None and np.shares_memory(mags, mirror)
    parts = (mags,) if mirror is None or twice else (mags, mirror)
    if p.is_infinite:
        total = np.max([x.max() for x in parts if x.size], initial=0.0)
    else:
        pf = float(p.value)
        powered = parts if pf == 1.0 else tuple(x ** pf for x in parts)
        total = sum(np.sum(x) for x in powered)
    if not np.isfinite(total) and not all(np.all(np.isfinite(x)) for x in parts):
        raise NonFiniteError("samples contain NaN or Inf")
    if p.is_infinite:
        return float(total)
    if twice:
        total = 2 * total - np.sum(powered[0][0]) - np.sum(powered[0][-1])
    return float((cell_volume * total) ** (1.0 / pf))


def lq_seq_norm(values, q, weights=None) -> float:
    """Weighted sequence quasi-norm (sum (w_k a_k)^q)^(1/q); sup for q = inf."""
    a = np.abs(np.asarray(values, dtype=float))
    if weights is not None:
        a = a * np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("sequence contains NaN or Inf")
    q = Exponent.of(q)
    if a.size == 0:
        return 0.0
    if q.is_infinite:
        return float(a.max())
    qf = float(q.value)
    return float(np.sum(a ** qf) ** (1.0 / qf))


# Spectral magnitudes at or below this fraction of the peak are transform
# roundoff (the toolkit calls a function band-limited when it is < 1e-12 of
# peak outside its band); quasi-norm exponents below 1 would otherwise amplify
# that floor into the leading digits.
_SPECTRUM_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class Support:
    """The bins of a spectrum above the floor: their flat indices into the
    N^d grid (ascending), per-axis sample indices, values and magnitudes,
    and their frequency coordinates xi (one array per axis) and radii |xi|.
    The peak bin is always kept, so ``peak`` is also the floored spectrum's;
    a zero spectrum has no bins and peak 0. Every array is read-only, as
    one Support is shared by every reader of its function. It builds no
    N^d array: the norms read its bins, or a block over their bounding
    box, and only the tests' dense references scatter them onto the grid."""

    spec: GridSpec
    peak: float
    flat: np.ndarray
    index: tuple[np.ndarray, ...]
    values: np.ndarray
    mags: np.ndarray
    coords: tuple[np.ndarray, ...]
    radius: np.ndarray

    def outside_cube(self, radius: float) -> np.ndarray:
        """Which bins have |xi|_inf > radius, read from their coordinates."""
        return functools.reduce(np.logical_or, (np.abs(c) > radius for c in self.coords))


def _floor(f: GridFunction) -> Support:
    """``f.support``, computed. A space-side f takes one forward
    transform. The floor reads f's ``bins`` when it has them, and otherwise
    the whole spectrum; the bins left out are 0, so the result is the same.
    Coordinates come from ``freq_at`` and radii by the operations of
    ``freq_radius``, in its order, so each is the dense array's entry bit
    for bit."""
    spec = f.spec
    values = f.in_frequency().values.reshape(-1)
    if f.bins is not None:
        values = values[f.bins]
    mags = np.abs(values)
    peak = mags.max()
    if not np.isfinite(peak):
        raise NonFiniteError("samples contain NaN or Inf")
    kept = np.flatnonzero(mags > _SPECTRUM_FLOOR * peak)
    flat = kept if f.bins is None else f.bins[kept]
    index = np.unravel_index(flat, spec.shape())
    coords = tuple(spec.freq_at(i) for i in index)
    radius = np.sqrt(functools.reduce(np.add, (c ** 2 for c in coords)))
    values, mags = values[kept], mags[kept]
    for a in (flat, *index, values, mags, *coords, radius):
        a.flags.writeable = False
    return Support(spec, peak, flat, index, values, mags, coords, radius)


def band_leak(support: Support, outside: np.ndarray) -> float:
    """Largest magnitude among the support's bins flagged by the mask
    ``outside``, relative to the peak; 0 for an empty support or mask. The
    toolkit calls a function band-limited to the complement when this is
    <= 1e-12. A bin under the floor (1e-13 of the peak) cannot pass 1e-12,
    so reading the support alone decides exactly as the dense spectrum."""
    if not outside.any():
        return 0.0
    return float(support.mags[outside].max() / support.peak)
