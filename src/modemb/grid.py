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
``partitions`` implements and in which every numerical path is tested.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
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
            raise ValueError(
                f"a grid of N^d = {self.n}^{self.d} samples exceeds the budget of "
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

    def space_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * (self.period / self.n)

    def freq_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.delta

    def freq_radius(self) -> np.ndarray:
        """|xi| at every frequency sample; sqrt(xi^2) is exactly |xi| in d = 1."""
        return np.sqrt(separable(np.add, (self.freq_axis() ** 2,) * self.d))

    def freq_outside_cube(self, radius: float) -> np.ndarray:
        """Mask of the frequency samples with |xi|_inf > radius."""
        return separable(np.logical_or, (np.abs(self.freq_axis()) > radius,) * self.d)

    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples of a periodic band-limited function, on either side."""

    spec: GridSpec
    values: np.ndarray
    side: str

    def __post_init__(self):
        if self.side not in (SPACE, FREQUENCY):
            raise ValueError(f"side must be 'space' or 'frequency', got {self.side!r}")
        values = np.array(self.values, dtype=np.complex128, order="C", copy=True)
        if values.shape != self.spec.shape():
            raise ValueError(f"expected shape {self.spec.shape()}, got {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
    return GridFunction(spec, out, side)


def apply_multiplier(f: GridFunction, multiplier: np.ndarray) -> GridFunction:
    """Apply a frequency-side multiplier: returns the space-side inverse
    transform of multiplier * spectrum. Linear in f."""
    multiplier = np.asarray(multiplier)
    if multiplier.shape != f.spec.shape():
        raise ValueError(
            f"multiplier shape {multiplier.shape} does not match grid {f.spec.shape()}"
        )
    spectrum = f.in_frequency().values
    return transform(GridFunction(f.spec, multiplier * spectrum, FREQUENCY), SPACE)


def _riemann_lp(mags: np.ndarray, cell_volume: float, p) -> float:
    """Riemann-sum L^p quasi-norm of the sample magnitudes ``mags``, which
    the caller takes with np.abs; max for p = inf."""
    p = Exponent.of(p)
    if not np.all(np.isfinite(mags)):
        raise NonFiniteError("samples contain NaN or Inf")
    if p.is_infinite:
        return float(mags.max()) if mags.size else 0.0
    pf = float(p.value)
    return float((cell_volume * np.sum(mags ** pf)) ** (1.0 / pf))


def lp_norm(f: GridFunction, p) -> float:
    """Riemann-sum L^p quasi-norm of f's space samples; max for p = inf. A
    frequency-side f is transformed to space first."""
    return _riemann_lp(np.abs(f.in_space().values), f.spec.cell_volume, p)


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


def band_leak(spectrum: np.ndarray, outside: np.ndarray) -> float:
    """Largest |spectrum| on the mask ``outside``, relative to the peak
    |spectrum|; 0 for a zero spectrum or an empty mask. The toolkit calls a
    function band-limited to the complement when this is <= 1e-12."""
    peak = np.abs(spectrum).max()
    if peak == 0.0 or not outside.any():
        return 0.0
    return float(np.abs(spectrum[outside]).max() / peak)
