"""Full-grid references for the tests: the dense operators that define
the uniform and dyadic pieces, and extended-precision syntheses.

The package computes every norm from a function's floored Support, never
from a dense N^d array. The references here build the dense objects the
norms are checked against: a window or mask over the whole grid, a piece by
one full inverse transform, and the Riemann L^p norm of the space samples.
The golden digests of ``test_separable_golden`` pin the windows and the
cube mask bit for bit.

``scatter`` places values at a Support's bins on the zero N^d grid; the
package never does, as it synthesizes a piece from its bins or from a block
over their bounding box; ``synthesized_magnitudes`` inverse-transforms
what it scatters, the reference for ``norms._block_magnitudes``.
``box_table`` is the box synthesis table taken root by root with one
``np.exp`` each, the reference for the factorized roots ``norms._box_table``
builds. ``half_row_magnitudes`` is the half-row synthesis with its mirrored
rows copied into one N^d multiset, the reference for the two parts
``norms._half_row_magnitudes`` returns.

The extended-precision helpers synthesize a spectrum with ``np.fft`` on
``clongdouble`` and sum in ``longdouble``: the reference for norms at
p < 1, whose float64 values hold only about 1e-7 relative.
"""
from fractions import Fraction

import numpy as np

from modemb.grid import FREQUENCY, SPACE, GridFunction, GridSpec, Support, separable, \
    transform, _next_pow2, _riemann_lp
from modemb.norms import _half_synthesis, _work_arrays
from modemb.partitions import DyadicPartition, UniformPartition, _as_lattice_point


def space_axis(spec: GridSpec) -> np.ndarray:
    """x at every space sample of one axis, from -P/2."""
    return (np.arange(spec.n) - spec.n // 2) * (spec.period / spec.n)


def freq_outside_cube(spec: GridSpec, radius: float) -> np.ndarray:
    """Mask of the frequency samples with |xi|_inf > radius."""
    return separable(np.logical_or, (np.abs(spec.freq_axis()) > radius,) * spec.d)


def scatter(support: Support, values: np.ndarray) -> np.ndarray:
    """A fresh zero N^d complex array holding ``values`` at the support's
    bins; ``scatter(support, support.values)`` is the floored spectrum."""
    out = np.zeros(support.spec.shape(), dtype=np.complex128)
    out.reshape(-1)[support.flat] = values
    return out


def synthesized_magnitudes(support: Support, values: np.ndarray) -> np.ndarray:
    """|ifftn| of ``values`` scattered onto the grid (``scatter``): the
    magnitudes of the space samples divided by (N/P)^d, in transform order,
    by one full-grid inverse FFT."""
    return np.abs(np.fft.ifftn(scatter(support, values)))


def uniform_window(partition: UniformPartition, k) -> np.ndarray:
    """Dense multiplier array for sigma_k."""
    out = np.zeros(partition.spec.shape())
    out[partition._slices(partition._lattice_point(k))] = partition._tile
    return out


def dyadic_window(partition: DyadicPartition, j: int) -> np.ndarray:
    """Dense multiplier array for phi_j, built on each call."""
    return partition.phi(j, partition.spec.freq_radius())


def apply_multiplier(f: GridFunction, multiplier: np.ndarray) -> GridFunction:
    """Apply a frequency-side multiplier: returns the space-side inverse
    transform of multiplier * spectrum. Linear in f."""
    multiplier = np.asarray(multiplier)
    if multiplier.shape != f.spec.shape():
        raise ValueError(
            f"multiplier shape {multiplier.shape} does not match grid {f.spec.shape()}"
        )
    spectrum = f.in_frequency().values
    return transform(GridFunction.adopt(f.spec, multiplier * spectrum, FREQUENCY), SPACE)


def lp_norm(f: GridFunction, p) -> float:
    """Riemann-sum L^p quasi-norm of f's space samples; max for p = inf. A
    frequency-side f is transformed to space first."""
    return _riemann_lp(np.abs(f.in_space().values), f.spec.cell_volume, p)


def box_apply(f: GridFunction, k, partition: UniformPartition) -> GridFunction:
    """The uniform-decomposition operator: inverse transform of sigma_k * spectrum."""
    k = _as_lattice_point(k, f.spec.d)
    spectrum = f.in_frequency().values
    slices, patch = partition.patch(spectrum, k)
    out = np.zeros(f.spec.shape(), dtype=np.complex128)
    out[slices] = patch
    return transform(GridFunction.adopt(f.spec, out, FREQUENCY), SPACE)


def delta_apply(f: GridFunction, j: int, partition: DyadicPartition) -> GridFunction:
    """The dyadic-decomposition operator: inverse transform of phi_j * spectrum."""
    return apply_multiplier(f, dyadic_window(partition, j))


def box_table(partition: UniformPartition) -> np.ndarray:
    """exp(2 pi i (j n mod N) / N) / P, one ``np.exp`` per root, for the rows n
    and patch offsets j of ``norms._box_table``: in d = 1 the residues
    r = 0..R/2 of R = N/L and j < L, an (R/2 + 1, L) array; in d = 2 the
    N x S matrix E."""
    spec = partition.spec
    width = 2 * partition.half_width + 1
    if spec.d == 1:
        width = _next_pow2(width)
        rows = spec.n // width // 2 + 1
    else:
        rows = spec.n
    phase = (np.arange(rows)[:, None] * np.arange(width)[None, :]) % spec.n
    return np.exp(2j * np.pi * phase / spec.n) / spec.period


def extended_magnitudes(spec: GridSpec, spectrum: np.ndarray) -> np.ndarray:
    """|space samples| of the N^d ``spectrum``, in ``longdouble``: np.fft on
    ``clongdouble``, scaled by (N/P)^d. The grid's centering shifts are left
    out; they only permute and rephase the samples."""
    samples = np.abs(np.fft.ifftn(np.asarray(spectrum, dtype=np.clongdouble)))
    samples *= (np.longdouble(spec.n) / np.longdouble(spec.period)) ** spec.d
    assert samples.dtype == np.longdouble
    return samples


def extended_lp(mags: np.ndarray, spec: GridSpec, p) -> np.longdouble:
    """Riemann-sum L^p quasi-norm of the ``longdouble`` magnitudes ``mags``
    on the space grid of ``spec``, summed in ``longdouble``; finite p only."""
    pf = np.longdouble(float(Fraction(p)))
    return (np.longdouble(spec.cell_volume) * np.sum(mags ** pf)) ** (1 / pf)


def half_row_magnitudes(patch: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The N^d magnitudes of the piece whose spectrum is ``patch``, as one
    array: the first half of the rows synthesized as
    ``norms._half_row_magnitudes`` does, then the mirrored rows, copied from
    rows 1..R/2 - 1 for a real patch and synthesized from conj(x) for a
    complex one (R > 2)."""
    half, out = _work_arrays(table, patch.ndim)
    rows = len(half)
    _half_synthesis(patch, table, half)
    np.abs(half, out=out[:rows])
    if rows > 2 and patch.imag.any():
        _half_synthesis(np.conj(patch), table, half)
        np.abs(half[1:rows - 1], out=out[rows:])
    else:
        out[rows:] = out[1:rows - 1]
    return out
