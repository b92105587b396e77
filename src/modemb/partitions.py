"""Smooth frequency partitions of unity and the lattice index sets.

The uniform partition {sigma_k} tiles frequency space by unit cubes: sigma
is built by mollifier normalization, equals 1 on [-1/4, 1/4]^d, vanishes
outside [-3/4, 3/4]^d, and the translates sum to 1 exactly. The dyadic
partition {phi_j} uses a radial profile psi with plateau |xi| <= 5/4 and
support |xi| < 3/2, so each phi_j equals 1 on the annulus
D_j = {3/4 * 2^j <= |xi| <= 5/4 * 2^j}.

Windows, patches, sums, orbit keys and index sets are written once for every
d: a uniform window is sigma_0's tile (the d-fold outer product of the axis
profile) placed at one slice per axis. One operation keeps a body per
dimension, for a stated reason: ``_half_row_magnitudes`` synthesizes a piece
by a pruned length-L FFT in d = 1 and by E P E^T in d = 2, each benchmarked
by its own annulus workload. In d = 1 the N x S matrix E would hold
131072 x 97 complex values on the annulus-1d grid, where the pruned FFT's
table holds the residue rows r = 0..R/2 of R = N/L, 513 x 128 there; the
patch is zero-padded to L bins and the FFTs run in place on the twiddled
rows. The d = 1 routine also synthesizes the dyadic pieces of a support
(``norms._piece_synthesis``), on twiddles built from two small factors
(``_twiddle_factors``). In both, only the first half of the output rows is
synthesized: the mirrored rows -n hold the magnitudes of the rows n of the
conjugate patch's synthesis, which a real patch (every annulus and
single-box patch) already has, and a complex one gets from the same
routine.

Support. The norms hand both partitions the bins of the floored spectrum
(``grid.Support``), never a dense spectrum to rescan. ``reached`` lists the
boxes or levels those bins meet: a bin lies in at most 2^d uniform windows,
found from its sample indices alone, and a level is reached when its radii
meet the bins' radius span. ``DyadicPartition`` holds no per-sample array:
``phi`` evaluates phi_j at the radii it is given, sample by sample, and the
annulus family evaluates it at its own bins. The box loop cuts patches from
a block of the support's bins (``patch`` with an ``origin``), not from an
N^d grid. No window is built on the full grid here, except by the dense
``partition_sum``s the self-test reads.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, Support, separable, _next_pow2


class ResolutionError(ValueError):
    """Grid too coarse to sample a family's profile."""


def smooth_profile(edge0: float, edge1: float):
    """A C-infinity monotone cutoff: exactly 1 for t <= edge0, exactly 0 for
    t >= edge1, with the standard exp(-1/t) mollifier blend in between.
    Symmetric about the midpoint, so profile((edge0+edge1)/2) = 1/2."""
    if not edge0 < edge1:
        raise ValueError(f"need edge0 < edge1, got {edge0}, {edge1}")
    edge0, edge1 = float(edge0), float(edge1)
    width = edge1 - edge0

    def profile(t):
        t = np.asarray(t, dtype=float)
        x = (t - edge0) / width
        out = np.zeros_like(x)
        out[x <= 0.0] = 1.0
        inside = (x > 0.0) & (x < 1.0)
        xi = x[inside]
        with np.errstate(divide="ignore", over="ignore"):
            falling = np.exp(-1.0 / (1.0 - xi))
            rising = np.exp(-1.0 / xi)
        out[inside] = falling / (falling + rising)
        return out if out.ndim else float(out)

    return profile


# Per-axis bump for the uniform window: 1 on |t| <= 1/2, 0 outside |t| < 3/4.
_UNIFORM_BUMP = smooth_profile(0.5, 0.75)
# Radial profile for the dyadic windows: 1 on r <= 5/4, 0 outside r < 3/2.
DYADIC_PROFILE = smooth_profile(1.25, 1.5)


def _uniform_axis_profile(m: int) -> np.ndarray:
    """sigma(o/m) for integer offsets o in [-(3/4)m, (3/4)m]; the mollifier
    bump normalized by its 1-periodization, so translates sum to 1 exactly."""
    w = (3 * m) // 4
    t = np.arange(-w, w + 1) / m
    b = _UNIFORM_BUMP(np.abs(t))
    denom = b + _UNIFORM_BUMP(np.abs(t - 1.0)) + _UNIFORM_BUMP(np.abs(t + 1.0))
    return b / denom


@dataclass(frozen=True, eq=False)
class UniformPartition:
    """Unit-cube partition of unity {sigma_k}, |k|_inf <= kmax. Compared and
    hashed by identity."""

    spec: GridSpec
    kmax: int
    axis_profile: np.ndarray

    @property
    def half_width(self) -> int:
        """Window half-width in samples: (3/4) * M."""
        return (3 * self.spec.oversampling) // 4

    def _axis_slice(self, k: int, start: int) -> slice:
        center = self.spec.n // 2 + k * self.spec.oversampling - start
        return slice(center - self.half_width, center + self.half_width + 1)

    def _slices(self, k: tuple[int, ...], origin=None) -> tuple[slice, ...]:
        """The support of sigma_k: one axis slice per coordinate of k, into
        an array whose first sample sits at the grid's per-axis indices
        ``origin`` (by default the grid's own first sample)."""
        if origin is None:
            origin = (0,) * len(k)
        return tuple(self._axis_slice(c, start) for c, start in zip(k, origin))

    @cached_property
    def _tile(self) -> np.ndarray:
        """sigma_0 on its support, the d-fold outer product of the axis
        profile. Built on first use, then kept."""
        return separable(np.multiply, (self.axis_profile,) * self.spec.d)

    def lattice(self) -> np.ndarray:
        """All lattice points of the cube |k|_inf <= kmax, lexicographic, as a
        read-only integer array of shape ((2 kmax + 1)^d, d). Built on first
        use, then kept."""
        return self._lattice

    @cached_property
    def _lattice(self) -> np.ndarray:
        axis = np.arange(-self.kmax, self.kmax + 1)
        grids = np.meshgrid(*(axis,) * self.spec.d, indexing="ij")
        points = np.stack(grids, axis=-1).reshape(-1, self.spec.d)
        points.flags.writeable = False
        return points

    def patch(self, spectrum: np.ndarray, k, origin=None) -> tuple[tuple[slice, ...], np.ndarray]:
        """(slices, sigma_k * spectrum restricted to the window support).
        ``spectrum`` is the N^d spectrum, or a block of it that holds the
        window and whose first sample sits at the grid's per-axis indices
        ``origin``; the slices index ``spectrum``."""
        k = _as_lattice_point(k, self.spec.d)
        self._check_index(k)
        sl = self._slices(k, origin)
        return sl, spectrum[sl] * self._tile

    def reached(self, support: Support) -> list[int]:
        """Positions in ``lattice()`` of the points whose window holds a bin of
        ``support``, ascending; the patch of the floored spectrum is
        identically zero at every other point. A bin o samples from the
        centre of an axis lies in the windows of ceil((o - w)/M) ..
        floor((o + w)/M) on that axis, one or two points as w = (3/4)M < M,
        so each bin reaches at most 2^d boxes, each a choice of the lower or
        upper point per axis."""
        spec, w, m = self.spec, self.half_width, self.spec.oversampling
        side = 2 * self.kmax + 1
        offsets = [i - spec.n // 2 for i in support.index]
        ends = [(-((w - o) // m), (o + w) // m) for o in offsets]
        hit = np.zeros(side ** spec.d, dtype=bool)
        for choice in itertools.product((0, 1), repeat=spec.d):
            position, inside = 0, True
            for axis_ends, pick in zip(ends, choice):
                k = axis_ends[pick]
                position = position * side + (k + self.kmax)
                inside = inside & (np.abs(k) <= self.kmax)
            hit[position[inside]] = True
        return np.flatnonzero(hit).tolist()

    @cached_property
    def _synthesis_table(self):
        """exp(2 pi i (j n mod N) / N) / P per axis, for the rows n the pruned
        synthesis needs and the patch offsets j it reads: in d = 1 the
        residues r = 0..R/2 of R = N/L, and j < L (the patch is zero-padded
        from S to L bins), as the one twiddle factor of
        ``_half_row_magnitudes``, of shape (R/2 + 1, 1, L); in d = 2 the
        matrix E of all N outputs, the right factor's, of which the left
        factor reads rows 0..N/2, and j < S. Built on first use, then kept."""
        spec = self.spec
        width = 2 * self.half_width + 1
        if spec.d == 1:
            width = _next_pow2(width)
            rows = spec.n // width // 2 + 1
        else:
            rows = spec.n
        phase = (np.arange(rows)[:, None] * np.arange(width)[None, :]) % spec.n
        table = np.exp(2j * np.pi * phase / spec.n) / spec.period
        return (table[:, None, :],) if spec.d == 1 else table

    def piece_magnitudes(self, patch: np.ndarray, work=None) -> np.ndarray:
        """The N^d magnitudes of the space-side piece whose windowed spectrum
        is ``patch``, as a multiset, not in grid order: those of the N^d
        inverse transform of sigma_k * spectrum. Only the patch's S = 2 * half_width + 1 bins per axis are
        touched: in d = 1 the patch is zero-padded to L bins and twiddled
        into one array of residue rows, whose length-L FFTs run in place; in
        d = 2, E P E^T (``norms.box_piece_norms`` states both). Half the rows
        are synthesized (``_half_row_magnitudes``). ``work``, a pair from
        ``work_arrays``, is written over and its magnitudes returned; without
        it both arrays are fresh."""
        return _half_row_magnitudes(patch, self._synthesis_table, work=work)

    def work_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh work arrays for ``piece_magnitudes``: the complex half rows
        and the N^d magnitudes of one synthesis."""
        return _work_arrays(self._synthesis_table, self.spec.d)

    @staticmethod
    def orbit_key(patch: np.ndarray) -> bytes:
        """The smallest byte string, signed zeros made +0.0, among the images
        of ``patch``: its reversal along each subset of the axes, conjugated
        when the subset has odd size, composed with each permutation of the
        axes. That is x and conj(x[::-1]) in d = 1, and 8 images in d = 2.
        With w = exp(2 pi i / N), sum_j conj(x_{S-1-j}) w^(jn) equals
        w^((S-1)n) conj(sum_j x_j w^(jn)), and E P^T E^T = (E P E^T)^T, so
        every image only permutes the piece's sample magnitudes (in d = 2,
        conjugating the inner sum sends the outer index m to -m). The L^p
        norm is the same on the orbit in exact arithmetic; only rounding
        differs. x + 0.0 and conj(x) + 0.0 are formed once, and every image
        is a reversed or transposed view of one of them."""
        d = patch.ndim
        plain, conjugate = patch + 0.0, np.conj(patch) + 0.0
        images = []
        for flips in itertools.product((False, True), repeat=d):
            x = (conjugate if sum(flips) % 2 else plain)[
                tuple(slice(None, None, -1 if f else 1) for f in flips)]
            images.extend(x.transpose(axes) for axes in itertools.permutations(range(d)))
        return min(x.tobytes() for x in images)

    def _check_index(self, k) -> None:
        if max(abs(c) for c in k) > self.kmax:
            raise IndexError(f"|k|_inf = {max(abs(c) for c in k)} exceeds kmax = {self.kmax}")

    def partition_sum(self) -> np.ndarray:
        """Dense sum of all windows, for residual checks."""
        out = np.zeros(self.spec.shape())
        for k in self.lattice():
            out[self._slices(k)] += self._tile
        return out


def max_uniform_kmax(spec: GridSpec) -> int:
    """Largest kmax whose windows fit inside the resolved band with margin."""
    return (spec.n // 2 - 1 - (3 * spec.oversampling) // 4) // spec.oversampling


def build_uniform(spec: GridSpec, kmax: int | None = None) -> UniformPartition:
    if kmax is None:
        kmax = max_uniform_kmax(spec)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if kmax > max_uniform_kmax(spec):
        raise ValueError(
            f"kmax = {kmax} windows leave the resolved band (max {max_uniform_kmax(spec)})"
        )
    return UniformPartition(spec, kmax, _uniform_axis_profile(spec.oversampling))


def _twiddle_factors(n: int, width: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The d = 1 twiddle rows exp(2 pi i j r / n) * scale, for the residues
    r = 0..R/2 of R = n/width and the offsets j < width (both powers of
    two), as two factors for ``_half_row_magnitudes``: with J the least power
    of two >= sqrt(width) and j = j1 + J j2, exp(2 pi i j1 r / n) * scale of
    shape (R/2 + 1, 1, J) and exp(2 pi i J j2 r / n) of shape
    (R/2 + 1, width/J, 1). Only (R/2 + 1)(J + width/J) exponentials are
    taken; their product is within about 6e-16 of each root taken alone."""
    low = 1 << (width.bit_length() // 2)
    r = np.arange(n // width // 2 + 1)[:, None]

    def roots(step, count):
        return np.exp(2j * np.pi * ((r * (step * np.arange(count))) % n) / n)

    return (roots(1, low) * scale)[:, None, :], roots(low, width // low)[:, :, None]


def _half_synthesis(patch: np.ndarray, table, out: np.ndarray, at=None) -> None:
    """Writes into ``out`` the first half of the rows of the piece whose
    spectrum is ``patch``, complex. In d = 1, the residues r = 0..R/2 of the
    pruned length-L FFT, an (R/2 + 1, L) array: the patch is written into
    row 0, zero-padded to L bins (at the offsets ``at``, by default its
    first bins), copied twiddled into the other rows, twiddled in place in
    row 0, and the rows are transformed in place. ``table`` is a sequence
    of twiddle factors, the first of shape (R/2 + 1, 1, J), whose product
    on the rows viewed as (R/2 + 1, K, J), K J = L, is the twiddle of
    offset j = j1 + J j2 on row r (``_twiddle_factors``, or a box's one
    factor with K = 1). The first factor multiplies the patch and the rest
    multiply in place, so a box's rows are the products of its one table
    and the patch, bit for bit as with the table alone. In d = 2, the
    rows n_1 = 0..N/2 of E P E^T, an (N/2 + 1, N) array, where ``table``
    is E."""
    if patch.ndim == 1:
        out[0] = 0
        out[0, slice(patch.size) if at is None else at] = patch
        first, *rest = table
        view = out.reshape(len(out), -1, first.shape[-1])
        np.multiply(first[1:], view[0], out=view[1:])
        np.multiply(first[0], view[0], out=view[0])
        for factor in rest:
            view *= factor
        np.fft.ifft(out, axis=-1, norm="forward", out=out)
    else:
        np.matmul(table[:len(out)] @ patch, table.T, out=out)


def _work_arrays(table, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (half, out) for ``_half_row_magnitudes`` on ``table``: the
    complex rows r = 0..R/2 (d = 1) or n_1 = 0..N/2 (d = 2), and the N^d
    magnitudes, shaped as that function returns them."""
    if d == 1:
        # the factors span complementary axes of the (K, J) view of a row
        rows, width = len(table[0]), math.prod(f[0].size for f in table)
        total = max(2 * rows - 2, 1)
    else:
        total = width = len(table)
        rows = width // 2 + 1
    return np.empty((rows, width), dtype=np.complex128), np.empty((total, width))


def _half_row_magnitudes(patch: np.ndarray, table, at=None, work=None) -> np.ndarray:
    """The N^d magnitudes of the space-side samples whose spectrum is
    ``patch``, as a multiset, scaled by the table: in d = 1 an (R, L) array
    of residue rows, where ``table`` holds the twiddle factors of the rows
    r = 0..R/2 and the patch puts its values at the offsets ``at`` < L (by
    default its first bins); in d = 2 an (N, N) array from the N x S matrix
    E (``_half_synthesis`` states both).

    Half the rows are synthesized. With g_x(n) = sum_j x_j w^(jn),
    w = exp(2 pi i / N), g_x(-n) = conj(g_conj(x)(n)), so the rows -n hold
    the magnitudes of the rows n of conj(x)'s synthesis. Rows 0 and R/2 in
    d = 1 (n_1 = 0 and N/2 in d = 2) are their own mirrors and are counted
    once; the rows 1..R/2 - 1 of conj(x) fill in the rest. For a real
    patch, conj(x) = x, so those rows are copied from the first half; a
    complex patch synthesizes conj(x) on the same rows, if R > 2: with R = 1
    or 2 no row is mirrored. Each row of the result holds the same samples
    for every patch of one table, so two results pair sample by sample.

    The synthesis writes into the complex rows ``half`` of ``work``, and
    the magnitudes into its ``out``, which is returned: with
    ``_half_synthesis`` returning fresh products instead, ``annulus-2d``
    ran 25 % slower (six alternating benchmark pairs). Without ``work``
    both are allocated here (``_work_arrays``); a caller that synthesizes
    many patches of one table passes one pair to every call, and each call
    overwrites the result of the one before."""
    half, out = _work_arrays(table, patch.ndim) if work is None else work
    rows = len(half)
    _half_synthesis(patch, table, half, at)
    np.abs(half, out=out[:rows])
    if rows > 2 and patch.imag.any():
        _half_synthesis(np.conj(patch), table, half, at)
        np.abs(half[1:rows - 1], out=out[rows:])
    else:
        out[rows:] = out[1:rows - 1]
    return out


@dataclass(frozen=True, eq=False)
class DyadicPartition:
    """Dyadic partition of unity {phi_j}, j = 0..levels. Compared and hashed
    by identity. It holds no per-sample array: ``phi`` evaluates a level at
    the radii it is given."""

    spec: GridSpec
    levels: int

    def phi(self, j: int, radius: np.ndarray) -> np.ndarray:
        """phi_j at the radii ``radius``: DYADIC_PROFILE(r) for j = 0 and
        DYADIC_PROFILE(r / 2^j) - DYADIC_PROFILE(r / 2^(j-1)) for j >= 1.
        Every operation acts sample by sample, so the value at a radius is the
        same bits whatever array holds it."""
        if not 0 <= _integer_level(j) <= self.levels:
            raise IndexError(f"dyadic level {j} outside 0..{self.levels}")
        if j == 0:
            return DYADIC_PROFILE(radius)
        return DYADIC_PROFILE(radius / 2 ** j) - DYADIC_PROFILE(radius / 2 ** (j - 1))

    def support(self, j: int) -> tuple[float, float]:
        """Radii (lo, hi) such that phi_j is exactly 0 unless
        lo <= |xi| < hi: (0, 3/2) for j = 0, (5/8, 3/2) * 2^j for j >= 1.
        DYADIC_PROFILE is exactly 1 at t <= 5/4 and exactly 0 at t >= 3/2, and
        dividing the radius by 2^j is exact, so below 5/8 * 2^j both terms of
        phi_j are 1 and cancel, and from 3/2 * 2^j on both are 0."""
        if not 0 <= _integer_level(j) <= self.levels:
            raise IndexError(f"dyadic level {j} outside 0..{self.levels}")
        return (0.625 * 2 ** j if j else 0.0, 1.5 * 2 ** j)

    def reached(self, support: Support) -> list[int]:
        """Levels whose support meets the radius span of the bins of
        ``support``; phi_j times the floored spectrum is identically zero at
        every other level."""
        if support.radius.size == 0:
            return []
        near, far = support.radius.min(), support.radius.max()
        levels = []
        for j in range(self.levels + 1):
            lo, hi = self.support(j)
            if lo <= far and near < hi:
                levels.append(j)
        return levels

    def partition_sum(self) -> np.ndarray:
        radius = self.spec.freq_radius()
        out = np.zeros(self.spec.shape())
        for j in range(self.levels + 1):
            out += self.phi(j, radius)
        return out


def max_dyadic_level(spec: GridSpec) -> int:
    """Largest J with (3/2) * 2^J <= Omega."""
    j = 0
    while 3 * 2 ** (j + 1) * spec.oversampling <= spec.n:
        j += 1
    return j


def build_dyadic(spec: GridSpec, levels: int | None = None) -> DyadicPartition:
    if levels is None:
        levels = max_dyadic_level(spec)
    if _integer_level(levels) < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if 3 * 2 ** levels * spec.oversampling > spec.n:
        raise ValueError(
            f"dyadic level {levels} exceeds the resolved band "
            f"(max {max_dyadic_level(spec)} for this grid)"
        )
    return DyadicPartition(spec, levels)


def _as_lattice_point(k, d: int) -> tuple[int, ...]:
    """``k`` as a tuple of ints (a bare integer is a point in d = 1); a
    coordinate that is not an integer is refused by ``_integer_level``'s rule."""
    if np.ndim(k) == 0:
        k = (k,)
    k = tuple(_integer_level(c, what="lattice coordinate") for c in k)
    if len(k) != d:
        raise ValueError(f"lattice point {k} does not match dimension {d}")
    return k


@dataclass(frozen=True)
class LatticeIndexSet:
    """Lattice points whose unit windows sit inside / touch a dyadic annulus."""

    kind: str
    parameter: object
    d: int
    members: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, k) -> bool:
        return _as_lattice_point(k, self.d) in set(self.members)


def _integer_level(level, least: int | None = None, what: str = "level") -> int:
    """``level`` as an int, or a ValueError naming it ``what`` if it is not an
    integer (a float such as 2.5 or 3.0, a string or None) or is below
    ``least``."""
    if not isinstance(level, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {level!r}")
    if least is not None and level < least:
        raise ValueError(f"{what} must be >= {least}, got {level}")
    return int(level)


def _annulus_membership(level: int, d: int, inside: bool):
    """Yields each k whose box passes the exact integer test below, in lexicographic order.

    Box k + [-3/4, 3/4]^d against D_level = {3/4 * 2^l <= |xi| <= 5/4 * 2^l}:
    the nearest / farthest points of the box from the origin are componentwise
    max(|k_i| - 3/4, 0) and |k_i| + 3/4.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    level = _integer_level(level, least=0)
    r_in_sq = (3 * 2 ** level) ** 2
    r_out_sq = (5 * 2 ** level) ** 2
    bound = (5 * 2 ** level + 3) // 4
    for k in itertools.product(range(-bound, bound + 1), repeat=d):
        far_sq = sum((4 * abs(c) + 3) ** 2 for c in k)
        near_sq = sum(max(4 * abs(c) - 3, 0) ** 2 for c in k)
        if inside:
            ok = far_sq <= r_out_sq and near_sq >= r_in_sq
        else:
            ok = near_sq <= r_out_sq and far_sq >= r_in_sq
        if ok:
            yield k


def lattice_weights(points, s) -> np.ndarray:
    """<k>^s = (1 + |k|)^s, |k| Euclidean, for each lattice point k of a
    non-empty sequence. Exactly 1 at s = 0; elsewhere NumPy's array power
    may differ from a scalar pow by an ulp."""
    k = np.asarray(points, dtype=float)
    return (1.0 + np.sqrt(np.sum(k * k, axis=1))) ** float(s)


def index_set(kind: str, parameter, d: int = 1) -> LatticeIndexSet:
    """A_l (windows inside D_l) or B_l (windows touching D_l), where
    ``parameter`` is the integer level l. Members in lexicographic order."""
    if kind not in ("A", "B"):
        raise ValueError(f"unknown index-set kind {kind!r}")
    level = _integer_level(parameter)
    members = list(_annulus_membership(level, d, inside=(kind == "A")))
    if kind == "A" and not members:
        warnings.warn(f"A_{level} is empty in dimension {d}", stacklevel=2)
    return LatticeIndexSet(kind, parameter, d, tuple(members))


def selftest_report(spec: GridSpec | None = None, n_random: int = 20,
                    seed: int = 7) -> dict:
    """Residual maxima for both partitions plus reconstruction errors on
    random band-limited functions. All values should sit at rounding level."""
    from .families import random_band_limited  # deferred: families imports us

    if spec is None:
        spec = GridSpec(d=1, n=2 ** 14, oversampling=8)
    uniform = build_uniform(spec)
    dyadic = build_dyadic(spec)

    usum = uniform.partition_sum()
    ax = spec.freq_axis()
    in_band = np.abs(ax) <= uniform.kmax - 1
    uniform_residual = float(np.abs(usum[np.ix_(*(in_band,) * spec.d)] - 1.0).max())

    dsum = dyadic.partition_sum()
    radius = spec.freq_radius()
    dmask = radius <= 1.25 * 2 ** dyadic.levels
    dyadic_residual = float(np.abs(dsum[dmask] - 1.0).max())

    rng = np.random.default_rng(seed)
    box_recon = 0.0
    dyadic_recon = 0.0
    band = min(uniform.kmax - 1, int(1.25 * 2 ** dyadic.levels / np.sqrt(spec.d)))
    for _ in range(n_random):
        f = random_band_limited(spec, band_radius=band, rng=rng)
        spectrum = f.in_frequency().values
        norm = np.linalg.norm(spectrum)
        box_err = np.linalg.norm((usum - 1.0) * spectrum) / norm
        dyad_err = np.linalg.norm((dsum - 1.0) * spectrum) / norm
        box_recon = max(box_recon, float(box_err))
        dyadic_recon = max(dyadic_recon, float(dyad_err))

    return {
        "grid": {"d": spec.d, "n": spec.n, "oversampling": spec.oversampling},
        "kmax": uniform.kmax,
        "dyadic_levels": dyadic.levels,
        "uniform_partition_residual": uniform_residual,
        "dyadic_partition_residual": dyadic_residual,
        "box_reconstruction_rel_l2": box_recon,
        "dyadic_reconstruction_rel_l2": dyadic_recon,
        "passed": bool(
            uniform_residual < 1e-12 and dyadic_residual < 1e-12
            and box_recon < 1e-10 and dyadic_recon < 1e-10
        ),
    }
