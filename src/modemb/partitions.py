"""Smooth frequency partitions of unity and the lattice index sets.

The uniform partition {sigma_k} tiles frequency space by unit cubes: sigma
is built by mollifier normalization, equals 1 on [-1/4, 1/4]^d, vanishes
outside [-3/4, 3/4]^d, and the translates sum to 1 exactly. The dyadic
partition {phi_j} uses a radial profile psi with plateau |xi| <= 5/4 and
support |xi| < 3/2, so each phi_j equals 1 on the annulus
D_j = {3/4 * 2^j <= |xi| <= 5/4 * 2^j}.

Windows, patches, sums, orbit keys and index sets are written once for every
d: a uniform window is sigma_0's tile (the d-fold outer product of the axis
profile) placed at one slice per axis. Two operations keep a body per
dimension, each for a stated reason. ``UniformPartition.reached`` lists
exactly the boxes whose window holds a nonzero bin. A per-axis test would
also list a box whose row and column each hold one elsewhere, so in d = 2
it scans one row band of the lattice at a time. ``piece_magnitudes`` (with
``_synthesis_table``) runs two algorithms, each benchmarked by its own
annulus workload: a pruned length-L FFT in d = 1 and E P E^T in d = 2. In
d = 1 the N x S matrix E would hold 131072 x 97 complex values on the
annulus-1d grid, where the pruned FFT's table holds (N/L) x S = 1024 x 97.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import FREQUENCY, GridFunction, GridSpec, apply_multiplier, separable, transform


class ResolutionError(ValueError):
    """Grid too coarse to sample a window profile."""


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

    def _axis_slice(self, k: int) -> slice:
        center = self.spec.n // 2 + k * self.spec.oversampling
        return slice(center - self.half_width, center + self.half_width + 1)

    def _slices(self, k: tuple[int, ...]) -> tuple[slice, ...]:
        """The support of sigma_k: one axis slice per coordinate of k."""
        return tuple(self._axis_slice(c) for c in k)

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
        axis = range(-self.kmax, self.kmax + 1)
        points = np.array(list(itertools.product(axis, repeat=self.spec.d)))
        points.flags.writeable = False
        return points

    def window(self, k) -> np.ndarray:
        """Dense multiplier array for sigma_k."""
        k = _as_lattice_point(k, self.spec.d)
        self._check_index(k)
        out = np.zeros(self.spec.shape())
        out[self._slices(k)] = self._tile
        return out

    def patch(self, spectrum: np.ndarray, k) -> tuple[tuple[slice, ...], np.ndarray]:
        """(slices, sigma_k * spectrum restricted to the window support)."""
        k = _as_lattice_point(k, self.spec.d)
        self._check_index(k)
        sl = self._slices(k)
        return sl, spectrum[sl] * self._tile

    def _axis_hits(self, nonzero: np.ndarray) -> np.ndarray:
        """For k = -kmax..kmax, whether the axis window [c_k - w, c_k + w]
        holds one of the sorted sample indices ``nonzero``."""
        centers = self.spec.n // 2 + self.spec.oversampling * np.arange(
            -self.kmax, self.kmax + 1)
        return (np.searchsorted(nonzero, centers + self.half_width, side="right")
                > np.searchsorted(nonzero, centers - self.half_width, side="left"))

    def reached(self, spectrum: np.ndarray) -> list[int]:
        """Positions in ``lattice()`` of the points whose window holds a
        nonzero sample of ``spectrum``; ``patch(spectrum, k)`` is identically
        zero at every other point. In d = 2 the boxes are scanned one row of
        the lattice at a time."""
        if self.spec.d == 1:
            return np.flatnonzero(self._axis_hits(np.flatnonzero(spectrum))).tolist()
        side = 2 * self.kmax + 1
        found = []
        for row in np.flatnonzero(self._axis_hits(np.flatnonzero(spectrum.any(axis=1)))):
            band = spectrum[self._axis_slice(int(row) - self.kmax)]
            cols = np.flatnonzero(self._axis_hits(np.flatnonzero(band.any(axis=0))))
            found.extend((int(row) * side + cols).tolist())
        return found

    @cached_property
    def _synthesis_table(self) -> np.ndarray:
        """exp(2 pi i (j n mod N) / N) / P for patch offsets j < S and, per axis,
        the rows n the pruned synthesis needs: the N/L residues r in d = 1,
        all N outputs in d = 2. Built on first use, then kept."""
        spec = self.spec
        width = 2 * self.half_width + 1
        rows = spec.n // _pruned_length(width) if spec.d == 1 else spec.n
        phase = (np.arange(rows)[:, None] * np.arange(width)[None, :]) % spec.n
        return np.exp(2j * np.pi * phase / spec.n) / spec.period

    def piece_magnitudes(self, patch: np.ndarray) -> np.ndarray:
        """The N^d magnitudes of the space-side piece whose windowed spectrum
        is ``patch``: the |box_apply| samples, in the transform's order rather
        than grid order. Only the patch's S = 2 * half_width + 1 bins per axis
        are touched: one length-L FFT over an (N/L, L) array of twiddled bins
        in d = 1, E P E^T in d = 2 (``norms.box_piece_norms`` states the
        factorization)."""
        table = self._synthesis_table
        if self.spec.d == 1:
            return np.abs(np.fft.ifft(table * patch, n=_pruned_length(patch.size),
                                      axis=-1, norm="forward"))
        return np.abs((table @ patch) @ table.T)

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
        differs."""
        d = patch.ndim
        images = []
        for flips in itertools.product((False, True), repeat=d):
            x = patch[tuple(slice(None, None, -1 if f else 1) for f in flips)]
            if sum(flips) % 2:
                x = np.conj(x)
            images.extend(x.transpose(axes) for axes in itertools.permutations(range(d)))
        return min((x + 0.0).tobytes() for x in images)

    def _check_index(self, k) -> None:
        if max(abs(c) for c in k) > self.kmax:
            raise IndexError(f"|k|_inf = {max(abs(c) for c in k)} exceeds kmax = {self.kmax}")

    def partition_sum(self) -> np.ndarray:
        """Dense sum of all windows, for residual checks."""
        out = np.zeros(self.spec.shape())
        for k in self.lattice():
            out[self._slices(k)] += self._tile
        return out


def _pruned_length(width: int) -> int:
    """Next power of two >= width: the inner FFT length of the pruned synthesis."""
    return 1 << (width - 1).bit_length()


def max_uniform_kmax(spec: GridSpec) -> int:
    """Largest kmax whose windows fit inside the resolved band with margin."""
    return (spec.n // 2 - 1 - (3 * spec.oversampling) // 4) // spec.oversampling


def build_uniform(spec: GridSpec, kmax: int | None = None) -> UniformPartition:
    m = spec.oversampling
    if m < 8:
        raise ResolutionError(f"frequency spacing 1/{m} > 1/8 undersamples the window")
    if kmax is None:
        kmax = max_uniform_kmax(spec)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if kmax > max_uniform_kmax(spec):
        raise ValueError(
            f"kmax = {kmax} windows leave the resolved band (max {max_uniform_kmax(spec)})"
        )
    return UniformPartition(spec, kmax, _uniform_axis_profile(m))


@dataclass(eq=False)
class DyadicPartition:
    """Dyadic partition of unity {phi_j}, j = 0..levels. Compared and hashed
    by identity."""

    spec: GridSpec
    levels: int
    _radius: np.ndarray = field(repr=False, default=None)
    _cache: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self._radius is None:
            self._radius = self.spec.freq_radius()

    def window(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.levels:
            raise IndexError(f"dyadic level {j} outside 0..{self.levels}")
        if j not in self._cache:
            if j == 0:
                self._cache[j] = DYADIC_PROFILE(self._radius)
            else:
                self._cache[j] = (DYADIC_PROFILE(self._radius / 2 ** j)
                                  - DYADIC_PROFILE(self._radius / 2 ** (j - 1)))
        return self._cache[j]

    def support(self, j: int) -> tuple[float, float]:
        """Radii (lo, hi) such that window(j) is exactly 0 unless
        lo <= |xi| < hi: (0, 3/2) for j = 0, (5/8, 3/2) * 2^j for j >= 1.
        DYADIC_PROFILE is exactly 1 at t <= 5/4 and exactly 0 at t >= 3/2, and
        dividing the radius by 2^j is exact, so below 5/8 * 2^j both terms of
        phi_j are 1 and cancel, and from 3/2 * 2^j on both are 0."""
        if not 0 <= j <= self.levels:
            raise IndexError(f"dyadic level {j} outside 0..{self.levels}")
        return (0.625 * 2 ** j if j else 0.0, 1.5 * 2 ** j)

    def reached(self, spectrum: np.ndarray) -> list[int]:
        """Levels whose support meets the radius span of the nonzero samples of
        ``spectrum``; ``window(j) * spectrum`` is identically zero at every
        other level."""
        radii = self._radius[spectrum != 0]
        if radii.size == 0:
            return []
        near, far = radii.min(), radii.max()
        levels = []
        for j in range(self.levels + 1):
            lo, hi = self.support(j)
            if lo <= far and near < hi:
                levels.append(j)
        return levels

    def partition_sum(self) -> np.ndarray:
        out = np.zeros(self.spec.shape())
        for j in range(self.levels + 1):
            out += self.window(j)
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
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if 3 * 2 ** levels * spec.oversampling > spec.n:
        raise ValueError(
            f"dyadic level {levels} exceeds the resolved band "
            f"(max {max_dyadic_level(spec)} for this grid)"
        )
    return DyadicPartition(spec, levels)


def _as_lattice_point(k, d: int) -> tuple[int, ...]:
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(c) for c in k)
    if len(k) != d:
        raise ValueError(f"lattice point {k} does not match dimension {d}")
    return k


def box_apply(f: GridFunction, k, partition: UniformPartition) -> GridFunction:
    """The uniform-decomposition operator: inverse transform of sigma_k * spectrum."""
    k = _as_lattice_point(k, f.spec.d)
    spectrum = f.in_frequency().values
    slices, patch = partition.patch(spectrum, k)
    out = np.zeros(f.spec.shape(), dtype=np.complex128)
    out[slices] = patch
    return transform(GridFunction(f.spec, out, FREQUENCY), "space")


def delta_apply(f: GridFunction, j: int, partition: DyadicPartition) -> GridFunction:
    """The dyadic-decomposition operator: inverse transform of phi_j * spectrum."""
    return apply_multiplier(f, partition.window(j))


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


def _annulus_membership(level: int, d: int, inside: bool):
    """Yields each k whose box passes the exact integer test below, in lexicographic order.

    Box k + [-3/4, 3/4]^d against D_level = {3/4 * 2^l <= |xi| <= 5/4 * 2^l}:
    the nearest / farthest points of the box from the origin are componentwise
    max(|k_i| - 3/4, 0) and |k_i| + 3/4.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
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
    ``parameter`` is the level l. Members in lexicographic order."""
    if kind not in ("A", "B"):
        raise ValueError(f"unknown index-set kind {kind!r}")
    level = int(parameter)
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
