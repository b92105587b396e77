"""Smooth frequency partitions of unity and the lattice index sets.

The uniform partition {sigma_k} tiles frequency space by unit cubes: sigma
is built by mollifier normalization, equals 1 on [-1/4, 1/4]^d, vanishes
outside [-3/4, 3/4]^d, and the translates sum to 1 exactly. The dyadic
partition {phi_j} uses a radial profile psi with plateau |xi| <= 5/4 and
support |xi| < 3/2, so each phi_j equals 1 on the annulus
D_j = {3/4 * 2^j <= |xi| <= 5/4 * 2^j}.

The partitions hold geometry only: windows, the lattice, the boxes or
levels a support reaches, patches and orbit keys, written once for every
d. A uniform window is sigma_0's tile (the d-fold outer product of the axis
profile) placed at one slice per axis. Neither partition synthesizes a
piece or keeps a synthesis table; ``norms`` builds its tables per norm call
and owns the synthesis.

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
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, Support, separable


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

    def _slices(self, k, origin=None) -> tuple[slice, ...]:
        """The support of sigma_k: one axis slice per coordinate of k, into
        an array whose first sample sits at the grid's per-axis indices
        ``origin`` (by default the grid's own first sample)."""
        if origin is None:
            origin = (0,) * len(k)
        w, m = self.half_width, self.spec.oversampling
        first, span, slices = self.spec.n // 2 - w, 2 * w + 1, ()
        for c, start in zip(k, origin):
            lo = first + c * m - start
            slices += (slice(lo, lo + span),)
        return slices

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
        sl = self._slices(self._lattice_point(k), origin)
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
        is a reversed or transposed view of one of them, written out."""
        plain, conjugate = patch + 0.0, np.conj(patch) + 0.0
        if patch.ndim == 1:
            return min(plain.tobytes(), conjugate[::-1].tobytes())
        images = (plain, plain[::-1, ::-1], conjugate[::-1], conjugate[:, ::-1])
        return min([x.tobytes() for x in images] + [x.T.tobytes() for x in images])

    def _lattice_point(self, k) -> tuple[int, ...]:
        """``k`` as a point of this partition's lattice, a tuple of d ints
        with |k|_inf <= kmax: ValueError by ``_as_lattice_point``'s rule,
        then IndexError by ``_check_index``'s. A tuple or list of d Python
        ints in range, as the box loop passes, is taken with no call per
        coordinate: with a call per coordinate, the 468 patches of the
        512^2 annulus member took 2.9 ms per norm call, against 1.2 ms for
        the slices and cuts alone (1.6 ms now)."""
        if (type(k) in _SEQUENCES and len(k) == self.spec.d and set(map(type, k)) == _INT
                and max(map(abs, k)) <= self.kmax):
            return tuple(k)
        k = _as_lattice_point(k, self.spec.d)
        self._check_index(k)
        return k

    def _check_index(self, k) -> None:
        if max(map(abs, k)) > self.kmax:
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


_SEQUENCES = (tuple, list)
_INT = frozenset((int,))


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


def _l2(x: np.ndarray) -> float:
    """The l^2 norm of ``x`` by numpy's own pairwise sum. np.linalg.norm
    takes a BLAS dot product, whose rounding depends on the thread count."""
    return float(np.sqrt(np.sum(np.abs(x) ** 2)))


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
        norm = _l2(spectrum)
        box_err = _l2((usum - 1.0) * spectrum) / norm
        dyad_err = _l2((dsum - 1.0) * spectrum) / norm
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
