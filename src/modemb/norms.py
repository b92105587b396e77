"""Discrete evaluators for the five function-space quasi-norms.

Modulation: l^q over lattice k of <k>^s-weighted L^p norms of the uniform
pieces, with <k> = 1 + |k| (Euclidean). Besov: l^q over dyadic levels j of
2^(js)-weighted L^p norms. Triebel: the same data with the L^p and l^q
norms interchanged (spatial norm outside). At p = 2 (Triebel: p = q = 2)
both come from the pieces' spectra. Sobolev: L^p of the Bessel multiplier
(1+|xi|^2)^(s/2). Fourier-L^p: the Riemann L^r norm of the spectrum itself.

Precision. At p >= 1 a norm holds about 1e-12 relative; the p = 2 values
from the spectrum round unlike synthesis, by about 1e-16. At p < 1 it holds
only about 1e-7 relative: the sum of |x|^p is dominated by space samples at
roundoff level in each piece's tails, which p < 1 amplifies, so a change to
the rounding of a transform moves the value in the eighth digit. Never gate
a p < 1 value at 1e-12; compare it against an extended-precision reference.
"""
from __future__ import annotations

import numpy as np

from .exponents import Exponent
from .grid import (
    FREQUENCY,
    BandLimitError,
    GridFunction,
    apply_multiplier,
    band_leak,
    lp_norm,
    lq_seq_norm,
    _riemann_lp,
)
from .oracle import Family, SpaceSpec
from .partitions import (
    DyadicPartition,
    UniformPartition,
    build_dyadic,
    build_uniform,
    lattice_weights,
)

# Boxes whose windowed spectrum falls below this relative level contribute 0.
_NEGLIGIBLE = 1e-15
# Spectral magnitudes below this fraction of the peak are transform roundoff
# (the toolkit calls a function band-limited when it is < 1e-12 of peak
# outside its band); quasi-norm exponents below 1 would otherwise amplify
# that floor into the leading digits.
_SPECTRUM_FLOOR = 1e-13


def _spectrum_of(f: GridFunction) -> np.ndarray:
    values = f.in_frequency().values
    mags = np.abs(values)
    if not np.all(np.isfinite(mags)):
        raise ValueError("samples contain NaN or Inf")
    peak = mags.max()
    if peak == 0.0:
        return values
    return np.where(mags > _SPECTRUM_FLOOR * peak, values, 0.0)


def _l2_norm(bins: np.ndarray, spec) -> float:
    """By Parseval, exactly the Riemann L^2 norm of the samples whose spectrum is ``bins``."""
    return float(np.sqrt(np.sum(np.abs(bins) ** 2) / spec.period ** spec.d))


def _in_band(f: GridFunction, outside: np.ndarray, edge: str,
             partition: str) -> GridFunction:
    """f on the frequency side, after the band check: BandLimitError if the
    spectrum exceeds 1e-12 of its peak on the mask ``outside``. A
    frequency-side f, such as a family member, is returned as it is; a
    space-side f takes one forward transform, which the norm then shares
    with the check."""
    g = f.in_frequency()
    if band_leak(g.values, outside) > 1e-12:
        raise BandLimitError(f"spectral content beyond {edge}; "
                             f"the {partition} partition does not cover this function")
    return g


def box_piece_norms(f: GridFunction, p, uniform: UniformPartition):
    """(lattice points as tuples, L^p norms of the uniform pieces) over the
    whole lattice.

    Only the boxes ``uniform.reached`` lists are visited: those whose window
    (per axis, the samples c_k - w .. c_k + w) holds a nonzero bin of the
    floored spectrum. At every other point sigma_k * spectrum is identically
    zero, so the piece is 0 and its norm stays 0 exactly. A visited box whose
    windowed spectrum falls below _NEGLIGIBLE of the peak also counts 0.

    Each piece's spectrum sigma_k * F f has only S = (3/2)M + 1 nonzero bins
    x_j, j = 0..S-1, per axis, starting at bin a. Output n of the N-point
    inverse DFT is exp(2 pi i a n / N) sum_j x_j exp(2 pi i j n / N), times
    P^-1 per axis. The leading factor, like the centering shifts, is
    unimodular, which the magnitudes in the L^p sum cannot see, so the
    samples come from the S bins alone (``UniformPartition.piece_magnitudes``).
    In d = 1, with L the next power of two >= S and n = r + (N/L) m, the sum
    is the length-L inverse DFT in m of the twiddled bins
    x_j exp(2 pi i j r / N), one per residue r. In d = 2 it separates by axis
    into E P E^T with the N x S matrix E[n, j] = exp(2 pi i j n / N). Both
    regroup the same finite sums as the full N^d transform, so they are
    exact; only the rounding differs. At p = 2 Parseval gives the norm from
    the patch alone (``_l2_norm``).

    Otherwise each piece is synthesized once per symmetry orbit of its patch
    (``UniformPartition.orbit_key``), whose images permute its samples, and
    the norm is reused for the rest of the orbit. The memo lives for this
    call only and holds no arrays: one float norm per orbit key.
    """
    spec = f.spec
    spectrum = _spectrum_of(f)
    peak = np.abs(spectrum).max()
    points = uniform.lattice()
    norms = np.zeros(len(points))
    parseval = Exponent.of(p) == 2
    memo = {}
    for i in uniform.reached(spectrum):
        _, patch = uniform.patch(spectrum, points[i])
        if np.abs(patch).max() <= _NEGLIGIBLE * peak:
            continue
        if parseval:
            norms[i] = _l2_norm(patch, spec)
            continue
        key = uniform.orbit_key(patch)
        if key not in memo:
            memo[key] = _riemann_lp(uniform.piece_magnitudes(patch), spec.cell_volume, p)
        norms[i] = memo[key]
    return list(map(tuple, points.tolist())), norms


def modulation_norm(f: GridFunction, p, q, s,
                    uniform: UniformPartition | None = None) -> float:
    """|| <k>^s ||box_k f||_p ||_{l^q} over the partition's lattice."""
    if uniform is None:
        uniform = build_uniform(f.spec)
    edge = uniform.kmax - 1
    g = _in_band(f, f.spec.freq_outside_cube(edge), f"|xi|_inf = {edge}", "uniform")
    _, norms = box_piece_norms(g, p, uniform)
    return lq_seq_norm(norms, q, lattice_weights(uniform.lattice(), s))


def _dyadic_pieces(f: GridFunction, dyadic: DyadicPartition):
    """(j, phi_j * spectrum, that is delta_j f on the frequency side) for the
    levels ``dyadic.reached`` lists, after the dyadic band check. Every other
    level's window is exactly 0 on each nonzero bin of the floored spectrum
    (see ``DyadicPartition.support``), so its piece is identically zero."""
    edge = 1.25 * 2 ** dyadic.levels
    spectrum = _spectrum_of(
        _in_band(f, dyadic._radius > edge, f"|xi| = {edge:g}", "dyadic"))
    for j in dyadic.reached(spectrum):
        yield j, dyadic.window(j) * spectrum


def besov_norm(f: GridFunction, p, q, s,
               dyadic: DyadicPartition | None = None) -> float:
    """|| 2^(js) ||delta_j f||_p ||_{l^q} over j = 0..levels.

    One forward transform (none for a frequency-side f). At p = 2 a piece's
    norm is ``_l2_norm`` of its spectrum; otherwise the piece is synthesized,
    one inverse transform per level the floored spectrum reaches. A level
    with no nonzero bin in the support of phi_j (``DyadicPartition.support``)
    is skipped: its piece is identically zero and enters as 0.0."""
    p = Exponent.of(p)
    if dyadic is None:
        dyadic = build_dyadic(f.spec)
    norms = np.zeros(dyadic.levels + 1)
    for j, bins in _dyadic_pieces(f, dyadic):
        norms[j] = (_l2_norm(bins, f.spec) if p == 2
                    else lp_norm(GridFunction(f.spec, bins, FREQUENCY), p))
    weights = 2.0 ** (float(s) * np.arange(dyadic.levels + 1))
    return lq_seq_norm(norms, q, weights)


def triebel_norm(f: GridFunction, p, q, s,
                 dyadic: DyadicPartition | None = None) -> float:
    """|| || 2^(js) delta_j f ||_{l^q_j} ||_p : pointwise l^q across levels,
    then the spatial L^p norm. p = inf is not defined here and is rejected.

    At p = q = 2 this is ``besov_norm``: the Riemann sum over x and j of
    |2^(js) delta_j f(x)|^2 is sum_j 2^(2js) ||delta_j f||_2^2 term by term,
    so F_{2,2} = B_{2,2} up to rounding. Other (p, q) synthesize each level
    ``besov_norm`` does not skip (a skipped piece adds only zeros)."""
    p = Exponent.of(p)
    if p.is_infinite:
        raise ValueError("triebel_norm does not define the p = inf scale")
    q = Exponent.of(q)
    if p == 2 and q == 2:
        return besov_norm(f, p, q, s, dyadic)
    if dyadic is None:
        dyadic = build_dyadic(f.spec)
    sf = np.float64(s)  # 2^(js) beyond double range reads inf, not OverflowError
    qf = None if q.is_infinite else float(q.value)
    stack = None
    for j, bins in _dyadic_pieces(f, dyadic):
        mags = (2.0 ** (sf * j)) * np.abs(GridFunction(f.spec, bins, FREQUENCY).in_space().values)
        if q.is_infinite:
            stack = mags if stack is None else np.maximum(stack, mags)
        else:
            contrib = mags ** qf
            stack = contrib if stack is None else stack + contrib
    if stack is None:
        return 0.0
    pointwise = stack if q.is_infinite else stack ** (1.0 / qf)
    return _riemann_lp(pointwise, f.spec.cell_volume, p)


def sobolev_norm(f: GridFunction, s, r) -> float:
    """|| (I - Laplacian)^(s/2) f ||_r via the multiplier (1+|xi|^2)^(s/2)."""
    radius = f.spec.freq_radius()
    multiplier = (1.0 + radius ** 2) ** (float(s) / 2.0)
    return lp_norm(apply_multiplier(f, multiplier), r)


def fourier_lp_norm(f: GridFunction, r) -> float:
    """Riemann L^r norm of the frequency-side samples (delta^d per cell)."""
    return _riemann_lp(np.abs(_spectrum_of(f)), f.spec.freq_cell_volume, r)


def space_norm(f: GridFunction, space: SpaceSpec,
               uniform: UniformPartition | None = None,
               dyadic: DyadicPartition | None = None) -> float:
    """Evaluate the quasi-norm described by a SpaceSpec; its d must be f's."""
    if space.d != f.spec.d:
        raise ValueError(f"dimension mismatch: space has d = {space.d}, function d = {f.spec.d}")
    if space.family is Family.MODULATION:
        return modulation_norm(f, space.p, space.q, space.s, uniform)
    if space.family is Family.BESOV:
        return besov_norm(f, space.p, space.q, space.s, dyadic)
    if space.family is Family.TRIEBEL:
        return triebel_norm(f, space.p, space.q, space.s, dyadic)
    if space.family is Family.SOBOLEV_W:
        return sobolev_norm(f, space.s, space.r)
    if space.family is Family.FOURIER_L:
        return fourier_lp_norm(f, space.r)
    raise ValueError(f"unknown family {space.family}")
