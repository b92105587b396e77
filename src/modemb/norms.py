"""Discrete evaluators for the five function-space quasi-norms.

Modulation: l^q over lattice k of <k>^s-weighted L^p norms of the uniform
pieces, with <k> = 1 + |k| (Euclidean). Besov: l^q over dyadic levels j of
2^(js)-weighted L^p norms. Triebel: the same data with the L^p and l^q
norms interchanged (spatial norm outside). At p = 2 (Triebel: p = q = 2)
both come from the pieces' spectra. Sobolev: L^p of the Bessel multiplier
(1+|xi|^2)^(s/2). Fourier-L^p: the Riemann L^r norm of the spectrum itself.

Support. Every norm but Sobolev floors f's spectrum once, at 1e-13 of its
peak, into a ``grid.Support``: the flat indices, values, magnitudes,
frequency coordinates and radii of the bins above the floor. The rest reads
only those bins. The band checks (the cube |xi|_inf > kmax - 1, the dyadic
ball |xi| > 1.25 * 2^levels) test their coordinates; a bin under the floor
could not pass the 1e-12 gate, so the decision is the dense one. phi_j is
evaluated at their radii (``DyadicPartition.phi``), so a dyadic piece is
bit for bit ``window(j) * spectrum`` on the support and 0 off it; at p = 2
Parseval sums the compact piece, otherwise it is scattered into a fresh
zero grid for the inverse FFT. Fourier-L^p sums the compact magnitudes. No
norm builds a dense radius, mask or window, so a member with few bins, such
as a single box, costs a few full-grid passes per norm.

Precision. At p >= 1 a norm holds about 1e-12 relative; the p = 2 values
from the spectrum round unlike synthesis, by about 1e-16. Synthesized
pieces skip the grid's centering shifts, so their magnitudes come in
transform order and round unlike ``transform``'s, again by about 1e-16. At
p < 1 it holds only about 1e-7 relative: the sum of |x|^p is dominated by
space samples at roundoff level in each piece's tails, which p < 1
amplifies, so a change to the rounding of a transform moves the value in
the eighth digit. Never gate a p < 1 value at 1e-12; compare it against an
extended-precision reference.
"""
from __future__ import annotations

import numpy as np

from .exponents import Exponent
from .grid import (
    BandLimitError,
    GridFunction,
    Support,
    apply_multiplier,
    band_leak,
    lp_norm,
    lq_seq_norm,
    spectral_support,
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


def _l2_norm(bins: np.ndarray, spec) -> float:
    """By Parseval, exactly the Riemann L^2 norm of the samples whose spectrum
    holds ``bins`` and is 0 elsewhere."""
    return float(np.sqrt(np.sum(np.abs(bins) ** 2) / spec.period ** spec.d))


def _synthesized_magnitudes(bins: np.ndarray) -> np.ndarray:
    """|ifftn(bins)|: the magnitudes of the space samples whose spectrum is
    ``bins``, divided by (N/P)^d and in transform order. The transform runs
    in place, so ``bins`` (a fresh complex array) is overwritten.
    ``transform`` also shifts the input and output to centre both grids; the
    input shift multiplies each output by a unimodular phase and the output
    shift only permutes the outputs, so neither changes a Riemann sum of
    magnitudes."""
    return np.abs(np.fft.ifftn(bins, out=bins))


def _check_band(support: Support, outside: np.ndarray, edge: str, partition: str) -> None:
    """BandLimitError if the support exceeds 1e-12 of its peak on the bins
    the mask ``outside`` flags."""
    if band_leak(support, outside) > 1e-12:
        raise BandLimitError(f"spectral content beyond {edge}; "
                             f"the {partition} partition does not cover this function")


def box_piece_norms(support: Support, p, uniform: UniformPartition):
    """(``uniform.lattice()``, the L^p norms of the uniform pieces at its
    points): the read-only lattice array and one norm per row of it, for the
    floored spectrum whose bins are ``support``.

    Only the boxes ``uniform.reached`` lists are visited: those whose window
    (per axis, the samples c_k - w .. c_k + w) holds a bin of the support.
    At every other point sigma_k * spectrum is identically zero, so the piece
    is 0 and its norm stays 0 exactly. A visited box whose windowed spectrum
    falls below _NEGLIGIBLE of the peak also counts 0.

    Each piece's spectrum sigma_k * F f has only S = (3/2)M + 1 nonzero bins
    x_j, j = 0..S-1, per axis, starting at bin a. Output n of the N-point
    inverse DFT is exp(2 pi i a n / N) sum_j x_j exp(2 pi i j n / N), times
    P^-1 per axis. The leading factor, like the centering shifts, is
    unimodular, which the magnitudes in the L^p sum cannot see, so the
    samples come from the S bins alone (``UniformPartition.piece_magnitudes``).
    In d = 1, with L the next power of two >= S and n = r + (N/L) m, the sum
    is the length-L inverse DFT in m of the twiddled bins
    x_j exp(2 pi i j r / N), one per residue r: the patch is zero-padded to
    L bins, twiddled by a table of residue rows and transformed in place. In
    d = 2 it separates by axis into E P E^T with the N x S matrix
    E[n, j] = exp(2 pi i j n / N). Both regroup the same finite sums as the
    full N^d transform, so they are exact; only the rounding differs. Only
    half the output rows are synthesized: the sum g_x(n) over the bins x
    obeys g_x(-n) = conj(g_conj(x)(n)), so the rows -n have the magnitudes
    of the rows n of conj(x)'s synthesis, which are x's own rows when the
    patch is real. Residues 0 and R/2 in d = 1, rows n_1 = 0 and N/2 in
    d = 2, are their own mirrors and are counted once. At p = 2 Parseval
    gives the norm from the patch alone (``_l2_norm``).

    Otherwise each piece is synthesized once per symmetry orbit of its patch
    (``UniformPartition.orbit_key``), whose images permute its samples, and
    the norm is reused for the rest of the orbit. The memo lives for this
    call only and holds no arrays: one float norm per orbit key.
    """
    spec, peak = support.spec, support.peak
    spectrum = support.scatter(support.values)
    points = uniform.lattice()
    norms = np.zeros(len(points))
    parseval = Exponent.of(p) == 2
    memo = {}
    for i in uniform.reached(support):
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
    return points, norms


def modulation_norm(f: GridFunction, p, q, s,
                    uniform: UniformPartition | None = None) -> float:
    """|| <k>^s ||box_k f||_p ||_{l^q} over the partition's lattice."""
    if uniform is None:
        uniform = build_uniform(f.spec)
    edge = uniform.kmax - 1
    support = spectral_support(f)
    _check_band(support, support.outside_cube(edge), f"|xi|_inf = {edge}", "uniform")
    points, norms = box_piece_norms(support, p, uniform)
    return lq_seq_norm(norms, q, lattice_weights(points, s))


def _dyadic_pieces(f: GridFunction, dyadic: DyadicPartition):
    """f's support, after the dyadic band check, and an iterator of
    (j, delta_j f on the frequency side at the support's bins) over the
    levels ``dyadic.reached`` lists. A piece is phi_j at the support's radii
    times its values, bit for bit ``window(j) * spectrum`` at those bins;
    off the support both are 0. Every other level's window is exactly 0 on
    each bin of the support (see ``DyadicPartition.support``), so its piece
    is identically zero."""
    edge = 1.25 * 2 ** dyadic.levels
    support = spectral_support(f)
    _check_band(support, support.radius > edge, f"|xi| = {edge:g}", "dyadic")
    return support, ((j, dyadic.phi(j, support.radius) * support.values)
                     for j in dyadic.reached(support))


def besov_norm(f: GridFunction, p, q, s,
               dyadic: DyadicPartition | None = None) -> float:
    """|| 2^(js) ||delta_j f||_p ||_{l^q} over j = 0..levels.

    One forward transform (none for a frequency-side f). At p = 2 a piece's
    norm is ``_l2_norm`` of its spectrum; otherwise the piece is synthesized
    (``_synthesized_magnitudes``), one inverse FFT per level the floored
    spectrum reaches, and the (N/P)^d scale multiplies its norm. A level
    with no nonzero bin in the support of phi_j (``DyadicPartition.support``)
    is skipped: its piece is identically zero and enters as 0.0."""
    p = Exponent.of(p)
    spec = f.spec
    if dyadic is None:
        dyadic = build_dyadic(spec)
    scale = (spec.n / spec.period) ** spec.d
    norms = np.zeros(dyadic.levels + 1)
    support, pieces = _dyadic_pieces(f, dyadic)
    for j, piece in pieces:
        norms[j] = (_l2_norm(piece, spec) if p == 2 else
                    scale * _riemann_lp(_synthesized_magnitudes(support.scatter(piece)),
                                        spec.cell_volume, p))
    weights = 2.0 ** (float(s) * np.arange(dyadic.levels + 1))
    return lq_seq_norm(norms, q, weights)


def triebel_norm(f: GridFunction, p, q, s,
                 dyadic: DyadicPartition | None = None) -> float:
    """|| || 2^(js) delta_j f ||_{l^q_j} ||_p : pointwise l^q across levels,
    then the spatial L^p norm. p = inf is not defined here and is rejected.

    At p = q = 2 this is ``besov_norm``: the Riemann sum over x and j of
    |2^(js) delta_j f(x)|^2 is sum_j 2^(2js) ||delta_j f||_2^2 term by term,
    so F_{2,2} = B_{2,2} up to rounding. Other (p, q) synthesize each level
    ``besov_norm`` does not skip (a skipped piece adds only zeros), with the
    (N/P)^d scale folded into the weight 2^(js). Every level's magnitudes
    come in the same transform order, so the pointwise l^q pairs the same
    points as on the grid."""
    p = Exponent.of(p)
    if p.is_infinite:
        raise ValueError("triebel_norm does not define the p = inf scale")
    q = Exponent.of(q)
    if p == 2 and q == 2:
        return besov_norm(f, p, q, s, dyadic)
    spec = f.spec
    if dyadic is None:
        dyadic = build_dyadic(spec)
    sf = np.float64(s)  # 2^(js) beyond double range reads inf, not OverflowError
    scale = (spec.n / spec.period) ** spec.d
    qf = None if q.is_infinite else float(q.value)
    stack = None
    support, pieces = _dyadic_pieces(f, dyadic)
    for j, piece in pieces:
        mags = (2.0 ** (sf * j) * scale) * _synthesized_magnitudes(support.scatter(piece))
        if q.is_infinite:
            stack = mags if stack is None else np.maximum(stack, mags)
        else:
            contrib = mags ** qf
            stack = contrib if stack is None else stack + contrib
    if stack is None:
        return 0.0
    pointwise = stack if q.is_infinite else stack ** (1.0 / qf)
    return _riemann_lp(pointwise, spec.cell_volume, p)


def sobolev_norm(f: GridFunction, s, r) -> float:
    """|| (I - Laplacian)^(s/2) f ||_r via the multiplier (1+|xi|^2)^(s/2)."""
    radius = f.spec.freq_radius()
    multiplier = (1.0 + radius ** 2) ** (float(s) / 2.0)
    return lp_norm(apply_multiplier(f, multiplier), r)


def fourier_lp_norm(f: GridFunction, r) -> float:
    """Riemann L^r norm of the frequency-side samples (delta^d per cell)."""
    return _riemann_lp(spectral_support(f).mags, f.spec.freq_cell_volume, r)


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
