"""Discrete evaluators for the five function-space quasi-norms.

Modulation: l^q over lattice k of <k>^s-weighted L^p norms of the uniform
pieces, with <k> = 1 + |k| (Euclidean). Besov: l^q over dyadic levels j of
2^(js)-weighted L^p norms. Triebel: the same data with the L^p and l^q
norms interchanged (spatial norm outside). At p = 2 (Triebel: p = q = 2)
both come from the pieces' spectra. Sobolev: L^p of the Bessel multiplier
(1+|xi|^2)^(s/2). Fourier-L^p: the Riemann L^r norm of the spectrum itself.

Synthesis lives here, for box and dyadic pieces alike; the partitions hold
geometry only. ``_half_row_magnitudes`` synthesizes the first half of a
piece's output rows, by a pruned length-L FFT on residue rows in d = 1 and
by E P E^T in d = 2, each benchmarked by its own annulus workload (on the
annulus-1d grid E would be 131072 x 97, the residue rows 513 x 128), and
returns those rows and the mirrored ones apart: a real piece's mirror is a
view, which ``grid._riemann_lp`` counts twice with no copy. A d = 2 dyadic
piece takes one real FFT of a block over the support's bounding box
instead (``_block_magnitudes``), which returns the same two parts. Each
norm call builds its tables and drops them: in d = 1 from one twiddle
formula (``_twiddle_factors``), whose two factors a box multiplies into one
(``_box_table``) and a dyadic piece keeps apart.

Support. Every norm reads the member's one Support (``f.support``, the
``grid.Support`` kept on f): the flat indices, values, magnitudes,
frequency coordinates and radii of the bins above 1e-13 of the peak. f is
floored when the Support is first read, by the family's margin check for a
member, and every later norm of f shares it. The rest reads only those bins.
The band checks (the cube |xi|_inf > kmax - 1, the dyadic ball
|xi| > 1.25 * 2^levels) test their coordinates; a bin under the floor could
not pass the 1e-12 gate, so the decision is the dense one. phi_j is
evaluated at their radii (``DyadicPartition.phi``), so a dyadic piece is bit
for bit the dense phi_j(|xi|) times the spectrum on the support and 0 off
it; at p = 2 Parseval sums the compact piece. Otherwise it is synthesized
on the support's band in d = 1, as a box piece is, and in d = 2 by one real
FFT of a block over the support's bounding box (``_piece_synthesis``), with
no N-point or N^2 complex grid. W is one more piece: the Bessel multiplier
at the support's radii times its values. Fourier-L^p sums the compact
magnitudes. No norm builds a dense radius, mask or window, and none takes a
full-grid inverse FFT. Box patches are cut from a block the size of the
support's bounding box (``box_piece_norms``), with a uniform partition of
f's own grid. A single-box or annulus member's floor reads only the bins its
generator wrote (``GridFunction.bins``). The largest arrays left are a
d = 2 piece's transform and magnitudes, N/2 + 1 rows of N samples each.

Precision. At p >= 1 a norm holds about 1e-12 relative; the p = 2 values
from the spectrum round unlike synthesis, by about 1e-16. Synthesized pieces
skip the grid's centering shifts, so their magnitudes come in an order of
their own (residue rows when pruned, mirrored rows in a d = 2 block
transform) and round unlike ``transform``'s, again by about 1e-16. A real
half-row piece sums as twice its first rows less the two self-mirrored
ones, within 5.4e-16 relative of one sum over the copied rows at p >= 1
(8.8e-16 at p = 1/2) on the annulus members. At p < 1 a norm holds only
about 1e-7 relative: the sum of |x|^p is dominated by space samples at
roundoff level in each piece's tails, which p < 1 amplifies, so a change to
the rounding of a transform moves the value in the sixth to eighth digit.
On the level-8 d = 1 annulus (N = 2^17), against extended-precision
syntheses of the same floored spectrum, B^0_{1/2,1} is 1.3e-6 off,
F^0_{1/2,q} 4.2e-7 (q = 1) to 4.8e-8 (q = inf), and a box piece at p = 1/2
within 3e-11. Never gate a p < 1 value at 1e-12; compare it against an
extended-precision reference.
The floor moves it more: by 1e-5 for W^{s,1/2} on that member.
"""
from __future__ import annotations

import math

import numpy as np

from .exponents import Exponent
from .grid import (
    BandLimitError,
    GridFunction,
    Support,
    band_leak,
    lq_seq_norm,
    _next_pow2,
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


def _check_band(support: Support, outside: np.ndarray, edge: str, partition: str) -> None:
    """BandLimitError if the support exceeds 1e-12 of its peak on the bins
    the mask ``outside`` flags."""
    if band_leak(support, outside) > 1e-12:
        raise BandLimitError(f"spectral content beyond {edge}; "
                             f"the {partition} partition does not cover this function")


def _check_grid(spec, uniform: UniformPartition) -> None:
    """ValueError unless ``uniform`` was built on the grid ``spec``; on
    another grid its windows would cut the wrong bins."""
    if uniform.spec != spec:
        raise ValueError(f"uniform partition built on {uniform.spec} does not "
                         f"match the function's grid {spec}")


def _support_box(support: Support, margin: int) -> tuple[list[int], tuple, tuple]:
    """(origin, shape, at): the bounding box of the support's bins, widened
    by ``margin`` samples on each side and clipped to the grid, as the
    grid's per-axis indices of its first sample and its shape, and the
    bins' per-axis indices in it. The support must have a bin."""
    n = support.spec.n
    origin = [max(int(i.min()) - margin, 0) for i in support.index]
    ends = [min(int(i.max()) + margin + 1, n) for i in support.index]
    shape = tuple(end - start for start, end in zip(origin, ends))
    return origin, shape, tuple(i - start for i, start in zip(support.index, origin))


def _support_block(support: Support, margin: int) -> tuple[np.ndarray, list[int]]:
    """(block, origin): a fresh zero complex array over ``_support_box``
    holding the support's values at its bins, and the grid's per-axis
    indices of its first sample."""
    origin, shape, at = _support_box(support, margin)
    block = np.zeros(shape, dtype=np.complex128)
    block[at] = support.values
    return block, origin


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
    magnitudes' rows, of which that function returns two views."""
    if d == 1:
        # the factors span complementary axes of the (K, J) view of a row
        rows, width = len(table[0]), math.prod(f[0].size for f in table)
        total = max(2 * rows - 2, 1)
    else:
        total = width = len(table)
        rows = width // 2 + 1
    return np.empty((rows, width), dtype=np.complex128), np.empty((total, width))


def _half_row_magnitudes(patch: np.ndarray, table, at=None,
                         work=None) -> tuple[np.ndarray, np.ndarray]:
    """(mags, mirror): the N^d magnitudes of the space-side samples whose
    spectrum is ``patch``, as a multiset in two parts, scaled by the table.
    In d = 1 ``mags`` is the (R/2 + 1, L) array of residue rows r = 0..R/2,
    where ``table`` holds their twiddle factors and the patch puts its
    values at the offsets ``at`` < L (by default its first bins); in d = 2
    it is the (N/2 + 1, N) array of rows n_1 = 0..N/2 of E P E^T, from the
    N x S matrix E (``_half_synthesis`` states both); ``mirror`` holds the
    mirrored rows.

    Half the rows are synthesized. With g_x(n) = sum_j x_j w^(jn),
    w = exp(2 pi i / N), g_x(-n) = conj(g_conj(x)(n)), so the rows -n hold
    the magnitudes of the rows n of conj(x)'s synthesis. Rows 0 and R/2 in
    d = 1 (n_1 = 0 and N/2 in d = 2) are their own mirrors and are counted
    once; the rows 1..R/2 - 1 of conj(x) fill in the rest. For a real
    patch, conj(x) = x, so ``mirror`` is the view ``mags[1:-1]``, not a
    copy; a complex patch synthesizes conj(x) on the same rows, if R > 2:
    with R = 1 or 2 no row is mirrored. np.concatenate((mags, mirror)) is
    the whole multiset; each of its rows holds the same samples for every
    patch of one table, so two of them pair sample by sample.

    The synthesis writes into the complex rows ``half`` of ``work``, and
    the magnitudes into its ``out``, of which both parts are views: with
    ``_half_synthesis`` returning fresh products instead, ``annulus-2d``
    ran 25 % slower (six alternating benchmark pairs). Without ``work``
    both are allocated here (``_work_arrays``); a caller that synthesizes
    many patches of one table passes one pair to every call, and each call
    overwrites the result of the one before."""
    half, out = _work_arrays(table, patch.ndim) if work is None else work
    rows = len(half)
    _half_synthesis(patch, table, half, at)
    mags = np.abs(half, out=out[:rows])
    if rows > 2 and patch.imag.any():
        _half_synthesis(np.conj(patch), table, half, at)
        return mags, np.abs(half[1:rows - 1], out=out[rows:])
    return mags, mags[1:-1]


def _box_table(uniform: UniformPartition):
    """The synthesis table of the boxes of ``uniform``, built on each call:
    exp(2 pi i (j n mod N) / N) / P per axis, for the rows n the pruned
    synthesis needs and the patch offsets j it reads. In d = 1, the product
    of ``_twiddle_factors``' two factors for the residues r = 0..R/2 of
    R = N/L and j < L, kept as one factor of shape (R/2 + 1, 1, L): on two
    factors a box synthesis was 1.24-1.38x slower. In d = 2, the N x S
    matrix E of all N outputs, of which the left factor reads rows 0..N/2."""
    spec = uniform.spec
    width = 2 * uniform.half_width + 1
    if spec.d == 1:
        low, high = _twiddle_factors(spec.n, _next_pow2(width), 1.0 / spec.period)
        return ((low * high).reshape(len(low), 1, -1),)
    phase = (np.arange(spec.n)[:, None] * np.arange(width)[None, :]) % spec.n
    return np.exp(2j * np.pi * phase / spec.n) / spec.period


def box_piece_norms(support: Support, p, uniform: UniformPartition):
    """(``uniform.lattice()``, the L^p norms of the uniform pieces at its
    points): the read-only lattice array and one norm per row of it, for the
    floored spectrum whose bins are ``support``, on a partition of its grid.

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
    samples come from the S bins alone (``_half_row_magnitudes``). In
    d = 1, with L the next power of two >= S and n = r + (N/L) m, the sum
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
    d = 2, are their own mirrors and are counted once. ``_riemann_lp``
    reduces the two parts straight to the norm, a real patch's mirror with
    no copy and no second pass. At p = 2 Parseval gives the norm from the
    patch alone (``_l2_norm``).

    Otherwise each piece is synthesized once per symmetry orbit of its patch
    (``UniformPartition.orbit_key``), whose images permute its samples, and
    the norm is reused for the rest of the orbit. The memo lives for this
    call only and holds no arrays: one float norm per orbit key.

    Patches are cut from the support's block (``_support_block``): the
    bounding box of its bins, widened by 2 w samples per side and clipped to
    the grid. A window that holds a bin lies within 2 w of it, so every
    visited window is inside the block, and its patch is the one the dense
    floored spectrum gives, byte for byte. A zero support visits nothing.

    The table (``_box_table``) is built on each call that synthesizes and
    dropped with it; the Parseval path builds none. The syntheses share one
    pair of work arrays (``_work_arrays``), allocated after the table and
    before the block. Fresh arrays per synthesis got new pages or recycled ones as the
    allocator's history decided: 51,500 or 3,900 page faults, 0.19 or
    0.11 s, for the 512^2 annulus member. Allocated after the dense
    spectrum the patches were then cut from, the pair raised the peak RSS
    by 1.6 MiB in 6 of 16 fresh interpreters.
    """
    spec, peak = support.spec, support.peak
    _check_grid(spec, uniform)
    points = uniform.lattice()
    norms = np.zeros(len(points))
    if not support.flat.size:
        return points, norms
    parseval = Exponent.of(p) == 2
    if not parseval:
        table = _box_table(uniform)
        work = _work_arrays(table, spec.d)
    block, origin = _support_block(support, 2 * uniform.half_width)
    memo = {}
    visited = uniform.reached(support)
    for i, k in zip(visited, points[visited].tolist()):
        _, patch = uniform.patch(block, k, origin)
        if np.abs(patch).max() <= _NEGLIGIBLE * peak:
            continue
        if parseval:
            norms[i] = _l2_norm(patch, spec)
            continue
        key = uniform.orbit_key(patch)
        if key not in memo:
            memo[key] = _riemann_lp(_half_row_magnitudes(patch, table, work=work),
                                     spec.cell_volume, p)
        norms[i] = memo[key]
    return points, norms


def modulation_norm(f: GridFunction, p, q, s,
                    uniform: UniformPartition | None = None) -> float:
    """|| <k>^s ||box_k f||_p ||_{l^q} over the partition's lattice; a
    partition of another grid than f's is refused (ValueError)."""
    if uniform is None:
        uniform = build_uniform(f.spec)
    _check_grid(f.spec, uniform)
    edge = uniform.kmax - 1
    support = f.support
    _check_band(support, support.outside_cube(edge), f"|xi|_inf = {edge}", "uniform")
    points, norms = box_piece_norms(support, p, uniform)
    return lq_seq_norm(norms, q, lattice_weights(points, s))


def _dyadic_pieces(f: GridFunction, dyadic: DyadicPartition):
    """f's support, after the dyadic band check, and an iterator of
    (j, delta_j f on the frequency side at the support's bins) over the
    levels ``dyadic.reached`` lists. A piece is phi_j at the support's radii
    times its values, bit for bit the dense window times the spectrum at
    those bins; off the support both are 0. Every other level's window is exactly 0 on
    each bin of the support (see ``DyadicPartition.support``), so its piece
    is identically zero."""
    edge = 1.25 * 2 ** dyadic.levels
    support = f.support
    _check_band(support, support.radius > edge, f"|xi| = {edge:g}", "dyadic")
    return support, ((j, dyadic.phi(j, support.radius) * support.values)
                     for j in dyadic.reached(support))


def _block_magnitudes(piece: np.ndarray, at, shape, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mags, mirror): the N^2 magnitudes of the d = 2 space samples whose
    spectrum holds ``piece`` at the indices ``at`` of a block of ``shape``
    and is 0 elsewhere, divided by N^2, as a multiset in two parts:
    ``mags`` of shape (N/2 + 1, N), ``mirror`` of the rows 1..N/2 - 1.

    The piece's real part a, and its imaginary part b unless b is 0, are
    written into a zero real block and put through one real FFT padded to
    N x N (``np.fft.rfftn``, the real axis the rows), which gives F(a) and
    F(b) on the rows n_1 = 0..N/2. With w = exp(2 pi i / N) and the block's
    first sample at o, the synthesis g(n) = sum_j x_j w^(jn) is
    w^(on) (conj F(a)(n) + i conj F(b)(n)), and a and b are real, so
    |g(-n)| = |F(a)(n) + i F(b)(n)|, which is ``mags``, and
    |g(n)| = |F(a)(n) - i F(b)(n)|, the same bits as
    |conj F(a)(n) + i conj F(b)(n)|, which ``mirror`` holds on the rows
    n_1 = 1..N/2 - 1; rows 0 and N/2 are their own mirrors. For a real
    piece the two agree, so ``mirror`` is the view ``mags[1:-1]``, not a
    copy, and F(b) is not taken. The leading phase and the transform's sign
    are unimodular, so the magnitudes are those of |ifftn| of the piece on
    the full grid, in another order: every piece of one block comes in the
    same order, so two of them pair sample by sample."""
    parts = (piece.real, piece.imag) if piece.imag.any() else (piece.real,)
    block = np.zeros((len(parts), *shape))
    for plane, part in zip(block, parts):
        plane[at] = part
    spectra = np.fft.rfftn(block, s=(n, n), axes=(2, 1), norm="forward")
    if len(parts) == 1:
        mags = np.abs(spectra[0])
        return mags, mags[1:-1]
    a, b = spectra
    b *= 1j
    mirror = np.abs(a[1:-1] - b[1:-1])
    return np.abs(np.add(a, b, out=a)), mirror


def _piece_synthesis(support: Support):
    """The function that takes a dyadic piece of ``support`` (its values at
    the support's bins, as ``_dyadic_pieces`` yields it) to |ifftn| of the
    piece: the samples divided by (N/P)^d, with no centering shift, as the
    multiset (mags, mirror) of two parts, which ``grid._riemann_lp``
    reduces. Every piece comes in one sample order, so the joined arrays of
    two levels pair sample by sample. An empty support has no piece, and
    gets None.

    A piece is synthesized on the support's band (d = 1) or bounding box
    (d = 2) alone, with no N^d complex grid. In d = 1, as a box piece is:
    with a..b the bins the support spans, L the next power of two
    >= b - a + 1 and R = N/L, ``_half_row_magnitudes`` writes the piece's
    values at their offsets from a into a zero L-bin row and synthesizes the
    rows r = 0..R/2. Their twiddles come from two small factors
    (``_twiddle_factors``, with numpy's 1/N), built here once for all levels
    and dropped with the function. The leading phase exp(2 pi i a n / N) is
    unimodular, so the magnitudes are the dense ones in the order of the
    (R, L) residue rows. In d = 2 ``_block_magnitudes`` takes one real FFT
    of a block over the support's bounding box, 191 x 191 bins for the
    512^2 annulus; E P E^T would cost more there, and a full complex
    inverse FFT of the grid took 2.2 to 2.6 times as long per piece."""
    spec, flat = support.spec, support.flat
    if not flat.size:
        return None
    if spec.d == 2:
        _, shape, at = _support_box(support, 0)
        return lambda piece: _block_magnitudes(piece, at, shape, spec.n)
    offsets = flat - flat[0]
    table = _twiddle_factors(spec.n, _next_pow2(offsets[-1] + 1), 1.0 / spec.n)
    return lambda piece: _half_row_magnitudes(piece, table, offsets)


def besov_norm(f: GridFunction, p, q, s,
               dyadic: DyadicPartition | None = None) -> float:
    """|| 2^(js) ||delta_j f||_p ||_{l^q} over j = 0..levels.

    One forward transform if f is space-side and not yet floored (none
    otherwise). At p = 2 a piece's norm is ``_l2_norm`` of its spectrum;
    otherwise the piece is synthesized (``_piece_synthesis``: on the
    support's band in d = 1, by one real FFT of the support's block in
    d = 2), one per level the floored spectrum reaches, and the (N/P)^d
    scale multiplies its norm. A level with no nonzero bin in the support of
    phi_j (``DyadicPartition.support``) is skipped: its piece is
    identically zero and enters as 0.0."""
    p = Exponent.of(p)
    spec = f.spec
    if dyadic is None:
        dyadic = build_dyadic(spec)
    norms = np.zeros(dyadic.levels + 1)
    support, pieces = _dyadic_pieces(f, dyadic)
    if p == 2:
        for j, piece in pieces:
            norms[j] = _l2_norm(piece, spec)
    else:
        scale = (spec.n / spec.period) ** spec.d
        synthesize = _piece_synthesis(support)
        for j, piece in pieces:
            norms[j] = scale * _riemann_lp(synthesize(piece), spec.cell_volume, p)
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
    (N/P)^d scale folded into the weight 2^(js). Every level is synthesized
    in one sample order (``_piece_synthesis``: the support's residue rows in
    d = 1, the block transform's mirrored rows in d = 2), its two parts
    joined into one array, so the pointwise l^q pairs the same points as
    on the grid."""
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
    synthesize = _piece_synthesis(support)
    for j, piece in pieces:
        mags = np.concatenate(synthesize(piece))
        mags *= 2.0 ** (sf * j) * scale
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
    """|| (I - Laplacian)^(s/2) f ||_r, synthesized as one dyadic piece is
    (``_piece_synthesis``); 0 for the zero function, which has no piece."""
    spec, support = f.spec, f.support
    synthesize = _piece_synthesis(support)
    if synthesize is None:
        return 0.0
    multiplier = (1.0 + support.radius ** 2) ** (float(s) / 2.0)
    mags = synthesize(multiplier * support.values)
    return (spec.n / spec.period) ** spec.d * _riemann_lp(mags, spec.cell_volume, r)


def fourier_lp_norm(f: GridFunction, r) -> float:
    """Riemann L^r norm of the frequency-side samples (delta^d per cell)."""
    return _riemann_lp(f.support.mags, f.spec.freq_cell_volume, r)


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
