"""The five quasi-norm evaluators: exact bookkeeping cases and stability."""
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from modemb.families import (
    _add_box,
    _finish,
    family_annulus,
    family_lattice_comb,
    family_single_box,
    grid_for,
    random_band_limited,
    smallest_box_point,
)
from modemb import grid, norms
from modemb.grid import FREQUENCY, SPACE, BandLimitError, GridFunction, GridSpec, \
    lp_norm, lq_seq_norm, spectral_support, transform, _next_pow2
from modemb.norms import (
    _NEGLIGIBLE,
    _dyadic_pieces,
    besov_norm,
    box_piece_norms,
    fourier_lp_norm,
    modulation_norm,
    sobolev_norm,
    space_norm,
    triebel_norm,
)
from modemb.oracle import SpaceSpec
from modemb.partitions import (
    DyadicPartition,
    UniformPartition,
    _uniform_axis_profile,
    box_apply,
    build_dyadic,
    build_uniform,
    delta_apply,
)

F = Fraction

BOX_SPEC = grid_for("single_box", level=6)


@pytest.fixture(scope="module")
def box_partitions():
    return build_uniform(BOX_SPEC), build_dyadic(BOX_SPEC)


@pytest.fixture(scope="module")
def small_spec():
    return GridSpec(d=1, n=2 ** 12, oversampling=8)


@pytest.fixture
def full_grid_transforms(monkeypatch):
    """Counts the full-grid transforms made while the test runs: "forward"
    for grid._fft; "inverse" for grid._ifft and for the dyadic piece
    synthesis in norms, which inverse-transforms the whole grid without
    grid._ifft. Clear it to start a new count."""
    calls = Counter()

    def counted(original, kind):
        def spy(*args):
            calls[kind] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(grid, "_fft", counted(grid._fft, "forward"))
    monkeypatch.setattr(grid, "_ifft", counted(grid._ifft, "inverse"))
    monkeypatch.setattr(norms, "_synthesized_magnitudes",
                        counted(norms._synthesized_magnitudes, "inverse"))
    return calls


def _zero(spec):
    return GridFunction(spec, np.zeros(spec.shape()), SPACE)


def _floored(f):
    """f's spectrum with every bin at or below the spectral floor set to 0."""
    support = spectral_support(f)
    return support.scatter(support.values)


def _train(spec, coefficients):
    """sum_k a_k e^{ikx} eta(x - k) over integers k (d = 1)."""
    out = np.zeros(spec.shape(), dtype=np.complex128)
    for k, c in sorted(coefficients.items()):
        _add_box(out, spec, (k,), complex(c))
    return _finish(spec, out)


@pytest.mark.parametrize("p,q", [(1, 1), (2, "1/2"), ("inf", 4), ("3/2", "inf")])
def test_modulation_single_box_equals_lp(box_partitions, p, q):
    uniform, _ = box_partitions
    f = family_single_box(BOX_SPEC, 6)
    assert modulation_norm(f, p, q, 0, uniform) == pytest.approx(
        lp_norm(f, p), rel=1e-10)


def test_modulation_single_box_weighted(box_partitions):
    uniform, _ = box_partitions
    f = family_single_box(BOX_SPEC, 6)
    k = abs(smallest_box_point(6, 1)[0])
    s = F(3, 2)
    expected = (1.0 + k) ** 1.5 * lp_norm(f, 2)
    assert modulation_norm(f, 2, 2, s, uniform) == pytest.approx(expected, rel=1e-10)


def test_modulation_zero(box_partitions):
    uniform, _ = box_partitions
    assert modulation_norm(_zero(BOX_SPEC), 2, 2, 0, uniform) == 0.0


ANNULUS_SPEC = grid_for("annulus", level=6)


@pytest.fixture(scope="module")
def annulus_partitions():
    return build_uniform(ANNULUS_SPEC), build_dyadic(ANNULUS_SPEC)


def test_modulation_annulus_growth(annulus_partitions):
    """||f_l||_{M_{p,q}} within a factor 4 of 2^{l d / q}."""
    uniform, _ = annulus_partitions
    ratios = []
    for level in (4, 5, 6):
        f = family_annulus(ANNULUS_SPEC, level)
        value = modulation_norm(f, 2, 1, 0, uniform)
        ratios.append(value / 2 ** level)
    assert max(ratios) / min(ratios) < 4.0


def test_besov_single_box(box_partitions):
    _, dyadic = box_partitions
    s = F(-1, 2)
    values = []
    for level in (4, 5, 6):
        f = family_single_box(BOX_SPEC, level)
        values.append(besov_norm(f, 2, 2, s, dyadic) / 2 ** (float(s) * level))
    # exactly one dyadic block is active, so the ratio is the constant ||f||_2
    assert max(values) / min(values) == pytest.approx(1.0, rel=1e-10)


def test_besov_zero(box_partitions):
    _, dyadic = box_partitions
    assert besov_norm(_zero(BOX_SPEC), 1, 1, 2, dyadic) == 0.0


def test_besov_annulus_growth(annulus_partitions):
    """||f_l||_{B_{p0}} tracks 2^{l(s + d(1 - 1/p0))}."""
    _, dyadic = annulus_partitions
    s, p0 = F(1, 2), 2
    ratios = []
    for level in (4, 5, 6):
        f = family_annulus(ANNULUS_SPEC, level)
        predicted = 2 ** (float(s + F(1, 2)) * level)
        ratios.append(besov_norm(f, p0, 1, s, dyadic) / predicted)
    assert max(ratios) / min(ratios) < 4.0


def test_triebel_single_block_equals_besov(box_partitions):
    _, dyadic = box_partitions
    f = family_single_box(BOX_SPEC, 5)
    for p, q, s in [(2, 1, F(1, 2)), (1, 4, 0), (4, "1/2", -1)]:
        assert triebel_norm(f, p, q, s, dyadic) == pytest.approx(
            besov_norm(f, p, q, s, dyadic), rel=1e-10)


def test_triebel_rejects_p_inf(box_partitions):
    _, dyadic = box_partitions
    f = family_single_box(BOX_SPEC, 5)
    with pytest.raises(ValueError, match="inf"):
        triebel_norm(f, "inf", 2, 0, dyadic)


def test_triebel_besov_sandwich(small_spec):
    """B_{p, p^q} -> F_{p,q} -> B_{p, p|q} with stable constants."""
    dyadic = build_dyadic(small_spec)
    rng = np.random.default_rng(51)
    band = 1.25 * 2 ** dyadic.levels
    low, high = [], []
    for _ in range(8):
        f = random_band_limited(small_spec, band_radius=band * 0.9, rng=rng)
        for p, q in [(2, 1), (F(3, 2), 4), (4, 2)]:
            pq_min = min(F(p), F(q))
            pq_max = max(F(p), F(q))
            tn = triebel_norm(f, p, q, 0, dyadic)
            low.append(tn / besov_norm(f, p, pq_min, 0, dyadic))
            high.append(besov_norm(f, p, pq_max, 0, dyadic) / tn)
    assert max(low) < 4.0 and max(high) < 4.0
    assert max(low) / min(low) < 4.0 and max(high) / min(high) < 4.0


def test_sobolev_s0_is_lp(small_spec):
    rng = np.random.default_rng(53)
    f = random_band_limited(small_spec, band_radius=40, rng=rng)
    for r in (1, 2, "inf"):
        assert sobolev_norm(f, 0, r) == pytest.approx(lp_norm(f, r), rel=1e-12)


def test_sobolev_lattice_mode():
    """A single modulated bump scales like <k>-weighted L^r."""
    k = 37
    spec = GridSpec(d=1, n=8192, oversampling=64)  # room for |k| <= 37
    f = _train(spec, {k: 1.0})
    for s in (1, -2):
        expected = (1.0 + k ** 2) ** (s / 2.0) * lp_norm(f, 2)
        assert sobolev_norm(f, s, 2) == pytest.approx(expected, rel=0.02)
    assert sobolev_norm(_zero(spec), 1, 2) == 0.0


def test_fourier_lp_plateau(small_spec):
    values = np.zeros(small_spec.n, dtype=complex)
    ax = small_spec.freq_axis()
    mask = np.abs(ax) <= 3.0
    values[mask] = 1.0
    f = transform(GridFunction(small_spec, values, FREQUENCY), SPACE)
    measure = small_spec.freq_cell_volume * mask.sum()
    for r in (1, 2, 4):
        assert fourier_lp_norm(f, r) == pytest.approx(measure ** (1.0 / r), rel=1e-9)
    assert fourier_lp_norm(_zero(small_spec), 2) == 0.0


def test_fourier_lp_modulated_train():
    """||fhat||_r proportional to the coefficient l^r norm, same constant."""
    rng = np.random.default_rng(59)
    spec = GridSpec(d=1, n=2048, oversampling=64)  # room for |k| <= 6
    for r in (1, 2, 4):
        ratios = []
        for _ in range(5):
            coeffs = {k: rng.standard_normal() + 1j * rng.standard_normal()
                      for k in range(-6, 7)}
            f = _train(spec, coeffs)
            seq = np.sum(np.abs(np.array(list(coeffs.values()))) ** r) ** (1 / r)
            ratios.append(fourier_lp_norm(f, r) / seq)
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_norm_homogeneity(box_partitions):
    uniform, dyadic = box_partitions
    f = family_single_box(BOX_SPEC, 5)
    alpha = -3.7 + 0.9j
    g = GridFunction(BOX_SPEC, alpha * f.values, f.side)
    checks = [
        (lambda h: modulation_norm(h, "3/2", "1/2", F(1, 2), uniform)),
        (lambda h: besov_norm(h, 2, 1, -1, dyadic)),
        (lambda h: triebel_norm(h, 2, 4, 1, dyadic)),
        (lambda h: sobolev_norm(h, 1, 2)),
        (lambda h: fourier_lp_norm(h, "1/2")),
    ]
    for norm in checks:
        assert norm(g) == pytest.approx(abs(alpha) * norm(f), rel=1e-10)


def test_modulation_monotone_embedding_constants(small_spec):
    """s0 <= s1, p1 <= p0, q1 <= q0: the M_{p1,q1}^{s1} norm dominates with a
    constant stable across random inputs."""
    uniform = build_uniform(small_spec)
    rng = np.random.default_rng(61)
    ratios = []
    for _ in range(50):
        f = random_band_limited(small_spec, band_radius=50, rng=rng)
        big = modulation_norm(f, 1, 1, 1, uniform)       # p1 = q1 = 1, s1 = 1
        small = modulation_norm(f, 2, 4, F(1, 2), uniform)
        ratios.append(small / big)
    assert max(ratios) / min(ratios) < 8.0


def test_modulation_q_smoothness_tradeoff(small_spec):
    """q1 < q with s + d/q > s1 + d/q1: the (q, s) norm dominates stably."""
    uniform = build_uniform(small_spec)
    rng = np.random.default_rng(67)
    s, q = F(2), 4          # s + 1/q = 9/4
    s1, q1 = F(1), 2        # s1 + 1/q1 = 3/2
    ratios = []
    for _ in range(50):
        f = random_band_limited(small_spec, band_radius=50, rng=rng)
        ratios.append(modulation_norm(f, 2, q1, s1, uniform)
                      / modulation_norm(f, 2, q, s, uniform))
    assert max(ratios) / min(ratios) < 8.0


def test_littlewood_paley_ratio(small_spec):
    """F_{p,2}^s and W^{s,p} agree up to stable constants for 1 < p < inf."""
    dyadic = build_dyadic(small_spec)
    rng = np.random.default_rng(71)
    for p in (F(4, 3), 2, 4):
        ratios = []
        for _ in range(10):
            f = random_band_limited(small_spec, band_radius=60, rng=rng)
            ratios.append(triebel_norm(f, p, 2, 1, dyadic) / sobolev_norm(f, 1, p))
        assert all(0.1 < r < 10.0 for r in ratios)
        assert max(ratios) / min(ratios) < 4.0


def test_band_violation_errors(small_spec):
    uniform = build_uniform(small_spec)
    dyadic = build_dyadic(small_spec, levels=3)
    values = np.zeros(small_spec.n, dtype=complex)
    ax = small_spec.freq_axis()
    values[np.argmin(np.abs(ax - (uniform.kmax + 5)))] = 1.0
    f = transform(GridFunction(small_spec, values, FREQUENCY), SPACE)
    with pytest.raises(BandLimitError):
        modulation_norm(f, 2, 2, 0, uniform)
    with pytest.raises(BandLimitError):
        besov_norm(f, 2, 2, 0, dyadic)


# Per dimension: a grid, and the frequency point of each check's leak bin. On
# GridSpec(1, 1024, 8) the cube edge kmax - 1 is 62, the dyadic ball's 40 and
# the family margin 63.875; on GridSpec(2, 128, 8) they are 6, 5 and 7.875.
# The d = 2 ball bin, (4, 4), lies inside the cube |xi|_inf <= 5.
BAND_LINE_CASES = {
    1: (GridSpec(d=1, n=1024, oversampling=8),
        {"cube": (62.5,), "ball": (41.0,), "margin": (-64.0,)}),
    2: (GridSpec(d=2, n=128, oversampling=8),
        {"cube": (6.5, 1.0), "ball": (4.0, 4.0), "margin": (-8.0, 0.0)}),
}


def _band_line_member(spec, xi, leak):
    """Peak 1 at xi = (1, 0, ...), and ``leak`` at the frequency point xi."""
    values = np.zeros(spec.shape(), dtype=complex)
    m, centre = spec.oversampling, spec.n // 2
    values[(centre + m,) + (centre,) * (spec.d - 1)] = 1.0
    values[tuple(centre + int(round(c * m)) for c in xi)] = leak
    return values


@pytest.mark.parametrize("leak,refused", [(2e-12, True), (5e-13, False)])
@pytest.mark.parametrize("check", ["cube", "ball", "margin"])
@pytest.mark.parametrize("d", [1, 2])
def test_band_checks_draw_the_line_at_1e12(d, check, leak, refused):
    """Each band check refuses content beyond its band above 1e-12 of the
    peak and accepts it below: the uniform cube |xi|_inf > kmax - 1
    (modulation_norm), the dyadic ball |xi| > 1.25 * 2^levels (besov_norm)
    and the family margin (_finish). 5e-13 of the peak survives the
    1e-13 spectral floor, so the accepted member still holds the bin."""
    spec, points = BAND_LINE_CASES[d]
    values = _band_line_member(spec, points[check], leak)
    if check == "margin":
        run = lambda: _finish(spec, values)
    else:
        f = GridFunction(spec, values, FREQUENCY)
        run = {"cube": lambda: modulation_norm(f, 2, 2, 0, build_uniform(spec)),
               "ball": lambda: besov_norm(f, 2, 2, 0, build_dyadic(spec))}[check]
    if refused:
        with pytest.raises(BandLimitError):
            run()
    else:
        run()


def test_nan_rejected(small_spec):
    bad = np.ones(small_spec.n, dtype=complex)
    bad[7] = np.nan
    f = GridFunction(small_spec, bad, SPACE)
    with pytest.raises(ValueError):
        sobolev_norm(f, 0, 2)


def test_space_norm_dispatch(box_partitions):
    uniform, dyadic = box_partitions
    f = family_single_box(BOX_SPEC, 5)
    pairs = [
        (SpaceSpec.modulation(2, 1, F(1, 2)),
         modulation_norm(f, 2, 1, F(1, 2), uniform)),
        (SpaceSpec.besov(2, 1, F(1, 2)), besov_norm(f, 2, 1, F(1, 2), dyadic)),
        (SpaceSpec.triebel(2, 1, F(1, 2)), triebel_norm(f, 2, 1, F(1, 2), dyadic)),
        (SpaceSpec.sobolev(2, F(1, 2)), sobolev_norm(f, F(1, 2), 2)),
        (SpaceSpec.fourier_l(2), fourier_lp_norm(f, 2)),
    ]
    for space, expected in pairs:
        assert space_norm(f, space, uniform, dyadic) == expected


@pytest.mark.parametrize("member_d,space_d", [(2, 1), (1, 2)])
def test_space_norm_refuses_dimension_mismatch(member_d, space_d):
    """A spec of the other dimension is refused, not evaluated on f's grid."""
    f = family_annulus(grid_for("annulus", d=member_d, level=1), 1)
    for space in (SpaceSpec.besov(1, 1, 0, d=space_d), SpaceSpec.modulation(1, 1, d=space_d)):
        with pytest.raises(ValueError, match=f"dimension mismatch: space has d = {space_d}, "
                                             f"function d = {member_d}"):
            space_norm(f, space)


@pytest.mark.parametrize("p,rel", [
    # the p < 1 precision contract of the norms module; never 1e-12 here
    ("1/2", 1e-7),
    (1, 1e-12),
])
def test_box_piece_norms_match_extended_precision(p, rel):
    """Every active box's norm against its piece transformed and summed in
    extended precision (np.fft on clongdouble) from the same spectrum."""
    spec = GridSpec(d=1, n=1024, oversampling=8)
    uniform = build_uniform(spec)
    spectrum = _floored(family_annulus(spec, 4))
    points, norms = box_piece_norms(spectral_support(GridFunction(spec, spectrum, FREQUENCY)),
                                    p, uniform)
    assert points is uniform.lattice()
    pf = np.longdouble(float(Fraction(p)))
    scale = np.longdouble(spec.n) / np.longdouble(spec.period)
    active = [(k, value) for k, value in zip(uniform.lattice(), norms) if value > 0.0]
    assert len(active) > 4
    for k, value in active:
        slices, patch = uniform.patch(spectrum, k)
        piece = np.zeros(spec.shape(), dtype=np.clongdouble)
        piece[slices] = patch
        # the grid's centering shifts only permute and rephase the samples
        samples = np.abs(np.fft.ifft(piece)) * scale
        assert samples.dtype == np.longdouble
        reference = (np.longdouble(spec.cell_volume) * np.sum(samples ** pf)) ** (1 / pf)
        assert value == pytest.approx(float(reference), rel=rel)


def _pruned_cases():
    """(uniform partition, clean function, active boxes, boxes with a complex
    patch) in d = 1 and 2: a random band-limited function, an annulus member,
    a lattice comb (its translates are modulated, so its patches are complex)
    and a single box, each rebuilt on the frequency side from the spectrum
    box_piece_norms uses, so the dense reference sees the same bins. The
    d = 2 comb has width 1/2: at width 1 on its default grid the phases of
    its four boxes fall on +-1 and its patches are real."""
    members = []
    for spec, level in ((GridSpec(d=1, n=2 ** 10, oversampling=8), 4),
                        (GridSpec(d=2, n=64, oversampling=8), 1)):
        uniform = build_uniform(spec)
        members += [random_band_limited(spec, band_radius=uniform.kmax - 1, seed=5),
                    family_annulus(spec, level)]
    members += [family_lattice_comb(grid_for("lattice_comb", d=1, level=4), 4),
                family_single_box(grid_for("single_box", d=1, level=4), 4),
                family_lattice_comb(GridSpec(d=2, n=128, oversampling=8), 2, Fraction(1, 2)),
                family_single_box(grid_for("single_box", d=2, level=2), 2)]
    counts = ((125, 125), (30, 0), (25, 25), (44, 0), (14, 14), (1, 0), (4, 4), (1, 0))
    return [(build_uniform(f.spec), GridFunction(f.spec, _floored(f), FREQUENCY), *count)
            for f, count in zip(members, counts, strict=True)]


PRUNED_CASES = _pruned_cases()


@pytest.mark.parametrize("case", range(len(PRUNED_CASES)))
@pytest.mark.parametrize("p,rel", [
    (1, 1e-13), (3, 1e-13), ("inf", 1e-13), (2, 1e-13),
    # At p = 1/2 the sum of |x|^(1/2) is dominated by samples at roundoff
    # level in the pieces' tails, so two exact groupings of the same DFT
    # differ there by up to ~1e-10 (both are equally far from an
    # extended-precision full-grid transform).
    ("1/2", 1e-9),
])
def test_box_piece_norms_match_dense(case, p, rel):
    """Every active box's pruned norm equals the full-grid box_apply norm."""
    uniform, g, active_boxes, complex_patches = PRUNED_CASES[case]
    _, norms = box_piece_norms(spectral_support(g), p, uniform)
    active = [(k, v) for k, v in zip(uniform.lattice(), norms) if v > 0.0]
    assert len(active) == active_boxes
    assert sum(uniform.patch(g.values, k)[1].imag.any() for k, _ in active) == complex_patches
    for k, value in active:
        assert value == pytest.approx(lp_norm(box_apply(g, k, uniform), p), rel=rel)


@pytest.mark.parametrize("d,n", [(1, 2 ** 10), (2, 64)])
def test_box_piece_norms_parseval_path(d, n, monkeypatch):
    """At p = 2 the norms come from the patches alone, exactly as before:
    no piece is synthesized, no orbit key computed and no synthesis table
    built."""
    spec = GridSpec(d=d, n=n, oversampling=8)
    uniform = build_uniform(spec)
    f = random_band_limited(spec, band_radius=uniform.kmax - 1, seed=9)

    def forbidden(*args):
        raise AssertionError("the Parseval path synthesizes no piece and keys no orbit")

    monkeypatch.setattr(UniformPartition, "orbit_key", forbidden)
    monkeypatch.setattr(UniformPartition, "piece_magnitudes", forbidden)
    _, norms = box_piece_norms(spectral_support(f), 2, uniform)
    monkeypatch.undo()
    assert "_synthesis_table" not in vars(uniform)
    spectrum = _floored(f)
    for k, value in zip(uniform.lattice(), norms):
        _, patch = uniform.patch(spectrum, k)
        assert value == np.sqrt(np.sum(np.abs(patch) ** 2) / spec.period ** d)
    box_piece_norms(spectral_support(f), 1, uniform)
    assert "_synthesis_table" in vars(uniform)


def test_piece_magnitudes_are_the_dense_samples():
    """The pruned synthesis returns the |box_k f| samples themselves, as a
    multiset: sorted, they match the full-grid inverse transform."""
    for spec in (GridSpec(d=1, n=2 ** 9, oversampling=16),
                 GridSpec(d=2, n=32, oversampling=8)):
        uniform = build_uniform(spec)
        f = random_band_limited(spec, band_radius=uniform.kmax - 1, seed=13)
        k = (1,) * spec.d
        _, patch = uniform.patch(f.in_frequency().values, k)
        pruned = np.sort(uniform.piece_magnitudes(patch), axis=None)
        dense = np.sort(np.abs(box_apply(f, k, uniform).values), axis=None)
        assert pruned.size == spec.n ** spec.d
        np.testing.assert_allclose(pruned, dense, rtol=0, atol=1e-13 * dense.max())


HALF_ROW_GRIDS = {
    # (grid, first-half rows): R/2 + 1 residue rows of L in d = 1 (R = N/L),
    # N/2 + 1 rows of E P E^T in d = 2
    "1d-R1": (GridSpec(d=1, n=16, oversampling=8), 1),
    "1d-R2": (GridSpec(d=1, n=32, oversampling=8), 2),
    "1d-R64": (GridSpec(d=1, n=2 ** 10, oversampling=8), 33),
    "1d-R16-M64": (GridSpec(d=1, n=2 ** 11, oversampling=64), 9),
    "2d-N16": (GridSpec(d=2, n=16, oversampling=8), 9),
    "2d-N64": (GridSpec(d=2, n=64, oversampling=8), 33),
}


class _TableSpy(np.ndarray):
    """A synthesis table that records the shape of each matmul left operand
    taken from it."""
    left_operands = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and isinstance(inputs[0], _TableSpy):
            _TableSpy.left_operands.append(inputs[0].shape)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _TableSpy) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("grid", HALF_ROW_GRIDS)
def test_piece_magnitudes_synthesize_half_the_rows(grid, real, monkeypatch):
    """A piece is synthesized on its first R/2 + 1 residue rows in d = 1
    (N/2 + 1 rows in d = 2), once for a real patch and once more for its
    conjugate when the patch is complex; the mirrored rows fill in the rest.
    Sorted, the N^d magnitudes match the full-grid |box_apply| to 1e-13 of
    the maximum. The p = inf maximum is exactly that of the rows kept from
    the syntheses, so mirroring adds no rounding, and it is the dense
    maximum to 1e-15. The tiny grids (R = 1, 2) have no mirrored row; they
    are too small for build_uniform, so the partition is made directly with
    kmax = 0."""
    spec, rows = HALF_ROW_GRIDS[grid]
    uniform = UniformPartition(spec, 0, _uniform_axis_profile(spec.oversampling))
    rng = np.random.default_rng(31)
    spectrum = rng.standard_normal(spec.shape()) + 0j
    if not real:
        spectrum += 1j * rng.standard_normal(spec.shape())
    _, patch = uniform.patch(spectrum, (0,) * spec.d)
    assert patch.imag.any() != real
    samples = []
    if spec.d == 1:
        ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            samples.append(a.shape)
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        width = 2 * uniform.half_width + 1
        expected = [(rows, _next_pow2(width))] * (1 if real else 2)
    else:
        uniform.__dict__["_synthesis_table"] = uniform._synthesis_table.view(_TableSpy)
        _TableSpy.left_operands = samples
        expected = [(rows, 2 * uniform.half_width + 1)] * (1 if real else 2)
    mags = uniform.piece_magnitudes(patch)
    monkeypatch.undo()
    assert samples == expected
    dense = np.abs(box_apply(GridFunction(spec, spectrum, FREQUENCY), (0,) * spec.d,
                             uniform).values)
    assert mags.size == dense.size == spec.n ** spec.d
    np.testing.assert_allclose(np.sort(mags, axis=None), np.sort(dense, axis=None),
                               rtol=0, atol=1e-13 * dense.max())
    kept = []
    for x, first in ((patch, 0), (np.conj(patch), 1))[:1 if real else 2]:
        half = np.empty((rows, mags.shape[1]), dtype=np.complex128)
        uniform._half_synthesis(x, half)
        kept.append(np.abs(half[first:rows - first]))
    assert mags.max() == max(rows_kept.max() for rows_kept in kept if rows_kept.size)
    assert mags.max() == pytest.approx(dense.max(), rel=1e-15)


def _images(patch):
    """The symmetry images of a patch, listed independently of
    UniformPartition.orbit_key: x and conj(x[::-1]) in d = 1; in d = 2 every
    composition of transposition with conj-reversal along either axis."""
    if patch.ndim == 1:
        return [patch, np.conj(patch[::-1])]
    images = []
    for x in (patch, patch.T):
        for flip0 in (False, True):
            for flip1 in (False, True):
                y = x[::-1] if flip0 else x
                y = y[:, ::-1] if flip1 else y
                images.append(np.conj(y) if flip0 != flip1 else y)
    return images


def _orbit(patch):
    return frozenset((x + 0.0).tobytes() for x in _images(patch))


@pytest.mark.parametrize("spec", [GridSpec(d=1, n=2 ** 9, oversampling=16),
                                  GridSpec(d=2, n=32, oversampling=8)],
                         ids=["1d", "2d"])
def test_orbit_images_permute_piece_magnitudes(spec):
    """Every image of a patch has the patch's orbit key, and its piece has
    the same sample magnitudes as a multiset; signed zeros do not split a
    key."""
    uniform = build_uniform(spec)
    rng = np.random.default_rng(23)
    shape = (2 * uniform.half_width + 1,) * spec.d
    for _ in range(4):
        patch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        patch[rng.random(shape) < 0.2] = 0.0
        key = uniform.orbit_key(patch)
        mags = np.sort(uniform.piece_magnitudes(patch), axis=None)
        images = _images(patch)
        assert len(_orbit(patch)) == len(images) == 2 ** (2 * spec.d - 1)
        for image in images:
            assert uniform.orbit_key(image) == key
            np.testing.assert_allclose(
                np.sort(uniform.piece_magnitudes(image), axis=None), mags,
                rtol=0, atol=1e-13 * mags.max())
        assert uniform.orbit_key(np.where(patch == 0, complex(-0.0, -0.0), patch)) == key


ORBIT_CASES = {
    # (grid, levels, active boxes, syntheses) summed over the levels
    "annulus-2d-level3": (grid_for("annulus", d=2, level=3), [3], 460, 48),
    "annulus-1d-levels4-8": (grid_for("annulus", d=1, level=8), range(4, 9), 870, 194),
}


@pytest.mark.parametrize("case", ORBIT_CASES)
def test_box_piece_norms_synthesize_once_per_orbit(case, monkeypatch):
    """At p = 1 each annulus member's pieces are synthesized once per
    symmetry orbit of the active patches, and no orbit twice."""
    spec, levels, active_boxes, syntheses = ORBIT_CASES[case]
    uniform = build_uniform(spec)
    synthesized = []
    magnitudes = UniformPartition.piece_magnitudes

    def spy(self, patch):
        synthesized.append(_orbit(patch))
        return magnitudes(self, patch)

    monkeypatch.setattr(UniformPartition, "piece_magnitudes", spy)
    active = 0
    for level in levels:
        f = family_annulus(spec, level)
        before = len(synthesized)
        box_piece_norms(spectral_support(f), 1, uniform)
        spectrum = _floored(f)
        peak = np.abs(spectrum).max()
        orbits = set()
        for k in uniform.lattice():
            patch = uniform.patch(spectrum, k)[1]
            if np.abs(patch).max() > _NEGLIGIBLE * peak:
                orbits.add(_orbit(patch))
                active += 1
        assert set(synthesized[before:]) == orbits
        assert len(synthesized) - before == len(orbits)
    assert (active, len(synthesized)) == (active_boxes, syntheses)


def _skip_cases():
    """(name, function) in d = 1 and 2: a single-box member, an annulus
    member, and a random function band-limited to a ball away from the
    origin. Each reaches only some boxes and some dyadic levels."""
    cases = []
    for d in (1, 2):
        rnd_spec = GridSpec(d=d, n=2 ** 10 if d == 1 else 256, oversampling=8)
        center = (20.0,) if d == 1 else (4.0, 3.0)
        cases += [
            (f"single_box-{d}d", family_single_box(grid_for("single_box", d=d, level=3), 3)),
            (f"annulus-{d}d", family_annulus(grid_for("annulus", d=d, level=2), 2)),
            (f"random-{d}d", random_band_limited(rnd_spec, band_radius=2.5,
                                                 center=center, seed=11)),
        ]
    return cases


SKIP_CASES = dict(_skip_cases())


@pytest.mark.parametrize("case", SKIP_CASES)
def test_box_piece_norms_skips_only_zero_patches(case, monkeypatch):
    """Every lattice point box_piece_norms does not visit has an all-zero
    windowed spectrum, and its norm is 0."""
    f = SKIP_CASES[case]
    uniform = build_uniform(f.spec)
    visited = set()
    patch = UniformPartition.patch

    def spy(self, spectrum, k):
        visited.add(tuple(k))
        return patch(self, spectrum, k)

    monkeypatch.setattr(UniformPartition, "patch", spy)
    _, norms = box_piece_norms(spectral_support(f), 1, uniform)
    monkeypatch.undo()
    spectrum = _floored(f)
    points = uniform.lattice()
    skipped = [i for i, k in enumerate(points.tolist()) if tuple(k) not in visited]
    assert visited and skipped
    for i in skipped:
        assert not uniform.patch(spectrum, points[i])[1].any()
        assert norms[i] == 0.0


@pytest.mark.parametrize("case", SKIP_CASES)
def test_dyadic_norms_skip_only_zero_levels(case, monkeypatch):
    """Every level at which besov_norm and triebel_norm do not evaluate
    phi_j has an all-zero windowed spectrum."""
    f = SKIP_CASES[case]
    dyadic = build_dyadic(f.spec)
    spectrum = _floored(f)
    phi = DyadicPartition.phi
    for norm in (besov_norm, triebel_norm):
        visited = set()

        def spy(self, j, radius):
            visited.add(j)
            return phi(self, j, radius)

        monkeypatch.setattr(DyadicPartition, "phi", spy)
        norm(f, 1, 2, 0, dyadic)
        monkeypatch.undo()
        skipped = set(range(dyadic.levels + 1)) - visited
        assert visited and skipped
        for j in skipped:
            assert not (dyadic.window(j) * spectrum).any()


@pytest.mark.parametrize("case", SKIP_CASES)
def test_support_and_dyadic_pieces_match_the_dense_arrays(case):
    """The support's coordinates, radii and cube masks are freq_axis(),
    freq_radius() and freq_outside_cube() at its bins, and every dyadic
    piece, phi_j at those radii times the support's values, scattered onto
    the grid, is window(j) * spectrum bit for bit."""
    f = SKIP_CASES[case]
    spec, dyadic = f.spec, build_dyadic(f.spec)
    spectrum = _floored(f)
    support, pieces = _dyadic_pieces(f, dyadic)
    for index, coords in zip(support.index, support.coords):
        assert coords.tobytes() == spec.freq_axis()[index].tobytes()
    dense_radius = spec.freq_radius().reshape(-1)[support.flat]
    assert support.radius.tobytes() == dense_radius.tobytes()
    for radius in (0.5, 2.0, 20.5):
        dense_mask = spec.freq_outside_cube(radius).reshape(-1)[support.flat]
        assert np.array_equal(support.outside_cube(radius), dense_mask), radius
    levels = []
    for j, piece in pieces:
        levels.append(j)
        assert support.scatter(piece).tobytes() == (dyadic.window(j) * spectrum).tobytes(), j
    assert levels == dyadic.reached(support) and levels


@pytest.mark.parametrize("d", [1, 2], ids=["1d", "2d"])
def test_norms_read_no_dense_radius_or_cube(d, monkeypatch):
    """The M, B, F and FL norms read the coordinates and radii of the
    support alone: none builds the dense |xi| array or the |xi|_inf mask.
    (W's Bessel multiplier is a dense array by definition.)"""
    f = family_annulus(grid_for("annulus", d=d, level=2), 2)
    uniform, dyadic = build_uniform(f.spec), build_dyadic(f.spec)

    def forbidden(*args):
        raise AssertionError("a norm built a dense frequency-side mask or radius")

    monkeypatch.setattr(GridSpec, "freq_radius", forbidden)
    monkeypatch.setattr(GridSpec, "freq_outside_cube", forbidden)
    for space in (SpaceSpec.modulation(1, 1, d=d), SpaceSpec.modulation(2, 2, d=d),
                  SpaceSpec.besov(1, 1, 0, d=d), SpaceSpec.besov(2, 2, 0, d=d),
                  SpaceSpec.triebel(1, 2, 0, d=d), SpaceSpec.triebel(2, 2, 0, d=d),
                  SpaceSpec.fourier_l(1, d=d)):
        assert space_norm(f, space, uniform, dyadic) > 0.0


@pytest.mark.parametrize("q", [1, 2, "inf"])
def test_dyadic_norms_of_zero(box_partitions, q):
    _, dyadic = box_partitions
    zero = _zero(BOX_SPEC)
    assert besov_norm(zero, 2, q, 1, dyadic) == 0.0
    assert triebel_norm(zero, 2, q, 1, dyadic) == 0.0
    for norm in (besov_norm, triebel_norm):
        with pytest.raises(ValueError):
            norm(zero, 0, q, 1, dyadic)  # reaches no level, still checks p


@pytest.mark.parametrize("norm,member_calls,space_calls", [
    pytest.param(lambda f, uniform, dyadic: besov_norm(f, 2, 2, 0, dyadic),
                 (0, 0), (1, 0), id="besov"),
    pytest.param(lambda f, uniform, dyadic: triebel_norm(f, 2, 2, 0, dyadic),
                 (0, 0), (1, 0), id="triebel"),
    pytest.param(lambda f, uniform, dyadic: besov_norm(f, 1, 2, 0, dyadic),
                 (0, 1), (1, 1), id="besov-p1"),
    pytest.param(lambda f, uniform, dyadic: triebel_norm(f, 2, 1, 0, dyadic),
                 (0, 1), (1, 1), id="triebel-q1"),
    pytest.param(lambda f, uniform, dyadic: modulation_norm(f, 2, 2, 0, uniform),
                 (0, 0), (1, 0), id="modulation"),
])
def test_full_grid_transform_count(box_partitions, full_grid_transforms, norm,
                                   member_calls, space_calls):
    """(forward, inverse) full-grid transforms per norm. A single-box member
    is its spectrum, so no norm forward-transforms it; its space samples take
    one forward transform, shared by the band check and the norm. L^2 piece
    norms come from the spectrum, so Besov at p = 2 and Triebel at p = q = 2
    make no inverse transform. Elsewhere only the one reached dyadic level is
    inverse-transformed: full-grid work on empty pieces would show here as
    extra transforms."""
    uniform, dyadic = box_partitions
    member = family_single_box(BOX_SPEC, 5)
    for f, expected in ((member, member_calls), (member.in_space(), space_calls)):
        full_grid_transforms.clear()
        norm(f, uniform, dyadic)
        calls = full_grid_transforms
        assert (calls["forward"], calls["inverse"]) == expected, f.side


def _parseval_cases():
    """(name, frequency-side function) in d = 1 and 2: an annulus member and
    a random function band-limited to a ball that reaches several levels."""
    cases = []
    for d in (1, 2):
        spec = GridSpec(d=d, n=2 ** 10 if d == 1 else 256, oversampling=8)
        band = 0.9 * 1.25 * 2 ** build_dyadic(spec).levels
        cases += [
            (f"annulus-{d}d", family_annulus(grid_for("annulus", d=d, level=2), 2)),
            (f"random-{d}d", random_band_limited(spec, band_radius=band, seed=17)),
        ]
    return cases


PARSEVAL_CASES = dict(_parseval_cases())


def _synthesized_pieces(f, dyadic):
    """Every level's delta_j f, synthesized on the dense path."""
    return [delta_apply(f, j, dyadic) for j in range(dyadic.levels + 1)]


@pytest.mark.parametrize("case", PARSEVAL_CASES)
@pytest.mark.parametrize("s", [F(-1, 2), 0, 1])
@pytest.mark.parametrize("q", [1, 2, "inf"])
def test_besov_p2_matches_synthesized_pieces(case, q, s):
    """At p = 2 the piece norms come from the spectrum by Parseval; they equal
    the L^2 norms of the synthesized pieces to rounding."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    expected = _besov_by_synthesis(_synthesized_pieces(f, dyadic), 2, q, s)
    assert besov_norm(f, 2, q, s, dyadic) == pytest.approx(expected, rel=1e-12, abs=0)


def _besov_by_synthesis(pieces, p, q, s):
    """The Besov norm from the dense pieces through lp_norm."""
    weights = 2.0 ** (float(s) * np.arange(len(pieces)))
    return lq_seq_norm([lp_norm(piece, p) for piece in pieces], q, weights)


@pytest.mark.parametrize("case", PARSEVAL_CASES)
@pytest.mark.parametrize("p", [1, F(3, 2), "inf"])
def test_besov_matches_synthesized_pieces(case, p):
    """Off the Parseval route (p = 2 has its own test above), the pieces
    synthesized without centering shifts give the norm of the dense pieces
    through lp_norm, for every q and s, to rounding."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    pieces = _synthesized_pieces(f, dyadic)
    for q in (1, 2, "inf"):
        for s in (F(-1, 2), 0, 1):
            expected = _besov_by_synthesis(pieces, p, q, s)
            assert besov_norm(f, p, q, s, dyadic) == pytest.approx(expected, rel=1e-12,
                                                                   abs=0), (q, s)


@pytest.mark.parametrize("case", PARSEVAL_CASES)
@pytest.mark.parametrize("p", [1, F(3, 2)])
@pytest.mark.parametrize("q", [1, "inf"])
def test_triebel_matches_pointwise_synthesis(case, p, q):
    """Off the Parseval route, the pointwise l^q over the pieces synthesized
    without centering shifts, then the spatial L^p norm, equals the same
    reduction of the dense pieces through lp_norm, to rounding."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    pieces = _synthesized_pieces(f, dyadic)
    for s in (F(-1, 2), 0, 1):
        mags = np.array([2.0 ** (float(s) * j) * np.abs(piece.values)
                         for j, piece in enumerate(pieces)])
        pointwise = (mags.max(axis=0) if q == "inf"
                     else np.sum(mags ** float(q), axis=0) ** (1.0 / float(q)))
        expected = lp_norm(GridFunction(f.spec, pointwise, SPACE), p)
        assert triebel_norm(f, p, q, s, dyadic) == pytest.approx(expected, rel=1e-12,
                                                                 abs=0), s


@pytest.mark.parametrize("case", PARSEVAL_CASES)
@pytest.mark.parametrize("s", [F(-1, 2), 0, 1])
def test_triebel_22_matches_pointwise_synthesis(case, s):
    """F_{2,2} takes the Besov route; it equals the pointwise l^2 sum over
    the synthesized pieces, then the spatial L^2 norm, to rounding."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    stack = sum((2.0 ** (float(s) * j) * np.abs(piece.values)) ** 2
                for j, piece in enumerate(_synthesized_pieces(f, dyadic)))
    expected = np.sqrt(f.spec.cell_volume * np.sum(stack))
    assert triebel_norm(f, 2, 2, s, dyadic) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", PARSEVAL_CASES)
def test_l2_dyadic_norms_make_no_inverse_transform(case, full_grid_transforms):
    """No inverse transform for Besov at p = 2 or Triebel at p = q = 2; one
    per reached level for Triebel at p = 2, q = 1, which stays pointwise."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    reached = len(dyadic.reached(spectral_support(f)))
    assert reached >= 2
    for norm, q, expected in ((besov_norm, 1, 0), (besov_norm, "inf", 0),
                              (triebel_norm, 2, 0), (triebel_norm, 1, reached)):
        full_grid_transforms.clear()
        norm(f, 2, q, 0, dyadic)
        assert full_grid_transforms["inverse"] == expected, (norm.__name__, q)
