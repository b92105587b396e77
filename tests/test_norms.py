"""The five quasi-norm evaluators: exact bookkeeping cases and stability."""
import itertools
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dense import apply_multiplier, box_apply, box_table, delta_apply, dyadic_window, \
    extended_lp, extended_magnitudes, freq_outside_cube, half_row_magnitudes, lp_norm, \
    scatter, synthesized_magnitudes
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
from modemb.exponents import Exponent
from modemb.grid import FREQUENCY, SPACE, BandLimitError, GridFunction, GridSpec, \
    lq_seq_norm, transform, _next_pow2
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
    build_dyadic,
    build_uniform,
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
    for grid._fft; "inverse" for grid._ifft. "band" counts the dyadic
    pieces and W, each one real FFT of a block over the support's bounding
    box in either dimension, which make no full-grid inverse transform;
    "box" counts the box pieces' half-row syntheses. Clear it to start a
    new count."""
    calls = Counter()

    def counted(original, kind):
        def spy(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)
        return spy

    monkeypatch.setattr(grid, "_fft", counted(grid._fft, "forward"))
    monkeypatch.setattr(grid, "_ifft", counted(grid._ifft, "inverse"))
    monkeypatch.setattr(norms, "_block_magnitudes", counted(norms._block_magnitudes, "band"))
    monkeypatch.setattr(norms, "_half_row_magnitudes",
                        counted(norms._half_row_magnitudes, "box"))
    return calls


def _zero(spec):
    return GridFunction(spec, np.zeros(spec.shape()), SPACE)


def _floored(f):
    """f's spectrum with every bin at or below the spectral floor set to 0."""
    support = f.support
    return scatter(support, support.values)


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


def _dense_sobolev(f, s, r):
    """W^{s,r} on the full grid: the dense Bessel multiplier, applied to the
    unfloored spectrum by apply_multiplier's inverse transform, then lp_norm."""
    multiplier = (1.0 + f.spec.freq_radius() ** 2) ** (float(s) / 2.0)
    return lp_norm(apply_multiplier(f, multiplier), r)


def _sobolev_cases():
    """(name, function): annulus, single-box and comb members in d = 1 and 2,
    a space-side random function and the zero function in each dimension."""
    spec = GridSpec(d=1, n=2 ** 10, oversampling=8)
    random = random_band_limited(spec, band_radius=build_uniform(spec).kmax - 1, seed=5)
    return {
        "annulus-1d": family_annulus(spec, 4),
        "box-1d": family_single_box(grid_for("single_box", d=1, level=4), 4),
        "comb-1d": family_lattice_comb(grid_for("lattice_comb", d=1, level=4), 4),
        "random-space-1d": random.in_space(),
        "zero-1d": _zero(spec),
        "annulus-2d": family_annulus(GridSpec(d=2, n=64, oversampling=8), 1),
        "box-2d": family_single_box(grid_for("single_box", d=2, level=2), 2),
        "comb-2d": family_lattice_comb(GridSpec(d=2, n=128, oversampling=8), 2, F(1, 2)),
        "zero-2d": _zero(GridSpec(d=2, n=64, oversampling=8)),
    }


SOBOLEV_CASES = _sobolev_cases()


@pytest.mark.parametrize("s", [-1, 0, 1])
@pytest.mark.parametrize("case", SOBOLEV_CASES)
def test_sobolev_matches_dense(case, s):
    """At r >= 1, W from the floored support is the dense full-grid W to
    1e-12 relative: the bins under the floor and the synthesis order move it
    by rounding only. The zero function reads 0.0 exactly on both paths."""
    f = SOBOLEV_CASES[case]
    for r in (1, 2, 3, "inf"):
        expected = _dense_sobolev(f, s, r)
        assert (expected == 0.0) == case.startswith("zero")
        assert sobolev_norm(f, s, r) == pytest.approx(expected, rel=1e-12, abs=0), r


@pytest.fixture(scope="module")
def annulus_level8():
    return family_annulus(grid_for("annulus", level=8), 8)


def _extended_sobolev_half(spec, spectrum, s):
    """W^{s,1/2} of ``spectrum`` synthesized in extended precision on the
    full grid, the Bessel multiplier taken in longdouble too."""
    radius = spec.freq_radius().astype(np.longdouble)
    piece = spectrum.astype(np.clongdouble) * (1 + radius ** 2) ** (np.longdouble(s) / 2)
    return float(extended_lp(extended_magnitudes(spec, piece), spec, "1/2"))


@pytest.mark.parametrize("s", [-1, 0, 1, 2])
def test_sobolev_below_one_matches_extended_precision(annulus_level8, s):
    """At r = 1/2 (the p < 1 contract of the norms module: never 1e-12) W
    is the floored spectrum's norm, like every other norm: it holds the
    extended-precision synthesis of the support to 1e-6 relative. The dense
    path also sums the bins under the floor; on this level-8 member they
    move the r = 1/2 value by about 1e-5, so the two paths differ by that
    much while each holds its own spectrum's extended-precision value."""
    f = annulus_level8
    support = f.support
    value, dense = sobolev_norm(f, s, "1/2"), _dense_sobolev(f, s, "1/2")
    assert value == pytest.approx(
        _extended_sobolev_half(f.spec, scatter(support, support.values), s), rel=1e-6)
    assert dense == pytest.approx(_extended_sobolev_half(f.spec, f.values, s), rel=1e-5)
    assert value == pytest.approx(dense, rel=2e-5)


def test_besov_below_one_matches_extended_precision_at_large_n(annulus_level8):
    """B^0_{1/2,1} of the level-8 d = 1 annulus (N = 2^17) against its
    extended-precision synthesis: per reached level, the dense phi_j times
    the floored spectrum transformed by np.fft on clongdouble. The float64
    value is 1.13e-6 from it, nearly all from the level-8 piece (1.6e-6):
    its tail samples sit at roundoff level, and the square root amplifies
    them. The full-grid float64 transform of the same piece errs as much
    (1.8e-6), so the bound is the norms module's p < 1 contract at this N."""
    f = annulus_level8
    spec, dyadic = f.spec, build_dyadic(f.spec)
    reference = sum(extended_lp(level, spec, "1/2") for level in _extended_levels(f, dyadic))
    assert dyadic.reached(f.support) == [7, 8, 9]
    assert besov_norm(f, "1/2", 1, 0) == pytest.approx(float(reference), rel=2e-6)


def _extended_levels(f, dyadic):
    """The extended-precision magnitudes of each level ``dyadic`` reaches:
    the dense phi_j times f's floored spectrum, one per level."""
    support = f.support
    spectrum = scatter(support, support.values).astype(np.clongdouble)
    return [extended_magnitudes(f.spec, dyadic_window(dyadic, j) * spectrum)
            for j in dyadic.reached(support)]


@pytest.mark.parametrize("q", [1, 2, "inf"])
def test_triebel_below_one_matches_extended_precision_at_large_n(annulus_level8, q):
    """F^0_{1/2,q} of the level-8 d = 1 annulus (N = 2^17) against the
    pointwise l^q, in extended precision, of each reached level's
    extended-precision synthesis, then its L^{1/2} norm. It reads 3.5e-7
    off at q = 1, 1.1e-7 at q = 2 and 4.7e-8 at q = inf, so the bound is the
    norms module's p < 1 contract at this N."""
    f = annulus_level8
    levels = _extended_levels(f, build_dyadic(f.spec))
    if q == "inf":
        pointwise = np.maximum.reduce(levels)
    else:
        pointwise = sum(level ** np.longdouble(q) for level in levels) ** (1 / np.longdouble(q))
    reference = extended_lp(pointwise, f.spec, "1/2")
    assert triebel_norm(f, "1/2", q, 0) == pytest.approx(float(reference), rel=1e-6)


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


# (member grid, level, other grids): a larger N, a larger M, and a smaller N
# whose kmax the member's spectrum exceeds, so the grid check must come
# before the band check.
OTHER_GRID_CASES = {
    "1d": (GridSpec(d=1, n=1024, oversampling=8), 5,
           [GridSpec(d=1, n=2048, oversampling=8), GridSpec(d=1, n=1024, oversampling=16),
            GridSpec(d=1, n=256, oversampling=8)]),
    "2d": (GridSpec(d=2, n=128, oversampling=8), 2,
           [GridSpec(d=2, n=256, oversampling=8), GridSpec(d=2, n=128, oversampling=16),
            GridSpec(d=2, n=64, oversampling=8)]),
}


@pytest.mark.parametrize("case", OTHER_GRID_CASES)
def test_modulation_refuses_a_partition_of_another_grid(case):
    """A uniform partition built on another grid would cut the wrong bins:
    unchecked, M^0_{1,1} of the d = 1 member reads twice its value with the
    partition of N = 2048. modulation_norm, space_norm and box_piece_norms
    refuse it with a ValueError naming both grids, not a BandLimitError;
    the member's own partition still works."""
    spec, level, others = OTHER_GRID_CASES[case]
    f = family_annulus(spec, level)
    own = build_uniform(spec)
    assert space_norm(f, SpaceSpec.modulation(1, 1, d=spec.d), own) == modulation_norm(f, 1, 1, 0)
    for other in others:
        uniform = build_uniform(other)
        message = re.escape(f"uniform partition built on {other} does not match the "
                            f"function's grid {spec}")
        for call in (lambda: modulation_norm(f, 1, 1, 0, uniform),
                     lambda: space_norm(f, SpaceSpec.modulation(1, 1, d=spec.d), uniform),
                     lambda: box_piece_norms(f.support, 1, uniform)):
            with pytest.raises(ValueError, match=message) as caught:
                call()
            assert type(caught.value) is ValueError, other


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
    points, norms = box_piece_norms(GridFunction(spec, spectrum, FREQUENCY).support, p, uniform)
    assert points is uniform.lattice()
    active = [(k, value) for k, value in zip(uniform.lattice(), norms) if value > 0.0]
    assert len(active) > 4
    for k, value in active:
        assert value == pytest.approx(_extended_box_norm(uniform, spectrum, k, p), rel=rel)


def _extended_box_norm(uniform, spectrum, k, p) -> float:
    """The L^p norm of sigma_k times ``spectrum``, synthesized on the full grid
    and summed in extended precision."""
    slices, patch = uniform.patch(spectrum, k)
    piece = np.zeros(uniform.spec.shape(), dtype=np.clongdouble)
    piece[slices] = patch
    return float(extended_lp(extended_magnitudes(uniform.spec, piece), uniform.spec, p))


def test_box_piece_norms_below_one_match_extended_precision_at_large_n(annulus_level8):
    """Every 16th of the 444 active boxes of the level-8 d = 1 annulus
    (N = 2^17) at p = 1/2 against its extended-precision synthesis. Every
    8th read at most 2.6e-11 off; the bound is the norms module's p < 1
    contract."""
    f = annulus_level8
    uniform = build_uniform(f.spec)
    points, norms = box_piece_norms(f.support, "1/2", uniform)
    active = np.flatnonzero(norms)
    assert len(active) == 444
    spectrum = scatter(f.support, f.support.values)
    for i in active[::16]:
        reference = _extended_box_norm(uniform, spectrum, points[i], "1/2")
        assert norms[i] == pytest.approx(reference, rel=1e-7), points[i]


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
    _, norms = box_piece_norms(g.support, p, uniform)
    active = [(k, v) for k, v in zip(uniform.lattice(), norms) if v > 0.0]
    assert len(active) == active_boxes
    assert sum(uniform.patch(g.values, k)[1].imag.any() for k, _ in active) == complex_patches
    for k, value in active:
        assert value == pytest.approx(lp_norm(box_apply(g, k, uniform), p), rel=rel)


def _eight_copy_orbit_key(patch):
    """The orbit key with each image built as its own conjugated copy and
    then normalized: the reference UniformPartition.orbit_key must match."""
    images = []
    for flips in itertools.product((False, True), repeat=patch.ndim):
        x = patch[tuple(slice(None, None, -1 if f else 1) for f in flips)]
        if sum(flips) % 2:
            x = np.conj(x)
        images.extend(x.transpose(axes) for axes in itertools.permutations(range(patch.ndim)))
    return min((x + 0.0).tobytes() for x in images)


def _scattered_box_piece_norms(support, p, uniform):
    """box_piece_norms with every patch cut from the floored spectrum
    scattered into a dense N^d grid, and keyed by eight conjugated copies:
    the reference the block cut must match. Each visited patch's key is
    checked against UniformPartition.orbit_key on the way."""
    spec, peak = support.spec, support.peak
    parseval = Exponent.of(p) == 2
    if not parseval:
        table = norms._box_table(uniform)
        work = norms._work_arrays(table, spec.d)
    spectrum = scatter(support, support.values)
    points = uniform.lattice()
    values = np.zeros(len(points))
    memo = {}
    for i in uniform.reached(support):
        _, patch = uniform.patch(spectrum, points[i])
        if np.abs(patch).max() <= _NEGLIGIBLE * peak:
            continue
        if parseval:
            values[i] = norms._l2_norm(patch, spec)
            continue
        key = _eight_copy_orbit_key(patch)
        assert uniform.orbit_key(patch) == key
        if key not in memo:
            memo[key] = grid._riemann_lp(norms._half_row_magnitudes(patch, table, work=work),
                                         spec.cell_volume, p)
        values[i] = memo[key]
    return points, values


def _block_cases():
    """(name, function, whether the support's block is clipped at both grid
    ends) in d = 1 and 2: a single box, an annulus member, a comb (complex
    patches), a random function inside the uniform band edge, one reaching
    past it so that its bins lie within 2 w of sample 0 and sample N - 1,
    and a zero function."""
    cases = []
    for d, n in ((1, 2 ** 10), (2, 128)):
        spec = GridSpec(d=d, n=n, oversampling=8)
        kmax = build_uniform(spec).kmax
        comb = (family_lattice_comb(grid_for("lattice_comb", d=1, level=4), 4) if d == 1 else
                family_lattice_comb(spec, 2, Fraction(1, 2)))
        cases += [
            (f"single_box-{d}d", family_single_box(grid_for("single_box", d=d, level=3), 3), False),
            (f"annulus-{d}d", family_annulus(grid_for("annulus", d=d, level=2), 2), False),
            (f"comb-{d}d", comb, False),
            (f"random-{d}d", random_band_limited(spec, kmax - 1, seed=5), False),
            (f"random-edge-{d}d", random_band_limited(spec, float(spec.omega) - 0.5, seed=6),
             True),
            (f"zero-{d}d", GridFunction(spec, np.zeros(spec.shape()), FREQUENCY), False),
        ]
    return {name: (f, clipped) for name, f, clipped in cases}


BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_box_piece_norms_match_the_scattered_loop(case):
    """Patches cut from the support's block give the norms of patches cut
    from the dense scattered spectrum, byte for byte, at every p."""
    f, clipped = BLOCK_CASES[case]
    support, uniform = f.support, build_uniform(f.spec)
    reach = 2 * uniform.half_width
    if clipped:
        for index in support.index:
            assert index.min() < reach and index.max() > f.spec.n - 1 - reach
    for p in ("1/2", 1, 2, 3, "inf"):
        points, values = box_piece_norms(support, p, uniform)
        reference_points, reference = _scattered_box_piece_norms(support, p, uniform)
        assert points is reference_points is uniform.lattice()
        assert values.dtype == reference.dtype and values.tobytes() == reference.tobytes(), p
        assert values.any() == bool(support.flat.size)


@pytest.mark.parametrize("d,n", [(1, 2 ** 10), (2, 64)])
def test_box_piece_norms_parseval_path(d, n, monkeypatch):
    """At p = 2 the norms come from the patches alone, exactly as before:
    no piece is synthesized, no orbit key computed and no synthesis table
    built; at p = 1 one table is built."""
    spec = GridSpec(d=d, n=n, oversampling=8)
    uniform = build_uniform(spec)
    f = random_band_limited(spec, band_radius=uniform.kmax - 1, seed=9)

    def forbidden(*args):
        raise AssertionError("the Parseval path synthesizes no piece and keys no orbit")

    monkeypatch.setattr(UniformPartition, "orbit_key", forbidden)
    monkeypatch.setattr(norms, "_half_row_magnitudes", forbidden)
    monkeypatch.setattr(norms, "_box_table", forbidden)
    _, values = box_piece_norms(f.support, 2, uniform)
    monkeypatch.undo()
    spectrum = _floored(f)
    for k, value in zip(uniform.lattice(), values):
        _, patch = uniform.patch(spectrum, k)
        assert value == np.sqrt(np.sum(np.abs(patch) ** 2) / spec.period ** d)
    built = []
    build = norms._box_table
    monkeypatch.setattr(norms, "_box_table", lambda u: built.append(u) or build(u))
    box_piece_norms(f.support, 1, uniform)
    assert built == [uniform]


def _box_magnitudes(uniform, patch):
    """The magnitudes of the box piece whose windowed spectrum is ``patch``,
    synthesized as box_piece_norms does, on a fresh table of the grid, as
    one array: the first rows, then the mirrored ones."""
    return np.concatenate(norms._half_row_magnitudes(patch, norms._box_table(uniform)))


def test_piece_magnitudes_are_the_dense_samples():
    """The pruned synthesis returns the |box_k f| samples themselves, as a
    multiset: sorted, they match the full-grid inverse transform."""
    for spec in (GridSpec(d=1, n=2 ** 9, oversampling=16),
                 GridSpec(d=2, n=32, oversampling=8)):
        uniform = build_uniform(spec)
        f = random_band_limited(spec, band_radius=uniform.kmax - 1, seed=13)
        k = (1,) * spec.d
        _, patch = uniform.patch(f.in_frequency().values, k)
        pruned = np.sort(_box_magnitudes(uniform, patch), axis=None)
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
    conjugate when the patch is complex and the grid has mirrored rows; the
    mirrored rows fill in the rest.
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
        expected = [(rows, _next_pow2(width))] * (1 if real or rows <= 2 else 2)
    else:
        _TableSpy.left_operands = samples
        expected = [(rows, 2 * uniform.half_width + 1)] * (1 if real else 2)
    table = norms._box_table(uniform)
    mags = np.concatenate(
        norms._half_row_magnitudes(patch, table if spec.d == 1 else table.view(_TableSpy)))
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
        norms._half_synthesis(x, table, half)
        kept.append(np.abs(half[first:rows - first]))
    assert mags.max() == max(rows_kept.max() for rows_kept in kept if rows_kept.size)
    assert mags.max() == pytest.approx(dense.max(), rel=1e-15)


def _half_row_patch(grid_name, real, seed=31):
    """A random real or complex patch of the grid ``grid_name`` of
    HALF_ROW_GRIDS, its partition (kmax = 0) and its box table."""
    spec, rows = HALF_ROW_GRIDS[grid_name]
    uniform = UniformPartition(spec, 0, _uniform_axis_profile(spec.oversampling))
    rng = np.random.default_rng(seed)
    spectrum = rng.standard_normal(spec.shape()) + 0j
    if not real:
        spectrum += 1j * rng.standard_normal(spec.shape())
    _, patch = uniform.patch(spectrum, (0,) * spec.d)
    return spec, rows, patch, norms._box_table(uniform)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("grid_name", HALF_ROW_GRIDS)
def test_half_row_pair_norm_matches_the_copied_multiset(grid_name, real):
    """The L^p norm of the pair (mags, mirror) is that of the whole multiset
    with the mirrored rows copied (dense.half_row_magnitudes): within 1e-15
    relative at p >= 1 and 1e-13 at p = 1/2. mags holds the first rows, the
    pair concatenated is the copied multiset, and a real patch's mirror is
    a view of mags while a complex one's is memory of its own."""
    spec, rows, patch, table = _half_row_patch(grid_name, real)
    mags, mirror = norms._half_row_magnitudes(patch, table)
    whole = half_row_magnitudes(patch, table)
    assert len(mags) == rows and len(mirror) == max(rows - 2, 0)
    np.testing.assert_array_equal(np.concatenate((mags, mirror)), whole)
    if rows > 2:
        assert np.shares_memory(mags, mirror) == real
    for p, rel in ((1, 1e-15), (3, 1e-15), ("inf", 1e-15), ("1/2", 1e-13)):
        value = grid._riemann_lp((mags, mirror), spec.cell_volume, p)
        assert value == pytest.approx(grid._riemann_lp(whole, spec.cell_volume, p), rel=rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("p", ["1/2", 1, 3, "inf"])
def test_half_row_pair_refuses_a_non_finite_sample(p, bad):
    """A NaN or Inf bin of a complex d = 1 patch reaches both parts of the
    pair, and its norm raises NonFiniteError; so does a NaN or Inf only in
    a mirror of its own rows, or in a mirrored row a view shares."""
    spec, rows, patch, table = _half_row_patch("1d-R64", real=False)
    patch[3] = bad
    with np.errstate(invalid="ignore"):  # an Inf bin times a zero bin is NaN
        mags, mirror = norms._half_row_magnitudes(patch, table)
    assert not np.shares_memory(mags, mirror)
    with pytest.raises(grid.NonFiniteError):
        grid._riemann_lp((mags, mirror), spec.cell_volume, p)
    mags, own = np.ones((rows, 8)), np.ones((rows - 2, 8))
    own[-1, 2] = bad
    with pytest.raises(grid.NonFiniteError):
        grid._riemann_lp((mags, own), spec.cell_volume, p)
    mags[1, 5] = bad  # a mirrored row, which the view shares
    with pytest.raises(grid.NonFiniteError):
        grid._riemann_lp((mags, mags[1:-1]), spec.cell_volume, p)


def _band_cases():
    """(name, d = 1 function) for the d = 1 dyadic synthesis; R in a name is
    N over the next power of two >= the bins the support spans: a lattice
    comb, whose modulated translates make its pieces complex, on a grid
    eight times its default; a random function whose support spans more
    than N/2 bins; and a random function reaching levels 0..5, whose pieces
    span from a few bins to all of the support, all synthesized on one
    block."""
    comb = grid_for("lattice_comb", d=1, level=4)
    comb = GridSpec(d=1, n=8 * comb.n, oversampling=comb.oversampling)
    return {
        "comb-R8": family_lattice_comb(comb, 4, F(1, 2)),
        "random-R1": random_band_limited(GridSpec(d=1, n=2 ** 10, oversampling=8),
                                         band_radius=36, seed=17),
        "random-levels-R8": random_band_limited(GridSpec(d=1, n=2 ** 12, oversampling=8),
                                                band_radius=20, seed=3),
    }


BAND_CASES = _band_cases()


BLOCK_SYNTHESIS_CASES = {
    # (member, whether its dyadic pieces are real)
    "annulus-level2": (lambda: family_annulus(grid_for("annulus", d=2, level=2), 2), True),
    "random-off-centre": (lambda: random_band_limited(GridSpec(d=2, n=256, oversampling=8),
                                                      band_radius=2.5, center=(4.0, 3.0),
                                                      seed=11), False),
    "comb-level3": (lambda: family_lattice_comb(grid_for("lattice_comb", d=2, level=3), 3),
                    False),
    **{name: (lambda f=f: f, False) for name, f in BAND_CASES.items()},
}


@pytest.mark.parametrize("case", BLOCK_SYNTHESIS_CASES)
def test_block_synthesis_matches_the_full_grid_inverse(case):
    """Each dyadic piece, d = 1 or 2, synthesized by one real FFT of a block
    over the support's bounding box, is as a multiset |ifftn| of the piece
    scattered onto the grid (dense.synthesized_magnitudes): sorted, within
    1e-15 of the peak. mags holds the rows n_1 = 0..N/2 and mirror the
    other N/2 - 1, a row one sample in d = 1; a real piece's mirror is a
    view of mags, a complex one's is memory of its own."""
    member, real = BLOCK_SYNTHESIS_CASES[case]
    f = member()
    n, d = f.spec.n, f.spec.d
    support, pieces = _dyadic_pieces(f, build_dyadic(f.spec))
    synthesize = norms._piece_synthesis(support)
    levels = 0
    for j, piece in pieces:
        # a reached level whose window is 0 at every bin has a zero piece, which is real
        real_piece = not piece.imag.any()
        assert real_piece == real or not piece.any(), j
        mags, mirror = synthesize(piece)
        row = (n,) * (d - 1)
        assert mags.shape == (n // 2 + 1, *row) and mirror.shape == (n // 2 - 1, *row)
        assert np.shares_memory(mags, mirror) == real_piece
        dense = synthesized_magnitudes(support, piece)
        np.testing.assert_allclose(np.sort(np.concatenate((mags, mirror)), axis=None),
                                   np.sort(dense, axis=None), rtol=0, atol=1e-15 * dense.max())
        levels += 1
    assert levels


def test_block_synthesis_holds_less_than_a_full_grid():
    """The tracemalloc peak of besov_norm(f, 1, 1, 0) on the level-3 512^2
    annulus stays below one N^2 complex grid plus its magnitudes (6 MiB),
    which the full-grid inverse of each piece held (6.48 MiB): a block
    transform holds N/2 + 1 rows of N. The member is floored first."""
    f = family_annulus(grid_for("annulus", d=2, level=3), 3)
    assert f.spec.n == 512 and f.support.flat.size
    tracemalloc.start()
    try:
        besov_norm(f, 1, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("q", [1, 2, "inf"])
def test_triebel_stack_holds_no_joined_copy(q):
    """The tracemalloc peak of triebel_norm(f, 1, q, 0) on the level-3 512^2
    annulus stays below 7 MiB: its q-power stack keeps each level's two
    parts, a real piece's mirror as a view, where joining them into N^2
    arrays held 10.0 MiB (8.0 at q = inf). It reads 6.0 MiB. The member is
    floored first."""
    f = family_annulus(grid_for("annulus", d=2, level=3), 3)
    assert f.spec.n == 512 and f.support.flat.size
    tracemalloc.start()
    try:
        triebel_norm(f, 1, q, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


@pytest.mark.parametrize("p", ["1/2", 1, 3, "inf"])
def test_riemann_lp_scans_no_finite_sample(p, monkeypatch):
    """A finite total proves every sample finite: _riemann_lp then tests
    only scalars with np.isfinite, never the magnitudes."""
    spec, _, patch, table = _half_row_patch("2d-N64", real=True)
    mags, mirror = norms._half_row_magnitudes(patch, table)
    tested = []
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        tested.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    assert grid._riemann_lp((mags, mirror), spec.cell_volume, p) > 0.0
    monkeypatch.undo()
    assert tested and max(tested) == 1


BOX_TABLE_GRIDS = {
    **{name: spec for name, (spec, _) in HALF_ROW_GRIDS.items()},
    "annulus-1d-level8": grid_for("annulus", d=1, level=8),
    "comb-1d-level4": grid_for("lattice_comb", d=1, level=4),
    "annulus-2d-level3": grid_for("annulus", d=2, level=3),
}


@pytest.mark.parametrize("name", BOX_TABLE_GRIDS)
def test_box_table_matches_the_exp_table(name):
    """The d = 1 box table, built from two factorized roots, holds every
    root within 1e-15/P of the root taken alone by np.exp; the d = 2 matrix
    E is the np.exp table byte for byte."""
    spec = BOX_TABLE_GRIDS[name]
    uniform = UniformPartition(spec, 0, _uniform_axis_profile(spec.oversampling))
    table, reference = norms._box_table(uniform), box_table(uniform)
    if spec.d == 2:
        assert table.dtype == reference.dtype and table.tobytes() == reference.tobytes()
        return
    assert table.shape == reference.shape
    assert np.abs(table - reference).max() <= 1e-15 / spec.period


BOX_TABLE_MEMBERS = {
    "annulus-1d-level8": (family_annulus, grid_for("annulus", d=1, level=8), 8),
    "comb-1d-level4": (family_lattice_comb, grid_for("lattice_comb", d=1, level=4), 4),
}


@pytest.mark.parametrize("p,rel", [(1, 1e-15), (3, 1e-15), ("inf", 1e-15), ("1/2", 1e-13)])
@pytest.mark.parametrize("member", BOX_TABLE_MEMBERS)
def test_box_norms_match_the_exp_table(member, p, rel, monkeypatch):
    """Every d = 1 box norm on the factorized table is within 1e-15
    relative of the norm on the np.exp table at p >= 1, and within 1e-13 at
    p = 1/2, where roundoff-level tails dominate the sum."""
    family, spec, level = BOX_TABLE_MEMBERS[member]
    f = family(spec, level)
    uniform = build_uniform(spec)
    _, values = box_piece_norms(f.support, p, uniform)
    monkeypatch.setattr(norms, "_box_table", box_table)
    _, reference = box_piece_norms(f.support, p, uniform)
    active = reference != 0.0
    assert active.any() and np.array_equal(values != 0.0, active)
    assert np.max(np.abs(values[active] - reference[active]) / reference[active]) <= rel


@pytest.mark.parametrize("d", [1, 2])
def test_box_table_dies_with_the_norm_call(d, monkeypatch):
    """modulation_norm builds one box table per call, and nothing keeps it
    after the call returns: the partition holds geometry only."""
    f = family_annulus(grid_for("annulus", d=d, level=2), 2)
    uniform = build_uniform(f.spec)
    built = []
    box_table_of = norms._box_table

    def spy(partition):
        table = box_table_of(partition)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(norms, "_box_table", spy)
    assert modulation_norm(f, 1, 1, 0, uniform) > 0.0
    assert len(built) == 1
    assert all(ref() is None for ref in built)
    assert set(vars(uniform)) <= {"spec", "kmax", "axis_profile", "_tile", "_lattice"}


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
        mags = np.sort(_box_magnitudes(uniform, patch), axis=None)
        images = _images(patch)
        assert len(_orbit(patch)) == len(images) == 2 ** (2 * spec.d - 1)
        for image in images:
            assert uniform.orbit_key(image) == key
            np.testing.assert_allclose(
                np.sort(_box_magnitudes(uniform, image), axis=None), mags,
                rtol=0, atol=1e-13 * mags.max())
        assert uniform.orbit_key(np.where(patch == 0, complex(-0.0, -0.0), patch)) == key


def test_orbit_key_matches_the_eight_copy_key():
    """On random patches, with zeros of either sign, the written-out images
    of UniformPartition.orbit_key give the key of the conjugated copies."""
    rng = np.random.default_rng(41)
    for d in (1, 2):
        for _ in range(25):
            shape = tuple(rng.integers(1, 14, size=d))
            patch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            patch[rng.random(shape) < 0.2] = complex(-0.0, 0.0)
            patch.imag[rng.random(shape) < 0.2] = -0.0
            if rng.random() < 0.3:
                patch = patch.real + 0j
            assert UniformPartition.orbit_key(patch) == _eight_copy_orbit_key(patch)


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
    magnitudes = norms._half_row_magnitudes

    def spy(patch, *args, **kwargs):
        synthesized.append(_orbit(patch))
        return magnitudes(patch, *args, **kwargs)

    monkeypatch.setattr(norms, "_half_row_magnitudes", spy)
    active = 0
    for level in levels:
        f = family_annulus(spec, level)
        before = len(synthesized)
        box_piece_norms(f.support, 1, uniform)
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

    def spy(self, spectrum, k, *origin):
        visited.add(tuple(k))
        return patch(self, spectrum, k, *origin)

    monkeypatch.setattr(UniformPartition, "patch", spy)
    _, norms = box_piece_norms(f.support, 1, uniform)
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
            assert not (dyadic_window(dyadic, j) * spectrum).any()


@pytest.mark.parametrize("case", SKIP_CASES)
def test_support_and_dyadic_pieces_match_the_dense_arrays(case):
    """The support's coordinates, radii and cube masks are freq_axis(),
    freq_radius() and the dense cube mask at its bins, and every dyadic
    piece, phi_j at those radii times the support's values, scattered onto
    the grid, is the dense phi_j times the spectrum bit for bit."""
    f = SKIP_CASES[case]
    spec, dyadic = f.spec, build_dyadic(f.spec)
    spectrum = _floored(f)
    support, pieces = _dyadic_pieces(f, dyadic)
    for index, coords in zip(support.index, support.coords):
        assert coords.tobytes() == spec.freq_axis()[index].tobytes()
    dense_radius = spec.freq_radius().reshape(-1)[support.flat]
    assert support.radius.tobytes() == dense_radius.tobytes()
    for radius in (0.5, 2.0, 20.5):
        dense_mask = freq_outside_cube(spec, radius).reshape(-1)[support.flat]
        assert np.array_equal(support.outside_cube(radius), dense_mask), radius
    levels = []
    for j, piece in pieces:
        levels.append(j)
        dense = dyadic_window(dyadic, j) * spectrum
        assert scatter(support, piece).tobytes() == dense.tobytes(), j
    assert levels == dyadic.reached(support) and levels


@pytest.mark.parametrize("d", [1, 2], ids=["1d", "2d"])
def test_norms_read_no_dense_radius_or_cube(d, monkeypatch):
    """The M, B, F, W and FL norms read the coordinates and radii of the
    support alone: none builds the dense |xi| array. The package has no
    dense |xi|_inf mask to build."""
    f = family_annulus(grid_for("annulus", d=d, level=2), 2)
    uniform, dyadic = build_uniform(f.spec), build_dyadic(f.spec)

    def forbidden(*args):
        raise AssertionError("a norm built a dense frequency-side mask or radius")

    monkeypatch.setattr(GridSpec, "freq_radius", forbidden)
    for space in (SpaceSpec.modulation(1, 1, d=d), SpaceSpec.modulation(2, 2, d=d),
                  SpaceSpec.besov(1, 1, 0, d=d), SpaceSpec.besov(2, 2, 0, d=d),
                  SpaceSpec.triebel(1, 2, 0, d=d), SpaceSpec.triebel(2, 2, 0, d=d),
                  SpaceSpec.sobolev(1, 1, d=d), SpaceSpec.sobolev(2, 0, d=d),
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


def _single_box_1d():
    return family_single_box(BOX_SPEC, 5)


def _annulus_2d():
    return family_annulus(grid_for("annulus", d=2, level=2), 2)


@pytest.mark.parametrize("norm,member,member_calls,space_calls", [
    pytest.param(lambda f, uniform, dyadic: besov_norm(f, 2, 2, 0, dyadic),
                 _single_box_1d, (0, 0, 0), (1, 0, 0), id="besov"),
    pytest.param(lambda f, uniform, dyadic: triebel_norm(f, 2, 2, 0, dyadic),
                 _single_box_1d, (0, 0, 0), (1, 0, 0), id="triebel"),
    pytest.param(lambda f, uniform, dyadic: besov_norm(f, 1, 2, 0, dyadic),
                 _single_box_1d, (0, 0, 1), (1, 0, 1), id="besov-p1"),
    pytest.param(lambda f, uniform, dyadic: triebel_norm(f, 2, 1, 0, dyadic),
                 _single_box_1d, (0, 0, 1), (1, 0, 1), id="triebel-q1"),
    pytest.param(lambda f, uniform, dyadic: modulation_norm(f, 2, 2, 0, uniform),
                 _single_box_1d, (0, 0, 0), (1, 0, 0), id="modulation"),
    pytest.param(lambda f, uniform, dyadic: fourier_lp_norm(f, 1),
                 _single_box_1d, (0, 0, 0), (1, 0, 0), id="fourier-l"),
    pytest.param(lambda f, uniform, dyadic: sobolev_norm(f, 1, 1),
                 _single_box_1d, (0, 0, 1), (1, 0, 1), id="sobolev"),
    # two norms of one function share its one floor, so its one forward transform
    pytest.param(lambda f, uniform, dyadic: (besov_norm(f, 1, 2, 0, dyadic),
                                             modulation_norm(f, 2, 2, 0, uniform)),
                 _single_box_1d, (0, 0, 1), (1, 0, 1), id="besov-p1+modulation"),
    pytest.param(lambda f, uniform, dyadic: (sobolev_norm(f, 1, 1),
                                             modulation_norm(f, 1, 1, 0, uniform)),
                 _single_box_1d, (0, 0, 1), (1, 0, 1), id="sobolev+modulation-p1"),
    # in d = 2 each of the three reached levels is one block synthesis
    pytest.param(lambda f, uniform, dyadic: besov_norm(f, 1, 2, 0, dyadic),
                 _annulus_2d, (0, 0, 3), (1, 0, 3), id="besov-p1-2d"),
    pytest.param(lambda f, uniform, dyadic: triebel_norm(f, 1, 1, 0, dyadic),
                 _annulus_2d, (0, 0, 3), (1, 0, 3), id="triebel-p1-q1-2d"),
    # W is one piece, one block synthesis in d = 2; box pieces make none
    pytest.param(lambda f, uniform, dyadic: sobolev_norm(f, 1, 1),
                 _annulus_2d, (0, 0, 1), (1, 0, 1), id="sobolev-2d"),
    pytest.param(lambda f, uniform, dyadic: modulation_norm(f, 1, 1, 0, uniform),
                 _annulus_2d, (0, 0, 0), (1, 0, 0), id="modulation-p1-2d"),
])
def test_full_grid_transform_count(full_grid_transforms, norm, member,
                                   member_calls, space_calls):
    """(forward, inverse, band) transforms per norm. A family member is its
    spectrum, so no norm forward-transforms it; its space samples take one
    forward transform, shared by the band check and the norms. L^2 piece
    norms come from the spectrum, so Besov at p = 2 and Triebel at
    p = q = 2 synthesize nothing, and FL reads only the spectrum. Elsewhere
    only the reached dyadic levels, and W as one piece, are synthesized, on
    the support's block in either dimension, with no full-grid inverse
    transform. Box pieces make none.
    Full-grid work on empty pieces would show here as extra transforms."""
    f = member()
    uniform, dyadic = build_uniform(f.spec), build_dyadic(f.spec)
    for g, expected in ((f, member_calls), (f.in_space(), space_calls)):
        full_grid_transforms.clear()
        norm(g, uniform, dyadic)
        calls = full_grid_transforms
        assert (calls["forward"], calls["inverse"], calls["band"]) == expected, g.side


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
        expected = _triebel_by_synthesis(pieces, p, q, s)
        assert triebel_norm(f, p, q, s, dyadic) == pytest.approx(expected, rel=1e-12,
                                                                 abs=0), s


def _triebel_by_synthesis(pieces, p, q, s):
    """The Triebel norm from the dense pieces: the pointwise l^q over their
    samples, then the spatial L^p norm through lp_norm."""
    mags = np.array([2.0 ** (float(s) * j) * np.abs(piece.values)
                     for j, piece in enumerate(pieces)])
    pointwise = (mags.max(axis=0) if q == "inf"
                 else np.sum(mags ** float(q), axis=0) ** (1.0 / float(q)))
    return lp_norm(GridFunction(pieces[0].spec, pointwise, SPACE), p)


@pytest.mark.parametrize("case", BAND_CASES)
@pytest.mark.parametrize("p,rel", [(1, 1e-12), (F(3, 2), 1e-12), ("inf", 1e-12),
                                   # p < 1 holds only about 1e-7 (module docstring)
                                   (F(1, 2), 1e-7)])
def test_band_synthesis_matches_dense_pieces(case, p, rel):
    """In d = 1 the pieces synthesized on the support's block give the
    Besov norm (every q) and the Triebel norm (q = 1, inf; p < inf) of the
    dense delta_apply pieces, with complex pieces and mirrored samples, with
    a support wider than N/2, and with levels of different extent paired
    on one block."""
    f = BAND_CASES[case]
    support = f.support
    assert support.values.imag.any() and f.spec.d == 1
    dyadic = build_dyadic(f.spec)
    pieces = _synthesized_pieces(f, dyadic)
    for q in (1, 2, "inf"):
        expected = _besov_by_synthesis(pieces, p, q, F(1, 2))
        assert besov_norm(f, p, q, F(1, 2), dyadic) == pytest.approx(expected, rel=rel,
                                                                     abs=0), q
    if p == "inf":
        return
    for q in (1, "inf"):
        expected = _triebel_by_synthesis(pieces, p, q, F(1, 2))
        assert triebel_norm(f, p, q, F(1, 2), dyadic) == pytest.approx(expected, rel=rel,
                                                                       abs=0), q


@pytest.mark.parametrize("norm,bound", [
    pytest.param(lambda f: besov_norm(f, 1, 1, 0), 3.2, id="besov"),
    pytest.param(lambda f: sobolev_norm(f, 1, 1), 3.2, id="sobolev"),
    pytest.param(lambda f: triebel_norm(f, 1, 1, 0), 4.5, id="triebel-q1"),
    pytest.param(lambda f: triebel_norm(f, 1, "inf", 0), 4.5, id="triebel-qinf"),
])
def test_d1_block_synthesis_peak_memory(annulus_level8, norm, bound):
    """The tracemalloc peak of B^0_{1,1} and W^{1,1} on the level-8 d = 1
    annulus (N = 2^17) stays under 3.2 MiB, and of F^0_{1,q} (q = 1, inf)
    under 4.5 MiB: a d = 1 piece holds its block transform, N/2 + 1 complex
    samples. They read 2.65, 2.74 and 3.52 MiB; the pruned synthesis on the
    support's band, (R/2 + 1) x L = 2 x 65,536 complex samples a piece with
    its twiddle factors, read 3.92, 4.01 and 5.79 MiB. The member is floored
    first."""
    f = annulus_level8
    assert f.spec.n == 2 ** 17 and f.support.flat.size
    tracemalloc.start()
    try:
        norm(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 2 ** 20


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
    """No synthesis for Besov at p = 2 or Triebel at p = q = 2; one per
    reached level for Triebel at p = 2, q = 1, which stays pointwise: on the
    support's block in either dimension, with no full-grid inverse
    transform."""
    f = PARSEVAL_CASES[case]
    dyadic = build_dyadic(f.spec)
    reached = len(dyadic.reached(f.support))
    assert reached >= 2
    for norm, q, expected in ((besov_norm, 1, (0, 0)), (besov_norm, "inf", (0, 0)),
                              (triebel_norm, 2, (0, 0)), (triebel_norm, 1, (0, reached))):
        full_grid_transforms.clear()
        norm(f, 2, q, 0, dyadic)
        calls = full_grid_transforms
        assert (calls["inverse"], calls["band"]) == expected, (norm.__name__, q)


def test_each_box_member_is_floored_once(monkeypatch, capsys):
    """The two box-p2 benchmark commands floor each of their 14 members once:
    the family's margin check and both norms read one Support (three floors
    a member before the support was kept on the function)."""
    from modemb.cli import main
    floors = Counter()

    def counted(f):
        floors["floor"] += 1
        return floor(f)

    floor = grid._floor
    monkeypatch.setattr(grid, "_floor", counted)
    for source in ("B[p=2,q=2,s=0]", "F[p=2,q=2,s=0]"):
        assert main(["boundedness", "--from", source, "--to", "M[p=2,q=2]",
                     "--family", "single_box", "--lmin", "4", "--lmax", "10"]) == 0
    capsys.readouterr()
    assert floors["floor"] == 14


@pytest.mark.parametrize("side", [FREQUENCY, SPACE])
def test_support_is_kept_and_read_only(side):
    """``f.support`` is the function's one Support, and none of its arrays
    can be written through."""
    f = family_annulus(grid_for("annulus", d=2, level=2), 2)
    if side == SPACE:
        f = f.in_space()
    support = f.support
    assert f.support is support
    arrays = (support.flat, *support.index, support.values, support.mags,
              *support.coords, support.radius)
    assert len(arrays) == 8 and all(a.size for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def _tensor_cases():
    """(f, g) on one d = 1 grid: products of family members and of random
    spectra. h = f (x) g lives on the d = 2 grid of the same N and M."""
    spec = GridSpec(d=1, n=256, oversampling=8)
    return {
        "annulus2-box2": (family_annulus(spec, 2), family_single_box(spec, 2)),
        "annulus1-annulus3": (family_annulus(spec, 1), family_annulus(spec, 3)),
        "random": (random_band_limited(spec, 3.0, seed=1),
                   random_band_limited(spec, 2.0, center=(1.5,), seed=2)),
    }


TENSOR_CASES = _tensor_cases()


@pytest.mark.parametrize("side", [FREQUENCY, SPACE])
@pytest.mark.parametrize("case", TENSOR_CASES)
def test_tensor_product_norms_are_products(case, side, record_property):
    """The uniform partition is a tensor product, so for h = f (x) g the d = 2
    norms M^0_{p,q}, FL^r and W^{0,r} are the products of the d = 1 norms
    of f and g: the whole d = 2 box path (the support's block, reached, the
    orbit memo, E P E^T, the floor and the band checks) against two d = 1
    norms. h starts on either side: its space samples are the product of
    f's and g's. Gated at 1e-12 where every index is >= 1. With an index
    1/2 the d = 2 floor drops other bins than the d = 1 floors, which p < 1
    amplifies (ROADMAP item 13); those errors are recorded, not gated."""
    f, g = TENSOR_CASES[case]
    spec = GridSpec(d=2, n=f.spec.n, oversampling=f.spec.oversampling)
    factors = [x.values if side == FREQUENCY else x.in_space().values for x in (f, g)]
    h = GridFunction(spec, np.multiply.outer(*factors), side)
    line, plane = build_uniform(f.spec), build_uniform(spec)
    pairs = {}
    for p in ("1/2", 1, 2, 3, "inf"):
        for q in ("1/2", 1, 2, "inf"):
            pairs[f"M[p={p},q={q}]"] = (modulation_norm(h, p, q, 0, plane),
                                        modulation_norm(f, p, q, 0, line)
                                        * modulation_norm(g, p, q, 0, line))
    for r in ("1/2", 1, 2, 4, "inf"):
        pairs[f"FL[r={r}]"] = fourier_lp_norm(h, r), fourier_lp_norm(f, r) * fourier_lp_norm(g, r)
        pairs[f"W[s=0,r={r}]"] = sobolev_norm(h, 0, r), sobolev_norm(f, 0, r) * sobolev_norm(g, 0, r)
    for name, (value, product) in pairs.items():
        error = abs(value - product) / product
        if "1/2" in name:
            record_property(name, error)
            assert np.isfinite(error), name
        else:
            assert error <= 1e-12, (name, error)
