"""Partition-of-unity invariants, decomposition operators, and index sets."""
import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from modemb.families import random_band_limited
from modemb.grid import FREQUENCY, SPACE, GridFunction, GridSpec, lp_norm, transform
from modemb.partitions import (
    DYADIC_PROFILE,
    build_dyadic,
    build_uniform,
    box_apply,
    delta_apply,
    index_set,
    lattice_weights,
    max_dyadic_level,
    max_uniform_kmax,
    selftest_report,
    smooth_profile,
)

SPEC = GridSpec(d=1, n=2 ** 12, oversampling=16)
UNIFORM_SPECS = (SPEC, GridSpec(d=2, n=256, oversampling=8))


@pytest.fixture(scope="module")
def uniform():
    return build_uniform(SPEC)


@pytest.fixture(scope="module")
def dyadic():
    return build_dyadic(SPEC)


def test_smooth_profile_basics():
    prof = smooth_profile(1.0, 2.0)
    assert prof(0.5) == 1.0 and prof(1.0) == 1.0
    assert prof(2.0) == 0.0 and prof(3.0) == 0.0
    assert abs(prof(1.5) - 0.5) < 1e-15  # symmetric mollifier midpoint
    ts = np.linspace(0.0, 3.0, 301)
    vals = prof(ts)
    assert np.all(np.diff(vals) <= 1e-15)  # monotone decreasing


def _sup_radius(spec):
    """|xi|_inf at every frequency sample."""
    return functools.reduce(np.maximum.outer, (np.abs(spec.freq_axis()),) * spec.d)


def test_uniform_window_plateau_and_support():
    for spec in UNIFORM_SPECS:
        w0 = build_uniform(spec).window((0,) * spec.d)
        radius = _sup_radius(spec)
        assert np.all(w0[radius <= 0.25] == 1.0), spec
        assert np.all(w0[radius >= 0.75] == 0.0), spec
        assert w0[np.unravel_index(np.argmin(radius), radius.shape)] == 1.0, spec
        # sigma_0 at 0.8 is outside the support
        idx = np.argmin(np.abs(spec.freq_axis() - 0.8))
        assert w0[(idx,) * spec.d] == 0.0, spec


def test_uniform_translation_covariance():
    """sigma_k is sigma_0 moved by k M samples along each axis; np.roll
    wraps only zeros here."""
    for spec, k in zip(UNIFORM_SPECS, [(5,), (5, -3)]):
        uniform = build_uniform(spec)
        w0, wk = uniform.window((0,) * spec.d), uniform.window(k)
        shift = tuple(spec.oversampling * c for c in k)
        assert np.array_equal(wk, np.roll(w0, shift, axis=tuple(range(spec.d)))), spec


def test_uniform_partition_sum():
    rng = np.random.default_rng(23)
    for spec in UNIFORM_SPECS:
        uniform = build_uniform(spec)
        total = uniform.partition_sum().ravel()
        picks = rng.choice(np.flatnonzero(_sup_radius(spec) <= uniform.kmax - 1), size=1000)
        assert np.abs(total[picks] - 1.0).max() < 1e-12, spec


def test_uniform_kmax_guard():
    with pytest.raises(ValueError):
        build_uniform(SPEC, kmax=max_uniform_kmax(SPEC) + 1)


def test_dyadic_windows(dyadic):
    ax = np.abs(SPEC.freq_axis())
    w3 = dyadic.window(3)
    on_annulus = (ax >= 0.75 * 8) & (ax <= 1.25 * 8)
    assert np.all(w3[on_annulus] == 1.0)
    idx = np.argmin(np.abs(SPEC.freq_axis() - 32.0))
    assert w3[idx] == 0.0  # |xi| = 2^5 is outside supp phi_3
    inside = (ax >= (5 / 8) * 8 - 1e-9) & (ax <= 1.5 * 8 + 1e-9)
    assert np.all(w3[~inside] == 0.0)


def test_dyadic_partition_sum(dyadic):
    total = dyadic.partition_sum()
    ax = np.abs(SPEC.freq_axis())
    inside = ax <= 1.25 * 2 ** dyadic.levels
    assert np.abs(total[inside] - 1.0).max() < 1e-12


def test_dyadic_adjacent_only_overlap(dyadic):
    for j in range(dyadic.levels - 1):
        for jp in range(j + 2, dyadic.levels + 1):
            assert np.abs(dyadic.window(j) * dyadic.window(jp)).max() == 0.0


def test_dyadic_band_guard():
    with pytest.raises(ValueError):
        build_dyadic(SPEC, levels=max_dyadic_level(SPEC) + 1)


def _low_band_function():
    """Band-limited to [-1/8, 1/8], away from all window edges."""
    values = np.zeros(SPEC.n, dtype=complex)
    center = SPEC.n // 2
    values[center - 1:center + 2] = [0.5, 1.0, 0.25j]  # |xi| <= 1/16
    return transform(GridFunction(SPEC, values, FREQUENCY), SPACE)


def test_box_identity_on_low_band(uniform):
    f = _low_band_function()
    peak = np.abs(f.values).max()
    assert np.abs(box_apply(f, 0, uniform).values - f.values).max() < 1e-12 * peak
    for k in (1, -1, 3):
        assert np.abs(box_apply(f, k, uniform).values).max() < 1e-12 * peak
    with pytest.raises(IndexError):
        box_apply(f, uniform.kmax + 1, uniform)


def test_delta_identity_on_low_band(dyadic):
    f = _low_band_function()
    peak = np.abs(f.values).max()
    assert np.abs(delta_apply(f, 0, dyadic).values - f.values).max() < 1e-12 * peak
    for j in range(2, dyadic.levels + 1):
        assert np.abs(delta_apply(f, j, dyadic).values).max() < 1e-12 * peak
    with pytest.raises(IndexError):
        delta_apply(f, dyadic.levels + 1, dyadic)


def test_box_orthogonality(uniform):
    rng = np.random.default_rng(29)
    f = random_band_limited(SPEC, band_radius=min(20, uniform.kmax - 1), rng=rng)
    peak = np.abs(f.in_space().values).max()
    for k, kp in [(0, 2), (-3, 0), (4, 6), (-5, -2)]:
        piece = box_apply(box_apply(f, k, uniform), kp, uniform)
        assert np.abs(piece.values).max() < 1e-12 * peak


def test_delta_box_uniform_bound(uniform, dyadic):
    """||delta_j box_k f||_p <= C ||box_k f||_p with C uniform over (j, k)."""
    rng = np.random.default_rng(31)
    f = random_band_limited(SPEC, band_radius=60, rng=rng)
    worst = 0.0
    for k in (-50, -7, 0, 13, 40):
        piece = box_apply(f, k, uniform)
        base = {p: lp_norm(piece, p) for p in (Fraction(1, 2), 1, 2, "inf")}
        for j in range(dyadic.levels + 1):
            both = delta_apply(piece, j, dyadic)
            for p, denom in base.items():
                if denom > 1e-12:
                    worst = max(worst, lp_norm(both, p) / denom)
    assert worst <= 4.0


def test_reconstruction(uniform, dyadic):
    rng = np.random.default_rng(37)
    band = min(uniform.kmax - 1, int(1.25 * 2 ** dyadic.levels))
    f = random_band_limited(SPEC, band_radius=band, rng=rng)
    spectrum = f.in_frequency().values
    total_u = uniform.partition_sum()
    err = np.linalg.norm((total_u - 1) * spectrum) / np.linalg.norm(spectrum)
    assert err < 1e-10
    total_d = dyadic.partition_sum()
    err = np.linalg.norm((total_d - 1) * spectrum) / np.linalg.norm(spectrum)
    assert err < 1e-10


def test_index_set_examples():
    a4 = index_set("A", 4, 1)
    assert len(a4) == 14
    assert set(a4.members) == {(k,) for k in range(13, 20)} | {(-k,) for k in range(13, 20)}


def test_index_set_inclusion_and_growth():
    for level in range(2, 11):
        a = set(index_set("A", level, 1).members)
        b = set(index_set("B", level, 1).members)
        assert a <= b
    drift = [np.log2(len(index_set("A", level, 1))) - level for level in range(3, 11)]
    assert max(drift) - min(drift) < 1.0 and max(np.abs(drift)) < 1.5


def test_index_set_empty_warning():
    with pytest.warns(UserWarning, match="empty"):
        index_set("A", 1, 1)


def test_index_set_2d():
    a3 = index_set("A", 3, 2)
    assert len(a3) > 0
    # every member's closed window box sits inside the annulus 6 <= |xi| <= 10
    for k in a3.members:
        far = np.sqrt(sum((abs(c) + 0.75) ** 2 for c in k))
        near = np.sqrt(sum(max(abs(c) - 0.75, 0.0) ** 2 for c in k))
        assert far <= 10.0 + 1e-12 and near >= 6.0 - 1e-12
    b3 = set(index_set("B", 3, 2).members)
    assert set(a3.members) <= b3


def bernstein_probes(spec, radius, center, rng):
    """Band-limited probes rich enough to witness the Bernstein constant:
    the band kernel (near-extremal for p >= 1), a smooth concentrated bump
    (near-extremal for p < 1), jittered kernels, and gaussian fields."""
    ax = spec.freq_axis()
    mask = np.abs(ax - center) <= radius
    out = [transform(GridFunction(spec, mask.astype(complex), FREQUENCY), SPACE)]
    gauss = np.where(mask, np.exp(-((ax - center) / (radius / 3.0)) ** 2), 0)
    out.append(transform(GridFunction(spec, gauss.astype(complex), FREQUENCY), SPACE))
    for _ in range(2):
        r2 = radius * rng.uniform(0.85, 1.0)
        x0 = rng.uniform(-2.0, 2.0)
        vals = np.where(np.abs(ax - center) <= r2, np.exp(-1j * x0 * ax), 0)
        out.append(transform(GridFunction(spec, vals, FREQUENCY), SPACE))
    for _ in range(2):
        out.append(random_band_limited(spec, band_radius=radius, center=center,
                                       rng=rng))
    return out


BERNSTEIN_PAIRS = [(1, 2), (1, "inf"), (2, "inf"), (Fraction(1, 2), 1)]


def bernstein_constant_spreads(spec, radii=(4, 8, 16, 32), centers=(0.0, 17.0),
                               seed=41):
    """Per (p, q): spread of the estimated Bernstein constant across radii
    and band centers. Lemma-consistent behavior keeps the spread near 1."""
    rng = np.random.default_rng(seed)

    def inv(p):
        return 0.0 if p == "inf" else float(1 / Fraction(p))

    estimates = {pair: [] for pair in BERNSTEIN_PAIRS}
    for radius in radii:
        for center in centers:
            fs = bernstein_probes(spec, radius, center, rng)
            for p, q in BERNSTEIN_PAIRS:
                scale = radius ** (inv(p) - inv(q))
                best = max(lp_norm(f, q) / (scale * lp_norm(f, p)) for f in fs)
                estimates[(p, q)].append(best)
    return {pair: max(vals) / min(vals) for pair, vals in estimates.items()}


def test_bernstein_uniformity():
    """||f||_q <= C R^{d(1/p-1/q)} ||f||_p with C uniform over R and shifts."""
    spec = GridSpec(d=1, n=2 ** 11, oversampling=8)
    spreads = bernstein_constant_spreads(spec)
    for pair, spread in spreads.items():
        assert spread < 4.0, (pair, spread)


def test_quasi_young_uniformity():
    """|| |f|*|g| ||_p <= C (R1+R2)^{d(1/p-1)} ||f||_p ||g||_p for p < 1."""
    spec = GridSpec(d=1, n=2 ** 11, oversampling=8)
    rng = np.random.default_rng(43)
    p = Fraction(1, 2)
    h = spec.period / spec.n
    measured = []
    for r1 in (2, 4, 8):
        for r2 in (2, 4, 8):
            f = random_band_limited(spec, band_radius=r1, center=5.0, rng=rng)
            g = random_band_limited(spec, band_radius=r2, center=-11.0, rng=rng)
            conv = h * np.fft.ifft(np.fft.fft(np.abs(f.in_space().values))
                                   * np.fft.fft(np.abs(g.in_space().values)))
            conv_norm = float((h * np.sum(np.abs(conv) ** 0.5)) ** 2)
            scale = (r1 + r2) ** float(1 / p - 1)
            measured.append(conv_norm / (scale * lp_norm(f, p) * lp_norm(g, p)))
    assert max(measured) / min(measured) < 8.0


def test_selftest_report_passes():
    for spec in (GridSpec(d=1, n=2 ** 12, oversampling=8), GridSpec(d=2, n=256, oversampling=8)):
        report = selftest_report(spec, n_random=5)
        assert report["passed"], report
        assert report["grid"]["d"] == spec.d
        assert report["uniform_partition_residual"] < 1e-12, report
        assert report["dyadic_partition_residual"] < 1e-12, report


def test_dyadic_profile_convention():
    assert DYADIC_PROFILE(1.0) == 1.0 and DYADIC_PROFILE(1.25) == 1.0
    assert DYADIC_PROFILE(1.5) == 0.0


def test_partitions_compare_by_identity():
    """Equal-looking partitions are distinct objects: == does not raise, and
    a partition can key a dict. The lazy synthesis table and the window cache
    keep working."""
    spec = GridSpec(1, 256, 8)
    for build in (build_uniform, build_dyadic):
        a, b = build(spec), build(spec)
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1
    uniform = build_uniform(spec)
    _, patch = uniform.patch(np.ones(spec.n, dtype=complex), (0,))
    assert uniform.piece_magnitudes(patch).size == spec.n
    assert "_synthesis_table" in vars(uniform)
    dyadic = build_dyadic(spec)
    assert dyadic.window(1) is dyadic.window(1)


@pytest.mark.parametrize("spec", [SPEC, GridSpec(d=2, n=256, oversampling=8)])
def test_dyadic_support_holds_every_nonzero_window_sample(spec):
    dyadic = build_dyadic(spec)
    radius = spec.freq_radius()
    for j in range(dyadic.levels + 1):
        lo, hi = dyadic.support(j)
        nonzero = radius[dyadic.window(j) != 0.0]
        assert nonzero.size and lo <= nonzero.min() and nonzero.max() < hi
    with pytest.raises(IndexError):
        dyadic.support(dyadic.levels + 1)


@pytest.mark.parametrize("spec,center", [(SPEC, (20.0,)),
                                         (GridSpec(d=2, n=256, oversampling=8), (4.0, 3.0))])
def test_reached_pieces_hold_the_nonzero_bins(spec, center):
    """A box is reached exactly when its window holds a nonzero bin; a level
    is reached whenever its support meets the radius span of those bins, and
    every unreached window multiplies the spectrum to exactly zero."""
    uniform, dyadic = build_uniform(spec), build_dyadic(spec)
    f = random_band_limited(spec, band_radius=2.5, center=center, seed=3)
    spectrum = f.in_frequency().values.copy()
    spectrum[np.abs(spectrum) <= 1e-13 * np.abs(spectrum).max()] = 0.0
    reached = set(uniform.reached(spectrum))
    assert 0 < len(reached) < len(uniform.lattice())
    for i, k in enumerate(uniform.lattice()):
        slices, patch = uniform.patch(spectrum, k)
        assert spectrum[slices].any() == (i in reached)
        if i not in reached:
            assert not patch.any()
    levels = dyadic.reached(spectrum)
    assert 0 < len(levels) < dyadic.levels + 1
    for j in set(range(dyadic.levels + 1)) - set(levels):
        assert not (dyadic.window(j) * spectrum).any()
    assert uniform.reached(np.zeros(spec.shape(), dtype=complex)) == []
    assert dyadic.reached(np.zeros(spec.shape(), dtype=complex)) == []


@pytest.mark.parametrize("spec", [GridSpec(d=1, n=2 ** 12, oversampling=8),
                                  GridSpec(d=2, n=2 ** 7, oversampling=8)])
@pytest.mark.parametrize("s", [0, Fraction(1, 2), Fraction(-3, 4), Fraction(1, 3), 2])
def test_lattice_weights_match_pointwise_powers(spec, s):
    """The array form of <k>^s against the per-point scalar form it replaced:
    identical at s = 0, within 1e-15 relative elsewhere."""
    points = build_uniform(spec).lattice()
    reference = np.array([(1.0 + np.sqrt(sum(c * c for c in k))) ** float(s) for k in points])
    weights = lattice_weights(points, s)
    if s == 0:
        assert np.array_equal(weights, reference) and np.all(weights == 1.0)
    else:
        assert np.max(np.abs(weights - reference) / reference) <= 1e-15
