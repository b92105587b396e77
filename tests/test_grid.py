"""Transform convention, Riemann quasi-norms and multipliers."""
import re
import tracemalloc

import numpy as np
import pytest

from dense import apply_multiplier, dyadic_window, lp_norm, space_axis
from modemb import families, grid
from fractions import Fraction

from modemb.families import (
    family_annulus,
    family_dilated_kernel,
    family_dilation,
    family_lattice_comb,
    family_single_box,
    grid_for,
    random_band_limited,
)
from modemb.grid import (
    FREQUENCY,
    SPACE,
    GridFunction,
    MAX_SAMPLES,
    GridSpec,
    lq_seq_norm,
    transform,
)
from modemb.norms import space_norm
from modemb.oracle import SpaceSpec
from modemb.partitions import build_dyadic


@pytest.fixture
def spec():
    return GridSpec(d=1, n=512, oversampling=16)


def space_fn(spec, values):
    return GridFunction(spec, values, SPACE)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(d=3, n=256, oversampling=8)
    with pytest.raises(ValueError):
        GridSpec(d=1, n=300, oversampling=8)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(d=1, n=256, oversampling=6)
    spec = GridSpec(d=1, n=256, oversampling=8)
    assert float(spec.omega) == 16.0
    assert spec.delta == 1.0 / 8.0


def test_grid_spec_sample_budget():
    """N^d is capped at MAX_SAMPLES; grids at the cap are still accepted."""
    assert MAX_SAMPLES == 2 ** 24
    GridSpec(d=1, n=MAX_SAMPLES, oversampling=8)
    GridSpec(d=2, n=2 ** 12, oversampling=8)
    with pytest.raises(ValueError, match="budget"):
        GridSpec(d=1, n=2 * MAX_SAMPLES, oversampling=8)
    with pytest.raises(ValueError, match="budget"):
        GridSpec(d=2, n=2 ** 13, oversampling=8)
    with pytest.raises(ValueError, match="budget"):
        GridSpec(d=1, n=2 ** 49, oversampling=64)


@pytest.mark.parametrize("n,d,written", [
    (2 ** 63, 1, f"{2 ** 63}^1"), (2 ** 64, 1, "(2^64)^1"), (2 ** 20000, 2, "(2^20000)^2"),
], ids=["2^63", "2^64", "2^20000"])
def test_grid_spec_budget_names_a_huge_n_by_its_exponent(n, d, written):
    """N is written in decimal up to 64 bits, then as a power of two: Python
    refuses to write an int of more than 4300 digits in decimal."""
    with pytest.raises(ValueError, match=re.escape(
            f"a grid of N^d = {written} samples exceeds the budget of {MAX_SAMPLES} samples")):
        GridSpec(d=d, n=n, oversampling=8)


def test_constant_transform(spec):
    f = space_fn(spec, np.ones(spec.n))
    fhat = transform(f, FREQUENCY).values
    center = spec.n // 2
    assert abs(fhat[center] - spec.period) < 1e-9
    off = np.delete(fhat, center)
    assert np.abs(off).max() < 1e-9


def test_round_trip(spec):
    rng = np.random.default_rng(3)
    f = space_fn(spec, rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    back = transform(transform(f, FREQUENCY), SPACE)
    rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-12


@pytest.mark.parametrize("spec", [GridSpec(d=1, n=512, oversampling=16),
                                  GridSpec(d=2, n=64, oversampling=8)])
def test_transforms_match_shift_reference_bitwise(spec):
    """_fft, _ifft and transform, both directions, are bit for bit
    scale * fftshift(fft(ifftshift(x))), and leave their input untouched."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal(spec.shape()) + 1j * rng.standard_normal(spec.shape())
    before = x.copy()
    fwd, inv = (np.fft.fft, np.fft.ifft) if spec.d == 1 else (np.fft.fftn, np.fft.ifftn)

    def reference(fn, scale=None):
        out = np.fft.fftshift(fn(np.fft.ifftshift(x)))
        return out if scale is None else scale * out

    assert grid._fft(x).tobytes() == reference(fwd).tobytes()
    assert grid._ifft(x).tobytes() == reference(inv).tobytes()
    to_freq = transform(GridFunction(spec, x, SPACE), FREQUENCY).values
    to_space = transform(GridFunction(spec, x, FREQUENCY), SPACE).values
    assert to_freq.tobytes() == reference(fwd, (spec.period / spec.n) ** spec.d).tobytes()
    assert to_space.tobytes() == reference(inv, (spec.n / spec.period) ** spec.d).tobytes()
    assert x.tobytes() == before.tobytes()


def test_gaussian_matches_continuous_transform():
    spec = GridSpec(d=1, n=1024, oversampling=16)  # period > 64
    x = space_axis(spec)
    f = space_fn(spec, np.exp(-x ** 2 / 2))
    fhat = transform(f, FREQUENCY).values
    xi = spec.freq_axis()
    target = np.sqrt(2 * np.pi) * np.exp(-xi ** 2 / 2)
    assert np.abs(fhat - target).max() < 1e-8


def test_parseval(spec):
    rng = np.random.default_rng(5)
    f = space_fn(spec, rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    l2_space = lp_norm(f, 2)
    fhat = transform(f, FREQUENCY)
    l2_freq = np.sqrt(spec.freq_cell_volume * np.sum(np.abs(fhat.values) ** 2))
    assert abs(l2_space - l2_freq / np.sqrt(2 * np.pi)) / l2_space < 1e-10


def test_round_trip_2d():
    spec = GridSpec(d=2, n=64, oversampling=8)
    rng = np.random.default_rng(11)
    f = GridFunction(spec, rng.standard_normal((64, 64)) * (1 + 0j), SPACE)
    back = transform(transform(f, FREQUENCY), SPACE)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_apply_multiplier(spec):
    rng = np.random.default_rng(7)
    f = space_fn(spec, rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    same = apply_multiplier(f, np.ones(spec.n))
    assert np.abs(same.values - f.values).max() < 1e-12
    zero = apply_multiplier(f, np.zeros(spec.n))
    assert np.abs(zero.values).max() == 0.0
    half = (spec.freq_axis() > 0).astype(float)
    once = apply_multiplier(f, half)
    twice = apply_multiplier(once, half)
    assert np.abs(twice.values - once.values).max() < 1e-12 * np.abs(f.values).max()
    with pytest.raises(ValueError):
        apply_multiplier(f, np.ones(spec.n + 1))


def test_apply_multiplier_linearity(spec):
    rng = np.random.default_rng(9)
    fv = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
    gv = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
    m = rng.standard_normal(spec.n)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    lhs = apply_multiplier(space_fn(spec, a * fv + b * gv), m).values
    rhs = (a * apply_multiplier(space_fn(spec, fv), m).values
           + b * apply_multiplier(space_fn(spec, gv), m).values)
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(lhs).max()


def test_lp_norm_examples():
    spec = GridSpec(d=1, n=256, oversampling=8)  # period 16*pi
    one = space_fn(spec, np.ones(spec.n))
    assert abs(lp_norm(one, 2) - np.sqrt(spec.period)) < 1e-12
    assert lp_norm(one, "inf") == 1.0
    spike = np.zeros(spec.n)
    spike[10] = 3.0
    h = spec.period / spec.n
    expected = (h * 3.0 ** 0.5) ** 2  # p = 1/2 quasi-norm of one sample
    from fractions import Fraction
    assert abs(lp_norm(space_fn(spec, spike), Fraction(1, 2)) - expected) < 1e-12


@pytest.mark.parametrize("p", ["1/2", 1, 2, "7/3", "inf"])
def test_lp_norm_homogeneity(spec, p):
    rng = np.random.default_rng(13)
    fv = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
    alpha = -2.5 + 1.1j
    lhs = lp_norm(space_fn(spec, alpha * fv), p)
    rhs = abs(alpha) * lp_norm(space_fn(spec, fv), p)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_lp_norm_accepts_either_side(spec):
    """lp_norm measures a frequency-side function by its space samples:
    exactly those of in_space(), and to rounding those it was built from."""
    member = family_single_box(grid_for("single_box", level=4), 4)
    rng = np.random.default_rng(21)
    f = space_fn(spec, rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    for p in ("1/2", 1, 2, "inf"):
        assert lp_norm(member, p) == lp_norm(member.in_space(), p)
        assert lp_norm(f.in_frequency(), p) == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_lq_seq_norm_examples():
    assert lq_seq_norm([1, 1, 1, 1], 2) == 2.0
    assert lq_seq_norm([3.0], "7/2", weights=[2.0]) == pytest.approx(6.0, rel=1e-14)
    assert lq_seq_norm([1, 2], "inf") == 2.0
    assert lq_seq_norm([], 2) == 0.0


def test_lq_monotonicity_in_q():
    rng = np.random.default_rng(17)
    a = np.abs(rng.standard_normal(40))
    qs = ["1/4", "1/2", 1, 2, 4, "inf"]
    values = [lq_seq_norm(a, q) for q in qs]
    for smaller_q, larger_q in zip(values, values[1:]):
        assert larger_q <= smaller_q * (1 + 1e-12)


def test_nan_rejected(spec):
    bad = np.ones(spec.n)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        lp_norm(space_fn(spec, bad), 2)
    with pytest.raises(ValueError):
        lq_seq_norm([1.0, np.inf], 2)


def test_values_immutable(spec):
    f = space_fn(spec, np.ones(spec.n))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def _read_only_view(shape):
    base = np.arange(np.prod(shape), dtype=np.complex128).reshape(shape)
    view = base[...]
    view.flags.writeable = False
    return base, view


@pytest.mark.parametrize("make", [
    pytest.param(lambda shape: (None, np.ones(shape, dtype=np.complex128)), id="writable"),
    pytest.param(_read_only_view, id="read-only-view"),
    pytest.param(lambda shape: (None, np.ones(shape)), id="float"),
    pytest.param(lambda shape: (None, np.asfortranarray(
        np.arange(np.prod(shape), dtype=np.complex128).reshape(shape))), id="fortran"),
])
def test_constructor_copies_what_it_cannot_own(make):
    """An input that is not a read-only complex128 C-ordered array owning its
    data is copied: writing into the caller's array later (or into the base
    of its read-only view) leaves the function's samples unchanged."""
    spec = GridSpec(d=2, n=16, oversampling=8)
    base, values = make(spec.shape())
    f = GridFunction(spec, values, SPACE)
    before = f.values.copy()
    assert not np.shares_memory(f.values, values)
    assert not f.values.flags.writeable and f.values.flags.c_contiguous
    writable = values if base is None else base
    writable[...] = 7.0
    np.testing.assert_array_equal(f.values, before)


def test_constructor_adopts_a_frozen_owned_array(spec):
    """A read-only complex128 C-ordered array that owns its data is taken as
    it is, without a copy; ``adopt`` freezes a fresh array and does the same."""
    values = np.ones(spec.n, dtype=np.complex128)
    values.flags.writeable = False
    assert GridFunction(spec, values, SPACE).values is values
    fresh = np.ones(spec.n, dtype=np.complex128)
    adopted = GridFunction.adopt(spec, fresh, FREQUENCY)
    assert adopted.values is fresh and not fresh.flags.writeable


def _generator_calls():
    box, ann = grid_for("single_box", level=5), grid_for("annulus", level=3)
    comb = grid_for("lattice_comb", level=4)
    dil = grid_for("dilation", lam=Fraction(1, 2))
    ker = grid_for("dilated_kernel", t=Fraction(1, 4))
    ball = GridSpec(d=2, n=64, oversampling=8)
    center = np.array([0.5, -0.25])
    return {
        "single_box": lambda: family_single_box(box, 5),
        "annulus": lambda: family_annulus(ann, 3),
        "lattice_comb": lambda: family_lattice_comb(comb, 4, Fraction(1, 2)),
        "dilation": lambda: family_dilation(dil, Fraction(1, 2)),
        "dilated_kernel": lambda: family_dilated_kernel(ker, Fraction(1, 4)),
        "random_band_limited": lambda: random_band_limited(ball, 1.5, center=center, seed=3),
    }


GENERATOR_CALLS = _generator_calls()


@pytest.mark.parametrize("kind", GENERATOR_CALLS)
def test_members_share_memory_with_nothing_writable(kind):
    """A member owns its read-only spectrum: no view of another array and no
    memory shared with a second call's member; its space samples own theirs
    too."""
    first, second = GENERATOR_CALLS[kind](), GENERATOR_CALLS[kind]()
    for f in (first, first.in_space()):
        assert f.values.base is None and not f.values.flags.writeable
    assert not np.shares_memory(first.values, second.values)
    np.testing.assert_array_equal(first.values, second.values)


# Annulus members (grid, level): in d = 1 at levels 0, 1, 4 and 8 on their
# own grids and at the top level of a small grid, whose cube |xi|_inf < hi
# spans 3/4 of the band (hi = 3/2 2^l <= (3/4) Omega at every level the
# partition admits, so no cube reaches further), and in d = 2 at levels 2
# and 3.
ANNULUS_CASES = {f"annulus-d{d}-l{level}": (grid_for("annulus", d=d, level=level), level)
                 for d, level in ((1, 0), (1, 1), (1, 4), (1, 8), (2, 2), (2, 3))}
ANNULUS_CASES["annulus-d1-top"] = (GridSpec(d=1, n=256, oversampling=8), 3)

# Members whose generator hands its bins to the floor.
BOX_MEMBERS = {
    **{f"single_box-d{d}": lambda d=d: family_single_box(grid_for("single_box", d=d, level=5), 5)
       for d in (1, 2)},
    **{name: lambda case=case: family_annulus(*case) for name, case in ANNULUS_CASES.items()},
}


@pytest.mark.parametrize("name", BOX_MEMBERS)
def test_bins_floor_equals_the_dense_floor(name):
    """A member floored on the bins its generator wrote has the Support of
    the whole spectrum's floor, array for array, dtype and bit for bit."""
    f = BOX_MEMBERS[name]()
    assert f.bins is not None and f.bins.size < f.values.size
    assert not f.bins.flags.writeable and np.all(np.diff(f.bins) > 0)
    support, dense = f.support, grid._floor(GridFunction(f.spec, f.values, FREQUENCY))
    assert dense is not support and support.peak == dense.peak
    for a, b in zip((support.flat, *support.index, support.values, support.mags,
                     *support.coords, support.radius),
                    (dense.flat, *dense.index, dense.values, dense.mags, *dense.coords,
                     dense.radius), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", ANNULUS_CASES)
def test_annulus_member_is_the_dense_window(name):
    """An annulus member built on its bins holds the dense window phi_l of
    the partition it is built with, byte for byte."""
    spec, level = ANNULUS_CASES[name]
    window = dyadic_window(build_dyadic(spec, max(level, 1)), level).astype(np.complex128)
    assert family_annulus(spec, level).values.tobytes() == window.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_single_box_member_is_the_dense_box(d):
    """A single-box member built on its bins holds, byte for byte, the
    dense spectrum: its box's axis-factor product added into a zero N^d
    array, as the comb adds its boxes."""
    spec = grid_for("single_box", d=d, level=5)
    idx, vals = zip(*(families._box_term_axis(spec, c, 1.0, False)
                      for c in families.smallest_box_point(5, d)))
    dense = np.zeros(spec.shape(), dtype=np.complex128)
    dense[np.ix_(*idx)] += 1.0 * grid.separable(np.multiply, vals)
    assert family_single_box(spec, 5).values.tobytes() == dense.tobytes()


# The top annulus reaches past its small grid's dyadic cover, which no
# Besov or Triebel norm then takes.
@pytest.mark.parametrize("name", [name for name in BOX_MEMBERS if name != "annulus-d1-top"])
def test_norms_and_the_margin_check_leave_values_unbuilt(name):
    """A member built on its bins is checked against the band margin and
    measured in every space with no dense spectrum: its ``values`` are built
    only when read."""
    f = BOX_MEMBERS[name]()
    d = f.spec.d
    for space in (SpaceSpec.modulation(1, 1, d=d), SpaceSpec.modulation(2, 2, d=d),
                  SpaceSpec.besov(1, 1, 0, d=d), SpaceSpec.besov(2, 2, 0, d=d),
                  SpaceSpec.triebel(1, 2, 0, d=d), SpaceSpec.sobolev(1, 1, d=d),
                  SpaceSpec.fourier_l(1, d=d)):
        space_norm(f, space)
    assert "values" not in vars(f)


# tracemalloc peak, in MiB, of building a member on its bins: at most a few
# bins' worth, against one N^d complex spectrum (4 MiB for both) before.
MEMBER_PEAKS = {"single_box-d1-l10": (lambda: family_single_box(
                    grid_for("single_box", level=10), 10), 0.5),
                "annulus-d2-l3": (lambda: family_annulus(
                    grid_for("annulus", d=2, level=3), 3), 4.0)}


@pytest.mark.parametrize("name", MEMBER_PEAKS)
def test_member_build_holds_no_dense_spectrum(name):
    build, bound = MEMBER_PEAKS[name]
    build()
    tracemalloc.start()
    try:
        f = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.spec.n ** f.spec.d == 2 ** 18 and peak <= bound * 2 ** 20


@pytest.mark.parametrize("kind", GENERATOR_CALLS)
def test_only_box_generators_set_bins(kind):
    """Members of the other generators, transforms and direct construction
    have no bins."""
    f = GENERATOR_CALLS[kind]()
    assert (f.bins is not None) == (kind in ("single_box", "annulus"))
    assert f.in_space().bins is None and f.in_space().in_frequency().bins is None
    assert GridFunction(f.spec, f.values, FREQUENCY).bins is None


@pytest.mark.parametrize("bins,values,message", [
    pytest.param([3, 1, 2], np.ones(3), "strictly ascending", id="unsorted"),
    pytest.param([1, 2, 2], np.ones(3), "strictly ascending", id="repeated"),
    pytest.param([-1, 0, 1], np.ones(3), r"lie in \[0, 512\)", id="negative"),
    pytest.param([0, 1, 512], np.ones(3), r"lie in \[0, 512\)", id="past-the-grid"),
    pytest.param([[0, 1], [2, 3]], np.ones((2, 2)), "1-D integer array", id="not-1d"),
    pytest.param([0.0, 1.0], np.ones(2), "1-D integer array", id="not-integer"),
    pytest.param([0, 1, 2], np.ones(2), "one index per value", id="length-mismatch"),
])
def test_from_bins_refuses_malformed_bins(spec, bins, values, message):
    with pytest.raises(ValueError, match=message):
        GridFunction.from_bins(spec, np.array(bins), values)


def test_from_bins_builds_values_on_first_read(spec):
    """A function built on its bins is frequency-side and holds its bins and
    their values, frozen and taken over without a copy; ``values`` is
    scattered into a fresh zero array on the first read and then kept."""
    bins, values = np.array([3, 8, 500]), np.array([1.0, -2j, 0.5 + 0.5j])
    f = GridFunction.from_bins(spec, bins, values)
    assert f.side == FREQUENCY and f.bins is bins and f.bin_values is values
    assert not bins.flags.writeable and not values.flags.writeable
    assert "values" not in vars(f)
    dense = np.zeros(spec.n, dtype=np.complex128)
    dense[bins] = values
    assert f.values.tobytes() == dense.tobytes() and f.values is f.values
    assert f.values.base is None and not f.values.flags.writeable


FINITENESS_P = ["1/2", 1, 3, "inf"]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("p", FINITENESS_P)
def test_riemann_lp_refuses_a_non_finite_sample(p, bad):
    """One NaN or Inf among the magnitudes raises NonFiniteError at every p,
    wherever it sits."""
    for at in (0, 7, -1):
        mags = np.linspace(0.0, 2.0, 24).reshape(3, 8)
        mags[np.unravel_index(at % mags.size, mags.shape)] = bad
        with pytest.raises(grid.NonFiniteError, match="NaN or Inf"):
            grid._riemann_lp(mags, 0.5, p)


@pytest.mark.parametrize("p", FINITENESS_P)
def test_riemann_lp_overflow_of_finite_samples_is_inf(p):
    """Finite magnitudes whose sum overflows give inf and raise nothing; at
    p = inf, where nothing is summed, they give their maximum."""
    mags = np.full((2, 4), 1e308)
    with np.errstate(over="ignore"):
        value = grid._riemann_lp(mags, 1.0, p)
    assert value == (1e308 if p == "inf" else np.inf)
