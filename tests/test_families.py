"""Extremal family generators: spectral bookkeeping and scaling behavior."""
import re
from fractions import Fraction

import numpy as np
import pytest

from modemb.families import (
    KINDS,
    PeriodError,
    _add_box,
    _finish,
    family_annulus,
    family_dilated_kernel,
    family_dilation,
    family_lattice_comb,
    family_single_box,
    grid_for,
    kind_row,
    member,
    random_band_limited,
    smallest_box_point,
)
from modemb.grid import FREQUENCY, BandLimitError, GridFunction, GridSpec, SPACE, \
    lp_norm, lq_seq_norm, spectral_support, transform
from modemb.norms import box_piece_norms, modulation_norm
from modemb.partitions import ResolutionError, box_apply, build_uniform, index_set

F = Fraction


def active_boxes(f, uniform, p=2, rel=1e-10):
    _, norms = box_piece_norms(spectral_support(f), p, uniform)
    peak = norms.max()
    return {tuple(k) for k, v in zip(uniform.lattice().tolist(), norms) if v > rel * peak}


def _train(spec, coefficients):
    """sum_k a_k e^{ikx} eta(x - k) over integers k (d = 1), whose box_k
    piece is exactly a_k e^{ikx} eta(x - k)."""
    out = np.zeros(spec.shape(), dtype=np.complex128)
    for k, c in sorted(coefficients.items()):
        _add_box(out, spec, (k,), complex(c))
    return _finish(spec, out)


def _sum_spectrum(spec, generator, coefficients):
    out = np.zeros(spec.shape(), dtype=np.complex128)
    for level, c in sorted(coefficients):
        out += complex(c) * generator(spec, level).values
    return out


def test_dilation_identity_and_scaling():
    lam_list = [F(1, 2), F(1, 4), F(1, 8)]
    spec = grid_for("dilation", lam=min(lam_list))
    base = family_dilation(spec, 1)
    for p in (1, 2, "inf"):
        base_norm = lp_norm(base, p)
        ip = 0.0 if p == "inf" else 1.0 / float(F(p))
        for lam in lam_list:
            ratio = lp_norm(family_dilation(spec, lam), p) / base_norm
            predicted = float(lam) ** (-ip)
            assert predicted / 2 < ratio < predicted * 2, (p, lam)


def test_dilation_single_active_box():
    spec = grid_for("dilation", lam=F(1, 2))
    uniform = build_uniform(spec)
    f = family_dilation(spec, F(1, 2))
    assert active_boxes(f, uniform, rel=1e-12) == {(0,)}


def test_dilation_resolution_guard():
    spec = GridSpec(d=1, n=2 ** 10, oversampling=8)
    with pytest.raises(ResolutionError):
        family_dilation(spec, F(1, 2))


BOX_SPEC = grid_for("single_box", level=8)


def test_single_box_bookkeeping():
    uniform = build_uniform(BOX_SPEC)
    for level in (4, 6, 8):
        f = family_single_box(BOX_SPEC, level)
        assert active_boxes(f, uniform) == {smallest_box_point(level, 1)}


@pytest.mark.parametrize("d,levels", [(1, range(2, 13)), (2, range(2, 9))])
def test_smallest_box_point_is_first_member(d, levels):
    """The first lattice point the membership test accepts is the
    lexicographically smallest member of A_l."""
    for level in levels:
        assert smallest_box_point(level, d) == index_set("A", level, d).members[0]


@pytest.mark.parametrize("d", [1, 2])
def test_smallest_box_point_of_empty_set(d):
    with pytest.raises(ValueError, match=f"A_1 is empty in dimension {d}"):
        smallest_box_point(1, d)


@pytest.mark.parametrize("level,d,message", [(3, 3, "dimension must be 1 or 2, got 3"),
                                             (-1, 1, "level must be >= 0, got -1")])
def test_smallest_box_point_checks_its_arguments(level, d, message):
    """The first member is read under the same checks as index_set."""
    for find in (smallest_box_point, lambda level, d: index_set("A", level, d)):
        with pytest.raises(ValueError, match=message):
            find(level, d)


def test_single_box_norm_constant_across_levels():
    vals = [lp_norm(family_single_box(BOX_SPEC, level), 2) for level in range(4, 9)]
    assert max(vals) == pytest.approx(min(vals), rel=1e-12)


def test_single_box_dyadic_locality():
    from modemb.partitions import build_dyadic, delta_apply
    dyadic = build_dyadic(BOX_SPEC)
    level = 5
    f = family_single_box(BOX_SPEC, level)
    peak = np.abs(f.in_space().values).max()
    for j in range(dyadic.levels + 1):
        piece = delta_apply(f, j, dyadic)
        if abs(j - level) > 3:
            assert np.abs(piece.values).max() < 1e-12 * peak


def test_single_box_level_guard():
    with pytest.raises(ValueError):
        family_single_box(BOX_SPEC, 1)


def test_annulus_base_window():
    spec = grid_for("annulus", level=2)
    f = family_annulus(spec, 0)
    assert 0 < lp_norm(f, 2) < np.inf
    assert 0 < lp_norm(f, 1) < np.inf


def test_annulus_band_guard():
    spec = grid_for("annulus", level=4)
    with pytest.raises(ValueError):
        family_annulus(spec, 12)


COMB_SPEC = grid_for("lattice_comb", level=6)


def test_comb_box_pieces_are_translates():
    """box_k f = e^{ikx} eta(x - k) exactly for k in A_l (width 1)."""
    uniform = build_uniform(COMB_SPEC)
    level = 5
    f = family_lattice_comb(COMB_SPEC, level)
    members = index_set("A", level, 1).members
    assert active_boxes(f, uniform) == set(members)
    k = members[len(members) // 2]
    piece = box_apply(f, k, uniform)
    single = _train(COMB_SPEC, {k[0]: 1.0}).in_space()
    num = np.abs(piece.values - single.values).max()
    assert num < 1e-10 * np.abs(single.values).max()


def test_comb_refuses_a_level_that_is_not_an_integer():
    for level in (2.5, "3"):
        with pytest.raises(ValueError, match="level must be an integer"):
            family_lattice_comb(COMB_SPEC, level)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("level", [2.5, 3.0, "3", None])
def test_level_generators_refuse_a_level_that_is_not_an_integer(d, level):
    """At 2.5 the annulus member would blend two dyadic windows, and the
    single box would end in a TypeError from range()."""
    spec = grid_for("single_box", d=d, level=4)
    message = re.escape(f"level must be an integer, got {level!r}")
    for find in (lambda: family_single_box(spec, level), lambda: family_annulus(spec, level),
                 lambda: smallest_box_point(level, d)):
        with pytest.raises(ValueError, match=message):
            find()


def test_comb_period_guard():
    small = GridSpec(d=1, n=2 ** 12, oversampling=8)
    with pytest.raises(PeriodError):
        family_lattice_comb(small, 5)


def test_weighted_sum_box_lq_profile():
    """||sum a_l f_l||_{M_{p,q}} tracks ||a_l||_{l^q} with one constant."""
    uniform = build_uniform(BOX_SPEC)
    rng = np.random.default_rng(73)
    levels = (4, 6, 8)
    for q in (1, 2):
        ratios = []
        for _ in range(4):
            coeffs = rng.uniform(0.5, 2.0, size=3)
            f = _finish(BOX_SPEC, _sum_spectrum(BOX_SPEC, family_single_box,
                                                zip(levels, coeffs)))
            value = modulation_norm(f, 2, q, 0, uniform)
            ratios.append(value / lq_seq_norm(coeffs, q))
        assert max(ratios) / min(ratios) < 1.01


def test_weighted_sum_annulus_lower_bound():
    """||sum a_j f_j||_{M_{p,q}} >= c ||a_j 2^{jd/q}||_{l^q}."""
    spec = grid_for("annulus", level=7)
    uniform = build_uniform(spec)
    rng = np.random.default_rng(79)
    levels = (3, 5, 7)
    q = 1
    ratios = []
    for _ in range(4):
        coeffs = rng.uniform(0.5, 2.0, size=3)
        f = _finish(spec, _sum_spectrum(spec, family_annulus, zip(levels, coeffs)))
        value = modulation_norm(f, 2, q, 0, uniform)
        seq = lq_seq_norm(coeffs, q, weights=[2.0 ** j for j in levels])
        ratios.append(value / seq)
    assert min(ratios) > 0.1
    assert max(ratios) / min(ratios) < 4.0


TRAIN_SPEC = GridSpec(d=1, n=4096, oversampling=64)  # room for |k| <= 24


def test_train_box_bookkeeping():
    uniform = build_uniform(TRAIN_SPEC)
    coeffs = {-24: 1.0, -3: 0.5j, 0: 2.0, 7: -1.0}
    f = _train(TRAIN_SPEC, coeffs)
    _, norms = box_piece_norms(spectral_support(f), 2, uniform)
    by_point = dict(zip(map(tuple, uniform.lattice().tolist()), norms))
    eta_norm = by_point[(0,)] / 2.0
    for k, c in coeffs.items():
        assert by_point[(k,)] == pytest.approx(abs(c) * eta_norm, rel=1e-9)
    active = {k for k, v in by_point.items() if v > 1e-10 * max(norms)}
    assert active == {(k,) for k in coeffs}


def test_train_l2_and_sup():
    rng = np.random.default_rng(83)
    l2_ratios = []
    for _ in range(5):
        coeffs = {k: rng.standard_normal() for k in range(-10, 11)}
        f = _train(TRAIN_SPEC, coeffs)
        a = np.array(list(coeffs.values()))
        l2_ratios.append(lp_norm(f, 2) / np.linalg.norm(a))
        assert lp_norm(f, "inf") <= 5.0 * np.abs(a).max()
    assert max(l2_ratios) == pytest.approx(min(l2_ratios), rel=1e-9)


def test_kernel_plateau_and_limit():
    spec = grid_for("dilated_kernel", t=F(1, 4))
    t = F(1, 4)
    f = family_dilated_kernel(spec, t)
    spectrum = f.in_frequency().values
    ax = spec.freq_axis()
    plateau = np.abs(ax) <= 4.0
    assert np.abs(spectrum[plateau] - 1.0).max() < 1e-12
    outside = np.abs(ax) > 9.0 / (8.0 * float(t))
    assert np.abs(spectrum[outside]).max() < 1e-12
    with pytest.raises(ValueError):
        family_dilated_kernel(spec, 2)


@pytest.mark.slow
def test_kernel_l1_dilation_invariance():
    """||t^-d eta(x/t)||_1 is t-independent to 1e-8 at converged resolution."""
    spec = GridSpec(d=1, n=2 ** 23, oversampling=256)
    values = [lp_norm(family_dilated_kernel(spec, t), 1)
              for t in (F(1, 2), F(1, 4))]
    assert abs(values[0] - values[1]) / min(values) < 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_grid_at_dyadic_t_unchanged(d):
    # t = 2^-k, k >= 2, keep the grid they had before small-t sizing was
    # widened for t > 1/4, so their outputs do not move
    assert grid_for("dilated_kernel", d, t=F(1, 4)) == GridSpec(d=d, n=128, oversampling=8)
    assert grid_for("dilated_kernel", d, t=F(1, 8)) == GridSpec(d=d, n=256, oversampling=8)


def test_kernel_band_guard():
    spec = grid_for("dilated_kernel", t=F(1, 4))
    with pytest.raises(BandLimitError):
        family_dilated_kernel(spec, F(1, 64))


def test_deterministic_generation():
    f = family_lattice_comb(COMB_SPEC, 5)
    g = family_lattice_comb(COMB_SPEC, 5)
    assert np.array_equal(f.values, g.values)


def test_band_margin_asserted():
    for f in (family_single_box(BOX_SPEC, 6), family_annulus(grid_for("annulus", level=5), 5),
              family_lattice_comb(COMB_SPEC, 5)):
        assert isinstance(f, GridFunction) and f.side == FREQUENCY


def test_random_band_limited_margin_guard():
    spec = GridSpec(d=1, n=2 ** 10, oversampling=8)
    with pytest.raises(BandLimitError):
        random_band_limited(spec, band_radius=100.0)


def test_random_band_limited_center_matches_dimension():
    for d, center in ((1, (1.0, 2.0)), (2, (1.0,)), (2, 1.0)):
        spec = GridSpec(d=d, n=256, oversampling=8)
        with pytest.raises(ValueError, match="does not match dimension"):
            random_band_limited(spec, band_radius=1.0, center=center)


def test_grid_for_comb_matches_design_scale():
    spec = grid_for("lattice_comb", level=8)
    assert spec.n == 2 ** 19 and spec.oversampling == 512
    assert float(spec.period) >= 8 * 2 ** 8


def _member_cases():
    """name -> (member drawn through the family table, the spectrum its
    family_* generator gives) for every kind, in d = 1 and, where the family
    has one, d = 2."""
    box, box2 = grid_for("single_box", level=5), grid_for("single_box", d=2, level=2)
    ann, ann2 = grid_for("annulus", level=3), grid_for("annulus", d=2, level=2)
    comb = grid_for("lattice_comb", level=4)
    dil, ker = grid_for("dilation", lam=F(1, 2)), grid_for("dilated_kernel", t=F(1, 4))
    return {
        "dilation": (member("dilation", dil, F(1, 2)), family_dilation(dil, F(1, 2))),
        "single_box": (member("single_box", box, 5), family_single_box(box, 5)),
        "single_box-2d": (member("single_box", box2, 2), family_single_box(box2, 2)),
        "annulus": (member("annulus", ann, 3), family_annulus(ann, 3)),
        "annulus-2d": (member("annulus", ann2, 2), family_annulus(ann2, 2)),
        "lattice_comb": (member("lattice_comb", comb, 4, F(1, 2)),
                         family_lattice_comb(comb, 4, F(1, 2))),
        "dilated_kernel": (member("dilated_kernel", ker, F(1, 4), F(1, 2)),
                           family_dilated_kernel(ker, F(1, 4))),
    }


MEMBER_CASES = _member_cases()


@pytest.mark.parametrize("case", MEMBER_CASES)
def test_member_space_samples_are_the_spectrum_transform(case):
    """A member drawn through the family table holds its generator's spectrum
    bit for bit, and its space samples are the inverse transform of it."""
    drawn, direct = MEMBER_CASES[case]
    assert drawn.side == FREQUENCY and drawn.values.tobytes() == direct.values.tobytes()
    expected = transform(GridFunction(drawn.spec, direct.values, FREQUENCY), SPACE)
    assert drawn.in_space().values.tobytes() == expected.values.tobytes()


def test_family_table_rows():
    """Each kind names its member parameter, measures growth in octaves of
    that parameter, and is refused by name when unknown; only the dilation
    kinds have no catalogued growth."""
    assert {kind: kind_row(kind)[0] for kind in KINDS} == {
        "single_box": ("level",), "annulus": ("level",),
        "lattice_comb": ("level", "width"), "dilation": ("lam",), "dilated_kernel": ("t",)}
    assert kind_row("annulus")[1](5) == 5.0
    assert kind_row("dilation")[1](F(1, 8)) == 3.0
    assert kind_row("dilated_kernel")[1]("1/4") == 2.0
    assert kind_row("dilated_kernel")[1](0) == np.inf
    assert [kind for kind in KINDS if kind_row(kind).growth is None] == [
        "dilation", "dilated_kernel"]
    with pytest.raises(ValueError, match="unknown family kind 'ring'"):
        kind_row("ring")


@pytest.mark.parametrize("kind", KINDS)
def test_grid_for_names_a_missing_parameter(kind):
    """A kind's member parameter is required, and its absence is named."""
    option = kind_row(kind).options[0]
    with pytest.raises(ValueError, match=f"^{option} is required for the {kind} family$"):
        grid_for(kind)
