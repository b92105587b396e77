"""Experiment harness: predicted slopes and sharpness/boundedness runs."""
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from modemb import experiments
from modemb.exponents import Exponent, INF, TauPiece, tau, tau_region
from modemb.experiments import (
    CatalogueError,
    predicted_slope,
    run_boundedness,
    run_sharpness,
)
from modemb.families import grid_for
from modemb.oracle import SpaceSpec, decide, render_space

F = Fraction


def B(p, q, s=0):
    return SpaceSpec.besov(p, q, s)


def M(p, q, s=0):
    return SpaceSpec.modulation(p, q, s)


def test_predicted_slope_examples():
    # annulus: d/q - (s + d(1 - 1/p0)) at p0 = q = 1, s = 0
    assert predicted_slope(B(1, 1, 0), M(1, 1), "annulus") == 1
    # single box at s = -1: slope -s
    assert predicted_slope(B(2, 2, -1), M(2, 2), "single_box") == 1
    # comb at p0 = inf, q = 1, s = 0: d(1/q - 1/p0)
    assert predicted_slope(B(INF, 1, 0), M(INF, 1), "lattice_comb") == 1


def test_predicted_slope_mirror_direction():
    assert predicted_slope(M(1, 1), B(1, 1, 1), "annulus") == 0
    assert predicted_slope(M(2, 2), B(2, 2, F(1, 2)), "single_box") == F(1, 2)
    # slope = s - d(1/q - 1/p1) = 0 - (1/4 - 1) = 3/4
    assert predicted_slope(M(1, 4), B(1, 2, 0), "lattice_comb") == F(3, 4)


def test_predicted_slope_uncatalogued():
    with pytest.raises(CatalogueError):
        predicted_slope(B(1, 1, 0), M(1, 1), "dilated_kernel")
    with pytest.raises(CatalogueError):
        predicted_slope(B(1, 1, 0), M(1, 1, 0).__class__.sobolev(1, 0), "annulus")
    with pytest.raises(CatalogueError, match="p0 >= 2"):
        predicted_slope(B(1, 2, 0), M(1, 2), "lattice_comb")


def test_catalogue_coherence_with_oracle():
    """Positive predicted growth must come with a failing verdict, for
    B -> M and for M -> B."""
    grid = [F(1, 2), 1, 2, 4, Exponent.of("inf")]
    smooth = [F(-1, 2), 0, F(1, 4), 1]
    positive = 0
    for p0 in grid:
        for q in grid:
            for s in smooth:
                for source, target in ((B(p0, q, s), M(p0, q)), (M(p0, q), B(p0, q, s))):
                    for family in ("single_box", "annulus", "lattice_comb"):
                        try:
                            slope = predicted_slope(source, target, family)
                        except CatalogueError:
                            continue
                        if slope > 0:
                            positive += 1
                            assert not decide(source, target).holds, (source, target, family)
    assert positive == 110 + 138  # B -> M cases + M -> B cases


def test_run_sharpness_annulus_failing_query():
    """B^0_{1,1} -> M_{1,1} fails (tau = 1); the annulus ratio grows at rate 1."""
    report = run_sharpness(B(1, 1, 0), M(1, 1), "annulus", range(4, 9))
    assert report.predicted_slope == 1
    assert abs(report.fitted_slope - 1.0) <= 0.2
    assert report.passed


def test_run_sharpness_annulus_failing_query_2d():
    """The same failing query in d = 2 (tau = 2): the annulus ratio grows at
    rate 2 over levels 2-4."""
    source = SpaceSpec.besov(1, 1, 0, d=2)
    target = SpaceSpec.modulation(1, 1, d=2)
    report = run_sharpness(source, target, "annulus", range(2, 5))
    assert report.grid.d == 2
    assert report.predicted_slope == 2
    assert report.passed


@pytest.mark.parametrize("side,value", [
    ("source", 0.0), ("target", 0.0), ("target", float("inf")), ("source", float("nan")),
])
def test_run_norms_rejects_degenerate_norms(monkeypatch, side, value):
    """A zero or non-finite norm at the second level is refused with that
    level and the space, before it reaches a ratio or a fit."""
    source, target = B(2, 2, 0), M(2, 2)
    bad = source if side == "source" else target
    calls = []

    def fake(f, space, *partitions):
        calls.append(space)
        return value if space is bad and calls.count(bad) == 2 else 1.0

    monkeypatch.setattr(experiments, "space_norm", fake)
    with pytest.raises(ValueError, match=re.escape(f"{render_space(bad)} norm at level 5 is")):
        run_sharpness(source, target, "single_box", range(4, 7))


@pytest.mark.parametrize("s_mod", [F(1, 2), F(-1, 2)])
def test_run_sharpness_single_box_with_modulation_smoothness(s_mod):
    """The single box sits at |k| ~ 2^level, where the weight <k>^s_M grows
    like 2^(level s_M): the slope gains s_M toward a modulation target and
    loses it from a modulation source, and the fit agrees."""
    for source, target, slope in ((B(2, 2, 0), M(2, 2, s_mod), s_mod),
                                  (M(2, 2, s_mod), B(2, 2, 0), -s_mod)):
        report = run_sharpness(source, target, "single_box", range(3, 7))
        assert report.predicted_slope == slope
        assert abs(report.fitted_slope - float(slope)) <= 0.01, report.fitted_slope
        assert report.passed


def test_predicted_slope_modulation_smoothness_other_families():
    assert predicted_slope(B(1, 1, 0), M(1, 1, F(1, 2)), "annulus") == F(3, 2)
    assert predicted_slope(B(INF, 1, 0), M(INF, 1, -1), "lattice_comb") == 0
    assert predicted_slope(M(1, 1, F(1, 2)), B(1, 1, 1), "annulus") == F(-1, 2)
    assert predicted_slope(M(1, 4, -1), B(1, 2, 0), "lattice_comb") == F(7, 4)


def test_run_sharpness_holding_query_decays():
    """At s = tau + 1 the annulus ratio decays at rate about -1."""
    report = run_sharpness(B(1, 1, 2), M(1, 1), "annulus", range(4, 9))
    assert report.predicted_slope == -1
    assert report.fitted_slope <= -0.8


def test_run_sharpness_needs_two_levels():
    with pytest.raises(ValueError):
        run_sharpness(B(1, 1, 0), M(1, 1), "annulus", [4])


def test_run_boundedness_box():
    report = run_boundedness(B(2, 2, 0), M(2, 2), "single_box", range(4, 9))
    assert report.passed and report.spread <= 1.0 + 1e-9


def test_run_boundedness_box_2d():
    source = SpaceSpec.besov(2, 2, 0, d=2)
    target = SpaceSpec.modulation(2, 2, d=2)
    report = run_boundedness(source, target, "single_box", range(2, 6))
    assert report.grid.d == 2
    assert report.passed and report.spread <= 1.0 + 1e-9


def test_run_boundedness_requires_holding_verdict():
    with pytest.raises(ValueError, match="holding"):
        run_boundedness(B(1, 1, 0), M(1, 1), "annulus", range(4, 7))


def test_run_boundedness_kernel_sobolev():
    """W^{0,1} -> M_{1,inf} holds (condition with r = 1, q = inf); the
    dilated-kernel ratio stays bounded as t -> 0."""
    source = SpaceSpec.sobolev(1, 0)
    target = SpaceSpec.modulation(1, INF)
    ts = [F(1, 4), F(1, 16), F(1, 64)]
    report = run_boundedness(source, target, "dilated_kernel", ts)
    assert report.passed


def test_report_serialization(tmp_path):
    report = run_sharpness(B(2, 2, F(-1, 4)), M(2, 2), "single_box", range(4, 7))
    payload = json.loads(report.to_json())
    assert payload["schema"] == "modemb/experiment/v1"
    assert payload["mode"] == "sharpness"
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "level,source_norm,target_norm,ratio,log2_ratio"
    assert len(lines) == 4


def test_slope_reproducibility():
    a = run_sharpness(B(2, 2, F(-1, 4)), M(2, 2), "single_box", range(4, 8))
    b = run_sharpness(B(2, 2, F(-1, 4)), M(2, 2), "single_box", range(4, 8))
    assert a.fitted_slope == b.fitted_slope


@pytest.mark.parametrize("piece,family,p0,q", [
    (TauPiece.ZERO, "single_box", 2, 2),
    (TauPiece.P_PLUS_Q_MINUS_1, "annulus", 1, 1),
    (TauPiece.Q_MINUS_P, "lattice_comb", "inf", 1),
])
def test_tau_piece_queries(piece, family, p0, q):
    """One catalogued (query, family) pair per tau piece: the query at
    s = tau - 1/4 fails with growth slope +1/4, and at s = tau it holds."""
    critical = tau(p0, q)
    assert tau_region(p0, q) is piece
    fail_source = SpaceSpec.besov(p0, q, critical - F(1, 4))
    hold_source = SpaceSpec.besov(p0, q, critical)
    target = M(p0, q)
    assert not decide(fail_source, target).holds
    assert decide(hold_source, target).holds
    assert predicted_slope(fail_source, target, family) == F(1, 4)


def test_grid_refinement_stability_small():
    """Doubling N moves a fitted slope by < 0.05 (desk-scale check)."""
    spec = grid_for("annulus", level=7)
    double = type(spec)(spec.d, spec.n * 2, spec.oversampling)
    base = run_sharpness(B(1, 1, 0), M(1, 1), "annulus", range(4, 8), grid=spec)
    fine = run_sharpness(B(1, 1, 0), M(1, 1), "annulus", range(4, 8), grid=double)
    assert abs(base.fitted_slope - fine.fitted_slope) < 0.05
