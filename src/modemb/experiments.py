"""Sharpness and boundedness experiments tying verdicts to measured growth.

A sharpness run drives one extremal family through a failing embedding
query and fits the log2 growth rate of the norm ratio against the exact
rate predicted by the family's norm asymptotics. A boundedness run drives
a family through a holding query and checks that the ratio stays within a
fixed spread.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exponents import as_fraction
from .families import (
    family_annulus,
    family_dilated_kernel,
    family_lattice_comb,
    family_single_box,
    grid_for,
)
from .grid import GridSpec, NonFiniteError
from .norms import space_norm
from .oracle import Family, SpaceSpec, decide, render_space
from .partitions import build_dyadic, build_uniform


class CatalogueError(ValueError):
    """(query, family) pair has no catalogued growth prediction."""


@dataclass
class ExperimentReport:
    """Per-level norms and the fitted versus predicted growth of their ratio."""

    source: SpaceSpec
    target: SpaceSpec
    family: str
    levels: list
    source_norms: list[float]
    target_norms: list[float]
    ratios: list[float]
    mode: str
    fitted_slope: float | None = None
    predicted_slope: Fraction | None = None
    tolerance: float | None = None
    spread: float | None = None
    bound: float | None = None
    passed: bool = False
    grid: GridSpec | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema": "modemb/experiment/v1",
            "source": render_space(self.source),
            "target": render_space(self.target),
            "family": self.family,
            "mode": self.mode,
            "levels": [str(l) for l in self.levels],
            "source_norms": self.source_norms,
            "target_norms": self.target_norms,
            "ratios": self.ratios,
            "fitted_slope": self.fitted_slope,
            "predicted_slope": (None if self.predicted_slope is None
                                else str(self.predicted_slope)),
            "tolerance": self.tolerance,
            "spread": self.spread,
            "bound": self.bound,
            "passed": self.passed,
            "grid": None if self.grid is None else {
                "d": self.grid.d, "n": self.grid.n,
                "oversampling": self.grid.oversampling,
            },
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def csv_rows(self) -> list[dict]:
        rows = []
        for level, sn, tn, ratio in zip(self.levels, self.source_norms,
                                        self.target_norms, self.ratios):
            rows.append({
                "level": str(level),
                "source_norm": sn,
                "target_norm": tn,
                "ratio": ratio,
                "log2_ratio": float(np.log2(ratio)) if ratio > 0 else float("nan"),
            })
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["level", "source_norm", "target_norm",
                                    "ratio", "log2_ratio"])
            writer.writeheader()
            writer.writerows(self.csv_rows())


def predicted_slope(source: SpaceSpec, target: SpaceSpec, family: str) -> Fraction:
    """Exact log2 slope of target_norm / source_norm along the family.

    Catalogued from the families' two-sided norm estimates; a positive slope
    certifies that the embedding fails. The family lives at frequencies
    |xi| ~ 2^level, where the modulation weight <k>^s_M grows like
    2^(level s_M), so s_M adds to the slope of a modulation target and
    subtracts from that of a modulation source.
    """
    d = source.d
    pair = (source.family, target.family)
    if pair == (Family.BESOV, Family.MODULATION):
        s, s_mod = source.s, target.s
        p0, q = source.p, target.q
        if family == "single_box":
            return s_mod - s
        if family == "annulus":
            return d * (p0.reciprocal() + q.reciprocal() - 1) - s + s_mod
        if family == "lattice_comb":
            if not p0 >= 2:
                raise CatalogueError(
                    f"comb growth is catalogued for p0 >= 2 only, got p0 = {p0}")
            return d * (q.reciprocal() - p0.reciprocal()) - s + s_mod
        raise CatalogueError(f"no catalogued family {family!r} for B->M")
    if pair == (Family.MODULATION, Family.BESOV):
        s, s_mod = target.s, source.s
        p1, q = target.p, source.q
        if family == "single_box":
            return s - s_mod
        if family == "annulus":
            return s - d * (p1.reciprocal() + q.reciprocal() - 1) - s_mod
        if family == "lattice_comb":
            return s - d * (q.reciprocal() - p1.reciprocal()) - s_mod
        raise CatalogueError(f"no catalogued family {family!r} for M->B")
    raise CatalogueError(
        f"no catalogued growth predictions for {source.family.value} -> "
        f"{target.family.value}")


_FAMILY_BUILDERS = {
    "single_box": lambda spec, level, width: family_single_box(spec, level),
    "annulus": lambda spec, level, width: family_annulus(spec, level),
    "lattice_comb": family_lattice_comb,
    "dilated_kernel": lambda spec, level, width: family_dilated_kernel(spec, level),
}


def _default_grid(family: str, levels, d: int, width) -> GridSpec:
    if family == "dilated_kernel":
        return grid_for("dilated_kernel", d=d, t=min(as_fraction(t) for t in levels))
    return grid_for(family, d=d, level=max(levels), width=width)


def _needs(source: SpaceSpec, target: SpaceSpec, family_enum: Family) -> bool:
    return source.family is family_enum or target.family is family_enum


def finite_norm(f, space, uniform, dyadic, purpose, where="") -> float:
    """space_norm, refused naming the space unless finite and nonzero; NumPy warns nothing."""
    with np.errstate(all="ignore"):
        try:
            value = space_norm(f, space, uniform, dyadic)
        except NonFiniteError:
            value = math.nan
    if value == 0.0 or not math.isfinite(value):
        raise ValueError(f"the {render_space(space)} norm{where} is {value}; {purpose}")
    return value


def _run_norms(source, target, family, levels, width, grid):
    if family not in _FAMILY_BUILDERS:
        raise CatalogueError(f"unknown family kind {family!r}")
    if family != "dilated_kernel" and not all(isinstance(l, int) for l in levels):
        raise ValueError(f"the {family} family takes integer levels, got "
                         f"{', '.join(str(l) for l in levels)}")
    if grid is None:
        grid = _default_grid(family, levels, source.d, width)
    uniform = build_uniform(grid) if _needs(source, target, Family.MODULATION) else None
    dyadic = (build_dyadic(grid)
              if _needs(source, target, Family.BESOV)
              or _needs(source, target, Family.TRIEBEL) else None)
    builder = _FAMILY_BUILDERS[family]

    def one(level):
        f = builder(grid, level, width)
        return [finite_norm(f, space, uniform, dyadic,
                            "a growth ratio needs finite nonzero norms", f" at level {level}")
                for space in (source, target)]

    source_norms, target_norms = map(list, zip(*[one(level) for level in levels]))
    ratios = [tn / sn for sn, tn in zip(source_norms, target_norms)]
    return grid, source_norms, target_norms, ratios


def _level_coordinates(family: str, levels) -> np.ndarray:
    if family == "dilated_kernel":
        return np.array([-np.log2(float(as_fraction(t))) for t in levels])
    return np.array([float(level) for level in levels])


def run_sharpness(source: SpaceSpec, target: SpaceSpec, family: str, levels,
                  tolerance: float = 0.2, width=1,
                  grid: GridSpec | None = None) -> ExperimentReport:
    """Fit the log2 ratio growth along the family and compare to the
    catalogued prediction."""
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("sharpness needs at least two levels to fit a slope")
    predicted = predicted_slope(source, target, family)
    grid, source_norms, target_norms, ratios = _run_norms(
        source, target, family, levels, width, grid)
    xs = _level_coordinates(family, levels)
    fitted = float(np.polyfit(xs, np.log2(ratios), 1)[0])
    passed = abs(fitted - float(predicted)) <= tolerance
    return ExperimentReport(
        source=source, target=target, family=family, levels=levels,
        source_norms=source_norms, target_norms=target_norms, ratios=ratios,
        mode="sharpness", fitted_slope=fitted, predicted_slope=predicted,
        tolerance=tolerance, passed=passed, grid=grid)


def run_boundedness(source: SpaceSpec, target: SpaceSpec, family: str, levels,
                    bound: float = 8.0, width=1,
                    grid: GridSpec | None = None) -> ExperimentReport:
    """Check that the embedding constant stays bounded along the family.

    Requires the oracle to confirm the embedding holds first.
    """
    levels = list(levels)
    verdict = decide(source, target)
    if not verdict.holds:
        raise ValueError(
            f"boundedness requires a holding embedding; oracle says: "
            f"{verdict.explanation}")
    grid, source_norms, target_norms, ratios = _run_norms(
        source, target, family, levels, width, grid)
    spread = max(ratios) / min(ratios)
    return ExperimentReport(
        source=source, target=target, family=family, levels=levels,
        source_norms=source_norms, target_norms=target_norms, ratios=ratios,
        mode="boundedness", spread=spread, bound=bound,
        passed=spread <= bound, grid=grid,
        extra={"verdict_clause": verdict.clause})
