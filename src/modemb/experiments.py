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

from .families import KINDS, UNIT_PARAMETERS, grid_for, kind_row, member
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
    |xi| ~ 2^level, where the Besov weight 2^(j s_X) and the modulation
    weight <k>^s_M are about 2^(level s_X) and 2^(level s_M). So the slope
    into M is the growth in the family's row - s_X + s_M, and the slope out
    of M is its negation. The comb's estimate needs p >= 2 into M only.
    """
    pair = (source.family, target.family)
    if pair not in ((Family.BESOV, Family.MODULATION), (Family.MODULATION, Family.BESOV)):
        raise CatalogueError(
            f"no catalogued growth predictions for {source.family.value} -> "
            f"{target.family.value}")
    growth = kind_row(family).growth if family in KINDS else None
    if growth is None:
        raise CatalogueError(
            f"no catalogued family {family!r} for {pair[0].value}->{pair[1].value}")
    into = target.family is Family.MODULATION
    x, mod = (source, target) if into else (target, source)
    if into and family == "lattice_comb" and not x.p >= 2:
        raise CatalogueError(f"comb growth is catalogued for p0 >= 2 only, got p0 = {x.p}")
    slope = growth(x.p, mod.q, source.d) - x.s + mod.s
    return slope if into else -slope


def finite_norm(f, space, uniform, dyadic, purpose, where="") -> float:
    """space_norm, refused naming the space unless finite and nonzero; NumPy warns nothing.
    A smoothness beyond double range, whose float conversion overflows, reads nan."""
    with np.errstate(all="ignore"):
        try:
            value = space_norm(f, space, uniform, dyadic)
        except (NonFiniteError, OverflowError):
            value = math.nan
    if value == 0.0 or not math.isfinite(value):
        raise ValueError(f"the {render_space(space)} norm{where} is {value}; {purpose}")
    return value


def _sequence(levels):
    """``levels`` as a sequence: a range as it is, anything else as a list."""
    return levels if isinstance(levels, range) else list(levels)


def _run_norms(source, target, family, levels, width, grid):
    if family == "dilation":  # it has norm estimates, but no experiment driver
        raise CatalogueError("no experiment runs along the dilation family yet")
    if family not in KINDS:
        raise CatalogueError(f"unknown family kind {family!r}")
    row = kind_row(family)
    option = row.options[0]
    if option == "level" and not all(isinstance(l, int) for l in levels):
        raise ValueError(f"the {family} family takes integer levels, got "
                         f"{', '.join(str(l) for l in levels)}")
    if option in UNIT_PARAMETERS:
        # In order and before the grid is sized: a range of t or lambda is
        # refused at its first value outside (0, 1], the rest unread.
        for parameter in levels:
            UNIT_PARAMETERS[option](parameter)
    if grid is None:
        grid = grid_for(family, d=source.d, width=width,
                        **{option: max(levels, key=row.coordinate)})
    scales = {source.family, target.family}
    uniform = build_uniform(grid) if Family.MODULATION in scales else None
    dyadic = build_dyadic(grid) if scales & {Family.BESOV, Family.TRIEBEL} else None

    def one(level):
        f = member(family, grid, level, width)
        return [finite_norm(f, space, uniform, dyadic,
                            "a growth ratio needs finite nonzero norms", f" at level {level}")
                for space in (source, target)]

    source_norms, target_norms = map(list, zip(*[one(level) for level in levels]))
    ratios = [tn / sn for sn, tn in zip(source_norms, target_norms)]
    return grid, source_norms, target_norms, ratios


def run_sharpness(source: SpaceSpec, target: SpaceSpec, family: str, levels,
                  tolerance: float = 0.2, width=1,
                  grid: GridSpec | None = None) -> ExperimentReport:
    """Fit the log2 ratio growth along the family and compare to the
    catalogued prediction. ``levels`` is a range or any iterable of member
    parameters; a range is read lazily, so a long one costs nothing before
    its first refused member. The tolerance must be finite and >= 0."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    levels = _sequence(levels)
    if len(levels) < 2:
        raise ValueError("sharpness needs at least two levels to fit a slope")
    predicted = predicted_slope(source, target, family)
    grid, source_norms, target_norms, ratios = _run_norms(
        source, target, family, levels, width, grid)
    coordinate = kind_row(family).coordinate
    xs = np.array([coordinate(level) for level in levels])
    fitted = float(np.polyfit(xs, np.log2(ratios), 1)[0])
    passed = abs(fitted - float(predicted)) <= tolerance
    return ExperimentReport(
        source=source, target=target, family=family, levels=list(levels),
        source_norms=source_norms, target_norms=target_norms, ratios=ratios,
        mode="sharpness", fitted_slope=fitted, predicted_slope=predicted,
        tolerance=tolerance, passed=passed, grid=grid)


def run_boundedness(source: SpaceSpec, target: SpaceSpec, family: str, levels,
                    bound: float = 8.0, width=1,
                    grid: GridSpec | None = None) -> ExperimentReport:
    """Check that the embedding constant stays bounded along the family.

    Requires the oracle to confirm the embedding holds first. ``levels`` is
    read as in ``run_sharpness``. The bound must be finite and >= 1: the
    spread max/min it gates is never below 1.
    """
    if not (math.isfinite(bound) and bound >= 1):
        raise ValueError(f"bound must be finite and >= 1, got {bound}")
    levels = _sequence(levels)
    verdict = decide(source, target)
    if not verdict.holds:
        raise ValueError(
            f"boundedness requires a holding embedding; oracle says: "
            f"{verdict.explanation}")
    grid, source_norms, target_norms, ratios = _run_norms(
        source, target, family, levels, width, grid)
    spread = max(ratios) / min(ratios)
    return ExperimentReport(
        source=source, target=target, family=family, levels=list(levels),
        source_norms=source_norms, target_norms=target_norms, ratios=ratios,
        mode="boundedness", spread=spread, bound=bound,
        passed=spread <= bound, grid=grid,
        extra={"verdict_clause": verdict.clause})
