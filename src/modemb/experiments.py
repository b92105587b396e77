"""Sharpness and boundedness experiments tying verdicts to measured growth.

A sharpness run drives one extremal family through a failing embedding
query and fits the log2 growth rate of the norm ratio against the exact
rate predicted by the family's norm asymptotics. A boundedness run drives
a family through a holding query and checks that the ratio stays within a
fixed spread. The lattice-sum runners check the discrete summability
criteria behind the endpoint cases directly, with no grids involved.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exponents import Exponent, TauPiece, as_fraction, tau
from .families import (
    family_annulus,
    family_dilated_kernel,
    family_lattice_comb,
    family_single_box,
    grid_for,
)
from .grid import GridSpec, lp_norm
from .norms import space_norm
from .oracle import Family, SpaceSpec, decide, render_space
from .partitions import build_dyadic, build_uniform, index_set, lattice_weights


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
    certifies that the embedding fails.
    """
    d = source.d
    pair = (source.family, target.family)
    if pair == (Family.BESOV, Family.MODULATION):
        s = source.s
        p0, q = source.p, target.q
        if family == "single_box":
            return -s
        if family == "annulus":
            return d * (p0.reciprocal() + q.reciprocal() - 1) - s
        if family == "lattice_comb":
            if not p0 >= 2:
                raise CatalogueError(
                    f"comb growth is catalogued for p0 >= 2 only, got p0 = {p0}")
            return d * (q.reciprocal() - p0.reciprocal()) - s
        raise CatalogueError(f"no catalogued family {family!r} for B->M")
    if pair == (Family.MODULATION, Family.BESOV):
        s = target.s
        p1, q = target.p, source.q
        if family == "single_box":
            return s
        if family == "annulus":
            return s - d * (p1.reciprocal() + q.reciprocal() - 1)
        if family == "lattice_comb":
            return s - d * (q.reciprocal() - p1.reciprocal())
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


def _run_norms(source, target, family, levels, width, grid):
    if family not in _FAMILY_BUILDERS:
        raise CatalogueError(f"unknown family kind {family!r}")
    if grid is None:
        grid = _default_grid(family, levels, source.d, width)
    uniform = build_uniform(grid) if _needs(source, target, Family.MODULATION) else None
    dyadic = (build_dyadic(grid)
              if _needs(source, target, Family.BESOV)
              or _needs(source, target, Family.TRIEBEL) else None)
    builder = _FAMILY_BUILDERS[family]

    def one(level):
        f = builder(grid, level, width)
        norms = [space_norm(f, space, uniform, dyadic) for space in (source, target)]
        for space, value in zip((source, target), norms):
            if value == 0.0 or not math.isfinite(value):
                raise ValueError(
                    f"the {render_space(space)} norm at level {level} is {value}; "
                    f"a growth ratio needs finite nonzero norms")
        return norms

    pairs = [one(level) for level in levels]
    source_norms = [sn for sn, _ in pairs]
    target_norms = [tn for _, tn in pairs]
    ratios = [tn / sn for sn, tn in pairs]
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


@dataclass
class TailReport:
    """Growth of the weighted tail ||<k>^(-d/q)||_{l^q(K_t)} as t decreases."""

    q: Fraction
    d: int
    ts: list[Fraction]
    values: list[float]
    growth: float
    slope: float
    intercept: float
    max_rel_residual: float
    diverging: bool

    def as_dict(self) -> dict:
        return {
            "schema": "modemb/tail/v1",
            "q": str(self.q), "d": self.d,
            "ts": [str(t) for t in self.ts],
            "values": self.values,
            "growth": self.growth,
            "slope": self.slope,
            "intercept": self.intercept,
            "max_rel_residual": self.max_rel_residual,
            "diverging": self.diverging,
        }


def run_weighted_tail(q, t_list, d: int = 1, growth_factor: float = 2.0) -> TailReport:
    """Evaluate ||<k>^(-d/q)||_{l^q(K_t)} for decreasing t and fit the
    expected a + b log(1/t) divergence."""
    q = Exponent.of(q)
    if q.is_infinite:
        raise ValueError("the weighted tail diverges only for finite q")
    ts = sorted((as_fraction(t) for t in t_list), reverse=True)
    if len(ts) < 2:
        raise ValueError("need at least two t values")
    qf = float(q.value)
    values = []
    for t in ts:
        mags = lattice_weights(index_set("K", t, d).members, -d / qf)
        values.append(float(np.sum(mags ** qf) ** (1.0 / qf)))
    xs = np.log(1.0 / np.array([float(t) for t in ts]))
    slope, intercept = np.polyfit(xs, values, 1)
    fit = slope * xs + intercept
    max_rel_residual = float(np.max(np.abs(fit - values)) / np.mean(values))
    growth = values[-1] / values[0]
    return TailReport(
        q=q.value, d=d, ts=ts, values=values, growth=growth,
        slope=float(slope), intercept=float(intercept),
        max_rel_residual=max_rel_residual,
        diverging=growth >= growth_factor)


@dataclass
class NecessityTrend:
    """Partial sums of sum <k>^(-exponent) over growing cubes |k|_inf <= K."""

    exponent: Fraction
    critical_s: Fraction
    s: Fraction
    d: int
    cube_sizes: list[int]
    partial_sums: list[float]
    increments: list[float]
    tail_estimate: float | None
    converged: bool
    diverging: bool

    def as_dict(self) -> dict:
        return {
            "schema": "modemb/necessity/v1",
            "exponent": str(self.exponent),
            "critical_s": str(self.critical_s),
            "s": str(self.s), "d": self.d,
            "cube_sizes": self.cube_sizes,
            "partial_sums": self.partial_sums,
            "increments": self.increments,
            "tail_estimate": self.tail_estimate,
            "converged": self.converged,
            "diverging": self.diverging,
        }


def _dual_of_ratio(x: Exponent) -> Fraction:
    """(x)' as a plain rational for a ratio x >= 1 (inf maps to 1)."""
    recips = x.dual().reciprocal()
    return Fraction(1) if recips == 0 else 1 / recips


def necessity_exponent(r, q, s, d: int = 1) -> tuple[Fraction, Fraction]:
    """(sum exponent, critical s) for the dual-summability criterion.

    For r < q (Fourier-L^p direction) the sequence criterion is
    {<k>^(-s r)} in l^((q/r)') with critical s = d(1/r - 1/q); for q < r
    (Sobolev direction) it is {<k>^(-s q)} in l^((r/q)') with critical
    s = d(1/q - 1/r).
    """
    r, q = Exponent.of(r), Exponent.of(q)
    s = as_fraction(s)
    if r < q:
        if r.is_infinite:
            raise ValueError("r must be finite in the Fourier direction")
        ratio = Exponent.of(q.value / r.value) if not q.is_infinite else Exponent.of(None)
        exponent = s * r.value * _dual_of_ratio(ratio)
        critical = d * (r.reciprocal() - q.reciprocal())
    elif q < r:
        if q.is_infinite:
            raise ValueError("q must be finite in the Sobolev direction")
        ratio = Exponent.of(r.value / q.value) if not r.is_infinite else Exponent.of(None)
        exponent = s * q.value * _dual_of_ratio(ratio)
        critical = d * (q.reciprocal() - r.reciprocal())
    else:
        raise ValueError("the summability criterion needs r != q")
    return exponent, critical


_CHUNK = 1 << 22


def _shell_sum(lo: int, hi: int, alpha: float, d: int) -> float:
    """sum of <k>^(-alpha) over lo < |k|_inf <= hi."""
    total = 0.0
    if d == 1:
        start = lo + 1
        while start <= hi:
            stop = min(start + _CHUNK - 1, hi)
            ks = np.arange(start, stop + 1, dtype=np.float64)
            total += 2.0 * float(np.sum((1.0 + ks) ** (-alpha)))
            start = stop + 1
        return total
    for k1 in range(-hi, hi + 1):
        if abs(k1) > lo:
            k2 = np.arange(-hi, hi + 1, dtype=np.float64)
        else:
            k2 = np.concatenate([np.arange(-hi, -lo, dtype=np.float64),
                                 np.arange(lo + 1, hi + 1, dtype=np.float64)])
        total += float(np.sum((1.0 + np.sqrt(k1 * k1 + k2 * k2)) ** (-alpha)))
    return total


def necessity_sum_trend(r, q, s, d: int = 1, cube_sizes=None,
                        tail_tol: float = 1e-3, max_cube: int = 1 << 25,
                        auto_extend: bool = False) -> NecessityTrend:
    """Partial-sum trend of the summability criterion at smoothness s."""
    exponent, critical = necessity_exponent(r, q, s, d)
    alpha = float(exponent)
    if cube_sizes is None:
        cube_sizes = [2 ** j for j in range(4, 13)]
    cube_sizes = sorted(int(c) for c in cube_sizes)
    if d == 2 and (cube_sizes[-1] > 1 << 13 or auto_extend):
        raise ValueError("2d lattice sums support cubes up to 2^13 only")

    sums, increments = [], []
    prev_size = 0
    running = 1.0  # the k = 0 term
    for size in cube_sizes:
        inc = _shell_sum(prev_size, size, alpha, d)
        running += inc
        sums.append(running)
        increments.append(inc)
        prev_size = size
    while auto_extend and prev_size * 2 <= max_cube:
        size = prev_size * 2
        inc = _shell_sum(prev_size, size, alpha, d)
        running += inc
        sums.append(running)
        increments.append(inc)
        cube_sizes.append(size)
        prev_size = size
        if len(increments) >= 2 and increments[-2] > 0:
            rho = increments[-1] / increments[-2]
            if rho < 0.95 and increments[-1] * rho / (1.0 - rho) < tail_tol:
                break

    tail_estimate = None
    converged = False
    diverging = False
    if len(increments) >= 2 and increments[-2] > 0:
        rho = increments[-1] / increments[-2]
        if rho < 0.95:
            tail_estimate = increments[-1] * rho / (1.0 - rho)
            converged = tail_estimate < tail_tol
        else:
            diverging = all(inc > 0 for inc in increments) and increments[-1] >= \
                0.25 * max(increments)
    return NecessityTrend(
        exponent=exponent, critical_s=critical, s=as_fraction(s), d=d,
        cube_sizes=cube_sizes, partial_sums=sums, increments=increments,
        tail_estimate=tail_estimate, converged=converged, diverging=diverging)


def run_discrete_necessity(r, q, d: int = 1, offset=Fraction(1, 8),
                           tail_tol: float = 1e-3) -> dict:
    """Probe the critical-s crossing: the lattice sum should diverge at
    s = critical and converge just above it."""
    _, critical = necessity_exponent(r, q, 0, d)
    below = necessity_sum_trend(r, q, critical, d)
    above = necessity_sum_trend(r, q, critical + as_fraction(offset), d,
                                tail_tol=tail_tol, auto_extend=True)
    return {
        "schema": "modemb/necessity-crossing/v1",
        "critical_s": str(critical),
        "below": below.as_dict(),
        "above": above.as_dict(),
        "crossing_confirmed": below.diverging and above.converged,
    }


def run_comb_width_sweep(p1, levels, widths=(1, Fraction(1, 2), Fraction(1, 4),
                                             Fraction(1, 8)), d: int = 1) -> list[dict]:
    """Measured L^p1 growth exponents of the comb family per width a.

    The construction behind the M->B comb bound needs some a << 1; the sweep
    reports the measured exponent per width instead of asserting a bound.
    """
    results = []
    for width in widths:
        spec = grid_for("lattice_comb", d=d, level=max(levels), width=width)
        vals = [lp_norm(family_lattice_comb(spec, level, width), p1)
                for level in levels]
        slope = float(np.polyfit(levels, np.log2(vals), 1)[0])
        results.append({"width": str(as_fraction(width)),
                        "levels": list(levels),
                        "norms": vals,
                        "fitted_slope": slope,
                        "reference_slope": float(d * Exponent.of(p1).reciprocal())})
    return results


def tau_piece_suite(d: int = 1):
    """The catalogued (query, family) runs covering the three tau pieces:
    a failing query at s = tau - 1/4 per piece, and the matching holding
    query at s = tau with q0 <= q."""
    quarter = Fraction(1, 4)
    cases = []
    for piece, family, p0, q in (
        (TauPiece.ZERO, "single_box", Exponent.of(2), Exponent.of(2)),
        (TauPiece.P_PLUS_Q_MINUS_1, "annulus", Exponent.of(1), Exponent.of(1)),
        (TauPiece.Q_MINUS_P, "lattice_comb", Exponent.of("inf"), Exponent.of(1)),
    ):
        crit = tau(p0, q, d)
        fail_source = SpaceSpec.besov(p0, q, crit - quarter, d)
        hold_source = SpaceSpec.besov(p0, q, crit, d)
        target = SpaceSpec.modulation(p0, q, 0, d)
        cases.append({"piece": piece, "family": family, "critical": crit,
                      "fail": (fail_source, target), "hold": (hold_source, target)})
    return cases
