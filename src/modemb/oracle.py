"""Exact decision procedures for every characterized embedding pair.

Each ``embed_*`` function returns a :class:`Verdict` stating whether the
embedding holds, which condition of the governing characterization fired,
the critical smoothness threshold (an exact rational), and whether the
s-comparison in that condition is strict. All comparisons are exact, on
integer cross-products of numerators and denominators. Values are coerced
once, at the public boundary (``_exact``): ``decide`` and ``classify_region``
call each rule (``embed_*.exact``) on the exact values of ``SpaceSpec`` and of
one Exponent per sweep coordinate. ``classify_region`` sweeps the square grid
of its coordinates, converts each coordinate once before the sweep and makes
one rule call per cell; the ``table`` command formats each distinct row tail
once. A verdict keeps the critical s as an integer pair and builds the
``critical_s`` Fraction and the explanation when first read, so
``classify_region`` builds neither.

Records are shared, so every one is frozen. ``cli.parse_space`` parses each
distinct (text, d) once per process, in a bounded memo, and hands the same
SpaceSpec to every caller; ``render_space`` formats a spec once and keeps the
text on it. ``Verdict`` and ``RegionCell``, made once per query or cell, write
their fields straight into the instance dict instead of through the generated
frozen ``__init__``, and values kept on first read (``_once``) take no lock.

Every characterization has one shape. An index hypothesis comes first;
when it fails, the verdict is "none" (``_refuse``). Otherwise the embedding
holds iff s >= tau into M or s <= sigma out of M (``_verdict``), with tau and
sigma taken at the other space's Lebesgue index and the modulation q; FL
uses the bound 0 or d(1/r - 1/q) instead. A comparison of the indices
decides whether that bound is strict. B<->M, F<->M (shared q) and
F_{p,2}<->M have two clauses, (1) non-strict and (2) strict
(``_two_clause``); W<->M and FL<->M split into more cases but build their
verdicts the same way. ``decide`` and ``classify_region`` route each family
pair through one table.
"""
from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Callable

from .exponents import Exponent, INF, TauPiece, _extremum, as_fraction


_ONE, _TWO = Exponent(1), Exponent(2)


class DomainError(ValueError):
    """A query lies outside the hypothesis range of the governing theorem."""


class UncharacterizedPairError(ValueError):
    """The requested embedding pair has no known characterization."""


class Family(enum.Enum):
    MODULATION = "M"
    BESOV = "B"
    TRIEBEL = "F"
    SOBOLEV_W = "W"
    FOURIER_L = "FL"


# Index fields each family carries; s is implicit for all but FourierL.
_FAMILY_FIELDS = {
    Family.MODULATION: ("p", "q"),
    Family.BESOV: ("p", "q"),
    Family.TRIEBEL: ("p", "q"),
    Family.SOBOLEV_W: ("r",),
    Family.FOURIER_L: ("r",),
}


class _once:
    """A read-only attribute computed on first read and kept in the instance
    dict, as ``functools.cached_property`` does, but with no lock taken on
    that first read (Python 3.11 takes one)."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class SpaceSpec:
    """A tagged function-space description."""

    family: Family
    p: Exponent | None = None
    q: Exponent | None = None
    r: Exponent | None = None
    s: Fraction | None = None
    d: int = 1

    def __post_init__(self):
        required = _FAMILY_FIELDS[self.family]
        for name in ("p", "q", "r"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValueError(f"{self.family.value} space requires index {name}")
                if type(value) is not Exponent:
                    object.__setattr__(self, name, Exponent.of(value))
            elif value is not None:
                raise ValueError(f"{self.family.value} space does not take index {name}")
        if self.family is Family.FOURIER_L:
            if self.s is not None:
                raise ValueError("FL space does not carry a smoothness index")
        elif type(self.s) is not Fraction:
            object.__setattr__(self, "s", as_fraction(self.s if self.s is not None else 0))
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")

    @_once
    def _text(self) -> str:
        """The canonical text of ``render_space``, formatted on first read."""
        parts = [f"{key}={getattr(self, key)}" for key in SPACE_KEYS[self.family]]
        return f"{self.family.value}[{','.join(parts)}]"

    @classmethod
    def modulation(cls, p, q, s=0, d: int = 1) -> "SpaceSpec":
        return cls(Family.MODULATION, p=Exponent.of(p), q=Exponent.of(q), s=s, d=d)

    @classmethod
    def besov(cls, p, q, s=0, d: int = 1) -> "SpaceSpec":
        return cls(Family.BESOV, p=Exponent.of(p), q=Exponent.of(q), s=s, d=d)

    @classmethod
    def triebel(cls, p, q, s=0, d: int = 1) -> "SpaceSpec":
        return cls(Family.TRIEBEL, p=Exponent.of(p), q=Exponent.of(q), s=s, d=d)

    @classmethod
    def sobolev(cls, r, s=0, d: int = 1) -> "SpaceSpec":
        return cls(Family.SOBOLEV_W, r=Exponent.of(r), s=s, d=d)

    @classmethod
    def fourier_l(cls, r, d: int = 1) -> "SpaceSpec":
        return cls(Family.FOURIER_L, r=Exponent.of(r), d=d)


# Index keys of each family's textual form FAMILY[key=value,...], s last.
SPACE_KEYS = {family: fields + (() if family is Family.FOURIER_L else ("s",))
              for family, fields in _FAMILY_FIELDS.items()}


def render_space(spec: SpaceSpec) -> str:
    """Canonical textual form, e.g. B[p=1,q=2,s=1/2]; inverse of cli.parse_space.
    It is formatted once per spec and kept on it, so a spec that parse_space
    shares is formatted once however often it is rendered."""
    return spec._text


@dataclass(frozen=True, init=False)
class Verdict:
    """Outcome of an embedding query. ``critical_s`` is built from the reduced
    integer pair ``_critical``, and ``explanation`` formatted, on first read."""

    holds: bool
    clause: str
    _critical: tuple[int, int]
    strict: bool
    piece: TauPiece | None
    _explain: Callable[[], str] = field(repr=False, compare=False)

    def __init__(self, holds, clause, _critical, strict, piece, _explain):
        # Still frozen: each field is written once, into the instance dict,
        # not through the generated __init__'s object.__setattr__ per field.
        fields = self.__dict__
        fields["holds"], fields["clause"], fields["_critical"] = holds, clause, _critical
        fields["strict"], fields["piece"], fields["_explain"] = strict, piece, _explain

    @_once
    def critical_s(self) -> Fraction:
        return Fraction(*self._critical)

    @_once
    def explanation(self) -> str:
        return self._explain()

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "clause": self.clause,
            "critical_s": str(self.critical_s),
            "strict": self.strict,
            "explanation": self.explanation,
            "piece": self.piece.value if self.piece is not None else None,
        }


def _verdict(lower, label, s, crit, strict, piece, detail, rel=None) -> Verdict:
    """The verdict of the condition s >= crit (``lower``, source -> M) or
    s <= crit (M -> target), with > or < when ``strict``; ``crit`` is a reduced
    integer pair (numerator, positive denominator). ``detail()``, or
    ``detail(rel)`` when a relation is given, states the case that fired,
    once the explanation is read."""
    x, y = s.numerator * crit[1], crit[0] * s.denominator
    if lower:
        ok, bound = (x > y, ">") if strict else (x >= y, ">=")
    else:
        ok, bound = (x < y, "<") if strict else (x <= y, "<=")
    return Verdict(ok, label, crit, strict, piece,
                   lambda: f"{detail() if rel is None else detail(rel)}; "
                           f"requires s {bound} {Fraction(*crit)}, s = {s}")


def _refuse(hypothesis, detail, crit, piece) -> Verdict:
    """The "none" verdict of a violated index hypothesis. It reads
    ``strict`` False: no s-comparison applies."""
    return Verdict(False, "none", crit, False, piece,
                   lambda: f"index hypothesis {hypothesis} violated: {detail()}")


_NEGATED = {"<=": ">", ">=": "<"}


def _exact(rule):
    """The public form of a rule: it coerces each index with ``Exponent.of``
    and s with ``as_fraction``, in signature order, then runs the rule, which
    stays reachable as ``.exact`` for values that are exact already."""
    signature = inspect.signature(rule)

    @wraps(rule)
    def coerced(*args, **kwargs):
        values = signature.bind(*args, **kwargs).arguments
        return rule(**{k: v if k == "d" else as_fraction(v) if k == "s" else Exponent.of(v)
                       for k, v in values.items()})

    coerced.exact = rule
    return coerced


def _two_clause(rule, lower, s, crit, piece, first, op, detail) -> Verdict:
    """Clause (1), non-strict, when the deciding comparison ``op`` holds
    (``first``); otherwise clause (2), strict, which states its negation.
    ``detail(rel)`` states the comparison with the relation ``rel``."""
    if first:
        return _verdict(lower, f"{rule} (1)", s, crit, False, piece, detail, op)
    return _verdict(lower, f"{rule} (2)", s, crit, True, piece, detail, _NEGATED[op])


@_exact
def embed_besov_to_mod(p0, q0, p, q, s, d: int = 1) -> Verdict:
    """B^s_{p0,q0} -> M_{p,q}: holds iff p0 <= p and (q0 <= q, s >= tau(p0,q))
    or (q0 > q, s > tau(p0,q))."""
    crit, piece = _extremum(max, p0, q, d)
    if not p0 <= p:
        return _refuse("p0 <= p", lambda: f"p0 = {p0} > p = {p}", crit, piece)
    return _two_clause("B->M", True, s, crit, piece, q0 <= q, "<=",
                       lambda rel: f"p0 = {p0} <= p = {p}, q0 = {q0} {rel} q = {q}")


@_exact
def embed_mod_to_besov(p, q, p1, q1, s, d: int = 1) -> Verdict:
    """M_{p,q} -> B^s_{p1,q1}: holds iff p1 >= p and (q1 >= q, s <= sigma(p1,q))
    or (q1 < q, s < sigma(p1,q))."""
    crit, piece = _extremum(min, p1, q, d)
    if not p1 >= p:
        return _refuse("p1 >= p", lambda: f"p1 = {p1} < p = {p}", crit, piece)
    return _two_clause("M->B", False, s, crit, piece, q1 >= q, ">=",
                       lambda rel: f"p1 = {p1} >= p = {p}, q1 = {q1} {rel} q = {q}")


def _check_wr_hypotheses(r, p) -> None:
    if r < _ONE or p < _ONE:
        name, e = ("r", r) if r < _ONE else ("p", p)
        raise DomainError(
            f"hypothesis 1 <= {name} <= inf violated: {name} = {e}; "
            "the Sobolev characterizations assume Banach-range Lebesgue indices"
        )


@_exact
def embed_sobolev_to_mod(r, p, q, s, d: int = 1) -> Verdict:
    """W^{s,r} -> M_{p,q} for 1 <= r, p <= inf and 0 < q <= inf."""
    _check_wr_hypotheses(r, p)
    crit, piece = _extremum(max, r, q, d)
    if not r <= p:
        return _refuse("r <= p", lambda: f"r = {r} > p = {p}", crit, piece)
    if r == _ONE:
        clause, strict, case = (("(3)", False, "r = 1, q = inf") if q.is_infinite
                                else ("(4)", True, "r = 1, q = {q} finite"))
    elif r > q:
        clause, strict, case = "(1)", True, "r = {r} > q = {q}"
    else:
        clause, strict, case = "(2)", False, "1 < r = {r} <= q = {q}"
    return _verdict(True, f"W->M {clause}", s, crit, strict, piece,
                    lambda: f"r = {r} <= p = {p}, {case.format(r=r, q=q)}")


@_exact
def embed_mod_to_sobolev(p, q, r, s, d: int = 1) -> Verdict:
    """M_{p,q} -> W^{s,r} for 1 <= p, r <= inf and 0 < q <= inf.

    For 0 < q < 1 the characterization reduces to the non-strict condition
    s <= sigma(r,q) = 0 (the small-q extension of conditions (2)/(3)).
    """
    _check_wr_hypotheses(r, p)
    crit, piece = _extremum(min, r, q, d)
    if not p <= r:
        return _refuse("p <= r", lambda: f"p = {p} > r = {r}", crit, piece)
    if q < _ONE:
        clause = "(3) small-q extension" if r.is_infinite else "(2) small-q extension"
        strict, case = False, "0 < q = {q} < 1 (sigma(r,q) = 0)"
    elif r.is_infinite:
        clause, strict, case = (("(3)", False, "r = inf, q = 1") if q == _ONE
                                else ("(4)", True, "r = inf, q = {q} > 1"))
    elif r < q:
        clause, strict, case = "(1)", True, "r = {r} < q = {q}"
    else:
        clause, strict, case = "(2)", False, "q = {q} <= r = {r} < inf"
    return _verdict(False, f"M->W {clause}", s, crit, strict, piece,
                    lambda: f"p = {p} <= r = {r}, {case.format(r=r, q=q)}")


@_exact
def embed_triebel2_to_mod(p, q, s, d: int = 1) -> Verdict:
    """F^s_{p,2} -> M_{p,q}: holds iff (q >= p, s >= tau(p,q)) or (q < p, s > tau(p,q))."""
    crit, piece = _extremum(max, p, q, d)
    return _two_clause("F2->M", True, s, crit, piece, q >= p, ">=",
                       lambda rel: f"q = {q} {rel} p = {p}")


@_exact
def embed_mod_to_triebel2(p, q, s, d: int = 1) -> Verdict:
    """M_{p,q} -> F^s_{p,2}: holds iff (q <= p, s <= sigma(p,q)) or (q > p, s < sigma(p,q))."""
    crit, piece = _extremum(min, p, q, d)
    return _two_clause("M->F2", False, s, crit, piece, q <= p, "<=",
                       lambda rel: f"q = {q} {rel} p = {p}")


@_exact
def embed_triebel_to_mod(p0, p, q, s, d: int = 1) -> Verdict:
    """F^s_{p0,q} -> M_{p,q} (shared q): holds iff p0 <= p and
    (p0 <= q, s >= tau(p0,q)) or (p0 > q, s > tau(p0,q))."""
    crit, piece = _extremum(max, p0, q, d)
    if not p0 <= p:
        return _refuse("p0 <= p", lambda: f"p0 = {p0} > p = {p}", crit, piece)
    return _two_clause("F->M", True, s, crit, piece, p0 <= q, "<=",
                       lambda rel: f"p0 = {p0} <= p = {p}, p0 {rel} q = {q}")


@_exact
def embed_mod_to_triebel(p, p1, q, s, d: int = 1) -> Verdict:
    """M_{p,q} -> F^s_{p1,q} (shared q): holds iff p1 >= p and
    (p1 >= q, s <= sigma(p1,q)) or (p1 < q, s < sigma(p1,q))."""
    crit, piece = _extremum(min, p1, q, d)
    if not p1 >= p:
        return _refuse("p1 >= p", lambda: f"p1 = {p1} < p = {p}", crit, piece)
    return _two_clause("M->F", False, s, crit, piece, p1 >= q, ">=",
                       lambda rel: f"p1 = {p1} >= p = {p}, p1 {rel} q = {q}")


@_exact
def embed_mod_to_fourierlp(p, q, r, s, d: int = 1) -> Verdict:
    """M^s_{p,q} -> FL^r: holds iff p <= 2, r <= p' and
    (q <= r, s >= 0) or (r < q, s > d(1/r - 1/q))."""
    if q <= r:
        crit, strict, label, case = (0, 1), False, "M->FL (1)", "q = {q} <= r = {r}"
    else:
        crit = (d * (r.reciprocal() - q.reciprocal())).as_integer_ratio()
        strict, label, case = True, "M->FL (2)", "r = {r} < q = {q}"
    pd = p.dual()
    if not p <= _TWO:
        return _refuse("p <= 2", lambda: f"p = {p}", crit, None)
    if not r <= pd:
        return _refuse("r <= p'", lambda: f"r = {r} > p' = {pd}", crit, None)
    return _verdict(True, label, s, crit, strict, None,
                    lambda: f"p = {p} <= 2, r = {r} <= p' = {pd}, {case.format(q=q, r=r)}")


@_exact
def embed_fourierlp_to_mod(r, p, q, s, d: int = 1) -> Verdict:
    """FL^r -> M^s_{p,q}: holds iff p >= 2, p' <= r and
    (r <= q, s <= 0) or (r > q, s < d(1/r - 1/q))."""
    if r <= q:
        crit, strict, label, case = (0, 1), False, "FL->M (1)", "r = {r} <= q = {q}"
    else:
        crit = (d * (r.reciprocal() - q.reciprocal())).as_integer_ratio()
        strict, label, case = True, "FL->M (2)", "r = {r} > q = {q}"
    pd = p.dual()
    if not p >= _TWO:
        return _refuse("p >= 2", lambda: f"p = {p}", crit, None)
    if not pd <= r:
        return _refuse("p' <= r", lambda: f"p' = {pd} > r = {r}", crit, None)
    return _verdict(False, label, s, crit, strict, None,
                    lambda: f"p = {p} >= 2, p' = {pd} <= r = {r}, {case.format(q=q, r=r)}")


def _require_zero_mod_smoothness(spec: SpaceSpec, other: SpaceSpec) -> None:
    if spec.s != 0:
        raise UncharacterizedPairError(
            f"modulation smoothness s = {spec.s} is only characterized against FL "
            f"spaces, not {other.family.value}"
        )


def _triebel_to_mod(source: SpaceSpec, target: SpaceSpec, d: int) -> Verdict:
    if source.q == target.q:
        return embed_triebel_to_mod.exact(source.p, target.p, target.q, source.s, d)
    if source.q == _TWO:
        if source.p == target.p:
            return embed_triebel2_to_mod.exact(target.p, target.q, source.s, d)
        if _ONE < source.p < INF:
            return embed_sobolev_to_mod.exact(source.p, target.p, target.q, source.s, d)
    raise UncharacterizedPairError(
        "F_{p0,q0} -> M_{p,q} with q0 != q is characterized only for q0 = 2 "
        "with matching Lebesgue structure; the general case is an open problem"
    )


def _mod_to_triebel(source: SpaceSpec, target: SpaceSpec, d: int) -> Verdict:
    if source.q == target.q:
        return embed_mod_to_triebel.exact(source.p, target.p, target.q, target.s, d)
    if target.q == _TWO:
        if source.p == target.p:
            return embed_mod_to_triebel2.exact(source.p, source.q, target.s, d)
        if _ONE < target.p < INF:
            return embed_mod_to_sobolev.exact(source.p, source.q, target.p, target.s, d)
    raise UncharacterizedPairError(
        "M_{p,q} -> F_{p1,q1} with q1 != q is characterized only for q1 = 2 "
        "with matching Lebesgue structure; the general case is an open problem"
    )


# How decide routes each characterized (source, target) family pair: to the
# rule, whose arguments the specs have already made exact.
_DECIDE_ROUTES = {
    (Family.BESOV, Family.MODULATION):
        lambda a, b, d: embed_besov_to_mod.exact(a.p, a.q, b.p, b.q, a.s, d),
    (Family.MODULATION, Family.BESOV):
        lambda a, b, d: embed_mod_to_besov.exact(a.p, a.q, b.p, b.q, b.s, d),
    (Family.SOBOLEV_W, Family.MODULATION):
        lambda a, b, d: embed_sobolev_to_mod.exact(a.r, b.p, b.q, a.s, d),
    (Family.MODULATION, Family.SOBOLEV_W):
        lambda a, b, d: embed_mod_to_sobolev.exact(a.p, a.q, b.r, b.s, d),
    (Family.TRIEBEL, Family.MODULATION): _triebel_to_mod,
    (Family.MODULATION, Family.TRIEBEL): _mod_to_triebel,
    (Family.MODULATION, Family.FOURIER_L):
        lambda a, b, d: embed_mod_to_fourierlp.exact(a.p, a.q, b.r, a.s, d),
    (Family.FOURIER_L, Family.MODULATION):
        lambda a, b, d: embed_fourierlp_to_mod.exact(a.r, b.p, b.q, b.s, d),
}


def decide(source: SpaceSpec, target: SpaceSpec) -> Verdict:
    """Route an embedding query source -> target to the matching oracle.

    Raises UncharacterizedPairError for pairs with no known characterization
    (e.g. the general F_{p0,q0} -> M_{p,q} case with q0 not matching) and
    DomainError for queries outside a theorem's hypothesis range.
    """
    if source.d != target.d:
        raise ValueError(f"dimension mismatch: {source.d} != {target.d}")
    route = _DECIDE_ROUTES.get((source.family, target.family))
    if route is None:
        raise UncharacterizedPairError(
            f"no characterization available for {source.family.value} -> {target.family.value}"
        )
    if Family.FOURIER_L not in (source.family, target.family):
        if source.family is Family.MODULATION:
            _require_zero_mod_smoothness(source, target)
        else:
            _require_zero_mod_smoothness(target, source)
    return route(source, target, source.d)


@dataclass(frozen=True, init=False)
class RegionCell:
    """One grid point of a region-classification sweep."""

    inv_p: Fraction
    inv_q: Fraction
    holds: bool
    clause: str
    piece: TauPiece | None

    def __init__(self, inv_p, inv_q, holds, clause, piece):
        # Frozen, and written like Verdict's fields.
        fields = self.__dict__
        fields["inv_p"], fields["inv_q"], fields["holds"] = inv_p, inv_q, holds
        fields["clause"], fields["piece"] = clause, piece


# Sweep conventions per pair: the x coordinate is the reciprocal of the
# non-modulation Lebesgue index, y is 1/q; the free modulation index p is set
# on the diagonal so the p-comparison hypothesis always holds.
_REGION_RULES = {
    (Family.BESOV, Family.MODULATION):
        lambda x, q, s, d: embed_besov_to_mod.exact(x, q, x, q, s, d),
    (Family.MODULATION, Family.BESOV):
        lambda x, q, s, d: embed_mod_to_besov.exact(x, q, x, q, s, d),
    (Family.SOBOLEV_W, Family.MODULATION):
        lambda x, q, s, d: embed_sobolev_to_mod.exact(x, x, q, s, d),
    (Family.MODULATION, Family.SOBOLEV_W):
        lambda x, q, s, d: embed_mod_to_sobolev.exact(x, q, x, s, d),
    (Family.TRIEBEL, Family.MODULATION):
        lambda x, q, s, d: embed_triebel_to_mod.exact(x, x, q, s, d),
    (Family.MODULATION, Family.TRIEBEL):
        lambda x, q, s, d: embed_mod_to_triebel.exact(x, x, q, s, d),
}


def classify_region(source_family: Family, target_family: Family, coords, s,
                    d: int = 1) -> list[RegionCell]:
    """Classify the square grid ``coords`` x ``coords`` of points (1/p-like,
    1/q) for a characterized pair, u-major, as the ``table`` command writes it.

    ``coords`` is read once. Each coordinate is converted once, to its
    Fraction and the Exponent with that reciprocal (INF at 0), before any
    rule call, so a negative one is refused before the sweep. Returns one
    RegionCell per point with the verdict, clause label, and the tau/sigma
    piece, suitable for rendering region diagrams.
    """
    rule = _REGION_RULES.get((source_family, target_family))
    if rule is None:
        raise UncharacterizedPairError(
            f"region sweep not supported for {source_family.value} -> {target_family.value}"
        )
    s = as_fraction(s)
    axis = []
    for c in coords:
        u = as_fraction(c)
        if u < 0:
            raise ValueError(f"reciprocal coordinate must be >= 0, got {u}")
        axis.append((u, INF if u == 0 else Exponent(1 / u)))
    cells = []
    for u, x in axis:
        for v, y in axis:
            verdict = rule(x, y, s, d)
            cells.append(RegionCell(u, v, verdict.holds, verdict.clause, verdict.piece))
    return cells
