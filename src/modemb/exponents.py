"""Exact arithmetic on extended exponents and the piecewise-linear index functions.

Everything in this module is exact: exponents are rationals or infinity,
and the index functions tau/sigma are exact rationals, so that boundary
comparisons (s >= tau versus s > tau) are unambiguous. Floats are rejected
on input. Each Exponent computes its reciprocal 1/p once, when it is made;
ordering and tau/sigma compare on integer cross-products of it, without
Fraction operators.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction


_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce an exact rational-like value (int, Fraction, str) to Fraction;
    a Fraction is returned as it is. A zero denominator ('1/0') raises
    ValueError, as other malformed text does."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"floating-point value {value!r} not allowed in exact index arithmetic; "
            "pass an int, Fraction or 'a/b' string"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


@dataclass(frozen=True)
class Exponent:
    """An extended exponent p in (0, infinity]; exact rational when finite.

    ``value`` is a positive Fraction, or None for infinity.
    """

    value: Fraction | None
    _inverse: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse = _ZERO
        if self.value is not None:
            value = as_fraction(self.value)
            if value.numerator <= 0:
                raise ValueError(f"exponent must be positive, got {value}")
            object.__setattr__(self, "value", value)
            inverse = Fraction(value.denominator, value.numerator)
        object.__setattr__(self, "_inverse", inverse)

    @classmethod
    def of(cls, value) -> "Exponent":
        """Coerce an Exponent, positive rational, or the string 'inf'."""
        if isinstance(value, Exponent):
            return value
        if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        if value is None:
            return INF
        return cls(value)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def reciprocal(self) -> Fraction:
        """1/p as an exact rational; 0 when p is infinite."""
        return self._inverse

    def dual(self) -> "Exponent":
        """Dual exponent: 1/p + 1/p' = 1 for p >= 1; p' = infinity for 0 < p < 1."""
        if self.value is None:
            return Exponent(Fraction(1))
        if self.value <= 1:
            return INF
        return Exponent(self.value / (self.value - 1))

    def _cmp(self, other) -> int:
        """Negative, zero or positive as p <, = or > other, from an integer
        cross-product of the reciprocals: p < p' iff 1/p > 1/p' (1/inf = 0)."""
        if not isinstance(other, Exponent):
            other = Exponent.of(other)
        a, b = self._inverse, other._inverse
        return b.numerator * a.denominator - a.numerator * b.denominator

    def __eq__(self, other) -> bool:
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"Exponent({self})"

    def __float__(self) -> float:
        return float("inf") if self.value is None else float(self.value)


INF = Exponent(None)


class TauPiece(enum.Enum):
    """Which affine piece attains the extremum in tau (or sigma)."""

    ZERO = "0"
    Q_MINUS_P = "1/q - 1/p"
    P_PLUS_Q_MINUS_1 = "1/q + 1/p - 1"


def reciprocal(p) -> Fraction:
    return Exponent.of(p).reciprocal()


def dual(p) -> Exponent:
    return Exponent.of(p).dual()


# Tie-break priority at region boundaries: the first attaining piece wins.
_PIECE_ORDER = (TauPiece.ZERO, TauPiece.Q_MINUS_P, TauPiece.P_PLUS_Q_MINUS_1)


def _extremum(pick, p, q, d: int) -> tuple[Fraction, TauPiece]:
    """d * pick(pieces) and the first piece, in tie-break order, attaining it;
    the pieces are integer numerators over den(1/p) * den(1/q)."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    ip, iq = Exponent.of(p).reciprocal(), Exponent.of(q).reciprocal()
    a, b, c, e = ip.numerator, ip.denominator, iq.numerator, iq.denominator
    den = b * e
    values = (0, c * b - a * e, c * b + a * e - den)
    best = pick(values)
    return Fraction(d * best, den), _PIECE_ORDER[values.index(best)]


def tau_with_region(p0, q, d: int = 1) -> tuple[Fraction, TauPiece]:
    """(tau(p0, q, d), tau_region(p0, q)) from one evaluation of the pieces."""
    return _extremum(max, p0, q, d)


def sigma_with_region(p1, q, d: int = 1) -> tuple[Fraction, TauPiece]:
    """(sigma(p1, q, d), sigma_region(p1, q)) from one evaluation of the pieces."""
    return _extremum(min, p1, q, d)


def tau(p, q, d: int = 1) -> Fraction:
    """d * max(0, 1/q - 1/p, 1/q + 1/p - 1), exact."""
    return _extremum(max, p, q, d)[0]


def sigma(p, q, d: int = 1) -> Fraction:
    """d * min(0, 1/q - 1/p, 1/q + 1/p - 1), exact."""
    return _extremum(min, p, q, d)[0]


def tau_region(p0, q) -> TauPiece:
    """The affine piece attaining the max in tau(p0, q); ties broken by the
    fixed priority ZERO > Q_MINUS_P > P_PLUS_Q_MINUS_1."""
    return _extremum(max, p0, q, 1)[1]


def sigma_region(p1, q) -> TauPiece:
    """The affine piece attaining the min in sigma(p1, q); same tie priority."""
    return _extremum(min, p1, q, 1)[1]
