"""Exact arithmetic on extended exponents and the piecewise-linear index functions.

Everything in this module is exact: exponents are rationals or infinity,
and the index functions tau/sigma are exact rationals, so that boundary
comparisons (s >= tau versus s > tau) are unambiguous. Floats are rejected
on input. An Exponent keeps 1/p as a reduced integer pair read off its value
(1/inf is 0/1); ordering and tau/sigma compare on integer cross-products of
it. A value is coerced once (``Exponent.of``); later operations check only
``type(x) is Exponent``. ``_extremum`` takes Exponents and gives tau/sigma as
a reduced integer pair, so the oracle builds a Fraction only when one is read.
"""
from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


def as_fraction(value) -> Fraction:
    """Coerce an exact rational-like value (int, Fraction, str) to Fraction;
    a Fraction is returned as it is. A zero denominator ('1/0') raises
    ValueError, as other malformed text does, and so does text with an
    integer longer than Python converts (``sys.get_int_max_str_digits``)."""
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
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if isinstance(value, str) and limit and any(
                len(run) > limit for run in re.findall(r"\d+", value.replace("_", ""))):
            raise ValueError(f"an integer exceeds the limit of {limit} digits") from None
        raise


@dataclass(frozen=True)
class Exponent:
    """An extended exponent p in (0, infinity]; exact rational when finite.

    ``value`` is a positive Fraction, or None for infinity.
    """

    value: Fraction | None
    _inverse: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse = 0, 1
        if self.value is not None:
            value = as_fraction(self.value)
            numerator, denominator = value.as_integer_ratio()
            if numerator <= 0:
                raise ValueError(f"exponent must be positive, got {value}")
            object.__setattr__(self, "value", value)
            inverse = denominator, numerator
        object.__setattr__(self, "_inverse", inverse)

    @classmethod
    def of(cls, value) -> "Exponent":
        """Coerce an Exponent, positive rational, or the string 'inf'."""
        if type(value) is Exponent:
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
        return Fraction(*self._inverse)

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
        if type(other) is not Exponent:
            other = Exponent.of(other)
        (a, b), (c, e) = self._inverse, other._inverse
        return c * b - a * e

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


# Tie-break priority at region boundaries: the first attaining piece wins.
_PIECE_ORDER = (TauPiece.ZERO, TauPiece.Q_MINUS_P, TauPiece.P_PLUS_Q_MINUS_1)


def _extremum(pick, p: Exponent, q: Exponent, d: int) -> tuple[tuple[int, int], TauPiece]:
    """d * pick(pieces) as a reduced integer pair (numerator, positive
    denominator), and the first piece, in tie-break order, attaining it; the
    pieces are integer numerators over den(1/p) * den(1/q)."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    (a, b), (c, e) = p._inverse, q._inverse
    den = b * e
    values = (0, c * b - a * e, c * b + a * e - den)
    best = pick(values)
    g = gcd(d * best, den)
    return (d * best // g, den // g), _PIECE_ORDER[values.index(best)]


def tau(p, q, d: int = 1) -> Fraction:
    """d * max(0, 1/q - 1/p, 1/q + 1/p - 1), exact."""
    return Fraction(*_extremum(max, Exponent.of(p), Exponent.of(q), d)[0])


def sigma(p, q, d: int = 1) -> Fraction:
    """d * min(0, 1/q - 1/p, 1/q + 1/p - 1), exact."""
    return Fraction(*_extremum(min, Exponent.of(p), Exponent.of(q), d)[0])


def tau_region(p0, q) -> TauPiece:
    """The affine piece attaining the max in tau(p0, q); ties broken by the
    fixed priority ZERO > Q_MINUS_P > P_PLUS_Q_MINUS_1."""
    return _extremum(max, Exponent.of(p0), Exponent.of(q), 1)[1]


def sigma_region(p1, q) -> TauPiece:
    """The affine piece attaining the min in sigma(p1, q); same tie priority."""
    return _extremum(min, Exponent.of(p1), Exponent.of(q), 1)[1]
