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


# A decimal with an exponent, as Fraction reads it: whole digits, fraction
# digits and the power of ten, which Fraction builds as an integer. It is
# compiled (by re) on the first text with an exponent, not at import.
_DECIMAL = r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*"


def _power_digits(text: str) -> int:
    """The digits of the largest integer Fraction(text) builds from the
    decimal exponent of ``text``, or 0 when it has none (or one too long to
    read, which Fraction refuses itself)."""
    match = ("e" in text or "E" in text) and re.fullmatch(_DECIMAL, text)
    if not match:
        return 0
    whole, fraction, power = (group.replace("_", "") for group in match.groups(""))
    try:
        power = int(power)
    except ValueError:
        return 0
    if power < 0:  # the denominator 10**(len(fraction) - power)
        return len(fraction) - power + 1
    return power + max(len((whole + fraction).lstrip("0")), 1)


def _too_long(limit: int) -> ValueError:
    return ValueError(f"an integer exceeds the limit of {limit} digits")


def as_fraction(value) -> Fraction:
    """Coerce an exact rational-like value (int, Fraction, str) to Fraction;
    a Fraction is returned as it is. A zero denominator ('1/0') raises
    ValueError, as other malformed text does, and so does text with an
    integer longer than Python converts (``sys.get_int_max_str_digits``),
    or a decimal exponent that would build one ('1e100000000'), which is
    refused before Fraction spends its time building it."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"floating-point value {value!r} not allowed in exact index arithmetic; "
            "pass an int, Fraction or 'a/b' string"
        )
    limit = sys.get_int_max_str_digits() if isinstance(value, str) else 0
    if limit and _power_digits(value) > limit:
        raise _too_long(limit)
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:
        if limit and any(len(run) > limit for run in re.findall(r"\d+", value.replace("_", ""))):
            raise _too_long(limit) from None
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

    # Each comparison is an integer cross-product of the reduced reciprocals,
    # written out in place: p < p' iff 1/p > 1/p' (1/inf = 0).
    def __eq__(self, other) -> bool:
        if type(other) is not Exponent:
            try:
                other = Exponent.of(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._inverse == other._inverse  # reduced, so equal pairs

    def __lt__(self, other) -> bool:
        if type(other) is not Exponent:
            other = Exponent.of(other)
        (a, b), (c, e) = self._inverse, other._inverse
        return c * b < a * e

    def __le__(self, other) -> bool:
        if type(other) is not Exponent:
            other = Exponent.of(other)
        (a, b), (c, e) = self._inverse, other._inverse
        return c * b <= a * e

    def __gt__(self, other) -> bool:
        if type(other) is not Exponent:
            other = Exponent.of(other)
        (a, b), (c, e) = self._inverse, other._inverse
        return c * b > a * e

    def __ge__(self, other) -> bool:
        if type(other) is not Exponent:
            other = Exponent.of(other)
        (a, b), (c, e) = self._inverse, other._inverse
        return c * b >= a * e

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
    """Which affine piece attains the extremum in tau (or sigma), in
    tie-break order: at a region boundary the first attaining piece wins."""

    ZERO = "0"
    Q_MINUS_P = "1/q - 1/p"
    P_PLUS_Q_MINUS_1 = "1/q + 1/p - 1"


_ZERO, _Q_MINUS_P, _P_PLUS_Q_MINUS_1 = TauPiece


def _extremum(pick, p: Exponent, q: Exponent, d: int) -> tuple[tuple[int, int], TauPiece]:
    """d * pick(0, 1/q - 1/p, 1/q + 1/p - 1), for pick max (tau) or min
    (sigma), as a reduced integer pair (numerator, positive denominator), and
    the first attaining piece in TauPiece's order. The pieces are integer
    numerators over den(1/p) * den(1/q); a min is the max of the negated
    pieces, which keeps the first attaining piece."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    (a, b), (c, e) = p._inverse, q._inverse
    den = b * e
    sign = 1 if pick is max else -1
    x, y = sign * (c * b - a * e), sign * (c * b + a * e - den)
    if x <= 0 >= y:
        return (0, 1), _ZERO
    if x >= y:
        best, piece = sign * d * x, _Q_MINUS_P
    else:
        best, piece = sign * d * y, _P_PLUS_Q_MINUS_1
    g = gcd(best, den)
    return (best // g, den // g), piece


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
