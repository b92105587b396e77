"""Exact index arithmetic: dual exponents and the tau/sigma piecewise forms."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modemb.exponents import (
    Exponent,
    INF,
    TauPiece,
    as_fraction,
    sigma,
    sigma_region,
    tau,
    tau_region,
)
from modemb.oracle import SpaceSpec

F = Fraction

finite_exponents = st.fractions(
    min_value=F(1, 16), max_value=16, max_denominator=16).map(Exponent)
exponents = st.one_of(finite_exponents, st.just(INF))
banach_exponents = st.one_of(
    st.fractions(min_value=1, max_value=16, max_denominator=16).map(Exponent),
    st.just(INF))


def test_reciprocal_examples():
    assert Exponent.of(2).reciprocal() == F(1, 2)
    assert INF.reciprocal() == 0
    assert Exponent.of(F(1, 2)).reciprocal() == 2


def test_dual_examples():
    assert Exponent.of(2).dual() == Exponent.of(2)
    assert Exponent.of(1).dual() == INF
    assert Exponent.of(F(1, 2)).dual() == INF
    assert Exponent.of(4).dual() == Exponent.of(F(4, 3))


def test_tau_examples():
    assert tau(2, 2, 1) == 0
    assert tau(2, 1, 1) == F(1, 2)
    assert tau(1, INF, 1) == 0
    assert tau(INF, 1, 2) == 2


def test_sigma_examples():
    assert sigma(2, 2, 1) == 0
    assert sigma(2, 4, 1) == F(-1, 4)
    assert sigma(1, INF, 1) == -1


def test_tau_region_examples():
    assert tau_region(2, 4) is TauPiece.ZERO
    # max(0, 3/4 - 1/4, 3/4 + 1/4 - 1) = 1/2, attained by the 1/q - 1/p piece
    assert tau_region(4, F(4, 3)) is TauPiece.Q_MINUS_P
    assert tau_region(INF, 1) is TauPiece.Q_MINUS_P


def test_region_tie_priority():
    # on the 1/q = 1/p line with 1/p <= 1/2 both the zero and difference
    # pieces attain the max; the fixed priority picks ZERO
    assert tau_region(2, 2) is TauPiece.ZERO
    assert sigma_region(2, 2) is TauPiece.ZERO


def test_exponent_ordering():
    assert Exponent.of(1) < Exponent.of(2) < INF
    assert not INF < INF
    assert Exponent.of(F(1, 2)) < 1
    assert INF == INF


def test_exponent_equality_with_foreign_values():
    assert Exponent(2) == 2 and Exponent(2) == F(2) and Exponent(2) == "2"
    assert INF == "inf" and INF == None  # noqa: E711 (None means infinity)
    # values Exponent.of refuses compare unequal instead of raising
    assert Exponent(2) != "x" and not Exponent(2) == "x"
    assert Exponent(2) != 2.0 and not Exponent(2) == 2.0
    assert Exponent(2) != 0 and Exponent(2) != object()
    assert Exponent(2).__eq__(2.0) is NotImplemented
    assert Exponent(2) in [2.0, "x", Exponent(2)]


def test_floats_rejected():
    with pytest.raises(TypeError):
        Exponent.of(2.0)
    with pytest.raises(TypeError):
        tau(2, 0.5, 1)


def test_invalid_exponents():
    with pytest.raises(ValueError):
        Exponent.of(0)
    with pytest.raises(ValueError):
        Exponent.of(-1)


def test_smoothness_validation():
    # a smoothness index with its dimension is carried by a space spec
    spec = SpaceSpec.besov(2, 2, F(1, 2), 2)
    assert spec.s == F(1, 2) and spec.d == 2
    with pytest.raises(ValueError):
        SpaceSpec.besov(2, 2, 0, 0)
    with pytest.raises(TypeError):
        SpaceSpec.besov(2, 2, 0.5, 1)


@pytest.mark.parametrize("index", [tau, sigma])
def test_dimension_validation(index):
    index(2, 2, 2)
    for d in (0, -1, 2.0):
        with pytest.raises(ValueError, match=f"dimension must be a positive integer, got {d}"):
            index(2, 2, d)


@given(p=exponents, q=exponents, d=st.integers(1, 3))
def test_tau_nonnegative_sigma_nonpositive(p, q, d):
    assert tau(p, q, d) >= 0
    assert sigma(p, q, d) <= 0


@given(p=banach_exponents, q=banach_exponents, d=st.integers(1, 3))
def test_duality_identity(p, q, d):
    assert sigma(p, q, d) == -tau(p.dual(), q.dual(), d)


@given(p=exponents, q=exponents, d=st.integers(1, 4))
def test_tau_homogeneity(p, q, d):
    assert tau(p, q, d) == d * tau(p, q, 1)
    assert sigma(p, q, d) == d * sigma(p, q, 1)


@given(p=banach_exponents)
def test_dual_involution(p):
    assert p.dual().dual() == p


@given(p=exponents, q=exponents)
def test_region_attains_extremum(p, q):
    ip, iq = p.reciprocal(), q.reciprocal()
    values = {TauPiece.ZERO: F(0), TauPiece.Q_MINUS_P: iq - ip,
              TauPiece.P_PLUS_Q_MINUS_1: iq + ip - 1}
    assert values[tau_region(p, q)] == tau(p, q, 1)
    assert values[sigma_region(p, q)] == sigma(p, q, 1)


# Exponents with large numerators and denominators, and infinity; a pair
# drawn from few values often holds equal exponents.
wide_exponents = st.one_of(
    st.fractions(min_value=F(1, 10 ** 30), max_value=10 ** 30,
                 max_denominator=10 ** 30).filter(lambda x: x > 0).map(Exponent),
    st.just(INF))
few_exponents = st.sampled_from([Exponent(F(1, 3)), Exponent(1), Exponent(2), INF])
exponent_pairs = st.one_of(st.tuples(wide_exponents, wide_exponents),
                           st.tuples(few_exponents, few_exponents),
                           wide_exponents.map(lambda e: (e, Exponent.of(e.value))))


@given(pair=exponent_pairs)
def test_ordering_matches_fraction_reciprocals(pair):
    # p < p' iff 1/p > 1/p', with 1/inf = 0, as Fractions compare them
    p, r = pair
    a, b = p.reciprocal(), r.reciprocal()
    assert (p < r) == (a > b) and (p <= r) == (a >= b)
    assert (p > r) == (a < b) and (p >= r) == (a <= b)
    assert (p == r) == (a == b) == (p.value == r.value)
    assert (p != r) == (a != b)


_PIECE_ORDER = (TauPiece.ZERO, TauPiece.Q_MINUS_P, TauPiece.P_PLUS_Q_MINUS_1)


def _reference_extremum(pick, p, q, d):
    """d * pick of the three Fraction pieces, and the first attaining piece."""
    ip, iq = p.reciprocal(), q.reciprocal()
    pieces = (F(0), iq - ip, iq + ip - 1)
    best = pick(pieces)
    return d * best, _PIECE_ORDER[pieces.index(best)]


@given(pair=exponent_pairs, d=st.integers(1, 3))
def test_tau_sigma_match_fraction_reference(pair, d):
    p, q = pair
    for index, region, pick in ((tau, tau_region, max), (sigma, sigma_region, min)):
        value, piece = index(p, q, d), region(p, q)
        assert type(value) is Fraction
        assert (value, piece) == _reference_extremum(pick, p, q, d)


@given(p=exponents)
def test_reciprocal_is_exact(p):
    inverse = p.reciprocal()
    assert type(inverse) is Fraction
    assert inverse == (0 if p.is_infinite else 1 / p.value)


exact_values = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 6),
    st.fractions(max_denominator=10 ** 6).map(str),
)


@given(x=exact_values)
def test_as_fraction_matches_fraction(x):
    value = as_fraction(x)
    assert type(value) is Fraction and value == Fraction(x)
    if isinstance(x, Fraction):
        assert value is x


@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_as_fraction_rejects_floats(x):
    with pytest.raises(TypeError, match="floating-point value"):
        as_fraction(x)


@pytest.mark.parametrize("text,value", [
    ("0.5", F(1, 2)), ("1e3", F(1000)), ("-1.5E2", F(-150)), (" 2e1 ", F(20)),
    ("1_0e1_0", F(10 ** 11)), ("1e4299", F(10 ** 4299)), ("1e-4299", F(1, 10 ** 4299)),
])
def test_as_fraction_reads_decimal_exponents(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", [
    "1e4300", "0e5000", "12e4299", "0.1e-4299", "1e10000000", "1e100000000", "1e-100000000",
])
def test_as_fraction_refuses_exponents_past_the_digit_limit(text):
    """A short decimal whose power of ten has more digits than Python
    converts is refused with the digit-limit message, before Fraction builds
    the power (1e100000000 would take minutes)."""
    with pytest.raises(ValueError, match="^an integer exceeds the limit of 4300 digits$"):
        as_fraction(text)
