"""Embedding oracle truth tables, consistency identities, and routing."""
import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modemb import oracle
from modemb.cli import parse_space
from modemb.exponents import Exponent, INF, TauPiece, sigma, tau
from modemb.oracle import (
    DomainError,
    Family,
    SpaceSpec,
    UncharacterizedPairError,
    classify_region,
    decide,
    embed_besov_to_mod,
    embed_fourierlp_to_mod,
    embed_mod_to_besov,
    embed_mod_to_fourierlp,
    embed_mod_to_sobolev,
    embed_mod_to_triebel,
    embed_mod_to_triebel2,
    embed_sobolev_to_mod,
    embed_triebel2_to_mod,
    embed_triebel_to_mod,
    render_space,
)

F = Fraction
rationals = st.fractions(min_value=1, max_value=8, max_denominator=8)
finite_banach = rationals.map(Exponent)
smoothness = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def test_besov_to_mod_examples():
    assert embed_besov_to_mod(1, 1, 2, 2, F(1, 2)).holds
    v = embed_besov_to_mod(1, 1, 2, 2, F(1, 2))
    assert v.clause == "B->M (1)" and v.critical_s == F(1, 2) and not v.strict
    assert not embed_besov_to_mod(2, INF, 2, 2, 0).holds  # q0 > q needs s > 0
    assert not embed_besov_to_mod(2, 2, 1, 2, 5).holds  # p0 > p
    assert embed_besov_to_mod(2, 2, 2, 2, 0).holds  # identical space, tau = 0


def test_mod_to_besov_examples():
    assert embed_mod_to_besov(2, 2, 2, 2, 0).holds
    assert not embed_mod_to_besov(2, 4, 2, 2, F(-1, 4)).holds  # q1 < q strict
    v = embed_mod_to_besov(2, 2, 4, 2, -1)
    assert v.holds and v.clause == "M->B (1)" and v.critical_s == F(-1, 4)


def test_hs_examples():
    """H^s = B^s_{2,2}."""
    assert embed_besov_to_mod(2, 2, 2, 2, 0).holds
    assert not embed_besov_to_mod(2, 2, 4, 1, F(1, 2)).holds  # equality at strict clause
    assert embed_besov_to_mod(2, 2, 4, 1, F(5, 8)).holds
    assert not embed_besov_to_mod(2, 2, 1, 4, 0).holds  # 2 <= p violated


def test_sobolev_to_mod_examples():
    v = embed_sobolev_to_mod(1, 1, INF, 0)
    assert v.holds and v.clause == "W->M (3)"
    assert not embed_sobolev_to_mod(1, 2, 2, F(1, 2)).holds  # needs s > 1/2
    v = embed_sobolev_to_mod(2, 2, 2, 0)
    assert v.holds and v.clause == "W->M (2)"


def test_sobolev_domain_errors():
    with pytest.raises(DomainError, match="1 <= r"):
        embed_sobolev_to_mod(F(1, 2), 2, 2, 0)
    with pytest.raises(DomainError, match="1 <= p"):
        embed_sobolev_to_mod(2, F(1, 2), 2, 0)
    with pytest.raises(DomainError):
        embed_mod_to_sobolev(F(1, 2), 2, 2, 0)


def test_mod_to_sobolev_examples():
    assert embed_mod_to_sobolev(2, 2, 2, 0).holds
    assert not embed_mod_to_sobolev(2, 4, 2, F(-1, 4)).holds  # r < q strict
    v = embed_mod_to_sobolev(1, F(1, 2), INF, 0)
    assert v.holds and "small-q extension" in v.clause
    assert not embed_mod_to_sobolev(1, F(1, 2), INF, F(1, 8)).holds
    # r = inf with q > 1 is strict: sigma(inf, inf) = -d
    assert embed_mod_to_sobolev(INF, INF, INF, -2).holds
    assert not embed_mod_to_sobolev(INF, INF, INF, -1).holds


def test_triebel2_examples():
    assert embed_triebel2_to_mod(2, 2, 0).holds
    assert tau(4, 2, 1) == F(1, 4)
    assert not embed_triebel2_to_mod(4, 2, F(1, 4)).holds  # q < p strict
    assert embed_triebel2_to_mod(4, 2, F(3, 8)).holds
    assert embed_triebel2_to_mod(1, INF, 0).holds

    assert embed_mod_to_triebel2(2, 2, 0).holds
    assert not embed_mod_to_triebel2(2, 4, F(-1, 4)).holds  # q > p strict
    assert embed_mod_to_triebel2(INF, F(1, 2), 0).holds


def test_triebel_shared_q_examples():
    assert embed_triebel_to_mod(1, 2, 2, F(1, 2)).holds
    assert not embed_triebel_to_mod(2, 1, 2, 5).holds  # p0 > p
    assert not embed_triebel_to_mod(2, 2, 1, F(1, 2)).holds  # p0 > q strict

    assert embed_mod_to_triebel(2, 2, 2, 0).holds
    assert not embed_mod_to_triebel(2, 2, 4, F(-1, 4)).holds  # p1 < q strict
    assert embed_mod_to_triebel(1, INF, 1, 0).holds


def test_fourier_lp_examples():
    assert embed_mod_to_fourierlp(2, 2, 2, 0).holds
    assert not embed_mod_to_fourierlp(2, 1, 4, 0).holds  # r > p'
    assert embed_mod_to_fourierlp(1, 2, INF, 0).holds
    assert not embed_mod_to_fourierlp(2, 4, 2, F(1, 4)).holds  # equality, strict
    assert embed_mod_to_fourierlp(2, 4, 2, F(3, 8)).holds

    assert embed_fourierlp_to_mod(2, 2, 2, 0).holds
    assert not embed_fourierlp_to_mod(1, 2, 2, 0).holds  # r < p'
    assert not embed_fourierlp_to_mod(4, 2, 2, F(-1, 4)).holds  # equality, strict
    assert embed_fourierlp_to_mod(4, 2, 2, F(-3, 8)).holds


def test_refusals_read_not_strict():
    # every "none" verdict reads strict False, on FL pairs too, whatever
    # clause would have applied had the index hypothesis held
    verdict = embed_mod_to_fourierlp(4, INF, 1, 0)
    assert verdict.clause == "none" and not verdict.strict
    assert verdict.critical_s == F(1)  # the bound of clause (2), r < q
    verdict = embed_fourierlp_to_mod(INF, 1, 1, 0)
    assert verdict.clause == "none" and not verdict.strict
    exps = (F(1, 2), 1, 2, 3, INF)
    for rule in (embed_mod_to_fourierlp, embed_fourierlp_to_mod):
        for a, b, c in itertools.product(exps, repeat=3):
            verdict = rule(a, b, c, 0)
            assert verdict.clause != "none" or not verdict.strict


@given(p=finite_banach, q=finite_banach, s=smoothness, d=st.integers(1, 2))
def test_prop_diagonal_specialization(p, q, s, d):
    """B_{p,q} -> M_{p,q} holds exactly when s >= tau(p,q)."""
    verdict = embed_besov_to_mod(p, q, p, q, s, d)
    assert verdict.holds == (s >= tau(p, q, d))
    verdict = embed_mod_to_besov(p, q, p, q, s, d)
    assert verdict.holds == (s <= sigma(p, q, d))


@given(p0=finite_banach, q0=finite_banach, p=finite_banach, q=finite_banach,
       s=smoothness, d=st.integers(1, 2))
def test_besov_duality_consistency(p0, q0, p, q, s, d):
    direct = embed_besov_to_mod(p0, q0, p, q, s, d)
    dualized = embed_mod_to_besov(p.dual(), q.dual(), p0.dual(), q0.dual(), -s, d)
    assert direct.holds == dualized.holds


@given(p=finite_banach, q=finite_banach, s=smoothness)
def test_hs_corollary_consistency(p, q, s):
    """The Besov rules at H^s = B^s_{2,2} agree with the corollary's
    explicit index cases."""
    verdict = embed_besov_to_mod(2, 2, p, q, s)
    if p >= 2 and q >= 2:
        assert verdict.holds == (s >= 0)
    elif p >= 2:
        assert verdict.holds == (s > q.reciprocal() - F(1, 2))
    else:
        assert not verdict.holds
    mirror = embed_mod_to_besov(p, q, 2, 2, s)
    if p <= 2 and q <= 2:
        assert mirror.holds == (s <= 0)
    elif p <= 2:
        assert mirror.holds == (s < q.reciprocal() - F(1, 2))
    else:
        assert not mirror.holds


@given(r=st.fractions(min_value=F(9, 8), max_value=8, max_denominator=8),
       q=finite_banach, s=smoothness)
def test_sobolev_triebel2_consistency(r, q, s):
    """For 1 < r < inf the W and F_{r,2} routes agree when p = r."""
    w = embed_sobolev_to_mod(r, r, q, s)
    f = embed_triebel2_to_mod(r, q, s)
    assert w.holds == f.holds


# The index grid of the Besov-sandwich measurement: finite Lebesgue
# indices, quasi-Banach ones included, and the smoothness values there.
sandwich_exponents = st.sampled_from(
    [Exponent(x) for x in (F(1, 2), 1, F(4, 3), F(3, 2), 2, 3, 4)])
sandwich_indices = st.one_of(sandwich_exponents, st.just(INF))
sandwich_s = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 4), F(1, 2), F(1)])
_TWO = Exponent(2)


def _holds(source, target):
    """decide's holds, or None where it answers with no verdict."""
    try:
        return decide(source, target).holds
    except (UncharacterizedPairError, DomainError):
        return None


@st.composite
def triebel_queries(draw):
    """(p0, q0, p, q, s, d) for F^s_{p0,q0} <-> M_{p,q}, drawn toward the
    cases decide routes: a shared q, q0 = 2, or p = p0."""
    p0, q = draw(sandwich_exponents), draw(sandwich_indices)
    q0 = draw(st.one_of(st.just(q), st.just(_TWO), sandwich_indices))
    p = draw(st.one_of(st.just(p0), sandwich_indices))
    return p0, q0, p, q, draw(sandwich_s), draw(st.integers(1, 2))


@settings(max_examples=300)
@given(query=triebel_queries())
def test_triebel_verdicts_lie_in_the_besov_sandwich(query):
    """B^s_{p0,min(p0,q0)} -> F^s_{p0,q0} -> B^s_{p0,max(p0,q0)} for
    0 < p0 < inf (Triebel 1983, 2.3.2, Prop. 2). So F -> M holds where
    B_{p0,max} -> M holds and fails where B_{p0,min} -> M fails, and
    M -> F mirrors it, wherever decide answers every side."""
    p0, q0, p, q, s, d = query
    mod = SpaceSpec.modulation(p, q, 0, d)
    triebel = SpaceSpec.triebel(p0, q0, s, d)
    small = SpaceSpec.besov(p0, min(p0, q0), s, d)
    large = SpaceSpec.besov(p0, max(p0, q0), s, d)
    into, out_of = _holds(triebel, mod), _holds(mod, triebel)
    if into is not None:
        assert into or not _holds(large, mod)
        assert not into or _holds(small, mod)
    if out_of is not None:
        assert out_of or not _holds(mod, small)
        assert not out_of or _holds(mod, large)


def _mod_included(small, large):
    """M^{s0}_{p0,q0} in M^{s1}_{p1,q1}: iff p0 <= p1 and either q0 <= q1
    and s0 >= s1, or q0 > q1 and s0 - s1 > d(1/q1 - 1/q0), the weighted l^q
    inclusion on the lattice (Feichtinger 1983; Wang, Huo, Hao & Guo 2011,
    ch. 6)."""
    if not small.p <= large.p:
        return False
    if small.q <= large.q:
        return small.s >= large.s
    return small.s - large.s > small.d * (large.q.reciprocal() - small.q.reciprocal())


def _scale_included(small, large):
    """X^{s0}_{p,q0} in X^{s1}_{p,q1} for X = B or F: s0 = s1 and q0 <= q1,
    or s0 > s1 with any q0, q1 (Triebel 1983, 2.3.2, Prop. 2)."""
    return small.p == large.p and (small.s > large.s or
                                   small.s == large.s and small.q <= large.q)


def _included(small, large):
    """Whether a classical inclusion puts ``small`` inside ``large``: two
    spaces of one family, M, B or F, on one dimension."""
    if small.family is not large.family or small.d != large.d:
        return False
    if small.family is Family.MODULATION:
        return _mod_included(small, large)
    return _scale_included(small, large)


_SCALES = {Family.MODULATION: SpaceSpec.modulation, Family.BESOV: SpaceSpec.besov,
           Family.TRIEBEL: SpaceSpec.triebel}


@st.composite
def inclusion_queries(draw):
    """(a, b, other): two spaces of one family that an inclusion may nest,
    b drawn near a (each index a's or a fresh one), and a space across one
    of decide's routes from them: B or F for M^0, M^0 for B and F. M keeps
    s = 0, the only modulation smoothness decide routes against B and F."""
    d = draw(st.integers(1, 2))
    family = draw(st.sampled_from(list(_SCALES)))
    mod = family is Family.MODULATION
    p, q = draw(sandwich_indices), draw(sandwich_indices)
    s = F(0) if mod else draw(sandwich_s)
    p1, q1 = (draw(st.one_of(st.just(x), sandwich_indices)) for x in (p, q))
    s1 = s if mod else draw(st.one_of(st.just(s), sandwich_s))
    scale = _SCALES[family]
    a, b = scale(p, q, s, d), scale(p1, q1, s1, d)
    if mod:
        partner = _SCALES[draw(st.sampled_from([Family.BESOV, Family.TRIEBEL]))]
        other = partner(draw(sandwich_indices), draw(sandwich_indices), draw(sandwich_s), d)
    else:
        other = SpaceSpec.modulation(draw(sandwich_indices), draw(sandwich_indices), 0, d)
    return a, b, other


@settings(max_examples=400)
@given(query=inclusion_queries())
def test_verdicts_agree_with_the_classical_inclusions(query):
    """No routed B/F <-> M verdict contradicts another one composed with a
    classical inclusion: with small inside large, large -> Y holding makes
    small -> Y hold, and Y -> small holding makes Y -> large hold, wherever
    decide answers both sides."""
    a, b, other = query
    for small, large in ((a, b), (b, a)):
        if not _included(small, large):
            continue
        into = _holds(small, other), _holds(large, other)
        if None not in into:
            assert into[0] or not into[1], (small, large, other)
        out_of = _holds(other, small), _holds(other, large)
        if None not in out_of:
            assert out_of[1] or not out_of[0], (small, large, other)


@settings(max_examples=200)
@given(p=sandwich_indices, q=sandwich_indices, s=sandwich_s, d=st.integers(1, 2))
def test_equal_spaces_get_equal_verdicts(p, q, s, d):
    """B^s_{2,2} = F^s_{2,2} = W^{s,2}, and FL^2 = W^{0,2}: decide gives
    equal spaces one verdict into and out of M_{p,q}, on every route, where
    it answers every side."""
    mod = SpaceSpec.modulation(p, q, 0, d)
    hilbert = [SpaceSpec.besov(2, 2, s, d), SpaceSpec.triebel(2, 2, s, d),
               SpaceSpec.sobolev(2, s, d)]
    fourier = [SpaceSpec.fourier_l(2, d), SpaceSpec.sobolev(2, 0, d)]
    for spaces in (hilbert, fourier):
        for answers in ([_holds(x, mod) for x in spaces], [_holds(mod, x) for x in spaces]):
            if None not in answers:
                assert len(set(answers)) == 1, answers


_LOWER_OPS = [
    lambda s: embed_besov_to_mod(2, 4, 4, 2, s),
    lambda s: embed_sobolev_to_mod(2, 4, 1, s),
    lambda s: embed_triebel2_to_mod(4, 2, s),
    lambda s: embed_triebel_to_mod(2, 4, 1, s),
    lambda s: embed_mod_to_fourierlp(2, 4, 2, s),
]
_UPPER_OPS = [
    lambda s: embed_mod_to_besov(4, 2, 2, 4, s),
    lambda s: embed_mod_to_sobolev(1, 4, 2, s),
    lambda s: embed_mod_to_triebel2(4, 2, s),
    lambda s: embed_mod_to_triebel(1, 2, 4, s),
    lambda s: embed_fourierlp_to_mod(2, 4, 4, s),
]


@settings(max_examples=40)
@given(s=smoothness, step=st.fractions(min_value=0, max_value=2, max_denominator=8))
def test_monotonicity_in_s(s, step):
    for op in _LOWER_OPS:
        if op(s).holds:
            assert op(s + step).holds
    for op in _UPPER_OPS:
        if op(s).holds:
            assert op(s - step).holds


@given(p0=finite_banach, q=finite_banach, s=smoothness)
def test_critical_s_matches_index_functions(p0, q, s):
    assert embed_besov_to_mod(p0, 1, 2, q, s).critical_s == tau(p0, q, 1)
    assert embed_mod_to_besov(1, q, p0, INF, s).critical_s == sigma(p0, q, 1)


def test_interpolation_contradiction_case():
    """F_{p0,2}^{d(1/2 - 1/p0)} -> M_{p,2} must be rejected for p0 > 2."""
    for p0 in (F(5, 2), 3, 4, 8):
        s = F(1, 2) - Exponent.of(p0).reciprocal()
        assert not embed_triebel2_to_mod(p0, 2, s).holds
        assert not embed_triebel_to_mod(p0, p0, 2, s).holds
        assert not decide(SpaceSpec.triebel(p0, 2, s),
                          SpaceSpec.modulation(p0, 2)).holds


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(Family.BESOV, p=Exponent.of(2))  # q missing
    with pytest.raises(ValueError):
        SpaceSpec(Family.SOBOLEV_W, r=Exponent.of(2), p=Exponent.of(2), s=0)
    with pytest.raises(ValueError):
        SpaceSpec(Family.FOURIER_L, r=Exponent.of(2), s=0)
    with pytest.raises(ValueError):
        SpaceSpec.modulation(2, 2, 0, d=0)


def test_decide_routing():
    assert decide(SpaceSpec.besov(1, 1, F(1, 2)), SpaceSpec.modulation(2, 2)).holds
    assert decide(SpaceSpec.sobolev(1, 0), SpaceSpec.modulation(1, INF)).holds
    # shared q takes precedence even when q0 = 2
    v = decide(SpaceSpec.triebel(2, 2, 0), SpaceSpec.modulation(4, 2))
    assert v.holds and v.clause.startswith("F->M")
    # F with q0 = 2, q != 2 and p0 != p routes through the Sobolev characterization
    v = decide(SpaceSpec.triebel(2, 2, 0), SpaceSpec.modulation(4, 4))
    assert v.holds and v.clause.startswith("W->M")
    v = decide(SpaceSpec.modulation(2, 4), SpaceSpec.triebel(4, 2, 0))
    assert v.clause.startswith("M->W")
    # FL pairs carry the smoothness on the modulation side
    assert decide(SpaceSpec.modulation(2, 2, 0), SpaceSpec.fourier_l(2)).holds
    assert not decide(SpaceSpec.fourier_l(1), SpaceSpec.modulation(2, 2)).holds


def test_decide_uncharacterized():
    with pytest.raises(UncharacterizedPairError):
        decide(SpaceSpec.triebel(2, 1, 0), SpaceSpec.modulation(2, 4))
    with pytest.raises(UncharacterizedPairError):
        decide(SpaceSpec.triebel(1, 2, 0), SpaceSpec.modulation(4, 4))
    with pytest.raises(UncharacterizedPairError):
        decide(SpaceSpec.besov(2, 2, 0), SpaceSpec.besov(2, 2, 0))
    with pytest.raises(UncharacterizedPairError):
        # nonzero modulation smoothness is only characterized against FL
        decide(SpaceSpec.besov(1, 1, 1), SpaceSpec.modulation(2, 2, F(1, 2)))
    with pytest.raises(ValueError):
        decide(SpaceSpec.besov(1, 1, 0, d=1), SpaceSpec.modulation(2, 2, 0, d=2))


def test_classify_region_examples():
    cells = classify_region(Family.SOBOLEV_W, Family.MODULATION, [F(1), F(0)], 0)
    assert (cells[1].inv_p, cells[1].inv_q) == (1, 0)
    assert cells[1].clause == "W->M (3)" and cells[1].holds

    cells = classify_region(Family.BESOV, Family.MODULATION, [F(1, 2)], 0)
    assert len(cells) == 1 and cells[0].piece is TauPiece.ZERO

    cells = classify_region(Family.TRIEBEL, Family.MODULATION, [F(1, 4), F(3, 4)], 0)
    assert (cells[1].inv_p, cells[1].inv_q) == (F(1, 4), F(3, 4))
    assert cells[1].piece is TauPiece.Q_MINUS_P

    with pytest.raises(UncharacterizedPairError):
        classify_region(Family.FOURIER_L, Family.MODULATION, [F(1)], 0)


# Repeated, unordered coordinates, values given as int, str and Fraction.
MIXED_COORDS = [1, "1/2", F(1, 3), 0, "1/2", F(2, 3), "0", F(1, 2), "1", F(1, 3)]


def _cell_fields(cell):
    return (type(cell.inv_p), cell.inv_p, type(cell.inv_q), cell.inv_q,
            cell.holds, cell.clause, cell.piece)


@pytest.mark.parametrize("pair", list(oracle._REGION_RULES))
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s", [-1, 0, F(1, 2)])
def test_classify_region_matches_rule_per_point(pair, d, s):
    """The sweep of the square grid of MIXED_COORDS gives, u-major, the cells
    that a fresh Exponent per point gives, from a list or a one-pass
    iterator alike."""
    rule = oracle._REGION_RULES[pair]
    expected = []
    for u in map(F, MIXED_COORDS):
        for v in map(F, MIXED_COORDS):
            x, y = (INF if c == 0 else Exponent(1 / c) for c in (u, v))
            verdict = rule(x, y, F(s), d)
            expected.append((Fraction, u, Fraction, v, verdict.holds, verdict.clause,
                             verdict.piece))
    for coords in (MIXED_COORDS, iter(MIXED_COORDS)):
        cells = classify_region(*pair, coords, s, d)
        assert [_cell_fields(cell) for cell in cells] == expected


def _spy_on_rule(monkeypatch, pair) -> list:
    """Route the pair's region rule through a spy that appends each call's
    arguments to the returned list."""
    rule, calls = oracle._REGION_RULES[pair], []
    monkeypatch.setitem(oracle._REGION_RULES, pair,
                        lambda *args: calls.append(args) or rule(*args))
    return calls


@pytest.mark.parametrize("pair", list(oracle._REGION_RULES))
@pytest.mark.parametrize("d", [1, 2])
def test_classify_region_calls_the_rule_once_per_cell(monkeypatch, pair, d):
    """Every cell is one call of its pair's rule, on its own point, whether
    the coordinates are distinct or repeated and of mixed types; each gives
    the cells of its points as Fractions."""
    cases = [[F(i, 6) for i in range(7)], MIXED_COORDS]
    expected = [[_cell_fields(c) for c in classify_region(*pair, coords, F(1, 2), d)]
                for coords in cases]
    calls = _spy_on_rule(monkeypatch, pair)
    for coords, fields in zip(cases, expected):
        del calls[:]
        cells = classify_region(*pair, coords, F(1, 2), d)
        points = [(F(u), F(v)) for u in coords for v in coords]
        assert len(calls) == len(points) == len(cells)
        assert [(x.reciprocal(), y.reciprocal()) for x, y, *_ in calls] == points
        assert [_cell_fields(c) for c in cells] == fields


@pytest.mark.parametrize("pair", list(oracle._REGION_RULES))
def test_classify_region_rejects_negative_coordinates(monkeypatch, pair):
    """A negative coordinate is refused before any cell is classified."""
    calls = _spy_on_rule(monkeypatch, pair)
    for coords in ([F(1, 2), F(-1, 3)], [F(1, 2), "-1/3", 0]):
        with pytest.raises(ValueError, match="reciprocal coordinate must be >= 0, got -1/3"):
            classify_region(*pair, coords, 0)
    assert calls == []


def _spy_on_explanations(monkeypatch) -> list:
    """Make every rule build verdicts whose explanation, when formatted,
    appends its text to the returned list."""
    formatted = []

    class SpyVerdict(oracle.Verdict):
        def __init__(self, *fields):
            *head, explain = fields

            def counted():
                formatted.append(explain())
                return formatted[-1]
            super().__init__(*head, counted)

    monkeypatch.setattr(oracle, "Verdict", SpyVerdict)
    return formatted


def test_classify_region_formats_no_explanation(monkeypatch):
    formatted = _spy_on_explanations(monkeypatch)
    rendered = []
    exponent_str = Exponent.__str__
    monkeypatch.setattr(Exponent, "__str__",
                        lambda e: rendered.append(e) or exponent_str(e))
    coords = [F(i, 8) for i in range(9)]
    for pair in oracle._REGION_RULES:
        for d in (1, 2):
            for s in (-1, 0, F(1, 2)):
                assert len(classify_region(*pair, coords, s, d)) == len(coords) ** 2
    assert formatted == [] and rendered == []
    # the spies do see a read
    text = embed_besov_to_mod(2, 4, 2, 1, F(1, 2)).explanation
    assert formatted == [text] and len(rendered) == 4


def test_explanation_formatted_once(monkeypatch):
    formatted = _spy_on_explanations(monkeypatch)
    verdict = embed_besov_to_mod(2, 4, 2, 1, F(1, 2))
    assert formatted == []
    first = verdict.explanation
    assert first == "p0 = 2 <= p = 2, q0 = 4 > q = 1; requires s > 1/2, s = 1/2"
    assert verdict.explanation is first and formatted == [first]
    assert verdict.as_dict()["explanation"] is first and formatted == [first]


def _field_hash(record) -> int:
    """The hash a frozen dataclass generates, of its compared fields as a
    tuple; an Exponent hashes as its value."""
    if type(record) is Exponent:
        return hash(record.value)
    return hash(tuple(getattr(record, f.name) for f in dataclasses.fields(record) if f.compare))


def test_shared_records_stay_frozen_and_hash_by_their_fields():
    """parse_space shares its specs between callers, and decide and
    classify_region build their records without the generated __init__: each
    record refuses every write and compares and hashes like one made through
    the public constructors."""
    source = parse_space("B[p=3/2,q=inf,s=1/2]", 2)
    target = parse_space("M[p=2,q=1]", 2)
    verdict = decide(source, target)
    verdict.explanation  # a value kept on first read is no field either
    cell = classify_region(Family.BESOV, Family.MODULATION, [F(2, 3), 0], F(1, 2), 2)[1]
    diagonal = embed_besov_to_mod(F(3, 2), INF, F(3, 2), INF, F(1, 2), 2)  # the cell's rule
    built = {
        source: SpaceSpec.besov(F(3, 2), "inf", F(1, 2), 2),
        source.p: Exponent(F(3, 2)),
        verdict: embed_besov_to_mod(F(3, 2), INF, 2, 1, F(1, 2), 2),
        cell: oracle.RegionCell(F(2, 3), F(0), diagonal.holds, diagonal.clause, diagonal.piece),
    }
    for record, reference in built.items():
        assert type(record) is type(reference)
        assert record == reference and hash(record) == hash(reference)
        assert hash(record) == _field_hash(record)
        for name in [f.name for f in dataclasses.fields(record)] + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, dataclasses.fields(record)[0].name)
    assert render_space(source) == "B[p=3/2,q=inf,s=1/2]" and source == built[source]


# Each region pair as decide sees the grid point (x, y): the parsed specs,
# with x the non-modulation Lebesgue index on the diagonal and y the
# modulation q, and the index function giving the point's critical s.
_GRID_QUERIES = {
    (Family.BESOV, Family.MODULATION): ("B[p={x},q={y},s=0]", "M[p={x},q={y}]", tau),
    (Family.MODULATION, Family.BESOV): ("M[p={x},q={y}]", "B[p={x},q={y},s=0]", sigma),
    (Family.SOBOLEV_W, Family.MODULATION): ("W[r={x},s=0]", "M[p={x},q={y}]", tau),
    (Family.MODULATION, Family.SOBOLEV_W): ("M[p={x},q={y}]", "W[r={x},s=0]", sigma),
    (Family.TRIEBEL, Family.MODULATION): ("F[p={x},q={y},s=0]", "M[p={x},q={y}]", tau),
    (Family.MODULATION, Family.TRIEBEL): ("M[p={x},q={y}]", "F[p={x},q={y},s=0]", sigma),
}


def test_oracle_coerces_once_at_the_boundary(monkeypatch):
    """classify_region makes at most one Exponent per coordinate and
    coerces no cell; decide on parsed specs coerces nothing; a verdict
    builds its critical_s only when it is read."""
    made, coerced = [], []
    post_init, of = Exponent.__post_init__, Exponent.of.__func__
    monkeypatch.setattr(Exponent, "__post_init__", lambda e: made.append(e) or post_init(e))
    monkeypatch.setattr(Exponent, "of",
                        classmethod(lambda cls, value: coerced.append(value) or of(cls, value)))
    coords = [F(i, 8) for i in range(9)]
    texts = ["inf" if u == 0 else str(1 / u) for u in coords]
    assert set(oracle._REGION_RULES) == set(_GRID_QUERIES)
    for pair, (source, target, index) in _GRID_QUERIES.items():
        for d in (1, 2):
            del made[:], coerced[:]
            assert len(classify_region(*pair, coords, 0, d)) == len(coords) ** 2
            assert len(made) <= len(coords) and coerced == []
            specs = [(parse_space(source.format(x=x, y=y), d),
                      parse_space(target.format(x=x, y=y), d)) for x in texts for y in texts]
            del coerced[:]
            verdicts = [decide(a, b) for a, b in specs]
            assert coerced == []
            for (a, b), verdict in zip(specs, verdicts):
                assert "critical_s" not in verdict.__dict__
                mod, other = (b, a) if b.family is Family.MODULATION else (a, b)
                x = other.p if other.r is None else other.r
                assert verdict.critical_s == index(x, mod.q, d)
                assert "critical_s" in verdict.__dict__


def test_verdict_equality_compares_critical_values():
    # equal critical values over different denominators and dimensions:
    # 0 = tau(2, 2) = tau(3, 3), and 1/2 = tau(inf, 2, 1) = tau(inf, 4, 2)
    assert embed_besov_to_mod(2, 2, 2, 2, 0) == embed_besov_to_mod(3, 3, 3, 3, 0)
    half = embed_besov_to_mod(INF, 2, INF, 2, 1)
    assert half == embed_besov_to_mod(INF, 4, INF, 4, 1, 2)
    assert hash(half) == hash(embed_besov_to_mod(INF, 4, INF, 4, 1, 2))
    # verdicts that differ only in the critical value
    one = embed_besov_to_mod(INF, 1, INF, 1, 1)
    assert (one.holds, one.clause, one.strict, one.piece) == \
        (half.holds, half.clause, half.strict, half.piece)
    assert one != half and (one.critical_s, half.critical_s) == (1, F(1, 2))
