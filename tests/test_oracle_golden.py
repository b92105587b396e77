"""Golden outputs of the exact oracle, one SHA-256 digest per entry point.

Each digest covers, in a fixed order, the canonical JSON of every result an
entry point gives over a fixed index grid: ``Verdict.as_dict()`` for a
verdict, ``[exception type, message]`` for a refusal, and the cell fields for
``classify_region``. Clause labels, critical s, strictness, explanations and
error messages are all pinned byte for byte, so a failure names the entry
point that drifted.

Run ``python tests/test_oracle_golden.py`` to print the current digests.
"""
import hashlib
import inspect
import itertools
import json
from fractions import Fraction

import pytest

from modemb import oracle
from modemb.exponents import Exponent
from modemb.oracle import Family, SpaceSpec

F = Fraction
EXPONENTS = (F(1, 2), 1, 2, 3, Exponent.of("inf"))
SMOOTHNESS = (-1, F(-1, 2), 0, F(1, 2), 1)
DIMENSIONS = (1, 2)
EMBEDDINGS = (
    "embed_besov_to_mod", "embed_mod_to_besov",
    "embed_sobolev_to_mod", "embed_mod_to_sobolev",
    "embed_triebel2_to_mod", "embed_mod_to_triebel2",
    "embed_triebel_to_mod", "embed_mod_to_triebel",
    "embed_mod_to_fourierlp", "embed_fourierlp_to_mod",
)
REGION_PAIRS = (
    (Family.BESOV, Family.MODULATION), (Family.MODULATION, Family.BESOV),
    (Family.SOBOLEV_W, Family.MODULATION), (Family.MODULATION, Family.SOBOLEV_W),
    (Family.TRIEBEL, Family.MODULATION), (Family.MODULATION, Family.TRIEBEL),
)

GOLDEN = {
    "embed_besov_to_mod": "5c7144d7be26795d70387a95b3221484e2b1d093eec0b94ef6f9864baf6c32b9",
    "embed_mod_to_besov": "9ff68735a1ddec8b48ac7e56d54e28d1fc1b6f26fa2d7759ad12c2dd3e308187",
    "embed_sobolev_to_mod": "a254e9e4354d7018f15516888cab2a0cd152faff82554684f5fd1e2fe50e48f4",
    "embed_mod_to_sobolev": "4549f70ce2e6b99048147f44021fbf69d0500dbc6d2f083f35576b304c9d8e93",
    "embed_triebel2_to_mod": "c2fc1b9e2387c520493d0ac6daadc626457d165b8af2e9f5aabc3f7235a67232",
    "embed_mod_to_triebel2": "f908abc15524af9d1715079ae014df67c74c03e24ef731a50a198e3c4692f8e7",
    "embed_triebel_to_mod": "fcb2b533d44fc967fa915fe0338c8766704e2502396bdf8fe83babb1fb951ef7",
    "embed_mod_to_triebel": "f61e55c9f87b11a16c2797b62dca182a91791023185a341f5d1db03ed02f7d80",
    "embed_mod_to_fourierlp": "2361f2eeae10cb94634cfadecc0f45d2e926dccf604ae11cae67c7c670812059",
    "embed_fourierlp_to_mod": "9a80d1f44777a5fef5a558652096d0b103fe52ce4a39e4c1bf57d4061245ca69",
    "decide": "f81c61f3375734ff8ebbcbf5f69435561125d56bd7bcd921c5b500eb4578b7bc",
    "classify_region": "6bf13c59817473829d6be864883f0adc6a03c61aeb70b388f116ae29c21ef6f0",
}


def _outcome(call, *args):
    try:
        result = call(*args)
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(result, list):
        return [[str(c.inv_p), str(c.inv_q), c.holds, c.clause,
                 None if c.piece is None else c.piece.value] for c in result]
    return result.as_dict()


def _embedding_outcomes(name):
    fn = getattr(oracle, name)
    n_indices = len(inspect.signature(fn).parameters) - 2  # all but s and d
    for d in DIMENSIONS:
        for indices in itertools.product(EXPONENTS, repeat=n_indices):
            for s in SMOOTHNESS:
                yield _outcome(fn, *indices, s, d)


def _specs(family):
    """Every d = 1 space of a family on the index grid, each at s = 0 and
    s = 1/2 (FL carries no s). A modulation space with s = 1/2 is
    characterized only against FL, so it pins that refusal too."""
    if family is Family.FOURIER_L:
        return [SpaceSpec(family, r=r) for r in EXPONENTS]
    if family is Family.SOBOLEV_W:
        return [SpaceSpec(family, r=r, s=s) for r in EXPONENTS for s in (0, F(1, 2))]
    return [SpaceSpec(family, p=p, q=q, s=s)
            for p in EXPONENTS for q in EXPONENTS for s in (0, F(1, 2))]


def _decide_outcomes():
    for source_family, target_family in itertools.product(Family, repeat=2):
        for source in _specs(source_family):
            for target in _specs(target_family):
                yield _outcome(oracle.decide, source, target)
    yield _outcome(oracle.decide, SpaceSpec.besov(1, 1, d=1), SpaceSpec.modulation(1, 1, d=2))


def _region_outcomes():
    coords = [F(i, 8) for i in range(9)]
    for pair in REGION_PAIRS:
        for d in DIMENSIONS:
            for s in SMOOTHNESS:
                yield _outcome(oracle.classify_region, *pair, coords, s, d)
    yield _outcome(oracle.classify_region, Family.FOURIER_L, Family.MODULATION, coords, 0)


def _outcomes(name):
    if name == "decide":
        return _decide_outcomes()
    if name == "classify_region":
        return _region_outcomes()
    return _embedding_outcomes(name)


def digest(name) -> str:
    h = hashlib.sha256()
    for outcome in _outcomes(name):
        h.update(json.dumps(outcome, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", (*EMBEDDINGS, "decide", "classify_region"))
def test_oracle_golden(name):
    assert digest(name) == GOLDEN[name], f"{name} outputs drifted"


if __name__ == "__main__":
    for name in (*EMBEDDINGS, "decide", "classify_region"):
        print(f'    "{name}": "{digest(name)}",')
