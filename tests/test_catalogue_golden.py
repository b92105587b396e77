"""Golden outputs of the experiment catalogue: ``predicted_slope`` and ``grid_for``.

Each digest covers, in a fixed order, one line per result an entry point
gives over a fixed sweep: the slope as an exact rational, the grid's
(d, N, M), or ``type: message`` for a refusal. Slopes, refusal texts and
grid sizes are pinned byte for byte, so a failure names the entry point that
drifted. The slope sweep takes every pair of spaces on the index grid below,
about 1.15 million calls.

Run ``python tests/test_catalogue_golden.py`` to print the current digests.
"""
import hashlib
import itertools
from fractions import Fraction

import pytest

from modemb.exponents import Exponent
from modemb.experiments import predicted_slope
from modemb.families import KINDS, grid_for, kind_row
from modemb.oracle import Family, SpaceSpec

F = Fraction
EXPONENTS = (F(1, 2), 1, F(3, 2), 2, 3, 4, Exponent.of("inf"))
SMOOTHNESS = (F(-1, 2), 0, F(1, 4), 1)
DIMENSIONS = (1, 2)
SLOPE_PAIRS = ((Family.BESOV, Family.MODULATION), (Family.MODULATION, Family.BESOV),
               (Family.TRIEBEL, Family.MODULATION))
# The sizing sweep, per grid_for keyword: lambda and t take 2^-k and
# 3 * 2^-k, where 3 and 3/2 are refused as out of (0, 1].
PARAMETERS = tuple(c * F(1, 2 ** k) for k in range(14) for c in (1, 3))
SIZING = {"level": range(14), "width": (1, F(1, 2), F(1, 4), F(1, 8), F(3, 4)),
          "lam": PARAMETERS, "t": PARAMETERS}

GOLDEN = {
    "predicted_slope": "e31624d15d9b9fff3825674b6952d2eb89f27a4eb4097bb27a3fe6a4b26d901a",
    "grid_for": "7610cdaa1d37c4da2a0e72e1dd70e3e065b0f4e790c854c0903152dcf773a86e",
}


def _refusal(exc):
    return f"{type(exc).__name__}: {exc}"


def _spaces(family, d):
    return [SpaceSpec(family, p=Exponent.of(p), q=Exponent.of(q), s=s, d=d)
            for p in EXPONENTS for q in EXPONENTS for s in SMOOTHNESS]


def _slope_outcomes():
    for pair in SLOPE_PAIRS:
        for d in DIMENSIONS:
            sources, targets = (_spaces(family, d) for family in pair)
            for kind in KINDS:
                for source, target in itertools.product(sources, targets):
                    try:
                        yield str(predicted_slope(source, target, kind))
                    except ValueError as exc:
                        yield _refusal(exc)


def _grid_outcomes():
    for d in DIMENSIONS:
        for kind in KINDS:
            options = kind_row(kind)[0]
            for values in itertools.product(*(SIZING[o] for o in options)):
                try:
                    spec = grid_for(kind, d=d, **dict(zip(options, values)))
                except ValueError as exc:
                    yield _refusal(exc)
                else:
                    yield f"{spec.d} {spec.n} {spec.oversampling}"


def digest(name) -> str:
    outcomes = _slope_outcomes() if name == "predicted_slope" else _grid_outcomes()
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


@pytest.mark.parametrize("name", tuple(GOLDEN))
def test_catalogue_golden(name):
    assert digest(name) == GOLDEN[name], f"{name} outputs drifted"


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{digest(name)}",')
