"""Golden outputs of the separable grid objects, one SHA-256 digest per
function and dimension.

Each digest covers, in a fixed order, the dtype, shape and raw bytes of every
array a function gives over fixed inputs, the raw bytes of an orbit key, and
the canonical JSON of anything else (slice bounds, the selftest report). The
frequency grid, the uniform partition, the selftest and the family spectra
are pinned bit for bit in d = 1 and in d = 2, so a failure names the function
and the dimension that drifted.

Run ``python tests/test_separable_golden.py`` to print the current digests.
"""
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from modemb import families
from modemb.grid import GridSpec
from modemb.partitions import build_uniform, selftest_report

F = Fraction
DIMENSIONS = (1, 2)
# Small grids per dimension: kmax = 15 in d = 1 and 7 in d = 2.
SPECS = {1: GridSpec(d=1, n=256, oversampling=8), 2: GridSpec(d=2, n=128, oversampling=8)}
# Lattice points for the window and patch digests: the centre, off-centre
# points with mixed signs, and the lattice corners.
POINTS = {1: [(0,), (3,), (-5,), (15,), (-15,)],
          2: [(0, 0), (3, -2), (-1, 4), (7, 7), (-7, 7)]}
# d = 1 takes a scalar centre as well as a 1-tuple.
CENTERS = {1: (10.0, (-5.0,)), 2: ((4.0, 3.0), (-2.0, 3.5))}
# The selftest grids: N = 2^12 in d = 1, the CLI's default N = 256 in d = 2.
SELFTEST_N = {1: 2 ** 12, 2: 256}

GOLDEN = {
    "freq_radius/d1": "26f52e0a069c7d2387abaaf7601eab83d1051215910ebbe0f2b6ddaf44622ca9",
    "freq_radius/d2": "bec0e81622814e74268f90a320b40fe93b5a79458f50258ef3a8243c87751594",
    "freq_outside_cube/d1": "ab268b23ac9144d5a3d3113eb9f0bf8b6defde2215f5600a42235f7cd4c85cee",
    "freq_outside_cube/d2": "362fbb0c0e9fe6b11e7ed512e7c5a972f6df0bf981790321b99936d3683f6e47",
    "window/d1": "7297f5ea90ea963a367bbdb068d6ba33595def5db13d46bf07227e1d4052f2cd",
    "window/d2": "58b4a6e054427952192a3fcf8dc2bd7e52b6f689528d504ac159ace5926a70d0",
    "patch/d1": "b4c4a277de8f88c00a4c848554461362f4860a3eaa104b080fde76278d00a36f",
    "patch/d2": "8e9c62ef60bb484b5a0d7e8b27603d356eb19bb4d13dda944424416f1efb72b4",
    "partition_sum/d1": "726763fb808640f7223b521b9dd04af78d00efeb712d2fedc8265c078651b30d",
    "partition_sum/d2": "3d793b15182c5196097ad7a38e4a7e0b8d880b6f1f82e383c9e3844dc682195c",
    "orbit_key/d1": "92a0cce621fe4afb551f5b6ce5b7b266299c5c05637141d9503afc604b90c526",
    "orbit_key/d2": "b2e792ff03dd2ee83567e65f187e67d3d8050e16bb77c9742ffee5fcf4fdfecd",
    "selftest_report/d1": "bf1ee62eec0dd590bc27a5298edced3b400e7186c19cdecb11927793923deec6",
    "selftest_report/d2": "05d4f36d98ffeaf9413bd724f0e457b6133c7227e5b38fdab176a6033a147a5b",
    "random_band_limited/d1": "e5207f6e874ffc7ebbbaabb15e75f7c4df7500d8a5b8d5c1926e31fe328e222f",
    "random_band_limited/d2": "77cc447ba991f02cf251a2ce78065c41392082bcac0c4c0ec983ef8fed550e18",
    "dilation_spectrum/d1": "32c295ccd9247dd6681e47c34492ce2479f97518c9d360fab0a8bd142fb025fb",
    "dilation_spectrum/d2": "0a00ddd7a027477e90f990467b696cedadf43a962c4d053904e4e6d042e67071",
    "single_box_spectrum/d1": "3c294d05560c10fd2cf87f1b25b408d57e94422c45b32723f78c1fe16e991e0f",
    "single_box_spectrum/d2": "778ad9fe39b26f4d190a9676b592537447a74bf6f8369f3da1bae66ff285c15e",
    "annulus_spectrum/d1": "139fbd02542cc703b41aeb3ae2ca7e14182ccbc553c9f75b22555a6c94769e64",
    "annulus_spectrum/d2": "6504bb27c618a3269bdab027a1354d689ca2f2e288a1002645b30a43e5f87fe1",
    "comb_spectrum/d1": "b149a658e2208fb8f0581fdf1d0828cdcbc5bae4caadab1a62fe5dc54d47395a",
    "comb_spectrum/d2": "687a0a5c3d206782b0be22ea47b5c2918efa2324dd3cda5f3fac801d212e4cd3",
    "kernel_spectrum/d1": "16e9e7ec3c8b31b7885670df4be8fcf7ed36cddd5ee6fd2321b9318631719128",
    "kernel_spectrum/d2": "0092dfec8103bd6710d012cca72c0e2a48af38b7daedcadf8b728836507a7765",
}


def _random_spectrum(d):
    spec = SPECS[d]
    return families.random_band_limited(spec, band_radius=2.5, center=CENTERS[d][0],
                                        seed=11).values


def _freq_radius(d):
    yield SPECS[d].freq_radius()


def _freq_outside_cube(d):
    for radius in (0.0, 2.5, 3.0, 6.875):
        yield SPECS[d].freq_outside_cube(radius)


def _window(d):
    uniform = build_uniform(SPECS[d])
    for k in POINTS[d]:
        yield uniform.window(k)


def _patches(d):
    uniform = build_uniform(SPECS[d])
    spectrum = _random_spectrum(d)
    for k in POINTS[d]:
        yield k, uniform.patch(spectrum, k)


def _patch(d):
    for _, (slices, values) in _patches(d):
        yield [[sl.start, sl.stop, sl.step] for sl in slices]
        yield values


def _partition_sum(d):
    yield build_uniform(SPECS[d]).partition_sum()


def _orbit_key(d):
    uniform = build_uniform(SPECS[d])
    for _, (_, values) in _patches(d):
        yield uniform.orbit_key(values)
    rng = np.random.default_rng(5)
    generic = rng.standard_normal((13,) * d) + 1j * rng.standard_normal((13,) * d)
    generic[(0,) * d] = -0.0
    yield uniform.orbit_key(generic)


def _selftest_report(d):
    yield selftest_report(GridSpec(d=d, n=SELFTEST_N[d], oversampling=8), n_random=3)


def _random_band_limited(d):
    spec = SPECS[d]
    yield families.random_band_limited(spec, band_radius=3.5, seed=2).values
    for center in CENTERS[d]:
        yield families.random_band_limited(spec, band_radius=2.5, center=center,
                                           seed=3).values


def _dilation_spectrum(d):
    spec = GridSpec(d=d, n=256, oversampling=64)
    for lam in (1, F(3, 4)):
        yield families.dilation_spectrum(spec, lam)


def _single_box_spectrum(d):
    yield families.single_box_spectrum(families.grid_for("single_box", d=d, level=3), 3)


def _annulus_spectrum(d):
    yield families.annulus_spectrum(families.grid_for("annulus", d=d, level=2), 2)


def _comb_spectrum(d):
    for width in (1, F(1, 2)):
        spec = families.grid_for("lattice_comb", d=d, level=2, width=width)
        yield families.comb_spectrum(spec, 2, width)


def _kernel_spectrum(d):
    for t in (F(1, 4), F(1, 3)):
        yield families.kernel_spectrum(families.grid_for("dilated_kernel", d=d, t=t), t)


PRODUCERS = {
    "freq_radius": _freq_radius,
    "freq_outside_cube": _freq_outside_cube,
    "window": _window,
    "patch": _patch,
    "partition_sum": _partition_sum,
    "orbit_key": _orbit_key,
    "selftest_report": _selftest_report,
    "random_band_limited": _random_band_limited,
    "dilation_spectrum": _dilation_spectrum,
    "single_box_spectrum": _single_box_spectrum,
    "annulus_spectrum": _annulus_spectrum,
    "comb_spectrum": _comb_spectrum,
    "kernel_spectrum": _kernel_spectrum,
}


def digest(name, d) -> str:
    h = hashlib.sha256()
    for part in PRODUCERS[name](d):
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("name", PRODUCERS)
def test_separable_golden(name, d):
    assert digest(name, d) == GOLDEN[f"{name}/d{d}"], f"{name} drifted in d = {d}"


if __name__ == "__main__":
    for name in PRODUCERS:
        for d in DIMENSIONS:
            print(f'    "{name}/d{d}": "{digest(name, d)}",')
