"""Golden output hashes: the sha256 of small fixed-seed sweep CSVs.

The CSV bytes are part of the reproducibility contract.  Any change to the
random streams, the batch layout or the arithmetic of the evaluator shows up
here.  The hashes may be updated only for an intentional change of the
random streams, an intentional change of the kernel's arithmetic on the same
draws, or a numpy upgrade, with the reason, and for an arithmetic change the
largest absolute change of any CSV value, recorded in CHANGES.md.
"""

import hashlib
import itertools

import numpy as np
import pytest

from lora_reliability.analytic import JOINT_MODES, SIR_MODES
from lora_reliability.channel import PATH_LOSS_FORMS
from lora_reliability.cli import curve_to_csv
from lora_reliability.montecarlo import (
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    success_vs_distance,
)
from lora_reliability.params import NetworkConfig

# numpy's Generator streams may change between numpy versions (NEP 19), so
# the hashes are only meaningful together with the version they came from.
GOLDEN_NUMPY_VERSION = "2.4.6"

SEED = 42
# One full 4096-realization batch plus one remainder batch per point.
REALIZATIONS = 5000

# (kind, joint_mode, sir_mode, path_loss_form) -> sha256 of the CSV text.
GOLDEN = {
    ("distance", "success-product", "substitution", "standard"): "6b32cb0c752004716f142d05e302dc3812ae1c689ca2627a42614aefa85ec18d",
    ("distance", "success-product", "substitution", "paper_literal"): "a25f633e196155c8ec455ec73ffdf41137cf179c54e5e78eb0806d24ceed95c4",
    ("distance", "success-product", "mean-sir", "standard"): "0ac28d2c5ad47efbd4d41b61321f638ab69e26bcb9d6479af427e5661f5aaeed",
    ("distance", "success-product", "mean-sir", "paper_literal"): "96593f5bffbd987efc6e3d439d4e82a1c07db57cf5b2c52da5c2bc4c4e6646ae",
    ("distance", "outage-product", "substitution", "standard"): "b829481bbc3d0ab69355d5523426f284d47a0fe642816d7cca328c8e190a08bc",
    ("distance", "outage-product", "substitution", "paper_literal"): "ae465a0ff9c88f5ccaa25ea3ceae687633a99d517800b362316f678cff912b22",
    ("distance", "outage-product", "mean-sir", "standard"): "59e8e93d85fb0ee113660a7520569a54f9090b87bb057d92e143a61e3d6cb84d",
    ("distance", "outage-product", "mean-sir", "paper_literal"): "1430d677ddf70032b9a927d4b5f42494836c3cca8f1f7a5eb0b49531571343a1",
    ("density", "success-product", "substitution", "standard"): "e4a6c335d46be9dd05ed00c5607aebcb961239c140859bcd5bc47b2cb2359160",
    ("density", "success-product", "substitution", "paper_literal"): "1251a322eec75dccaaa214aaec4f376550662ad853116320bd15da7c277405fc",
    ("density", "success-product", "mean-sir", "standard"): "14f10cf82448d03b56569e5e7083c12ae2403f445458f3de12319aed4442a2a6",
    ("density", "success-product", "mean-sir", "paper_literal"): "389c2546ca6bbc66ae41412aad5510369325cd8c49528e263d3c4ed85f7f46d9",
    ("density", "outage-product", "substitution", "standard"): "5789294e640156d0c606bcad7b957872dc1b4c05a0563e02b844e33de6f1eaf3",
    ("density", "outage-product", "substitution", "paper_literal"): "39b97543c66c5ec31f11c21624936eb2ebd597b9e241aacd52157c9d20f40942",
    ("density", "outage-product", "mean-sir", "standard"): "2be70c745be771ec8f87df4c038c127e42851042762e13bfca5a8bddf1c8e9e1",
    ("density", "outage-product", "mean-sir", "paper_literal"): "fe017b7f4f53a5a93d01c2c6356b4cb5bf733110c9dd2882838e3d74a38a7588",
}


def _grid(kind, cfg):
    if kind == "distance":
        return default_distance_grid(cfg, 24)
    return (0.0,) + default_density_grid(3000.0, 12)


def _csv(kind, joint_mode, sir_mode, form):
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind=kind,
        grid=_grid(kind, cfg),
        realizations_per_point=REALIZATIONS,
        seed=SEED,
        joint_mode=joint_mode,
        sir_mode=sir_mode,
    )
    if kind == "distance":
        points = success_vs_distance(cfg, spec, path_loss_form=form)
        return curve_to_csv(points, "d_km")
    points = coverage_vs_density(cfg, spec, path_loss_form=form)
    return curve_to_csv(points, "n_bar")


CASES = list(itertools.product(("distance", "density"), JOINT_MODES, SIR_MODES, PATH_LOSS_FORMS))


def test_golden_covers_every_mode_combination():
    assert len(CASES) == 16
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(c))
def test_golden_csv_hash(case):
    digest = hashlib.sha256(_csv(*case).encode("utf-8")).hexdigest()
    if digest == GOLDEN[case]:
        return
    if np.__version__ != GOLDEN_NUMPY_VERSION:
        pytest.fail(
            f"CSV hash changed for {case} on numpy {np.__version__}; the hashes "
            f"were recorded on numpy {GOLDEN_NUMPY_VERSION}, and NEP 19 allows "
            "Generator streams to change between numpy versions"
        )
    pytest.fail(f"CSV hash changed for {case}: {digest} != {GOLDEN[case]}")
