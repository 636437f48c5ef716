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
    ("distance", "success-product", "substitution", "standard"): "982f9369ed1c9ff4155f36d1dbf4b662d9b1b7874b180efa98eef78a5e6f3a98",
    ("distance", "success-product", "substitution", "paper_literal"): "1204acd8e7c7aa1b7606e1a765b4ea76a54e56a917b55d1603ef1ccf7f930555",
    ("distance", "success-product", "mean-sir", "standard"): "1af81d7354454da22a2079127df70a509274e262a4a905c4104b3a3c068b623e",
    ("distance", "success-product", "mean-sir", "paper_literal"): "cfda1190f796ba329c6ccd20c44a5ffdae3a169bfb19882ab9d0d3018d8addad",
    ("distance", "outage-product", "substitution", "standard"): "5ecad3a5f148e02ec7d70d698dd941b974356f904c2a8987870176dada420536",
    ("distance", "outage-product", "substitution", "paper_literal"): "d95bd8dd7e42c4d72c7af06f591aab953c0a5ef50a653a4e1ea4e134b853673c",
    ("distance", "outage-product", "mean-sir", "standard"): "ece07a19d0acc6449a76acd52f636583028f4cecc6668915368f1799694e95fd",
    ("distance", "outage-product", "mean-sir", "paper_literal"): "f6cc835caef3d2ac02824471dc503365124c67ba00059aeeff855fe8c54fe40a",
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
