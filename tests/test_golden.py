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
    ("density", "success-product", "substitution", "standard"): "4e5bb4b0935fb4e3ed2bce8865cc2cc34830ed96e7b1431c1eb16c8dde3769f4",
    ("density", "success-product", "substitution", "paper_literal"): "a9502cd7ec3e396c9f198aeb5a7ecadfd2b2257ccd14a9b2ba43abc839b60330",
    ("density", "success-product", "mean-sir", "standard"): "b92b154b8905655e286b50ab025018881e8d000931d943faa9d55cd8fcd7c867",
    ("density", "success-product", "mean-sir", "paper_literal"): "b31112ab17f91ec99cfd0423805c77294a79f5b29cbae95e697b2ac63dad554f",
    ("density", "outage-product", "substitution", "standard"): "5f719f3440fa16e1077e2b9d17a2732693f2778ca04ae758e92a652726881ed1",
    ("density", "outage-product", "substitution", "paper_literal"): "dda17ecf704a6ffe1f0eef32aaaf3e7c4db00172ae3c9db5e44c8c9149ce1fc8",
    ("density", "outage-product", "mean-sir", "standard"): "c44c4b847d83c9ad82f2ae8f12ba654d9fe961321ca2205707dd1ca6a40c02eb",
    ("density", "outage-product", "mean-sir", "paper_literal"): "151fcf10d40297851e538d552036b48fdbbe3a167f673593a287d6063423b9c5",
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
