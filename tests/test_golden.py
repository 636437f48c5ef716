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

from lora_reliability.analytic import JOINT_MODES
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

# (kind, joint_mode, path_loss_form) -> sha256 of the CSV text.
GOLDEN = {
    ("distance", "success-product", "standard"): "5c15399db7ce2bcc4027da1637f5b345e6f70f81a56a0ea2fc15b3f9eb94ed08",
    ("distance", "success-product", "paper_literal"): "b9f54b3fdf599b9e6be831566082af3c0b2474a1a7e8eb372820e93a4ac6dac9",
    ("distance", "outage-product", "standard"): "31cf59a7bc1984a832a5e7561d6d284d8daef9dde14f8186c37d47f7ba4c3942",
    ("distance", "outage-product", "paper_literal"): "31e5cea5285bca40a79d2de95b0dba6f5ed6acf2bcd056f40ccbac1215b39b26",
    ("density", "success-product", "standard"): "5f89541d20b97430875e088b6990943e80e4beb565512c367ce15aea3b7b8ad3",
    ("density", "success-product", "paper_literal"): "40c9d06ca94d33fd35689e497c4a880d9b1ec5ee00fa7a5019ed2ebd21b94960",
    ("density", "outage-product", "standard"): "534114c9c3805368cc1d422effd67a868d4173471c791b7d33ae027abc908d18",
    ("density", "outage-product", "paper_literal"): "503c985ec5d4981523407205e13eed93f3a4f5a8e509bd3039e16174e0937f54",
}


def _grid(kind, cfg):
    if kind == "distance":
        return default_distance_grid(cfg, 24)
    return (0.0,) + default_density_grid(3000.0, 12)


def _csv(kind, joint_mode, form):
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind=kind,
        grid=_grid(kind, cfg),
        realizations_per_point=REALIZATIONS,
        seed=SEED,
        joint_mode=joint_mode,
    )
    if kind == "distance":
        points = success_vs_distance(cfg, spec, path_loss_form=form)
        return curve_to_csv(points, "d_km")
    points = coverage_vs_density(cfg, spec, path_loss_form=form)
    return curve_to_csv(points, "n_bar")


CASES = list(itertools.product(("distance", "density"), JOINT_MODES, PATH_LOSS_FORMS))


def test_golden_covers_every_mode_combination():
    assert len(CASES) == 8
    assert set(GOLDEN) == set(CASES)


def _case_id(case):
    # The per-realization SIR put into the closed form is the evaluation every
    # hash pins; the ids name it "substitution", so each hash keeps its test id.
    kind, joint_mode, form = case
    return f"{kind}-{joint_mode}-substitution-{form}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
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
