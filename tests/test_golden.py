"""Golden output hashes: the sha256 of small fixed-seed sweep CSVs.

The CSV bytes are part of the reproducibility contract.  Any change to the
random streams, the batch layout or the arithmetic of the evaluator shows up
here.  The hashes may be updated only for an intentional stream change or a
numpy upgrade, with the reason recorded in CHANGES.md.
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
    ("distance", "success-product", "substitution", "standard"): "fe54bc123c4a04195e2ec1c3c18320c963722e829e84273fb1673b64f1068013",
    ("distance", "success-product", "substitution", "paper_literal"): "7a677c105927b04866439f957737855bc8893beedc7f5195be126f3477b82ea7",
    ("distance", "success-product", "mean-sir", "standard"): "25226d52bb5de0230dd46336832e81fa018cf438cc7b6a80b1763da03c447308",
    ("distance", "success-product", "mean-sir", "paper_literal"): "03c5d64a1132497cc1544105fdd9cc9b59ff2e9c42069b621817869fd60bfd74",
    ("distance", "outage-product", "substitution", "standard"): "6758e72a5dacb58fb1e4f0b90e3ef82bfb47d81b61201cb17803ee0e10768ab0",
    ("distance", "outage-product", "substitution", "paper_literal"): "c898b864bff6d8cbe446d98aadaa755d58921ee54c9bab5e82c4e6558b8a017f",
    ("distance", "outage-product", "mean-sir", "standard"): "37d7632f35a16e0c5e0f7784b834fad5a1d49bba4202a012135ee1723ef863e5",
    ("distance", "outage-product", "mean-sir", "paper_literal"): "a85766dd8df8b446e0fee1d9e6ae882701ca35c94c640f1ffade77f266d3fc89",
    ("density", "success-product", "substitution", "standard"): "e3d08f4289a334afa241ce4de41e339a404f0fea71bbbd1babcc73ed5576394e",
    ("density", "success-product", "substitution", "paper_literal"): "23febea57773282af76268bc7f87f8bc00c2e6095011b9f28e5d928c3bc5fcc9",
    ("density", "success-product", "mean-sir", "standard"): "b612db17789bbc95a1e28673ca33093effce8215be21ef0499c085378b04d12b",
    ("density", "success-product", "mean-sir", "paper_literal"): "32d86075227851495b7d1f720bb9f51ba3883fbb49b0127c1430b908fb2bcfe5",
    ("density", "outage-product", "substitution", "standard"): "2b4d475f271b12c2e29e2d5b9f91d94b484c5a2d168e04b899e083b55e787464",
    ("density", "outage-product", "substitution", "paper_literal"): "15f79899fa8419f5ed6d1ab2c6ded25ea7196aedeee06525ecc93f8e5330aa78",
    ("density", "outage-product", "mean-sir", "standard"): "6f696ec630eaf41988c11e73ef03023b4e66ee8ff57912f70fb9e99f60bb5775",
    ("density", "outage-product", "mean-sir", "paper_literal"): "906c8981d8760bba2baa44393bdd4d0e4b3154c465ac814684df5fc72241f002",
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
