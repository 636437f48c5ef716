"""Golden output hashes: the sha256 of small fixed-seed sweep CSVs.

The CSV bytes are part of the reproducibility contract.  Any change to the
random streams, the batch layout or the arithmetic of the evaluator shows up
here.  The bytes also depend on the SIMD family numpy dispatches the float64
``power``, ``exp`` and ``log`` ufuncs to at run time (AVX-512 and AVX2
kernels round differently in the last bit), so a mismatch names the
dispatch targets next to the numpy version.  The hashes may be updated only
for an intentional change of the random streams, an intentional change of
the kernel's arithmetic on the same draws, or a numpy upgrade, with the
reason, and for an arithmetic change the largest absolute change of any CSV
value, recorded in CHANGES.md.
"""

import hashlib
import itertools

import numpy as np
import pytest

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

# (kind, path_loss_form) -> sha256 of the CSV text.
GOLDEN = {
    ("distance", "standard"): "5c15399db7ce2bcc4027da1637f5b345e6f70f81a56a0ea2fc15b3f9eb94ed08",
    ("distance", "paper_literal"): "b9f54b3fdf599b9e6be831566082af3c0b2474a1a7e8eb372820e93a4ac6dac9",
    ("density", "standard"): "5f89541d20b97430875e088b6990943e80e4beb565512c367ce15aea3b7b8ad3",
    ("density", "paper_literal"): "40c9d06ca94d33fd35689e497c4a880d9b1ec5ee00fa7a5019ed2ebd21b94960",
}


def _grid(kind, cfg):
    if kind == "distance":
        return default_distance_grid(cfg, 24)
    return (0.0,) + default_density_grid(3000.0, 12)


def _csv(kind, form):
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind=kind,
        grid=_grid(kind, cfg),
        realizations_per_point=REALIZATIONS,
        seed=SEED,
    )
    if kind == "distance":
        points = success_vs_distance(cfg, spec, path_loss_form=form)
        return curve_to_csv(points, "d_km")
    points = coverage_vs_density(cfg, spec, path_loss_form=form)
    return curve_to_csv(points, "n_bar")


CASES = list(itertools.product(("distance", "density"), PATH_LOSS_FORMS))


def test_golden_covers_every_mode_combination():
    assert len(CASES) == 4
    assert set(GOLDEN) == set(CASES)


def _case_id(case):
    # The ids name the one joint rule, the product of successes, and the
    # per-realization SIR put into the closed form ("substitution"), the
    # evaluation every hash pins, so each hash keeps its test id.
    kind, form = case
    return f"{kind}-success-product-substitution-{form}"


def _dispatch_targets():
    """numpy's current SIMD target of each float64 ufunc whose last bit
    depends on it in the sweeps."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy too old to report its dispatch
        return "unknown"
    info = opt_func_info(func_name="^(power|exp|log)$", signature="^float64")
    return ", ".join(
        f"{name} {target['current']}" for name, sigs in sorted(info.items()) for target in sigs.values()
    )


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_csv_hash(case):
    digest = hashlib.sha256(_csv(*case).encode("utf-8")).hexdigest()
    if digest == GOLDEN[case]:
        return
    targets = f"float64 dispatch targets: {_dispatch_targets()}"
    if np.__version__ != GOLDEN_NUMPY_VERSION:
        pytest.fail(
            f"CSV hash changed for {case} on numpy {np.__version__}; the hashes "
            f"were recorded on numpy {GOLDEN_NUMPY_VERSION}, and NEP 19 allows "
            f"Generator streams to change between numpy versions ({targets})"
        )
    pytest.fail(
        f"CSV hash changed for {case} on numpy {np.__version__}: {digest} != "
        f"{GOLDEN[case]}; the hashes were recorded with AVX-512 kernels (X86_V4), "
        f"and other SIMD families round differently in the last bit ({targets})"
    )
