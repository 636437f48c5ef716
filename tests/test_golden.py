"""Golden output hashes: the sha256 of small fixed-seed sweep CSVs.

The CSV bytes are part of the reproducibility contract.  Any change to the
random streams, the batch layout or the arithmetic of the evaluator shows up
here.  The bytes also depend on the SIMD family numpy dispatches the float64
``power``, ``exp`` and ``log`` ufuncs to at run time (AVX-512 and AVX2
kernels round differently in the last bit), so the density hash is keyed
by the SIMD family, read from numpy at test time, and a mismatch names the
dispatch targets next to the numpy version.  The hashes may be updated only
for an intentional change of the random streams, an intentional change of
the kernel's arithmetic on the same draws, or a numpy upgrade, with the
reason, and for an arithmetic change the largest absolute change of any CSV
value, recorded in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

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

# kind -> sha256 of the CSV text.  The density CSV also depends on the SIMD
# family, so its hash is keyed by whether any float64 power, exp or log runs
# an AVX-512 kernel; the AVX2 (X86_V3) and baseline (X86_V2) kernels give
# the same bytes.  The distance CSV is the same in all three families.
GOLDEN = {
    "distance": "5eff646259b2326b45852d068db8acdb67ab3272830fc5d701a024ea685c4dc0",
    "density": {
        True: "83307d2997d5da8637b29bed8a1a43fcbf39685addc7421d291b3d2400bf02a9",
        False: "93199bc0aefa9683e9ba5545946393f2d7a15b0260bf10f092487704f5b4adc8",
    },
}


def _grid(kind, cfg):
    if kind == "distance":
        return default_distance_grid(cfg, 24)
    return (0.0,) + default_density_grid(3000.0, 12)


def _csv(kind):
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind=kind,
        grid=_grid(kind, cfg),
        realizations_per_point=REALIZATIONS,
        seed=SEED,
    )
    if kind == "distance":
        return curve_to_csv(success_vs_distance(cfg, spec), "d_km")
    return curve_to_csv(coverage_vs_density(cfg, spec), "n_bar")


CASES = ["distance", "density"]


def test_golden_covers_every_mode_combination():
    assert list(GOLDEN) == CASES
    assert set(GOLDEN["density"]) == {True, False}


def _case_id(kind):
    # The ids name the one joint rule, the product of successes, the
    # per-realization SIR put into the closed form ("substitution") and the
    # standard free-space gain, the evaluation every hash pins, so each hash
    # keeps its test id.
    return f"{kind}-success-product-substitution-standard"


def _dispatch_targets():
    """numpy's current SIMD target of each float64 ufunc whose last bit
    depends on it in the sweeps, by name."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy too old to report its dispatch
        return {}

    info = opt_func_info(func_name="^(power|exp|log)$", signature="^float64")
    return {name: target["current"] for name, sigs in info.items() for target in sigs.values()}


def _expected(kind, targets):
    if kind == "distance":
        return GOLDEN[kind]
    avx512 = any(t.startswith(("X86_V4", "AVX512")) for t in targets.values())
    return GOLDEN[kind][avx512]


@pytest.mark.parametrize("kind", CASES, ids=_case_id)
def test_golden_csv_hash(kind):
    digest = hashlib.sha256(_csv(kind).encode("utf-8")).hexdigest()
    targets = _dispatch_targets()
    expected = _expected(kind, targets)
    if digest == expected:
        return
    dispatch = ", ".join(f"{name} {t}" for name, t in sorted(targets.items())) or "unknown"
    if np.__version__ != GOLDEN_NUMPY_VERSION:
        pytest.fail(
            f"CSV hash changed for {kind} on numpy {np.__version__}; the hashes "
            f"were recorded on numpy {GOLDEN_NUMPY_VERSION}, and NEP 19 allows "
            f"Generator streams to change between numpy versions "
            f"(float64 dispatch targets: {dispatch})"
        )
    pytest.fail(
        f"CSV hash changed for {kind} on numpy {np.__version__}: {digest} != "
        f"{expected} (float64 dispatch targets: {dispatch})"
    )
