"""Acceptance suite: every release criterion as one test, each printing a
pass line (run with -s to see them).  Tolerances are fixed here, not tuned."""

import math
import time

import numpy as np
import pytest
from scipy import stats

from lora_reliability.analytic import (
    outage_closed_form,
    outage_numeric_oracle,
    q_bound,
    q_function,
)
from lora_reliability.channel import ChannelModel, snr_success_probability
from lora_reliability.cli import main
from lora_reliability.montecarlo import (
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    success_vs_distance,
)
from lora_reliability.params import NetworkConfig, annulus_to_sf
from lora_reliability.reference import (
    received_power_mw,
    sample_device_count,
    sample_realization,
    sir_sample,
    snr_success_empirical,
    split_interference_power,
)

DESK_REALIZATIONS = 10_000


@pytest.fixture(scope="module")
def desk_distance_sweep():
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="distance",
        grid=default_distance_grid(cfg),
        realizations_per_point=DESK_REALIZATIONS,
        seed=42,
    )
    start = time.perf_counter()
    points = success_vs_distance(cfg, spec, threads=4)
    elapsed = time.perf_counter() - start
    return points, elapsed


def test_criterion_01_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.01, 0.1, 1.0, 2.0, 10.0, 100.0, 1e4):
        diff = abs(outage_numeric_oracle(gamma, rel_tol=1e-8) - outage_closed_form(gamma))
        worst = max(worst, diff)
        assert diff < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS — quadrature vs closed form, max diff {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_q_function_and_bound():
    assert abs(q_function(0.0) - 0.5) < 1e-12
    for k in range(1, 81):
        x = 0.1 * k
        assert q_bound(x) >= q_function(x)
    print("criterion 2: PASS — q(0) = 0.5 to 1e-12; bound dominates on {0.1,...,8}")


def test_criterion_03_snr_model_empirical_agreement():
    cfg = NetworkConfig()
    rng = np.random.default_rng(2025)
    n = 100_000
    start = time.perf_counter()
    for d in np.linspace(0.1, 12.0, 20):
        d = float(d)
        sf = annulus_to_sf(d, cfg.cell_radius_km)
        p = snr_success_probability(d, sf, cfg)
        p_hat = snr_success_empirical(d, sf, cfg, rng, n)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 3.0 * sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 3: PASS — empirical SNR success within 3 sigma at 20 distances, {elapsed:.2f}s")


def test_criterion_04_saw_tooth():
    cfg = NetworkConfig()
    r = cfg.cell_radius_km
    for k in range(1, 6):
        boundary = k * r / 6.0
        below = boundary * (1.0 - 1e-9)
        above = boundary * (1.0 + 1e-9)
        p_below = snr_success_probability(below, annulus_to_sf(below, r), cfg)
        p_above = snr_success_probability(above, annulus_to_sf(above, r), cfg)
        assert p_above > p_below
    print("criterion 4: PASS — success jumps upward across all 5 interior annulus boundaries")


def test_criterion_05_scenario_ordering(desk_distance_sweep):
    points, _ = desk_distance_sweep
    for pt in points:
        p = pt.probs
        assert p.p_snr_sf <= p.p_sf
        assert p.p_sf <= p.p_co
        assert p.p_co <= p.p_max_co
    print(f"criterion 5: PASS — exact ordering p_snr_sf <= p_sf <= p_co <= p_max_co on {len(points)} points")


def test_criterion_06_distance_trend(desk_distance_sweep):
    points, elapsed = desk_distance_sweep
    assert elapsed < 60.0
    near = min(points, key=lambda pt: abs(pt.abscissa - 0.5))
    far = min(points, key=lambda pt: abs(pt.abscissa - 11.0))
    for attr in ("p_snr", "p_max_co", "p_co", "p_sf", "p_snr_sf"):
        gap = getattr(near.probs, attr) - getattr(far.probs, attr)
        spread = 3.0 * (getattr(near.stderr, attr) + getattr(far.stderr, attr))
        assert gap > spread
    print(f"criterion 6: PASS — all five curves higher at 0.5 km than 11 km; sweep took {elapsed:.1f}s")


def test_criterion_07_density_trend():
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="density",
        grid=default_density_grid(),
        realizations_per_point=DESK_REALIZATIONS,
        seed=42,
    )
    start = time.perf_counter()
    points = coverage_vs_density(cfg, spec, threads=4)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    low, high = points[0], points[-1]
    assert low.abscissa == 1.0 and high.abscissa == 3000.0
    for attr in ("p_max_co", "p_co", "p_sf", "p_snr_sf"):
        gap = getattr(low.probs, attr) - getattr(high.probs, attr)
        spread = 3.0 * (getattr(low.stderr, attr) + getattr(high.stderr, attr))
        assert gap > spread
    snr_values = {pt.probs.p_snr for pt in points}
    assert len(snr_values) == 1
    print(f"criterion 7: PASS — SIR coverage drops from N=1 to N=3000, p_snr exactly constant, {elapsed:.1f}s")


def test_criterion_08_cli_determinism(capsys):
    args = ["sweep-distance", "--seed", "42"]
    assert main(args + ["--threads", "1"]) == 0
    single = capsys.readouterr().out
    assert main(args + ["--threads", "8"]) == 0
    pooled = capsys.readouterr().out
    assert single.encode() == pooled.encode()
    print("criterion 8: PASS — byte-identical CSV with 1 and 8 threads")


def test_criterion_09_statistical_sanity():
    rng = np.random.default_rng(1234)
    draws = np.array([sample_device_count(1500.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1500.0) <= 0.01 * 1500.0
    assert abs(draws.var(ddof=1) - 1500.0) <= 0.01 * 1500.0

    # Positions as the model draws them: the first 100 000 interferers of
    # successive realizations.
    cfg = NetworkConfig()
    rng = np.random.default_rng(42)
    d2 = []
    while len(d2) < 100_000:
        d2.extend(
            dev.position.distance_km**2
            for dev in sample_realization(cfg, 5.0, rng).interferers
        )
    r = cfg.cell_radius_km
    ks = stats.kstest(np.array(d2[:100_000]) / r**2, "uniform")
    assert ks.pvalue > 0.01

    # duty 1%, mean 1500 -> 15 active expected
    rng = np.random.default_rng(7)
    n = 1500
    active_mean = (
        sum(
            sum(dev.active for dev in sample_realization(cfg, 5.0, rng).interferers)
            for _ in range(n)
        )
        / n
    )
    assert abs(active_mean - 15.0) <= 0.05 * 15.0
    print(
        "criterion 9: PASS — Poisson mean/variance within 1%, KS p="
        f"{ks.pvalue:.3f}, thinned mean {active_mean:.2f} within 5% of 15"
    )


def test_criterion_10_interference_algebra():
    cfg = NetworkConfig()
    model = ChannelModel.from_config(cfg)
    rng = np.random.default_rng(99)
    dominance_checked = 0
    for _ in range(1000):
        d = float(max(cfg.min_distance_km, cfg.cell_radius_km * math.sqrt(rng.random())))
        realization = sample_realization(cfg, d, rng)
        same, other = split_interference_power(realization, model)
        total = math.fsum(
            received_power_mw(dev, model)
            for dev in realization.interferers
            if dev.active
        )
        if total > 0.0:
            assert abs((same + other) - total) <= 1e-9 * total
        sirs = sir_sample(realization, model)
        if math.isfinite(sirs.gamma_co):
            dominance_checked += 1
            assert 4.0 * sirs.gamma_co <= sirs.gamma_max_co
    assert dominance_checked > 100
    print(
        "criterion 10: PASS — power partition within 1e-9 relative on 1000 fields; "
        f"4*sir_co <= sir_max_co on {dominance_checked} non-empty co-SF sets"
    )
