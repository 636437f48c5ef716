import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from lora_reliability.params import ConfigError, NetworkConfig, OutOfCellError, annulus_to_sf
from lora_reliability.reference import sample_device_count, sample_realization


def _interferer_squared_distances(seed, n=100_000):
    """Squared distances of the first ``n`` interferers that
    ``sample_realization`` places, pooled over successive default-config
    realizations from one seeded generator."""
    cfg = NetworkConfig()
    rng = np.random.default_rng(seed)
    d2 = []
    while len(d2) < n:
        d2.extend(
            dev.position.distance_km**2
            for dev in sample_realization(cfg, 5.0, rng).interferers
        )
    return np.array(d2[:n])


def test_poisson_mean_zero_is_degenerate():
    rng = np.random.default_rng(0)
    assert all(sample_device_count(0.0, rng) == 0 for _ in range(50))


def test_poisson_negative_mean_rejected():
    with pytest.raises(ConfigError):
        sample_device_count(-1.0, np.random.default_rng(0))


def test_poisson_mean_and_variance_at_1500():
    rng = np.random.default_rng(1234)
    draws = np.array([sample_device_count(1500.0, rng) for _ in range(100_000)])
    # mean within 3 sigma of the sample mean's own spread
    assert abs(draws.mean() - 1500.0) < 3.0 * math.sqrt(1500.0 / draws.size)
    # Poisson: variance equals the mean
    assert draws.var(ddof=1) == pytest.approx(1500.0, rel=0.05)


def test_uniform_position_area_ratio():
    d2 = _interferer_squared_distances(7)
    # P(d <= R/2) = (1/2)^2 for uniform-by-area placement
    assert (d2 <= 6.0**2).mean() == pytest.approx(0.25, abs=0.005)


def test_uniform_position_squared_distance_is_uniform():
    r = NetworkConfig().cell_radius_km
    result = stats.kstest(_interferer_squared_distances(42) / r**2, "uniform")
    assert result.pvalue > 0.01


def test_annulus_examples():
    assert annulus_to_sf(3.0, 12.0) == 8
    assert annulus_to_sf(0.0, 12.0) == 7
    assert annulus_to_sf(12.0, 12.0) == 12


def test_annulus_boundaries_are_half_open():
    assert annulus_to_sf(2.0, 12.0) == 8  # boundary belongs to the outer ring
    assert annulus_to_sf(math.nextafter(2.0, 0.0), 12.0) == 7
    assert annulus_to_sf(10.0, 12.0) == 12
    assert annulus_to_sf(math.nextafter(10.0, 0.0), 12.0) == 11


def test_annulus_ring_starts_exact_for_every_radius():
    # Truncating 6*d/R misplaces a ring start on 58 of these radii, the
    # first at R = 0.7 km.
    for tenths in range(1, 301):
        r = tenths / 10
        assert annulus_to_sf(0.0, r) == 7
        assert annulus_to_sf(r, r) == 12
        for k in range(1, 6):
            start = k * r / 6
            assert annulus_to_sf(start, r) == 7 + k, (r, k)
            assert annulus_to_sf(math.nextafter(start, 0.0), r) == 6 + k, (r, k)


def test_annulus_out_of_cell():
    with pytest.raises(OutOfCellError):
        annulus_to_sf(-0.1, 12.0)
    with pytest.raises(OutOfCellError):
        annulus_to_sf(12.1, 12.0)


@given(st.floats(min_value=0.0, max_value=12.0), st.floats(min_value=0.0, max_value=12.0))
def test_annulus_assignment_is_total_and_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    sf_lo = annulus_to_sf(lo, 12.0)
    sf_hi = annulus_to_sf(hi, 12.0)
    assert 7 <= sf_lo <= 12
    assert sf_lo <= sf_hi


def test_realization_no_devices():
    cfg = NetworkConfig(mean_devices=0.0)
    r = sample_realization(cfg, 5.0, np.random.default_rng(0))
    assert r.interferers == []
    assert r.desired.position.distance_km == 5.0


def test_realization_desired_device():
    cfg = NetworkConfig()
    r = sample_realization(cfg, 7.3, np.random.default_rng(3))
    assert r.desired.active
    assert r.desired.sf == annulus_to_sf(7.3, cfg.cell_radius_km)
    assert r.desired.fading >= 0.0
    assert r.desired.tx_power_mw == pytest.approx(10 ** 1.9, rel=1e-12)


def test_realization_rejects_out_of_cell_desired():
    cfg = NetworkConfig()
    with pytest.raises(OutOfCellError):
        sample_realization(cfg, 12.5, np.random.default_rng(0))
    with pytest.raises(OutOfCellError):
        sample_realization(cfg, 0.0, np.random.default_rng(0))


def test_realization_full_duty_cycle_all_active():
    cfg = NetworkConfig(mean_devices=50.0, duty_cycle=1.0)
    r = sample_realization(cfg, 5.0, np.random.default_rng(5))
    assert r.interferers
    assert all(dev.active for dev in r.interferers)


def test_realization_interferer_sf_matches_position():
    cfg = NetworkConfig(mean_devices=200.0)
    r = sample_realization(cfg, 5.0, np.random.default_rng(8))
    for dev in r.interferers:
        assert dev.sf == annulus_to_sf(dev.position.distance_km, cfg.cell_radius_km)
        assert cfg.min_distance_km <= dev.position.distance_km <= cfg.cell_radius_km
        assert 0.0 <= dev.position.angle_rad < 2.0 * math.pi


def test_realization_thinning_mean():
    cfg = NetworkConfig()  # mean 1500, duty cycle 1% -> 15 active on average
    rng = np.random.default_rng(11)
    n = 2000
    active = [
        sum(dev.active for dev in sample_realization(cfg, 5.0, rng).interferers)
        for _ in range(n)
    ]
    mean = sum(active) / n
    assert abs(mean - 15.0) < 1.0
    # thinned count stays Poisson: variance tracks the mean
    var = np.var(active, ddof=1)
    assert var == pytest.approx(15.0, rel=0.15)
