import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize

from lora_reliability.channel import (
    ChannelModel,
    path_loss,
    path_loss_array,
    snr_success_probability,
)
from lora_reliability.params import NetworkConfig, OutOfCellError, annulus_to_sf
from lora_reliability.reference import sample_fading, snr_success_empirical


def _model(wavelength=0.34534, eta=2.7, noise=1e-12):
    return ChannelModel(wavelength_m=wavelength, path_loss_exponent=eta, noise_mw=noise)


def test_path_loss_is_one_at_base_distance():
    m = _model()
    d_km = m.wavelength_m / (4.0 * math.pi) / 1000.0
    assert path_loss(d_km, m) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_inverse_square():
    m = _model(eta=2.0)
    d_km = 10.0 * m.wavelength_m / (4.0 * math.pi) / 1000.0
    assert path_loss(d_km, m) == pytest.approx(0.01, rel=1e-12)


def test_path_loss_reference_value():
    # (0.34534 / (4 pi * 1000 m))^2.7, evaluated independently
    assert path_loss(1.0, _model()) == pytest.approx(4.846184628679374e-13, rel=1e-10)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, _model())
    with pytest.raises(ValueError):
        path_loss(-1.0, _model())


@given(
    st.floats(min_value=0.01, max_value=12.0),
    st.floats(min_value=0.01, max_value=12.0),
)
def test_path_loss_strictly_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    m = _model()
    if lo < hi:
        assert path_loss(lo, m) > path_loss(hi, m)


def test_path_loss_array_matches_scalar():
    # numpy's pow and libm's pow may differ in the last ulp
    m = _model()
    d = np.array([0.05, 0.5, 1.0, 6.0, 12.0])
    vec = path_loss_array(d, m)
    for i, dk in enumerate(d):
        assert vec[i] == pytest.approx(path_loss(float(dk), m), rel=1e-13)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        _model(wavelength=0.0)
    with pytest.raises(ValueError):
        _model(eta=0.0)
    with pytest.raises(ValueError):
        _model(noise=0.0)


def test_channel_model_from_config():
    m = ChannelModel.from_config(NetworkConfig())
    assert m.wavelength_m == pytest.approx(0.3453432300426218, rel=1e-12)
    assert m.noise_mw == pytest.approx(1.9811164905763876e-12, rel=1e-10)


def test_fading_mean_and_support():
    rng = np.random.default_rng(2)
    draws = np.array([sample_fading(rng) for _ in range(20_000)])
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_fading_statistics_bulk():
    rng = np.random.default_rng(3)
    draws = rng.exponential(size=1_000_000)  # same law sample_fading draws from
    assert draws.mean() == pytest.approx(1.0, abs=0.01)
    # exponential median is ln 2
    assert np.mean(draws > math.log(2.0)) == pytest.approx(0.5, abs=0.005)


def test_snr_success_reference_value():
    cfg = NetworkConfig()
    # frozen from an independent evaluation of exp(-N*theta/(P*gain))
    assert snr_success_probability(1.0, 7, cfg) == pytest.approx(0.9871561553907778, rel=1e-9)


def test_snr_success_unit_exponent():
    cfg = NetworkConfig()

    def exponent(d):
        # independent reconstruction of the exponent via its definition
        theta = 10 ** (-0.6)
        noise = 10 ** (-117.03089986991944 / 10.0)
        p = 10 ** 1.9
        lam = 0.3453432300426218
        gain = (lam / (4.0 * math.pi * 1000.0 * d)) ** 2.7
        return noise * theta / (p * gain)

    d_star = optimize.brentq(lambda d: exponent(d) - 1.0, 0.1, 12.0)
    assert snr_success_probability(d_star, 7, cfg) == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_snr_success_validates_inputs():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        snr_success_probability(0.0, 7, cfg)
    with pytest.raises(ValueError):
        snr_success_probability(13.0, 7, cfg)
    with pytest.raises(ValueError):
        snr_success_probability(1.0, 6, cfg)
    for sf in (7.0, True):
        with pytest.raises(ValueError, match="sf must be an integer"):
            snr_success_probability(1.0, sf, cfg)


def test_noise_only_success_rejects_distance_inside_the_clamp():
    """The closed form and its empirical estimate take the sweeps' cell,
    [min_distance_km, R]: 0.5 m lies inside the 1 m clamp, which no sweep
    draws."""
    cfg = NetworkConfig()
    with pytest.raises(OutOfCellError, match=r"distance 0.0005 km outside \[0.001, 12.0\] km"):
        snr_success_probability(0.0005, 7, cfg)
    with pytest.raises(OutOfCellError, match=r"outside \[0.001, 12.0\] km"):
        snr_success_empirical(0.0005, 7, cfg, np.random.default_rng(0), 10)


def test_snr_success_monotone_within_annulus():
    cfg = NetworkConfig()
    grid = np.linspace(2.05, 3.95, 25)  # inside the SF8 annulus
    values = [snr_success_probability(float(d), 8, cfg) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_saw_tooth_at_annulus_boundaries():
    cfg = NetworkConfig()
    r = cfg.cell_radius_km
    for k in range(1, 6):
        boundary = k * r / 6.0
        below = boundary * (1.0 - 1e-9)
        above = boundary * (1.0 + 1e-9)
        p_below = snr_success_probability(below, annulus_to_sf(below, r), cfg)
        p_above = snr_success_probability(above, annulus_to_sf(above, r), cfg)
        assert p_above > p_below


def test_empirical_matches_closed_form():
    cfg = NetworkConfig()
    rng = np.random.default_rng(17)
    n = 100_000
    for d in (0.5, 3.0, 6.5, 11.5):
        sf = annulus_to_sf(d, cfg.cell_radius_km)
        p = snr_success_probability(d, sf, cfg)
        p_hat = snr_success_empirical(d, sf, cfg, rng, n)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) <= 3.0 * sigma


def test_empirical_at_e_inverse_point():
    cfg = NetworkConfig()
    theta = 10 ** (-0.6)
    noise = 10 ** (-117.03089986991944 / 10.0)
    p = 10 ** 1.9
    lam = 0.3453432300426218

    def exponent(d):
        return noise * theta / (p * (lam / (4.0 * math.pi * 1000.0 * d)) ** 2.7)

    d_star = optimize.brentq(lambda d: exponent(d) - 1.0, 0.1, 12.0)
    rng = np.random.default_rng(23)
    p_hat = snr_success_empirical(d_star, 7, cfg, rng, 100_000)
    assert p_hat == pytest.approx(math.exp(-1.0), abs=0.005)


def test_empirical_validates_n():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        snr_success_empirical(1.0, 7, cfg, np.random.default_rng(0), 0)
    for n in (True, 2.5):
        with pytest.raises(ValueError, match="n must be an integer"):
            snr_success_empirical(1.0, 7, cfg, np.random.default_rng(0), n)
