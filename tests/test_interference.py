import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lora_reliability.channel import ChannelModel, path_loss
from lora_reliability.params import CO_CHANNEL_REJECTION, NetworkConfig, annulus_to_sf
from lora_reliability.reference import (
    EndDevice,
    Position,
    Realization,
    received_power_mw,
    sample_realization,
    sir_sample,
    split_interference_power,
)

MODEL = ChannelModel(wavelength_m=0.345, path_loss_exponent=2.7, noise_mw=1e-12)
R = 12.0


def _device(d_km, fading, tx=1.0, active=True):
    return EndDevice(
        position=Position(d_km, 0.0),
        sf=annulus_to_sf(d_km, R),
        tx_power_mw=tx,
        fading=fading,
        active=active,
    )


def _realization(desired, interferers):
    return Realization(desired=desired, interferers=list(interferers))


def test_received_power_zero_fading():
    assert received_power_mw(_device(1.0, 0.0), MODEL) == 0.0


def test_received_power_unit_gain():
    d_km = MODEL.wavelength_m / (4.0 * math.pi) / 1000.0
    dev = EndDevice(Position(d_km, 0.0), 7, 1.0, 1.0, True)
    assert received_power_mw(dev, MODEL) == pytest.approx(1.0, rel=1e-12)


def test_received_power_linear_in_tx_power():
    a = received_power_mw(_device(2.5, 0.7, tx=1.0), MODEL)
    b = received_power_mw(_device(2.5, 0.7, tx=10.0), MODEL)
    assert b == pytest.approx(10.0 * a, rel=1e-12)


def test_sir_max_no_same_sf_interferer():
    desired = _device(1.0, 1.0)
    r = _realization(desired, [_device(5.0, 1.0)])  # different annulus -> different SF
    assert sir_sample(r, MODEL).gamma_max_co == math.inf


def test_sir_max_single_equal_interferer():
    desired = _device(1.0, 0.8)
    twin = _device(1.0, 0.8)  # identical received power
    assert sir_sample(_realization(desired, [twin]), MODEL).gamma_max_co == 4.0


def test_sir_max_picks_strongest():
    desired = _device(1.0, 0.8)
    weak = _device(1.0, 0.8)
    strong = _device(1.0, 1.6)  # exactly twice the power
    r = _realization(desired, [weak, strong])
    assert sir_sample(r, MODEL).gamma_max_co == 2.0


def test_sir_max_ignores_inactive():
    desired = _device(1.0, 0.8)
    dormant = _device(1.0, 10.0, active=False)
    assert sir_sample(_realization(desired, [dormant]), MODEL).gamma_max_co == math.inf


def test_sir_co_single_interferer():
    desired = _device(1.0, 0.8)
    twin = _device(1.0, 0.8)
    assert sir_sample(_realization(desired, [twin]), MODEL).gamma_co == 1.0


def test_sir_co_sums_powers():
    desired = _device(1.0, 0.8)
    r = _realization(desired, [_device(1.0, 0.8), _device(1.0, 1.6)])
    assert sir_sample(r, MODEL).gamma_co == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_sir_co_empty_set():
    desired = _device(1.0, 0.8)
    assert sir_sample(_realization(desired, []), MODEL).gamma_co == math.inf


def test_sir_inter_all_same_sf():
    desired = _device(1.0, 0.8)
    r = _realization(desired, [_device(1.0, 1.0), _device(1.5, 2.0)])
    assert sir_sample(r, MODEL).gamma_inter == math.inf


def test_sir_inter_half_power_interferer():
    desired = _device(1.0, 0.8)
    other = _device(1.0, 0.4)  # same distance, half the fading -> half the power
    other = EndDevice(other.position, 9, other.tx_power_mw, other.fading, True)
    assert sir_sample(_realization(desired, [other]), MODEL).gamma_inter == 2.0


def test_sir_inter_matches_brute_force_sum():
    rng = np.random.default_rng(5)
    desired = _device(1.0, 1.3)
    interferers = [
        _device(float(d), float(f))
        for d, f in zip(rng.uniform(0.1, 12.0, 40), rng.exponential(size=40))
    ]
    r = _realization(desired, interferers)
    s = received_power_mw(desired, MODEL)
    brute = math.fsum(
        received_power_mw(dev, MODEL)
        for dev in interferers
        if dev.active and dev.sf != desired.sf
    )
    assert sir_sample(r, MODEL).gamma_inter == pytest.approx(s / brute, rel=1e-12)


def test_split_interference_partition():
    rng = np.random.default_rng(9)
    cfg = NetworkConfig(mean_devices=400.0, duty_cycle=0.2)
    model = ChannelModel.from_config(cfg)
    for _ in range(50):
        d = float(max(cfg.min_distance_km, 12.0 * math.sqrt(rng.random())))
        r = sample_realization(cfg, d, rng)
        same, other = split_interference_power(r, model)
        total = math.fsum(
            received_power_mw(dev, model) for dev in r.interferers if dev.active
        )
        if total > 0.0:
            assert abs((same + other) - total) <= 1e-9 * total
        else:
            assert same == other == 0.0


def test_dominance_over_sampled_realizations():
    rng = np.random.default_rng(13)
    cfg = NetworkConfig(mean_devices=600.0, duty_cycle=0.1)
    model = ChannelModel.from_config(cfg)
    seen_finite = 0
    for _ in range(100):
        d = float(max(cfg.min_distance_km, 12.0 * math.sqrt(rng.random())))
        s = sir_sample(sample_realization(cfg, d, rng), model)
        if math.isfinite(s.gamma_co):
            seen_finite += 1
            assert CO_CHANNEL_REJECTION * s.gamma_co <= s.gamma_max_co
    assert seen_finite > 20


def test_sir_sample_consistent_with_individual_ops():
    rng = np.random.default_rng(21)
    cfg = NetworkConfig(mean_devices=300.0, duty_cycle=0.1)
    model = ChannelModel.from_config(cfg)
    for _ in range(20):
        r = sample_realization(cfg, 4.0, rng)
        s = sir_sample(r, model)
        desired = received_power_mw(r.desired, model)
        same, other = split_interference_power(r, model)
        strongest = max(
            (
                received_power_mw(dev, model)
                for dev in r.interferers
                if dev.active and dev.sf == r.desired.sf
            ),
            default=0.0,
        )
        assert s.gamma_max_co == (
            CO_CHANNEL_REJECTION * desired / strongest if strongest > 0.0 else math.inf
        )
        assert s.gamma_co == (desired / same if same > 0.0 else math.inf)
        assert s.gamma_inter == (desired / other if other > 0.0 else math.inf)


@st.composite
def _synthetic_realizations(draw):
    desired = _device(
        draw(st.floats(min_value=0.05, max_value=12.0)),
        draw(st.floats(min_value=1e-6, max_value=10.0)),
    )
    n = draw(st.integers(min_value=0, max_value=6))
    interferers = [
        _device(
            draw(st.floats(min_value=0.05, max_value=12.0)),
            draw(st.floats(min_value=1e-6, max_value=10.0)),
            active=draw(st.booleans()),
        )
        for _ in range(n)
    ]
    return _realization(desired, interferers)


@given(_synthetic_realizations(), st.integers(min_value=-20, max_value=20))
def test_scale_invariance_exact_for_power_of_two(r, k):
    factor = 2.0 ** k
    scaled = _realization(
        EndDevice(
            r.desired.position,
            r.desired.sf,
            r.desired.tx_power_mw * factor,
            r.desired.fading,
            r.desired.active,
        ),
        [
            EndDevice(d.position, d.sf, d.tx_power_mw * factor, d.fading, d.active)
            for d in r.interferers
        ],
    )
    assert sir_sample(scaled, MODEL) == sir_sample(r, MODEL)


@given(_synthetic_realizations(), st.floats(min_value=0.1, max_value=10.0))
def test_scale_invariance_approximate_for_any_factor(r, factor):
    scaled = _realization(
        EndDevice(
            r.desired.position,
            r.desired.sf,
            r.desired.tx_power_mw * factor,
            r.desired.fading,
            r.desired.active,
        ),
        [
            EndDevice(d.position, d.sf, d.tx_power_mw * factor, d.fading, d.active)
            for d in r.interferers
        ],
    )
    base, other = sir_sample(r, MODEL), sir_sample(scaled, MODEL)
    for field in ("gamma_max_co", "gamma_co", "gamma_inter"):
        a, b = getattr(base, field), getattr(other, field)
        if math.isinf(a):
            assert math.isinf(b)
        else:
            assert b == pytest.approx(a, rel=1e-9)


@given(_synthetic_realizations())
def test_sir_sample_dominance_invariant(r):
    s = sir_sample(r, MODEL)
    if math.isfinite(s.gamma_co):
        assert CO_CHANNEL_REJECTION * s.gamma_co <= s.gamma_max_co
    else:
        assert s.gamma_max_co == math.inf
