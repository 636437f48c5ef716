import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lora_reliability.params import (
    ConfigError,
    NetworkConfig,
    annulus_to_sf,
    db_to_linear,
    dbm_to_mw,
    noise_floor_dbm,
    parse_config_text,
    sf_params,
    sf_table,
    wavelength_m,
)


def test_sf_table_has_six_rows_in_order():
    rows = sf_table()
    assert len(rows) == 6
    assert [r.sf for r in rows] == [7, 8, 9, 10, 11, 12]


def test_sf_table_first_row():
    row = sf_table()[0]
    assert row.sf == 7
    assert row.snr_threshold_db == -6.0


def test_sf_table_last_row():
    row = sf_table()[5]
    assert row.sf == 12
    assert row.snr_threshold_db == -20.0


def test_sf_table_monotonicity_invariants():
    rows = sf_table()
    for a, b in zip(rows, rows[1:]):
        assert a.snr_threshold_db > b.snr_threshold_db


def test_annuli_tile_unit_interval():
    # Ring k starts at k*R/6 and serves SF 7+k; the cell edge R is in SF 12.
    r = 12.0
    for k in range(6):
        assert annulus_to_sf(k * r / 6, r) == sf_table()[k].sf == 7 + k
    assert annulus_to_sf(r, r) == 12


def test_sf_params_lookup():
    assert sf_params(9).snr_threshold_db == -12.0
    with pytest.raises(ValueError):
        sf_params(6)
    with pytest.raises(ValueError):
        sf_params(13)


def test_dbm_to_mw_values():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(19.0) == pytest.approx(79.43282347242814, rel=1e-12)
    # independent evaluation of 10^(x/10); the exact digits matter here
    assert dbm_to_mw(-117.0309) == pytest.approx(1.981116431237683e-12, rel=1e-12)


def test_db_to_linear_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(-6.0) == pytest.approx(0.251188643150958, rel=1e-12)


def test_noise_floor_default():
    assert noise_floor_dbm(NetworkConfig()) == pytest.approx(-117.03089986991944, abs=1e-9)


def test_noise_floor_unit_bandwidth():
    cfg = NetworkConfig(bandwidth_hz=1.0, noise_figure_db=0.0)
    assert noise_floor_dbm(cfg) == pytest.approx(-174.0, abs=1e-12)


def test_noise_floor_ten_hz():
    cfg = NetworkConfig(bandwidth_hz=10.0)
    assert noise_floor_dbm(cfg) == pytest.approx(-158.0, abs=1e-12)


@given(st.floats(min_value=-20, max_value=20))
def test_noise_floor_additive_in_noise_figure(delta):
    base = noise_floor_dbm(NetworkConfig())
    shifted = noise_floor_dbm(NetworkConfig(noise_figure_db=6.0 + delta))
    assert shifted - base == pytest.approx(delta, abs=1e-9)


def test_wavelength_values():
    assert wavelength_m(NetworkConfig()) == pytest.approx(0.3453432300426218, rel=1e-12)
    assert wavelength_m(NetworkConfig(carrier_hz=299792458.0)) == 1.0
    assert wavelength_m(NetworkConfig(carrier_hz=2.99792458e9)) == pytest.approx(0.1, rel=1e-15)


def test_defaults_match_reference_table():
    cfg = NetworkConfig()
    assert cfg.bandwidth_hz == 125_000.0
    assert cfg.carrier_hz == 868.1e6
    assert cfg.noise_density_dbm_hz == -174.0
    assert cfg.noise_figure_db == 6.0
    assert cfg.path_loss_exponent == 2.7
    assert cfg.tx_power_dbm == 19.0
    assert cfg.duty_cycle == 0.01
    assert cfg.mean_devices == 1500.0
    assert cfg.cell_radius_km == 12.0
    assert cfg.min_distance_km == 0.001
    assert cfg.seed == 1
    # The run size belongs to the run (SweepSpec), not to the deployment.
    assert "realizations" not in {f.name for f in fields(NetworkConfig)}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_hz": 0.0},
        {"bandwidth_hz": -1.0},
        {"carrier_hz": 0.0},
        {"path_loss_exponent": 2.0},
        {"duty_cycle": 0.0},
        {"duty_cycle": 1.5},
        {"mean_devices": -1.0},
        {"mean_devices": 1e21},  # a batch's int64 interferer count would wrap
        {"cell_radius_km": 0.0},
        {"min_distance_km": 0.0},
        {"min_distance_km": 12.0},
        {"seed": -1},
        # Link budgets that would divide by zero in the noise-only success.
        {"tx_power_dbm": -4000.0},  # the transmit power underflows to 0
        {"tx_power_dbm": 4000.0},  # ... or overflows
        {"noise_density_dbm_hz": 4000.0},  # the noise floor overflows
        {"noise_figure_db": 4000.0},
        {"carrier_hz": 1e300},  # the cell-edge received power underflows to 0
        {"path_loss_exponent": 60.0},
        {"cell_radius_km": 1e300},
    ]
    + [{f.name: v} for f in fields(NetworkConfig) for v in (math.nan, math.inf)],
)
def test_invalid_config_rejected(kwargs):
    (key,) = kwargs
    with pytest.raises(ConfigError, match=key):
        NetworkConfig(**kwargs)


def test_mean_devices_bounded_by_int64_headroom():
    """The sweeps add a batch of 2**12 realizations' interferer counts in
    int64, so duty_cycle * mean_devices may be at most 2**50."""
    NetworkConfig(duty_cycle=1.0, mean_devices=2.0**50)
    with pytest.raises(ConfigError, match="mean_devices must be at most 2\\*\\*50"):
        NetworkConfig(duty_cycle=1.0, mean_devices=math.nextafter(2.0**50, math.inf))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
        ({"mean_devices": np.float32("nan")}, "mean_devices must be finite"),
        ({"cell_radius_km": np.float32("-inf")}, "cell_radius_km must be finite"),
        # Python ints beyond the doubles, which math.isfinite cannot convert.
        ({"mean_devices": 10**400}, "mean_devices must be finite"),
        ({"tx_power_dbm": -(10**400)}, "tx_power_dbm must be finite"),
    ],
)
def test_config_rejects_non_integer_seed_and_numpy_non_finite(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**kwargs)


@pytest.mark.parametrize("value", ["1500", None, 0.01 + 0j], ids=["str", "none", "complex"])
def test_config_rejects_non_real_field_naming_it(value):
    with pytest.raises(ConfigError, match="mean_devices must be a real number, got "):
        NetworkConfig(mean_devices=value)


def test_config_accepts_numpy_integer_seed():
    assert NetworkConfig(seed=np.int64(5)).seed == 5


@pytest.mark.parametrize("kwargs", [{"path_loss_exponent": 56.0}, {"tx_power_dbm": -3000.0}])
def test_link_budget_of_subnormal_edge_power_accepted(kwargs):
    """The cell-edge received power is subnormal here, but positive."""
    NetworkConfig(**kwargs)


def test_parse_config_text_empty_gives_defaults():
    assert parse_config_text("") == {}
    assert NetworkConfig(**parse_config_text("")) == NetworkConfig()


def test_parse_config_text_overrides_and_comments():
    text = """
    # reference deployment, tweaked
    cell_radius_km = 6
    mean_devices = 250.5
    seed = 99   # trailing comment
    """
    values = parse_config_text(text)
    assert values == {
        "cell_radius_km": 6.0,
        "mean_devices": 250.5,
        "seed": 99,
    }
    cfg = NetworkConfig(**values)
    assert cfg.cell_radius_km == 6.0
    assert cfg.duty_cycle == 0.01  # untouched default
    assert isinstance(cfg.seed, int)


def test_parse_config_text_unknown_key_names_offender():
    with pytest.raises(ConfigError, match="radius_km"):
        parse_config_text("radius_km = 12")
    # The six SF annuli are fixed by the model, not configurable.
    with pytest.raises(ConfigError, match="unknown config key 'annuli'"):
        parse_config_text("annuli = 6")


def test_parse_config_text_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")


def test_parse_config_text_bad_value():
    with pytest.raises(ConfigError, match="tx_power_dbm"):
        parse_config_text("tx_power_dbm = loud")
    # seed is the one integer key: a non-integer value fails the integer
    # check, not the unknown-key one.
    with pytest.raises(ConfigError, match="'seed' needs an integer, got '1.5'"):
        parse_config_text("seed = 1.5")


def test_parse_config_text_integers_are_exact():
    # Both lie beyond 2**53, where a float would round them.
    assert parse_config_text("seed = 9007199254740993") == {"seed": 9007199254740993}
    assert parse_config_text("seed = 12345678901234567891") == {"seed": 12345678901234567891}
    # An integer key takes integer literals alone, as --seed does: no float
    # form is read, integral or not.
    floats = ("9007199254740991.0", "9007199254740992.0", "9007199254740993.0", "1e16")
    for raw in ("1.5", "1e5", "inf", *floats):
        with pytest.raises(ConfigError, match="'seed' needs an integer"):
            parse_config_text(f"seed = {raw}")


def test_parse_config_text_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("seed 3")


def test_noise_floor_scales_with_log_bandwidth():
    # doubling the bandwidth adds 10*log10(2) dB
    a = noise_floor_dbm(NetworkConfig(bandwidth_hz=125_000.0))
    b = noise_floor_dbm(NetworkConfig(bandwidth_hz=250_000.0))
    assert b - a == pytest.approx(10 * math.log10(2), abs=1e-12)
