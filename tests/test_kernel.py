"""The interference kernel ``montecarlo._field_powers``, with the point step's
divisions ``montecarlo._sirs``, against the physical-unit arithmetic it
replaced, and its ring rule at the ring starts; and the point step's success
transform ``montecarlo._successes`` against the SIR path it replaced.

The kernel works in normalized units: an interferer at area fraction
``v = max(u, (d_min/R)**2)`` contributes ``v**(-eta/2) * fading``.  The
reference below computes every received power in milliwatts, as
``tx * fading * path_loss_array(max(d_min, R*sqrt(u)))`` with the ring index
``int(6*d/R)``, from the same generator and with ``u`` drawn on the same
interval: the whole cell or one annulus's sub-field.  The SIRs are ratios of
such powers, so the two must agree to rounding; the relative tolerance 1e-12
was fixed before the first comparison.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lora_reliability import montecarlo
from lora_reliability.analytic import success_from_sir_array
from lora_reliability.channel import PATH_LOSS_FORMS, ChannelModel, path_loss, path_loss_array
from lora_reliability.geometry import annulus_to_sf
from lora_reliability.params import CO_CHANNEL_REJECTION, SF_MIN, NetworkConfig, dbm_to_mw

RTOL = 1e-12

# The squared ring starts (k/6)^2, k = 0..5: a draw there lies on the inner
# edge of ring k.
RING_START_U = np.array([(k / 6) ** 2 for k in range(6)])
RADII_KM = [tenths / 10 for tenths in range(1, 301)]


def _reference_field_sirs(rng, s_desired_mw, annulus_desired, n_bar, cfg, model, interval):
    """One batch of scenario SIRs in milliwatts, all draws at once, with
    the interferers uniform by area on ``interval`` of the area fraction."""
    batch = s_desired_mw.shape[0]
    lo, hi = interval
    counts = rng.poisson(cfg.duty_cycle * n_bar * (hi - lo), size=batch)
    total = int(counts.sum())
    u = lo + (hi - lo) * rng.random(total)
    fading = rng.exponential(size=total)
    dist = np.maximum(cfg.min_distance_km, cfg.cell_radius_km * np.sqrt(u))
    ring = np.minimum((6.0 * dist / cfg.cell_radius_km).astype(np.int64), 5)
    power = dbm_to_mw(cfg.tx_power_dbm) * fading * path_loss_array(dist, model)
    owner = np.repeat(np.arange(batch), counts)
    same = ring == np.broadcast_to(annulus_desired, (batch,))[owner]
    co_power = np.bincount(owner[same], weights=power[same], minlength=batch)
    inter_power = np.bincount(owner[~same], weights=power[~same], minlength=batch)
    strongest = np.zeros(batch)
    np.maximum.at(strongest, owner[same], power[same])
    with np.errstate(divide="ignore"):
        return (
            CO_CHANNEL_REJECTION * s_desired_mw / strongest,
            s_desired_mw / co_power,
            s_desired_mw / inter_power,
        )


def _desired(kind, cfg, model, rng, batch):
    """Desired signal and annulus for the kernel (normalized) and for the
    reference (milliwatts), with a shared fading draw."""
    fading = rng.exponential(size=batch)
    tx_mw = dbm_to_mw(cfg.tx_power_dbm)
    if kind == "pinned":
        d_km = 4.3
        norm = (d_km / cfg.cell_radius_km) ** -cfg.path_loss_exponent
        annulus = annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN
        return norm * fading, tx_mw * path_loss(d_km, model) * fading, annulus, annulus
    u = rng.random(batch)
    norm, annulus, _ = montecarlo._by_area(u, cfg, model)
    dist = np.maximum(cfg.min_distance_km, cfg.cell_radius_km * np.sqrt(u))
    ring = np.minimum((6.0 * dist / cfg.cell_radius_km).astype(np.int64), 5)
    return norm * fading, tx_mw * path_loss_array(dist, model) * fading, annulus, ring


@pytest.mark.parametrize("form", PATH_LOSS_FORMS)
@pytest.mark.parametrize("kind", ["pinned", "per-realization"])
@pytest.mark.parametrize(
    "n_bar, chunk",
    [(1500.0, None), (1500.0, 97), (30.0, None), (30.0, 1)],
    ids=["busy", "busy-multi-chunk", "mostly-empty", "mostly-empty-chunk-1"],
)
def test_kernel_matches_physical_unit_reference(monkeypatch, form, kind, n_bar, chunk):
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    cfg = NetworkConfig()
    model = ChannelModel.from_config(cfg, form)
    s_norm, s_mw, annulus, ring = _desired(kind, cfg, model, np.random.default_rng(3), 4096)
    np.testing.assert_array_equal(annulus, ring)

    # The whole cell with one desired annulus per realization, split by the
    # ring test; then each annulus's sub-field, all co-SF, against the
    # reference for a desired device in that annulus.
    cases = [((0.0, 1.0), np.broadcast_to(annulus, (4096,)), ring)]
    cases += [(interval, None, k) for k, interval in enumerate(montecarlo._ring_intervals(cfg))]
    for interval, annuli, reference_ring in cases:
        powers = montecarlo._field_powers(
            np.random.default_rng(11), 4096, n_bar, cfg, interval, annuli
        )
        sirs = montecarlo._sirs(powers, s_norm)
        reference = _reference_field_sirs(
            np.random.default_rng(11), s_mw, reference_ring, n_bar, cfg, model, interval
        )
        if n_bar == 30.0:  # empty realizations are covered
            assert 0.5 < np.mean(powers[1] + powers[2] == 0.0) < 1.0, interval
        for got, want in zip(sirs, reference):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=f"{interval}")


class _OneInterfererEach:
    """Generator stand-in: one active interferer per realization at the
    given area fractions, all with unit fading."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def poisson(self, lam, size):
        return np.ones(size, dtype=np.int64)

    def random(self, size):
        assert size == self._u.size
        return self._u.copy()

    def exponential(self, size):
        return np.ones(size)


def test_kernel_ring_start_belongs_to_outer_ring():
    for r in RADII_KM:
        cfg = NetworkConfig(cell_radius_km=r)
        for k in range(6):
            draws = _OneInterfererEach(RING_START_U)
            powers = montecarlo._field_powers(draws, 6, 1.0, cfg, annulus=np.full(6, k))
            _, g_co, g_inter = montecarlo._sirs(powers, np.ones(6))
            same = np.arange(6) == k
            np.testing.assert_array_equal(np.isfinite(g_co), same, err_msg=f"R={r} k={k}")
            np.testing.assert_array_equal(np.isfinite(g_inter), ~same, err_msg=f"R={r} k={k}")
        # Per-realization annuli: realization j is in ring j, not ring j - 1.
        for shift, same in ((0, True), (1, False)):
            draws = _OneInterfererEach(RING_START_U)
            annulus = (np.arange(6) - shift) % 6
            powers = montecarlo._field_powers(draws, 6, 1.0, cfg, annulus=annulus)
            _, g_co, g_inter = montecarlo._sirs(powers, np.ones(6))
            np.testing.assert_array_equal(np.isfinite(g_co), same, err_msg=f"R={r}")
            np.testing.assert_array_equal(np.isfinite(g_inter), not same, err_msg=f"R={r}")


def test_desired_ring_start_belongs_to_outer_ring():
    for r in RADII_KM:
        cfg = NetworkConfig(cell_radius_km=r)
        _, annulus, _ = montecarlo._by_area(RING_START_U, cfg, ChannelModel.from_config(cfg))
        np.testing.assert_array_equal(annulus, np.arange(6), err_msg=f"R={r}")


@pytest.mark.parametrize("d_min_km", [0.001, 1.9, 2.0, 3.0, 11.5])
def test_ring_intervals_partition_the_clamped_cell(d_min_km):
    """The annulus sub-fields hold exactly the draws whose clamped area
    fraction lies in their annulus: the non-empty intervals tile [0, 1) in
    annulus order, the first is the annulus of d_min, and no clamped draw
    leaves its annulus.  Ring starts are every 2 km at R = 12 km."""
    cfg = NetworkConfig(min_distance_km=d_min_km)
    v_min = (d_min_km / cfg.cell_radius_km) ** 2
    first = annulus_to_sf(d_min_km, cfg.cell_radius_km) - SF_MIN
    intervals = montecarlo._ring_intervals(cfg)
    assert intervals[:first] == [(0.0, 0.0)] * first
    tiles = intervals[first:]
    assert tiles[0][0] == 0.0 and tiles[-1][1] == 1.0
    assert all(hi == lo for (_, hi), (lo, _) in zip(tiles, tiles[1:]))
    for k, (lo, hi) in enumerate(tiles, start=first):
        assert RING_START_U[k] <= max(lo, v_min) < hi <= min(((k + 1) / 6) ** 2, 1.0)


TINY = np.finfo(float).tiny


def test_successes_without_interferers_or_desired_signal():
    zeros = np.zeros(3)
    for success in montecarlo._successes((zeros, zeros, zeros), np.array([TINY, 1.0, 1e11])):
        assert success.tolist() == [1.0, 1.0, 1.0]
    ones = np.ones(1)
    for success in montecarlo._successes((ones, ones, ones), np.array([TINY])):
        assert success.tolist() == [0.5]


def test_desired_fading_floor_is_the_smallest_normal_double():
    class ZeroDraws:
        def exponential(self, size):
            return np.array([0.0, 5e-324, 1.0])[:size]

    assert montecarlo._desired_fading(ZeroDraws(), 3).tolist() == [TINY, TINY, 1.0]


def test_successes_match_the_sir_path():
    # Signal-to-power ratios from 1e-12 to 1e12, and a tenth empty sets.
    rng = np.random.default_rng(2024)
    n = 100_000
    s = 10.0 ** rng.uniform(-6.0, 6.0, n)
    powers = []
    for _ in range(3):
        power = s * 10.0 ** rng.uniform(-12.0, 12.0, n)
        power[rng.random(n) < 0.1] = 0.0
        powers.append(power)
    sir_path = [success_from_sir_array(g) for g in montecarlo._sirs(powers, s)]
    for new, old in zip(montecarlo._successes(powers, s), sir_path):
        assert np.max(np.abs(new - old)) <= 4.5e-16


POWERS = st.floats(min_value=0.0, max_value=1e300)


@given(
    st.floats(min_value=TINY, max_value=1e300),
    POWERS,
    POWERS,
    POWERS,
    st.floats(min_value=0.0, max_value=1.0),
)
def test_successes_keep_the_scenario_order(s, power_a, power_b, inter_power, s_snr):
    # The rounded 0.5 * strongest is at most the rounded 2 * co_power, and add,
    # divide and sqrt round monotonically, so the order holds exactly in floats.
    strongest, co_power = sorted((power_a, power_b))
    powers = tuple(np.array([p]) for p in (strongest, co_power, inter_power))
    s_max, s_co, s_inter = montecarlo._successes(powers, np.array([s]))
    s_sf = s_co * s_inter
    assert s_max >= s_co >= s_sf >= np.array([s_snr]) * s_sf
