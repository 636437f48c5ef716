"""The interference samplers ``montecarlo._field_powers`` (one annulus's
sub-field) and ``montecarlo._nested_field_powers`` (whole-cell increments
split by the ring test), with the point step's divisions
``montecarlo._sirs``, against the physical-unit arithmetic they replaced,
and their ring rule at the ring starts; and the point step's evaluator
``montecarlo._evaluate``, in both of its forms, against the SIR path it
replaced.

The samplers work in normalized units: an interferer at area fraction
``v = max(u, (d_min/R)**2)`` contributes ``v**(-eta/2) * fading``.  The
references below compute every received power in milliwatts, as
``tx * fading * path_loss_array(max(d_min, R*sqrt(u)))`` with the ring index
``int(6*d/R)``, from the same generators and in the same stream layout:
per-realization counts on one annulus's interval for a sub-field, one
batch-wide count with uniform owners on the whole cell for an increment.
The SIRs are ratios of such powers, so the two must agree to rounding; the
relative tolerance 1e-12 was fixed before the first comparison.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lora_reliability import montecarlo
from lora_reliability.analytic import success_from_sir_array
from lora_reliability.channel import ChannelModel, path_loss, path_loss_array
from lora_reliability.params import (
    CO_CHANNEL_REJECTION,
    SF_MIN,
    NetworkConfig,
    annulus_to_sf,
    dbm_to_mw,
)

RTOL = 1e-12

# The squared ring starts (k/6)^2, k = 0..5: a draw there lies on the inner
# edge of ring k.
RING_START_U = np.array([(k / 6) ** 2 for k in range(6)])
RADII_KM = [tenths / 10 for tenths in range(1, 301)]


def _reference_sirs(owner, u, fading, s_desired_mw, annulus_desired, cfg, model):
    """One batch of scenario SIRs in milliwatts from the interferers'
    owner realizations, uniform-by-area draws and fading."""
    batch = s_desired_mw.shape[0]
    dist = np.maximum(cfg.min_distance_km, cfg.cell_radius_km * np.sqrt(u))
    ring = np.minimum((6.0 * dist / cfg.cell_radius_km).astype(np.int64), 5)
    power = dbm_to_mw(cfg.tx_power_dbm) * fading * path_loss_array(dist, model)
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


def _reference_sub_field_sirs(rng, s_desired_mw, annulus_desired, n_bar, cfg, model, interval):
    """Per-realization counts with the interferers uniform by area on
    ``interval`` of the area fraction, all draws at once."""
    batch = s_desired_mw.shape[0]
    lo, hi = interval
    counts = rng.poisson(cfg.duty_cycle * n_bar * (hi - lo), size=batch)
    total = int(counts.sum())
    u = lo + (hi - lo) * rng.random(total)
    owner = np.repeat(np.arange(batch), counts)
    return _reference_sirs(
        owner, u, rng.exponential(size=total), s_desired_mw, annulus_desired, cfg, model
    )


def _reference_increment_sirs(draws, s_desired_mw, annulus_desired, n_bar, cfg, model):
    """One whole-cell increment: one batch-wide count, then every owner,
    every uniform-by-area draw and every fading draw at once."""
    owners, positions, fadings = draws
    batch = s_desired_mw.shape[0]
    total = int(owners.poisson(cfg.duty_cycle * n_bar * batch))
    owner = owners.integers(batch, size=total)
    u = positions.random(total)
    return _reference_sirs(
        owner, u, fadings.exponential(size=total), s_desired_mw, annulus_desired, cfg, model
    )


def _field_draws(seed):
    return tuple(np.random.default_rng([seed, j]) for j in range(3))


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
    norm, annulus, _ = montecarlo._by_area(u, cfg)
    dist = np.maximum(cfg.min_distance_km, cfg.cell_radius_km * np.sqrt(u))
    ring = np.minimum((6.0 * dist / cfg.cell_radius_km).astype(np.int64), 5)
    return norm * fading, tx_mw * path_loss_array(dist, model) * fading, annulus, ring


# The ids end in the name of the reference's gain law, the standard
# free-space form.
@pytest.mark.parametrize("kind", ["pinned", "per-realization"], ids="{}-standard".format)
@pytest.mark.parametrize(
    "n_bar, chunk",
    [(1500.0, None), (1500.0, 97), (30.0, None), (30.0, 1)],
    ids=["busy", "busy-multi-chunk", "mostly-empty", "mostly-empty-chunk-1"],
)
def test_kernel_matches_physical_unit_reference(monkeypatch, kind, n_bar, chunk):
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    cfg = NetworkConfig()
    model = ChannelModel.from_config(cfg)
    s_norm, s_mw, annulus, ring = _desired(kind, cfg, model, np.random.default_rng(3), 4096)
    np.testing.assert_array_equal(annulus, ring)

    # One whole-cell increment with one desired annulus per realization,
    # split by the ring test; then each annulus's sub-field, all co-SF,
    # against the reference for a desired device in that annulus.
    annuli = np.broadcast_to(annulus, (4096,))
    powers = next(montecarlo._nested_field_powers(_field_draws(11), annuli, (n_bar,), cfg))
    reference = _reference_increment_sirs(_field_draws(11), s_mw, ring, n_bar, cfg, model)
    cases = [("whole cell", powers, reference)]
    for k, interval in enumerate(montecarlo._ring_intervals(cfg)):
        strongest, power = montecarlo._field_powers(
            np.random.default_rng(11), 4096, n_bar, cfg, interval
        )
        reference = _reference_sub_field_sirs(
            np.random.default_rng(11), s_mw, k, n_bar, cfg, model, interval
        )
        cases.append((interval, (strongest, power, np.zeros(4096)), reference))
    for label, powers, reference in cases:
        sirs = montecarlo._sirs(powers, s_norm)
        if n_bar == 30.0:  # empty realizations are covered
            assert 0.5 < np.mean(powers[1] + powers[2] == 0.0) < 1.0, label
        for got, want in zip(sirs, reference):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=f"{label}")


class _OneInterfererEach:
    """Generator stand-in for each of the nested-field sampler's three
    generators: realization j owns one active interferer, at the j-th given
    area fraction, with unit fading."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def poisson(self, lam):
        return self._u.size

    def integers(self, high, size):
        assert high == size == self._u.size
        return np.arange(size)

    def random(self, size):
        assert size == self._u.size
        return self._u.copy()

    def standard_exponential(self, size):
        return np.ones(size)


def test_kernel_ring_start_belongs_to_outer_ring():
    for r in RADII_KM:
        cfg = NetworkConfig(cell_radius_km=r)
        for k in range(6):
            draws = (_OneInterfererEach(RING_START_U),) * 3
            powers = next(montecarlo._nested_field_powers(draws, np.full(6, k), (1.0,), cfg))
            _, g_co, g_inter = montecarlo._sirs(powers, np.ones(6))
            same = np.arange(6) == k
            np.testing.assert_array_equal(np.isfinite(g_co), same, err_msg=f"R={r} k={k}")
            np.testing.assert_array_equal(np.isfinite(g_inter), ~same, err_msg=f"R={r} k={k}")
        # Per-realization annuli: realization j is in ring j, not ring j - 1.
        for shift, same in ((0, True), (1, False)):
            draws = (_OneInterfererEach(RING_START_U),) * 3
            annulus = (np.arange(6) - shift) % 6
            powers = next(montecarlo._nested_field_powers(draws, annulus, (1.0,), cfg))
            _, g_co, g_inter = montecarlo._sirs(powers, np.ones(6))
            np.testing.assert_array_equal(np.isfinite(g_co), same, err_msg=f"R={r}")
            np.testing.assert_array_equal(np.isfinite(g_inter), not same, err_msg=f"R={r}")


def test_desired_ring_start_belongs_to_outer_ring():
    for r in RADII_KM:
        cfg = NetworkConfig(cell_radius_km=r)
        _, annulus, _ = montecarlo._by_area(RING_START_U, cfg)
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


def _column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _raw_sums(powers, g, fading=None, s_snr=None):
    """The evaluator's raw sums with one realization per row, so each row's
    sums are that realization's values: ``u = 1 + sqrt(q)`` of max_co in
    column 2, of co in column 3, and ``t = u_co * u_inter`` in column 4."""
    powers = tuple(_column(p) for p in powers)
    g = _column(g)
    n = g.shape[0]
    y = montecarlo._scaled(powers, None if fading is None else _column(fading), np.empty((3, n, 1)))
    sums = np.zeros((n, 6 if s_snr is None else 8))
    snr = None if s_snr is None else _column(s_snr)
    montecarlo._evaluate(y, g, sums, np.empty((3, n)), snr)
    return sums


def _successes(powers, g, fading=None):
    """The three scenario successes per realization, from the evaluator:
    max_co and co from one call, and inter from a second with the co-SF and
    inter-SF powers swapped, which scale alike."""
    strongest, co_power, inter_power = powers
    first = _raw_sums(powers, g, fading)
    second = _raw_sums((strongest, inter_power, co_power), g, fading)
    return 0.5 * first[:, 2], 0.5 * first[:, 3], 0.5 * second[:, 3]


def test_successes_without_interferers_or_desired_signal():
    zeros = np.zeros(3)
    for success in _successes((zeros, zeros, zeros), np.array([TINY, 1.0, 1e11])):
        assert success.tolist() == [1.0, 1.0, 1.0]
    ones = np.ones(1)
    for success in _successes((ones, ones, ones), np.array([TINY])):
        assert success.tolist() == [0.5]


def test_desired_fading_floor_is_the_smallest_normal_double():
    class ZeroDraws:
        def standard_exponential(self, size):
            return np.array([0.0, 5e-324, 1.0])[:size]

    assert montecarlo._desired_fading(ZeroDraws(), 3).tolist() == [TINY, TINY, 1.0]


def _sir_path_case(rng, n, s):
    """Powers at signal-to-power ratios from 1e-12 to 1e12, a tenth of them
    empty sets, and the successes of their SIRs."""
    powers = []
    for _ in range(3):
        power = s * 10.0 ** rng.uniform(-12.0, 12.0, n)
        power[rng.random(n) < 0.1] = 0.0
        powers.append(power)
    return powers, [success_from_sir_array(g) for g in montecarlo._sirs(powers, s)]


def test_successes_match_the_sir_path():
    # The density form: y = k * P, g = s.
    rng = np.random.default_rng(2024)
    n = 100_000
    s = 10.0 ** rng.uniform(-6.0, 6.0, n)
    powers, sir_path = _sir_path_case(rng, n, s)
    for new, old in zip(_successes(powers, s), sir_path):
        assert np.max(np.abs(new - old)) <= 4.5e-16


def test_scaled_successes_match_the_sir_path():
    """The distance form: y = k * P / f with the desired fading f, and the
    point's gain g, against the SIR of s = g * f.  Measured on these draws:
    at most 2.2e-16 (one ulp of 1) in every scenario."""
    rng = np.random.default_rng(2025)
    n = 100_000
    g = 10.0 ** rng.uniform(0.0, 11.0, n)
    fading = montecarlo._desired_fading(rng, n)
    powers, sir_path = _sir_path_case(rng, n, g * fading)
    for new, old in zip(_successes(powers, g, fading), sir_path):
        assert np.max(np.abs(new - old)) <= 2.3e-16


POWERS = st.floats(min_value=0.0, max_value=1e300)


def _ordered(sums):
    """The finished point of one realization's raw sums: its columns in
    scenario order, p_max_co, p_co, p_sf, p_snr_sf."""
    probs = montecarlo._curve_point(0.0, sums[0], 1, 1.0).probs
    return probs.p_max_co, probs.p_co, probs.p_sf, probs.p_snr_sf


@given(
    st.floats(min_value=TINY, max_value=1e300),
    POWERS,
    POWERS,
    POWERS,
    st.floats(min_value=0.0, max_value=1.0),
)
def test_successes_keep_the_scenario_order(s, power_a, power_b, inter_power, s_snr):
    # The rounded 0.5 * strongest is at most the rounded 2 * co_power, add,
    # divide and sqrt round monotonically, t = u_co * u_inter is at most
    # 2 * u_co and s_snr * t at most t, so the order holds exactly in floats.
    strongest, co_power = sorted((power_a, power_b))
    sums = _raw_sums((strongest, co_power, inter_power), s, s_snr=s_snr)
    p_max, p_co, p_sf, p_snr_sf = _ordered(sums)
    assert p_max >= p_co >= p_sf >= p_snr_sf


@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.floats(min_value=TINY, max_value=50.0),
    POWERS,
    POWERS,
    POWERS,
)
def test_scaled_successes_keep_the_scenario_order(g, fading, power_a, power_b, inter_power):
    # As above in the distance form, where y may overflow to inf.
    strongest, co_power = sorted((power_a, power_b))
    p_max, p_co, p_sf, p_snr_sf = _ordered(
        _raw_sums((strongest, co_power, inter_power), g, fading)
    )
    assert p_max >= p_co >= p_sf >= p_snr_sf
