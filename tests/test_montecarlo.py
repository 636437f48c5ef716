import math
import tracemalloc

import numpy as np
import pytest

from lora_reliability import montecarlo
from lora_reliability.channel import ChannelModel, snr_success_probability
from lora_reliability.cli import curve_to_csv
from lora_reliability.montecarlo import (
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    estimate_mean_sir,
    success_vs_distance,
)
from lora_reliability.analytic import success_from_sir
from lora_reliability.params import SF_MIN, NetworkConfig, annulus_to_sf
from lora_reliability.reference import sample_realization, sir_sample


def _distance_spec(grid, n=2000, seed=7, **kw):
    return SweepSpec(kind="distance", grid=grid, realizations_per_point=n, seed=seed, **kw)


def _density_spec(grid, n=2000, seed=7, **kw):
    return SweepSpec(kind="density", grid=grid, realizations_per_point=n, seed=seed, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(kind="angle", grid=(1.0,), realizations_per_point=10, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="distance", grid=(), realizations_per_point=10, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="distance", grid=(2.0, 1.0), realizations_per_point=10, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="distance", grid=(1.0, 1.0), realizations_per_point=10, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="distance", grid=(1.0,), realizations_per_point=0, seed=0)
    with pytest.raises(ValueError):
        SweepSpec(kind="distance", grid=(1.0,), realizations_per_point=10, seed=-1)
    for grid in ((math.nan,), (1.0, math.inf), (0.0, math.nan, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(kind="density", grid=grid, realizations_per_point=10, seed=0)
    for n_bar_max in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            default_density_grid(n_bar_max)


def test_sweep_kind_mismatch():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        success_vs_distance(cfg, _density_spec((1.0, 10.0)))
    with pytest.raises(ValueError):
        coverage_vs_density(cfg, _distance_spec((1.0, 2.0)))


def test_distance_grid_outside_cell_rejected():
    cfg = NetworkConfig()
    with pytest.raises(ValueError):
        success_vs_distance(cfg, _distance_spec((1.0, 13.0), n=10))


def test_default_grids():
    cfg = NetworkConfig()
    grid = default_distance_grid(cfg)
    assert len(grid) == 120
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == 12.0
    dens = default_density_grid()
    assert len(dens) == 30
    assert dens[0] == 1.0
    assert dens[-1] == 3000.0
    assert all(b > a for a, b in zip(dens, dens[1:]))


# A density grid runs from 1 to n_bar_max, so it needs two points.
@pytest.mark.parametrize(
    "kind, points",
    [("distance", 0), ("distance", -1), ("density", 0), ("density", -1), ("density", 1)],
)
def test_default_grids_reject_points_below_one(kind, points):
    with pytest.raises(ValueError, match="points"):
        if kind == "distance":
            default_distance_grid(NetworkConfig(), points)
        else:
            default_density_grid(3000.0, points)


def test_no_interferers_gives_certain_sir_success():
    cfg = NetworkConfig(mean_devices=0.0)
    points = success_vs_distance(cfg, _distance_spec((0.5, 6.0, 11.0), n=500))
    for pt in points:
        assert pt.probs.p_max_co == 1.0
        assert pt.probs.p_co == 1.0
        assert pt.probs.p_sf == 1.0
        assert pt.probs.p_snr_sf == pt.probs.p_snr
        assert pt.stderr.p_max_co == 0.0


def test_p_snr_column_matches_closed_form_exactly():
    cfg = NetworkConfig()
    points = success_vs_distance(cfg, _distance_spec((1.0, 5.0, 9.0), n=200))
    for pt in points:
        sf = 7 + int(6.0 * pt.abscissa / cfg.cell_radius_km)
        assert pt.probs.p_snr == snr_success_probability(pt.abscissa, min(sf, 12), cfg)
        assert pt.stderr.p_snr == 0.0
    assert points[0].probs.p_snr == pytest.approx(0.9871561553907778, rel=1e-9)


def test_determinism_across_thread_counts():
    cfg = NetworkConfig()
    spec = _distance_spec((0.5, 4.0, 8.0, 11.5), n=1500, seed=42)
    single = success_vs_distance(cfg, spec, threads=1)
    pooled = success_vs_distance(cfg, spec, threads=8)
    assert single == pooled
    again = success_vs_distance(cfg, spec, threads=1)
    assert single == again


def test_density_batch_merge_independent_of_thread_count():
    """Two full batches and a partial one: the density sweep adds each
    batch's sums in batch order on the calling thread, so the thread count,
    which it accepts and ignores, changes no value."""
    cfg = NetworkConfig()
    spec = _density_spec((0.0, 1.0, 30.0, 3000.0), n=2 * 4096 + 100, seed=42)
    single = coverage_vs_density(cfg, spec, threads=1)
    for threads in (2, 3, 6):
        assert coverage_vs_density(cfg, spec, threads=threads) == single


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("kind", ["distance", "density"])
def test_sweeps_reject_threads_below_one(kind, threads):
    cfg = NetworkConfig()
    if kind == "distance":
        sweep, spec = success_vs_distance, _distance_spec((1.0,), n=10)
    else:
        sweep, spec = coverage_vs_density, _density_spec((1.0,), n=10)
    with pytest.raises(ValueError, match="threads"):
        sweep(cfg, spec, threads=threads)


@pytest.mark.parametrize("chunk", [1, 97])
def test_output_independent_of_chunk_size(monkeypatch, chunk):
    """The interferers-per-chunk cap is not part of the stream contract.
    n_bar = 0 and 1 leave most realizations empty, so empty realizations
    fall at chunk ends; chunk 1 makes every busy realization its own
    chunk."""
    cfg = NetworkConfig()
    distance = _distance_spec((0.5, 6.0, 11.5), n=5000, seed=5)
    density = _density_spec((0.0, 1.0, 30.0, 3000.0), n=5000, seed=5)

    def csvs():
        return (
            curve_to_csv(success_vs_distance(cfg, distance), "d_km"),
            curve_to_csv(coverage_vs_density(cfg, density), "n_bar"),
        )

    default = csvs()
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    assert csvs() == default


# Annuli 0, 1, 3 and 5 hold 1, 4, 5 and 9 points (rings every 2 km); 2 and 4
# hold none.
BLOCK_GRID = (1.0, 2.2, 2.7, 3.1, 3.6, 6.1, 6.5, 7.0, 7.4, 7.9) + tuple(
    10.2 + 0.2 * i for i in range(9)
)


def _distance_sums_and_csv(monkeypatch, threads, n=5000):
    """The per-point raw sums of a distance sweep of BLOCK_GRID (by default
    one full batch and a partial one), as the sweep hands them to
    ``_curve_point``, and its CSV."""
    recorded = []
    curve_point = montecarlo._curve_point

    def record(abscissa, sums, *rest):
        recorded.append(sums.copy())
        return curve_point(abscissa, sums, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_curve_point", record)
        spec = _distance_spec(BLOCK_GRID, n=n, seed=3)
        points = success_vs_distance(NetworkConfig(), spec, threads=threads)
    return np.array(recorded), curve_to_csv(points, "d_km")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "block", [1, 3 * montecarlo._BATCH, 1 << 40], ids=["one-row", "three-rows", "whole-annulus"]
)
def test_output_independent_of_block_size(monkeypatch, block, threads):
    """Each row's sums are taken along its own realizations, so the point
    sums, and not only the CSV, are exactly those of the default blocks."""
    default_sums, default_csv = _distance_sums_and_csv(monkeypatch, 1)
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    sums, csv = _distance_sums_and_csv(monkeypatch, threads)
    np.testing.assert_array_equal(sums, default_sums)
    assert csv == default_csv


# Six full batches and a partial one: more than the draws kept in flight.
PIPELINE_N = 6 * montecarlo._BATCH + 100


def test_point_sums_independent_of_thread_count(monkeypatch):
    """The threads draw the next batches while they evaluate this one, one
    task per annulus into a zeroed array of its own, and the sums are added
    in batch order: every point's raw sums, empty annuli and the partial
    batch included, are the same doubles at any thread count."""
    assert len(montecarlo._batches(PIPELINE_N)) > montecarlo._AHEAD + 1
    single_sums, single_csv = _distance_sums_and_csv(monkeypatch, 1, PIPELINE_N)
    for threads in (2, 3, 8):
        sums, csv = _distance_sums_and_csv(monkeypatch, threads, PIPELINE_N)
        np.testing.assert_array_equal(sums, single_sums)
        assert csv == single_csv


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_draws_run_at_most_the_lookahead_ahead(monkeypatch, threads):
    """A batch's draws start only once the batch ``_AHEAD + 1`` before it is
    folded, so at most ``_AHEAD + 1`` batches are drawn and not yet folded,
    at any realization count; one thread draws exactly ``_AHEAD`` ahead."""
    events = []
    draw, fold = montecarlo._draw, montecarlo._fold

    def record_draw(stream, *args):
        events.append(("draw", stream[-1]))  # the stream's batch index
        return draw(stream, *args)

    def record_fold(draws):
        rings = fold(draws)
        events.append(("fold", None))
        return rings

    monkeypatch.setattr(montecarlo, "_draw", record_draw)
    monkeypatch.setattr(montecarlo, "_fold", record_fold)
    spec = _distance_spec(BLOCK_GRID, n=PIPELINE_N, seed=3)
    success_vs_distance(NetworkConfig(), spec, threads=threads)
    folded, leads = 0, []
    for kind, batch in events:
        if kind == "fold":
            folded += 1
        else:
            leads.append(batch - folded)
    assert folded == len(montecarlo._batches(PIPELINE_N))
    assert len(leads) == 6 * folded
    assert max(leads) <= montecarlo._AHEAD
    if threads == 1:
        assert max(leads) == montecarlo._AHEAD


def _sampler_arrays(batch):
    """One batch of each annulus's sub-field at n_bar = 1500 and 20000, and
    the nested whole-cell fields at the same two counts with desired devices
    in all six annuli, copied at every step."""
    cfg = NetworkConfig()
    sub_fields = [
        montecarlo._field_powers(np.random.default_rng([9, k]), batch, n_bar, cfg, interval)
        for n_bar in (1500.0, 20000.0)
        for k, interval in enumerate(montecarlo._ring_intervals(cfg))
    ]
    draws = tuple(np.random.default_rng([9, 6, j]) for j in range(3))
    steps = montecarlo._nested_field_powers(draws, np.arange(batch) % 6, (1500.0, 18500.0), cfg)
    return sub_fields, [tuple(a.copy() for a in powers) for powers in steps]


@pytest.mark.parametrize(
    "chunk, batch", [(1, 64), (97, 4096), (montecarlo._CHUNK, 4096)], ids=["1", "97", "default"]
)
def test_sampler_arrays_independent_of_chunk_size(monkeypatch, chunk, batch):
    """The CSV's rounding can hide a last-bit drift of the sums at every cut,
    so the samplers' arrays are compared with a run cut nowhere.  The
    density sampler adds term by term, so its arrays are exact.  The
    distance sampler keeps its strongest terms exactly and regroups a sum
    cut between two chunks, which moves it by a few ulp at most.  Chunk 1
    cuts at every term, so its batch is small; the default cuts the
    20000-device fields of a full batch."""
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 40)
    ref_sub_fields, ref_steps = _sampler_arrays(batch)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    sub_fields, steps = _sampler_arrays(batch)
    for (strongest, power), (ref_strongest, ref_power) in zip(sub_fields, ref_sub_fields):
        np.testing.assert_array_equal(strongest, ref_strongest)
        np.testing.assert_allclose(power, ref_power, rtol=1e-13, atol=0.0)
    for powers, ref_powers in zip(steps, ref_steps, strict=True):
        for got, want in zip(powers, ref_powers):
            np.testing.assert_array_equal(got, want)


def test_kernel_memory_bounded_by_chunk():
    # About 4e6 active interferers in one 4096-realization batch, and then in
    # one realization alone; without chunking the nested-field sampler holds
    # about 10 arrays of that length (>200 MB).  The outermost annulus's
    # sub-field alone holds about 1.25e6, in 4096 realizations and then in
    # one.
    cfg = NetworkConfig()
    s_desired = np.full(4096, 1e-9)
    ring_5 = montecarlo._ring_intervals(cfg)[5]
    draws = tuple(np.random.default_rng([0, j]) for j in range(3))
    tracemalloc.start()
    try:
        powers = next(montecarlo._nested_field_powers(draws, np.full(4096, 3), (1e5,), cfg))
        sirs = montecarlo._sirs(powers, s_desired)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        alone = next(montecarlo._nested_field_powers(draws, np.full(1, 3), (4096 * 1e5,), cfg))
        alone_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ring_powers = montecarlo._field_powers(np.random.default_rng(0), 4096, 1e5, cfg, ring_5)
        ring_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ring_alone = montecarlo._field_powers(
            np.random.default_rng(0), 1, 4096 * 1e5, cfg, ring_5
        )
        ring_alone_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(g).all() for g in sirs)
    assert peak < 16e6
    assert all(p[0] > 0.0 for p in alone)
    assert alone_peak < 16e6
    assert all((p > 0.0).all() for p in ring_powers)
    assert ring_peak < 16e6
    assert all(p[0] > 0.0 for p in ring_alone)
    assert ring_alone_peak < 16e6


def test_ring_inter_power_is_the_other_rings_sums_in_ring_order():
    """Each annulus reads its own sub-field's strongest term and sum, and as
    inter-SF power the other five sub-fields' sums added in annulus order."""
    cfg = NetworkConfig()
    intervals = montecarlo._ring_intervals(cfg)
    for b, rings in enumerate(montecarlo._ring_batches(cfg, 5000, 9)):
        batch = rings[0][0].size
        sub = [
            montecarlo._draw(
                (9, montecarlo._TAG_DISTANCE, j, b), batch, cfg.mean_devices, cfg, intervals[j]
            )
            for j in range(6)
        ]
        for k, (fading, (strongest, co, inter)) in enumerate(rings):
            own_fading, (own_strongest, own_co) = sub[k]
            np.testing.assert_array_equal(fading, own_fading)
            np.testing.assert_array_equal(strongest, own_strongest)
            np.testing.assert_array_equal(co, own_co)
            others = np.zeros(batch)
            for j in range(6):
                if j != k:
                    others = others + sub[j][1][1]
            np.testing.assert_array_equal(inter, others)


def test_scenario_ordering_every_point():
    cfg = NetworkConfig()
    points = success_vs_distance(cfg, _distance_spec(tuple(np.linspace(0.3, 11.7, 12)), n=2000))
    for pt in points:
        p = pt.probs
        assert p.p_snr_sf <= p.p_sf <= p.p_co <= p.p_max_co


def test_stderr_shrinks_with_realizations():
    cfg = NetworkConfig()
    base = success_vs_distance(cfg, _distance_spec((6.0,), n=4000, seed=3))[0]
    double = success_vs_distance(cfg, _distance_spec((6.0,), n=8000, seed=3))[0]
    ratio = double.stderr.p_co / base.stderr.p_co
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.20)


def test_kernel_matches_object_level_path():
    """The vectorized thinned-field engine and the explicit realization
    sampler are different implementations of the same model; their Monte
    Carlo estimates must agree within statistical error."""
    cfg = NetworkConfig(mean_devices=300.0, duty_cycle=0.05)
    d = 5.0
    n = 3000
    pt = success_vs_distance(cfg, _distance_spec((d,), n=n, seed=11))[0]

    model = ChannelModel.from_config(cfg)
    rng = np.random.default_rng(999)
    acc = {"max_co": [], "co": [], "sf": []}
    for _ in range(n):
        s = sir_sample(sample_realization(cfg, d, rng), model)
        s_co = success_from_sir(s.gamma_co)
        s_inter = success_from_sir(s.gamma_inter)
        acc["max_co"].append(success_from_sir(s.gamma_max_co))
        acc["co"].append(s_co)
        acc["sf"].append(s_co * s_inter)

    for key, attr in (("max_co", "p_max_co"), ("co", "p_co"), ("sf", "p_sf")):
        arr = np.asarray(acc[key])
        se_ref = arr.std(ddof=1) / math.sqrt(n)
        se_kernel = getattr(pt.stderr, attr)
        combined = math.sqrt(se_ref**2 + se_kernel**2)
        assert abs(arr.mean() - getattr(pt.probs, attr)) < 4.0 * combined


def test_distance_trend():
    cfg = NetworkConfig()
    near, far = success_vs_distance(cfg, _distance_spec((0.5, 11.0), n=4000))
    for attr in ("p_snr", "p_max_co", "p_co", "p_sf", "p_snr_sf"):
        gap = getattr(near.probs, attr) - getattr(far.probs, attr)
        spread = 3.0 * (getattr(near.stderr, attr) + getattr(far.stderr, attr))
        assert gap > spread


def test_density_p_snr_exactly_constant():
    cfg = NetworkConfig()
    points = coverage_vs_density(cfg, _density_spec((1.0, 10.0, 100.0, 1500.0, 3000.0), n=1000))
    first = points[0]
    for pt in points[1:]:
        assert pt.probs.p_snr == first.probs.p_snr
        assert pt.stderr.p_snr == first.stderr.p_snr


def test_density_increment_counts_are_poisson():
    """Each increment is one batch-wide Poisson count with uniform owners,
    so every realization's whole-cell field at n_bar_i holds a Poisson
    number of active interferers of mean duty * n_bar_i, in full batches
    and in the partial one alike: the fraction of realizations with an
    empty field is exp(-duty * n_bar_i) within |z| <= 4 at every point."""
    cfg = NetworkConfig()
    grid = (0.0,) + default_density_grid(300.0, 12)
    n = 2 * 4096 + 2000
    empty = np.zeros(len(grid))
    batches = montecarlo._density_batches(cfg, grid, n, 13, ChannelModel.from_config(cfg))
    for _, _, fields in batches:
        for i, (_, co_power, inter_power) in enumerate(fields):
            empty[i] += np.count_nonzero((co_power == 0.0) & (inter_power == 0.0))
    assert empty[0] == n
    for n_bar, count in zip(grid[1:], empty[1:]):
        p = math.exp(-cfg.duty_cycle * n_bar)
        z = (count / n - p) / math.sqrt(p * (1.0 - p) / n)
        assert abs(z) <= 4.0, f"z = {z:.2f} at n_bar = {n_bar}"


def test_density_zero_point_certain():
    cfg = NetworkConfig()
    spec = SweepSpec(kind="density", grid=(0.0, 10.0), realizations_per_point=400, seed=5)
    zero = coverage_vs_density(cfg, spec)[0]
    assert zero.probs.p_max_co == 1.0
    assert zero.probs.p_co == 1.0
    assert zero.probs.p_sf == 1.0


# The ids keep the name of the one joint rule, so each case keeps its test id.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 11, 12], ids="success-product-{}".format)
def test_density_substitution_columns_never_rise(seed):
    """The density fields are nested: each grid point adds its increment to
    the field of the point below it.  Every floating-point step from field
    powers to a column's mean is monotone, so the interference columns
    never rise with n_bar, with no tolerance."""
    cfg = NetworkConfig()
    grid = (0.0,) + default_density_grid(3000.0, 30)
    points = coverage_vs_density(cfg, _density_spec(grid, seed=seed))
    for below, above in zip(points, points[1:]):
        for attr in ("p_max_co", "p_co", "p_sf", "p_snr_sf"):
            assert getattr(above.probs, attr) <= getattr(below.probs, attr), (
                attr,
                above.abscissa,
            )


def test_density_trend():
    cfg = NetworkConfig()
    low, high = coverage_vs_density(cfg, _density_spec((1.0, 3000.0), n=4000))
    for attr in ("p_max_co", "p_co", "p_sf", "p_snr_sf"):
        gap = getattr(low.probs, attr) - getattr(high.probs, attr)
        spread = 3.0 * (getattr(low.stderr, attr) + getattr(high.stderr, attr))
        assert gap > spread


def test_estimate_mean_sir_no_interferers():
    cfg = NetworkConfig(mean_devices=0.0)
    stats = estimate_mean_sir(cfg, 5.0, 50, seed=1)
    for key in ("max_co", "co", "inter"):
        assert stats[key].median == math.inf
        assert stats[key].inf_fraction == 1.0
        assert stats[key].count == 50


def test_estimate_mean_sir_busy_network():
    cfg = NetworkConfig(mean_devices=500.0, duty_cycle=0.5)
    stats = estimate_mean_sir(cfg, 5.0, 300, seed=2)
    inter = stats["inter"]
    assert inter.inf_fraction < 0.05
    assert math.isfinite(inter.median)
    with pytest.raises(ValueError):
        estimate_mean_sir(cfg, 5.0, 0, seed=2)


def test_estimate_mean_sir_void_fraction_within_z_of_poisson():
    """No active co-SF interferer is the void event of the desired annulus's
    Poisson field, of probability exp(-duty * n_bar * area share)."""
    cfg = NetworkConfig()
    d_km, n = 1.0, 20_000
    stats = estimate_mean_sir(cfg, d_km, n, seed=21)
    ring = annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN
    share = ((ring + 1) ** 2 - ring**2) / 36.0
    expected = math.exp(-cfg.duty_cycle * cfg.mean_devices * share)
    se = math.sqrt(expected * (1.0 - expected) / n)
    assert stats["co"].count == n
    assert abs(stats["co"].inf_fraction - expected) <= 4.0 * se


def test_estimate_mean_sir_shares_the_annulus_sub_fields():
    """Two distances in one annulus read the same sub-fields, whose emptiness
    does not depend on the desired device's gain."""
    cfg = NetworkConfig()
    near = estimate_mean_sir(cfg, 6.2, 5000, seed=13)
    far = estimate_mean_sir(cfg, 7.9, 5000, seed=13)
    assert annulus_to_sf(6.2, cfg.cell_radius_km) == annulus_to_sf(7.9, cfg.cell_radius_km)
    for key in ("max_co", "co", "inter"):
        assert near[key].inf_fraction == far[key].inf_fraction


def test_estimate_mean_sir_rejects_distance_outside_cell():
    cfg = NetworkConfig()
    for d_km in (12.5, 0.0):
        with pytest.raises(ValueError):
            estimate_mean_sir(cfg, d_km, 10, seed=1)


def test_distance_row_independent_of_the_rest_of_the_grid():
    """A row draws from the six ring streams only, so its bytes are the
    same alone, in the default grid and in another grid."""
    cfg = NetworkConfig()
    default = default_distance_grid(cfg)

    def row(grid, d_km):
        spec = _distance_spec(grid, n=5000, seed=5)
        lines = curve_to_csv(success_vs_distance(cfg, spec), "d_km").splitlines()
        return lines[1 + grid.index(d_km)]

    for d_km in (default[7], default[64], default[119]):  # annuli 0, 3 and 5
        alone = row((d_km,), d_km)
        assert row(default, d_km) == alone
        assert row((0.25, d_km - 0.05, d_km), d_km) == alone


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_success_non_increasing_within_each_ring(seed):
    """The points of one annulus scale the same draws by a gain that falls
    with distance, and every step from SIR to column is monotone, so no
    interference column rises between neighbours in one annulus."""
    cfg = NetworkConfig()
    grid = default_distance_grid(cfg)
    points = success_vs_distance(cfg, _distance_spec(grid, n=5000, seed=seed))
    rises = [
        (near.abscissa, far.abscissa, column)
        for near, far in zip(points, points[1:])
        if annulus_to_sf(near.abscissa, cfg.cell_radius_km)
        == annulus_to_sf(far.abscissa, cfg.cell_radius_km)
        for column in ("p_max_co", "p_co", "p_sf", "p_snr_sf")
        if getattr(far.probs, column) > getattr(near.probs, column)
    ]
    assert rises == []


def test_ratio_of_fadings_median():
    # two devices at equal deterministic power: the co-SF SIR reduces to a
    # ratio of independent unit exponentials, whose median is 1 (its mean
    # diverges, which is why SirStats reports the median and no mean)
    rng = np.random.default_rng(31)
    ratio = rng.exponential(size=200_000) / rng.exponential(size=200_000)
    assert float(np.median(ratio)) == pytest.approx(1.0, abs=0.02)
    assert ratio.mean() > 10.0 * float(np.median(ratio))
