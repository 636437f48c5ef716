import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from lora_reliability import montecarlo
from lora_reliability.analytic import outage_closed_form
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
from lora_reliability.params import (
    SF_MIN,
    ConfigError,
    NetworkConfig,
    OutOfCellError,
    annulus_to_sf,
)
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"realizations_per_point": 100.0}, "realizations_per_point must be an integer"),
        ({"realizations_per_point": True}, "realizations_per_point must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": np.float64(1.0)}, "seed must be an integer"),
    ],
)
def test_spec_rejects_non_integer_counts_naming_the_field(kwargs, message):
    base = {"kind": "distance", "grid": (1.0,), "realizations_per_point": 10, "seed": 0}
    with pytest.raises(ValueError, match=message):
        SweepSpec(**{**base, **kwargs})


def test_spec_accepts_numpy_integers():
    spec = SweepSpec("distance", (1.0,), np.int64(10), np.uint32(3))
    assert (spec.realizations_per_point, spec.seed) == (10, 3)


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


@pytest.mark.parametrize(
    "kind, grid, error, message",
    [
        ("distance", (0.0, 1.0), OutOfCellError, r"distance 0.0 km outside \[0.001, 12.0\] km"),
        ("distance", (-1.0, 1.0), OutOfCellError, r"distance -1.0 km outside"),
        ("density", (-1.0, 10.0), ValueError, "density grid must be non-negative, got -1.0"),
    ],
    ids=["distance-zero", "distance-negative", "density-negative"],
)
def test_sweep_rejects_grid_sign_before_any_fork_or_draw(monkeypatch, kind, grid, error, message):
    """SweepSpec takes a grid of either sign; the sweep checks it against its
    abscissa's range before it draws or forks anything."""

    def fail(*args, **kwargs):
        raise AssertionError("the sweep drew or forked before checking its grid")

    for name in ("_ring_batch", "_ring_draw", "_density_batch"):
        monkeypatch.setattr(montecarlo, name, fail)
    monkeypatch.setattr(os, "fork", fail)
    sweep = success_vs_distance if kind == "distance" else coverage_vs_density
    spec = SweepSpec(kind=kind, grid=grid, realizations_per_point=3 * 4096, seed=1)
    with pytest.raises(error, match=message):
        sweep(NetworkConfig(), spec, threads=2)


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
    [
        ("distance", 0), ("distance", -1), ("density", 0), ("density", -1), ("density", 1),
        # Counts are integers: a bool or a float is rejected naming the argument.
        ("distance", True), ("distance", 2.5), ("density", True), ("density", 2.5),
    ],
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


DENSITY_GRID = (0.0, 1.0, 30.0, 3000.0)
# Annuli 0, 1, 3 and 5 hold 1, 4, 5 and 9 points (rings every 2 km); 2 and 4
# hold none.
BLOCK_GRID = (1.0, 2.2, 2.7, 3.1, 3.6, 6.1, 6.5, 7.0, 7.4, 7.9) + tuple(
    10.2 + 0.2 * i for i in range(9)
)


def _case(kind, n):
    """The sweep of ``kind``, its spec of ``n`` realizations per point and
    its CSV abscissa: DENSITY_GRID at seed 42, or BLOCK_GRID at seed 3."""
    if kind == "density":
        return coverage_vs_density, _density_spec(DENSITY_GRID, n=n, seed=42), "n_bar"
    return success_vs_distance, _distance_spec(BLOCK_GRID, n=n, seed=3), "d_km"


def _sums_and_csv(monkeypatch, kind, threads, n, cpus=6):
    """The per-point raw sums of the sweep of ``kind`` (:func:`_case`), as
    the sweep hands them to ``_curve_point``, its CSV and the number of
    children it forked, on a process allowed ``cpus`` CPUs."""
    recorded, forks = [], []
    curve_point, fork = montecarlo._curve_point, os.fork

    def record(abscissa, sums, *rest):
        recorded.append(sums.copy())
        return curve_point(abscissa, sums, *rest)

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_curve_point", record)
        patch.setattr(os, "fork", counted_fork)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        sweep, spec, abscissa = _case(kind, n)
        points = sweep(NetworkConfig(), spec, threads=threads)
    return np.array(recorded), curve_to_csv(points, abscissa), len(forks)


def _density_sums_in_place(n):
    """Reference for the merge: the raw sums of the density sweep of
    DENSITY_GRID at seed 42 kept as one running array, which every batch
    adds into in place, in batch order, in the calling process."""
    sums = np.zeros((len(DENSITY_GRID), 8))
    scratch = np.empty((3, montecarlo._BATCH))
    steps = np.diff(DENSITY_GRID, prepend=0.0)
    for b, size in montecarlo._batches(n):
        s, s_snr, fields = montecarlo._density_batch(NetworkConfig(), steps, 42, b, size)
        for row, powers in zip(sums, fields):
            y = montecarlo._scaled(powers, None, np.empty((3, s.size)))
            montecarlo._evaluate(y, s, row, scratch, s_snr)
    return sums


def _distance_sums_in_place(n):
    """Reference for the merge: the raw sums of the distance sweep of
    BLOCK_GRID at seed 3 kept as one running array, which every batch of
    ``_ring_batch`` adds into in place, in batch order, one point at a
    time, in the calling process."""
    cfg = NetworkConfig()
    sums = np.zeros((len(BLOCK_GRID), 6))
    scratch = np.empty((3, montecarlo._BATCH))
    pinned = [montecarlo._pinned(cfg, d_km) for d_km in BLOCK_GRID]
    for b, size in montecarlo._batches(n):
        rings = montecarlo._ring_batch(cfg, 3, b, size)
        for i, (gain, ring) in enumerate(pinned):
            fading, powers = rings[ring]
            y = montecarlo._scaled(powers, fading, np.empty((3, fading.size)))
            montecarlo._evaluate(y[:, np.newaxis], np.array([[gain]]), sums[i : i + 1], scratch)
    return sums


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_density_batch_merge_independent_of_thread_count(monkeypatch):
    """Worker w of W runs batches w, w + W, ... in the calling process or a
    forked child, and the calling process adds the batches' rows in batch
    order: every point's raw sums, with a partial last batch (three and
    eleven batches) and with fewer batches than workers (two), are the same
    doubles at any worker count as those of one running array, and no child
    outlives the call.  The process may use six CPUs, so the CPU cap forks
    no fewer children than the thread count asks for."""
    for n in (2 * 4096 + 100, 4096 + 1, 10 * 4096 + 7):
        batches = len(montecarlo._batches(n))
        single_sums, single_csv, forks = _sums_and_csv(monkeypatch, "density", 1, n)
        assert forks == 0
        np.testing.assert_array_equal(single_sums, _density_sums_in_place(n))
        for threads in (2, 3, 6):
            sums, csv, forks = _sums_and_csv(monkeypatch, "density", threads, n)
            assert forks == min(threads, batches) - 1
            np.testing.assert_array_equal(sums, single_sums)
            assert csv == single_csv
            _assert_no_child()


def test_point_sums_independent_of_thread_count(monkeypatch):
    """With at least W batches (seven, the last one partial), worker w of W
    draws, folds and evaluates batches w, w + W, ...; with fewer (one
    partial batch, and two at three and six workers), a pool of W threads
    draws the (annulus, batch) units and the calling process folds and
    evaluates every batch.  Either way the calling process adds the
    batches' rows in batch order: every point's raw sums, empty annuli
    included, are the same doubles at any worker count as those of one
    running array, and no child outlives the call.  The process may use six
    CPUs, and there are six units per batch, so W = threads; the sweep forks
    W - 1 children with at least W batches and none with fewer."""
    fold, folds = montecarlo._fold, []

    def counted_fold(rings):
        folds.append(os.getpid())  # a child's list is its own copy
        return fold(rings)

    monkeypatch.setattr(montecarlo, "_fold", counted_fold)
    for n in (6 * 4096 + 100, 3000, 4096 + 1):
        batches = len(montecarlo._batches(n))
        single_sums, single_csv, forks = _sums_and_csv(monkeypatch, "distance", 1, n)
        assert forks == 0
        np.testing.assert_array_equal(single_sums, _distance_sums_in_place(n))
        for threads in (2, 3, 6):
            folds.clear()
            sums, csv, forks = _sums_and_csv(monkeypatch, "distance", threads, n)
            assert forks == (threads - 1 if batches >= threads else 0)
            # The calling process folds its own batches, or all of them.
            own = len(range(0, batches, threads)) if batches >= threads else batches
            assert len(folds) == own
            np.testing.assert_array_equal(sums, single_sums)
            assert csv == single_csv
            _assert_no_child()


def _assert_workers_capped_at_cpus(monkeypatch, kind):
    n = 10 * 4096 + 7
    single_sums, single_csv, _ = _sums_and_csv(monkeypatch, kind, 1, n)
    for cpus in (1, 2):
        sums, csv, forks = _sums_and_csv(monkeypatch, kind, 6, n, cpus)
        assert forks == cpus - 1
        np.testing.assert_array_equal(sums, single_sums)
        assert csv == single_csv
        _assert_no_child()


def test_density_workers_capped_at_cpus(monkeypatch):
    """The sweep runs at most one worker per CPU the process may use: on two
    CPUs, six threads fork one child, and on one CPU none, with the bytes
    of one worker."""
    _assert_workers_capped_at_cpus(monkeypatch, "density")


def test_distance_workers_capped_at_cpus(monkeypatch):
    """As for the density sweep."""
    _assert_workers_capped_at_cpus(monkeypatch, "distance")


def _assert_sums_without_fork(monkeypatch, kind):
    for n in (2 * 4096 + 100, 3000):
        sweep, spec, _ = _case(kind, n)
        single = sweep(NetworkConfig(), spec)
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert sweep(NetworkConfig(), spec, threads=3) == single


def test_density_sums_without_fork(monkeypatch):
    """Where the platform has no fork, the sweep runs one worker, the
    calling process, with the same bytes, with more batches than workers
    and with fewer."""
    _assert_sums_without_fork(monkeypatch, "density")


def test_distance_sums_without_fork(monkeypatch):
    """As for the density sweep."""
    _assert_sums_without_fork(monkeypatch, "distance")


def _assert_worker_failure(monkeypatch, kind, fails_in):
    parent = os.getpid()
    sampler = "_nested_field_powers" if kind == "density" else "_field_powers"
    draw = getattr(montecarlo, sampler)

    def failing(*args):
        if (os.getpid() == parent) == (fails_in == "parent"):
            raise ZeroDivisionError("sampler failed")
        return draw(*args)

    monkeypatch.setattr(montecarlo, sampler, failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    sweep, spec, _ = _case(kind, 3 * 4096)
    if fails_in == "child":
        with pytest.raises(RuntimeError, match=r"worker 1 \(pid \d+\) exited with status 1"):
            sweep(NetworkConfig(), spec, threads=2)
    else:
        with pytest.raises(ZeroDivisionError, match="sampler failed"):
            sweep(NetworkConfig(), spec, threads=3)
    _assert_no_child()


def test_distance_unit_draw_failure_raises_and_leaves_no_thread(monkeypatch):
    """With one batch, fewer than the workers, a sampler that raises on one
    annulus in a drawing thread makes the sweep raise that error in the
    calling process; the pool's threads are joined, and nothing is forked."""
    cfg = NetworkConfig()
    draw, bad = montecarlo._field_powers, montecarlo._ring_intervals(cfg)[3]

    def failing(*args):
        if args[-1] == bad:  # the sub-field's interval
            raise ZeroDivisionError("sampler failed")
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_field_powers", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    sweep, spec, _ = _case("distance", 3000)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="sampler failed"):
        sweep(cfg, spec, threads=2)
    assert threading.active_count() == threads
    _assert_no_child()


@pytest.mark.parametrize("fails_in", ["child", "parent"])
def test_density_worker_failure_raises_and_leaves_no_child(monkeypatch, fails_in):
    """A worker that raises in a forked child makes the sweep raise in the
    calling process, naming the worker; one that raises in the calling
    process raises its own error there, after the children are killed.
    Either way every child is reaped."""
    _assert_worker_failure(monkeypatch, "density", fails_in)


@pytest.mark.parametrize("fails_in", ["child", "parent"])
def test_distance_worker_failure_raises_and_leaves_no_child(monkeypatch, fails_in):
    """As for the density sweep."""
    _assert_worker_failure(monkeypatch, "distance", fails_in)


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
@pytest.mark.parametrize("kind", ["distance", "density"])
def test_sweeps_reject_threads_below_one(kind, threads):
    cfg = NetworkConfig()
    if kind == "distance":
        sweep, spec = success_vs_distance, _distance_spec((1.0,), n=10)
    else:
        sweep, spec = coverage_vs_density, _density_spec((1.0,), n=10)
    with pytest.raises(ValueError, match="threads"):
        sweep(cfg, spec, threads=threads)


@pytest.mark.parametrize(
    "chunk, mean_devices, distance, density",
    [
        (1, 1500.0, _distance_spec((0.5, 6.0, 11.5), n=5000, seed=5), (0.0, 1.0, 30.0, 3000.0)),
        (97, 1500.0, _distance_spec((0.5, 6.0, 11.5), n=5000, seed=5), (0.0, 1.0, 30.0, 3000.0)),
        (
            4096,
            20000.0,
            _distance_spec(default_distance_grid(NetworkConfig()), n=9000, seed=1),
            default_density_grid(),
        ),
    ],
    ids=["1", "97", "4096-at-20000"],
)
def test_output_independent_of_chunk_size(monkeypatch, chunk, mean_devices, distance, density):
    """The CSV bytes do not depend on the interferers-per-chunk cap unless
    one realization holds more terms of one sub-field than the cap.  n_bar
    = 0 and 1 leave most realizations empty, so empty realizations fall at
    chunk ends; chunk 1 makes every busy realization its own chunk or more.
    At 20000 mean devices the sub-fields of a batch span 6 to 62 chunks of
    4096, all ended between realizations."""
    cfg = NetworkConfig(mean_devices=mean_devices)
    density = _density_spec(density, n=distance.realizations_per_point, seed=distance.seed)

    def csvs():
        return (
            curve_to_csv(success_vs_distance(cfg, distance), "d_km"),
            curve_to_csv(coverage_vs_density(cfg, density), "n_bar"),
        )

    default = csvs()
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    assert csvs() == default


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "block", [1, 3 * montecarlo._BATCH, 1 << 40], ids=["one-row", "three-rows", "whole-annulus"]
)
def test_output_independent_of_block_size(monkeypatch, block, threads):
    """Each row's sums are taken along its own realizations, so the point
    sums, and not only the CSV, are exactly those of the default blocks, with
    one full batch and a partial one."""
    default_sums, default_csv, _ = _sums_and_csv(monkeypatch, "distance", 1, 5000)
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    sums, csv, _ = _sums_and_csv(monkeypatch, "distance", threads, 5000)
    np.testing.assert_array_equal(sums, default_sums)
    assert csv == default_csv


def test_density_grid_bounded_by_int64_headroom():
    """A batch adds its interferer counts in int64, so the grid's largest
    mean device count gives at most 2**50 active interferers per
    realization; at 1e21 the count once failed inside numpy, naming no key."""
    with pytest.raises(ConfigError, match="n_bar_max must be at most 2\\*\\*50"):
        coverage_vs_density(NetworkConfig(), _density_spec((1.0, 1e21), n=100))


def _sampler_arrays(batch):
    """One batch of each annulus's sub-field at n_bar = 1500 and 20000, with
    each realization's term count, and the nested whole-cell fields at the
    same two counts with desired devices in all six annuli, copied at every
    step."""
    cfg = NetworkConfig()
    sub_fields = []
    for n_bar in (1500.0, 20000.0):
        for k, (lo, hi) in enumerate(montecarlo._ring_intervals(cfg)):
            # The sampler's first draw is the counts.
            counts = np.random.default_rng([9, k]).poisson(
                cfg.duty_cycle * n_bar * (hi - lo), size=batch
            )
            rng = np.random.default_rng([9, k])
            sub_fields.append((counts, montecarlo._field_powers(rng, batch, n_bar, cfg, (lo, hi))))
    draws = tuple(np.random.default_rng([9, 6, j]) for j in range(3))
    steps = montecarlo._nested_field_powers(draws, np.arange(batch) % 6, (1500.0, 18500.0), cfg)
    return sub_fields, [tuple(a.copy() for a in powers) for powers in steps]


@pytest.mark.parametrize(
    "chunk, batch",
    [(1, 64), (64, 4096), (97, 4096), (montecarlo._CHUNK, 4096)],
    ids=["1", "64", "97", "default"],
)
def test_sampler_arrays_independent_of_chunk_size(monkeypatch, chunk, batch):
    """The CSV's rounding can hide a last-bit drift of the sums at every cut,
    so the samplers' arrays are compared with a run cut nowhere.  The
    density sampler adds term by term, so its arrays are exact.  The
    distance sampler keeps its strongest terms exactly, and its sums
    exactly for every realization that fits a chunk, since chunks end
    between realizations.  It regroups the sum of a realization longer than
    the chunk at each cut, which moves it by a few ulp at most.  Chunk 1
    cuts every realization of two terms or more, so its batch is small;
    chunk 64 cuts some of the outer 20000-device realizations and not
    others; 97 and the default cut the 20000-device fields of a full batch
    between realizations only."""
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 40)
    ref_sub_fields, ref_steps = _sampler_arrays(batch)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    sub_fields, steps = _sampler_arrays(batch)
    cut = 0
    for (counts, (strongest, power)), (_, (ref_strongest, ref_power)) in zip(
        sub_fields, ref_sub_fields
    ):
        np.testing.assert_array_equal(strongest, ref_strongest)
        fits = counts <= chunk
        np.testing.assert_array_equal(power[fits], ref_power[fits])
        np.testing.assert_allclose(power[~fits], ref_power[~fits], rtol=1e-13, atol=0.0)
        cut += np.count_nonzero(~fits)
    assert (cut > 0) == (chunk < 97)
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
    inter-SF power the other five sub-fields' sums added in annulus order.
    Unit (annulus j, batch b) draws the desired fading, then the sub-field,
    from generator (seed, _TAG_DISTANCE, j, b)."""
    cfg = NetworkConfig()
    intervals = montecarlo._ring_intervals(cfg)
    for b, batch in montecarlo._batches(5000):
        rings = montecarlo._ring_batch(cfg, 9, b, batch)
        sub = np.empty((6, 3, batch))
        for j in range(6):
            montecarlo._ring_draw(cfg, 9, j, b, sub[j])
            rng = np.random.default_rng((9, montecarlo._TAG_DISTANCE, j, b))
            np.testing.assert_array_equal(sub[j, 0], montecarlo._desired_fading(rng, batch))
            powers = montecarlo._field_powers(rng, batch, cfg.mean_devices, cfg, intervals[j])
            np.testing.assert_array_equal(sub[j, 1:], powers)
        for k, (fading, (strongest, co, inter)) in enumerate(rings):
            own_fading, own_strongest, own_co = sub[k]
            np.testing.assert_array_equal(fading, own_fading)
            np.testing.assert_array_equal(strongest, own_strongest)
            np.testing.assert_array_equal(co, own_co)
            others = np.zeros(batch)
            for j in range(6):
                if j != k:
                    others = others + sub[j, 2]
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
        s_co = 1.0 - outage_closed_form(s.gamma_co)
        s_inter = 1.0 - outage_closed_form(s.gamma_inter)
        acc["max_co"].append(1.0 - outage_closed_form(s.gamma_max_co))
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
    steps = np.diff(grid, prepend=0.0)
    for b, size in montecarlo._batches(n):
        _, _, fields = montecarlo._density_batch(cfg, steps, 13, b, size)
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


@pytest.mark.parametrize("n, threads", [(9000, 1), (4096, 2)])
def test_estimate_mean_sir_reads_the_sweeps_draws(monkeypatch, n, threads):
    """The estimate's fraction of infinite SIRs is exactly the share of
    empty interferer sets in the field powers a one-point sweep at the same
    distance folds, in every scenario: by batch at one worker, and from the
    units two workers draw (one batch) at two."""
    cfg = NetworkConfig()
    ring = annulus_to_sf(1.0, cfg.cell_radius_km) - SF_MIN
    fold, recorded = montecarlo._fold, []

    def recording_fold(units):
        rings = fold(units)
        recorded.append([power.copy() for power in rings[ring][1]])
        return rings

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_fold", recording_fold)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
        success_vs_distance(cfg, _distance_spec((1.0,), n=n, seed=21), threads=threads)
    assert len(recorded) == len(montecarlo._batches(n))
    stats = estimate_mean_sir(cfg, 1.0, n, 21)
    assert stats["co"].inf_fraction > 0.0
    for key, powers in zip(("max_co", "co", "inter"), zip(*recorded)):
        empty = sum(np.count_nonzero(power == 0.0) for power in powers)
        assert stats[key].inf_fraction == empty / n


@pytest.mark.parametrize(
    "n, seed, message",
    [
        (100.0, 1, "n must be an integer"),
        (True, 1, "n must be an integer"),
        (100, 1.5, "seed must be an integer"),
        (100, -1, "seed must be >= 0"),
    ],
)
def test_estimate_mean_sir_rejects_bad_counts_naming_the_argument(n, seed, message):
    with pytest.raises(ValueError, match=message):
        estimate_mean_sir(NetworkConfig(), 1.0, n, seed)


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


def _direct(values, n):
    """Mean and standard error of one column's per-realization values, in
    the two-pass form, and the condition number ``mean(x**2) / var(x)`` of
    the sweep's sum-of-squares form."""
    values = np.concatenate(values)
    assert values.size == n
    var = values.var(ddof=1)
    return values.mean(), math.sqrt(var / n), np.mean(values * values) / var


def _assert_direct(point, columns, n):
    """Each mean within 1e-12 relative, and each standard error too, unless
    the sum-of-squares form is ill-conditioned: its variance is then good to
    about ``eps * kappa`` relative, which reached 1.5e-12 at kappa = 1e4 on
    the near-empty density points (n_bar <= 5)."""
    for name, values in columns.items():
        mean, se, kappa = _direct(values, n)
        rtol = max(1e-12, 4.0 * np.finfo(float).eps * kappa)
        np.testing.assert_allclose(getattr(point.probs, name), mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(getattr(point.stderr, name), se, rtol=rtol, atol=0.0)


# Three full batches and a partial one.
DIRECT_N = 3 * 4096 + 123


def _successes(g, y):
    """Per-realization successes from the scaled powers ``y`` and gains
    ``g``: against the strongest co-SF term, against the co-SF sum, and
    the joint one, co-SF times inter-SF."""
    s_max, s_co, s_inter = (1.0 + np.sqrt(g / (g + y))) / 2.0
    return s_max, s_co, s_co * s_inter


def test_distance_standard_errors_are_the_direct_ones():
    """Every mean and standard error of a distance sweep equals the direct
    mean and std(ddof=1)/sqrt(n) of its per-realization successes,
    recomputed from the batch walk; p_snr_sf is the product of the exact
    p_snr with the joint success."""
    cfg = NetworkConfig()
    grid = default_distance_grid(cfg)
    pinned = [montecarlo._pinned(cfg, d_km) for d_km in grid]
    p_snr = [snr_success_probability(d, SF_MIN + ring, cfg) for d, (_, ring) in zip(grid, pinned)]
    columns = [{"p_max_co": [], "p_co": [], "p_sf": [], "p_snr_sf": []} for _ in grid]
    for b, size in montecarlo._batches(DIRECT_N):
        rings = montecarlo._ring_batch(cfg, 5, b, size)
        for point, (gain, ring), snr in zip(columns, pinned, p_snr):
            fading, powers = rings[ring]
            y = montecarlo._scaled(powers, fading, np.empty((3, fading.size)))
            s_max, s_co, s_sf = _successes(gain, y)
            for values, v in zip(point.values(), (s_max, s_co, s_sf, snr * s_sf)):
                values.append(v)
    points = success_vs_distance(cfg, _distance_spec(grid, n=DIRECT_N, seed=5))
    for pt, point, snr in zip(points, columns, p_snr, strict=True):
        assert (pt.probs.p_snr, pt.stderr.p_snr) == (snr, 0.0)
        _assert_direct(pt, point, DIRECT_N)


def test_density_standard_errors_are_the_direct_ones():
    """Every mean and standard error of a density sweep equals the direct
    mean and std(ddof=1)/sqrt(n) of its per-realization successes,
    recomputed from the nested batch walk, the noise-only success and its
    product with the joint one (x = s_snr * t) included."""
    cfg = NetworkConfig()
    grid = default_density_grid(3000.0, 8)
    snr = []
    columns = [{"p_max_co": [], "p_co": [], "p_sf": [], "p_snr_sf": []} for _ in grid]
    steps = np.diff(grid, prepend=0.0)
    for b, size in montecarlo._batches(DIRECT_N):
        s, s_snr, fields = montecarlo._density_batch(cfg, steps, 5, b, size)
        snr.append(s_snr)
        for point, powers in zip(columns, fields):
            y = montecarlo._scaled(powers, None, np.empty((3, s.size)))
            s_max, s_co, s_sf = _successes(s, y)
            for values, v in zip(point.values(), (s_max, s_co, s_sf, s_snr * s_sf)):
                values.append(v)
    points = coverage_vs_density(cfg, _density_spec(grid, n=DIRECT_N, seed=5))
    for pt, point in zip(points, columns, strict=True):
        _assert_direct(pt, {"p_snr": snr, **point}, DIRECT_N)


# B full batches of 4096 realizations; the bounds are the 0.1% and 99.9%
# quantiles of chi2_{B-1} / (B - 1), fixed before the first run.
CALIBRATION_BATCHES = 40
CALIBRATION_BOUNDS = (0.443, 1.848)


@pytest.mark.parametrize("kind", ["distance", "density"])
def test_batch_means_calibrate_the_standard_errors(monkeypatch, kind):
    """Each batch draws from its own generators, so a column's B batch
    means are independent, and their variance over B estimates the squared
    standard error of the mean of all B * 4096 realizations.  Over the
    default grid at seed 11, the median of (variance / B) / se**2 of every
    column lies within the chi-square bounds above.  The rows of one sweep
    are correlated, so the bound is on the median over the grid and not on
    single rows; a column whose se is 0, the distance p_snr, is skipped.
    The batch sums are the rows the sweep merges, read from its shared
    memory."""
    shared, make = [], montecarlo._shared

    def record(*shape):
        shared.append(make(*shape))
        return shared[-1]

    monkeypatch.setattr(montecarlo, "_shared", record)
    cfg, size = NetworkConfig(), montecarlo._BATCH
    n = CALIBRATION_BATCHES * size
    if kind == "distance":
        grid = default_distance_grid(cfg)
        points = success_vs_distance(cfg, _distance_spec(grid, n=n, seed=11))
        (rows,) = shared
        p_snr = np.broadcast_to([pt.probs.p_snr for pt in points], rows.shape[:2])
        p_snr_sf = p_snr * 0.25 * rows[..., 4] / size
    else:
        grid = default_density_grid()
        points = coverage_vs_density(cfg, _density_spec(grid, n=n, seed=11))
        (shared_rows,) = shared
        rows = shared_rows[:, :-2].reshape(CALIBRATION_BATCHES, len(grid), 8)
        p_snr = np.repeat(shared_rows[:, -2:-1] / size, len(grid), axis=1)
        p_snr_sf = 0.25 * rows[..., 6] / size
    batch_means = {
        "p_snr": p_snr,
        "p_max_co": 0.5 * rows[..., 2] / size,
        "p_co": 0.5 * rows[..., 3] / size,
        "p_sf": 0.25 * rows[..., 4] / size,
        "p_snr_sf": p_snr_sf,
    }
    low, high = CALIBRATION_BOUNDS
    for column, means in batch_means.items():
        probs = [getattr(pt.probs, column) for pt in points]
        np.testing.assert_allclose(means.mean(axis=0), probs, rtol=1e-12, atol=0.0)
        se = np.array([getattr(pt.stderr, column) for pt in points])
        kept = se > 0.0
        if kind == "distance" and column == "p_snr":
            assert not kept.any()
            continue
        ratio = means.var(axis=0, ddof=1)[kept] / CALIBRATION_BATCHES / se[kept] ** 2
        assert low <= np.median(ratio) <= high, (column, np.median(ratio))
