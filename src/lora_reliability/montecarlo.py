"""Seeded Monte Carlo sweeps: success probability versus distance and
coverage probability versus the average number of devices.

Determinism contract: every work unit draws from its own generator seeded
by ``(seed, stream tag, unit index, batch index)`` and results are added in
index order, so output is bit-identical no matter how many workers run the
sweep.  The distance sweep's unit is the (annulus, batch) pair.  The active
devices form a Poisson process on the cell, which is the superposition of
six independent Poisson processes, one per annulus, so each batch draws the
field once for the whole grid, as six annulus sub-fields
(:func:`_ring_batches`).  A desired device in annulus k reads sub-field k as
its co-SF field and the other five as its inter-SF field; the grid points of
one annulus also share annulus k's desired fading, because in normalized
units a point's SIR is ``(d/R)**(-eta) * fading / I``.  So a row depends on
its distance, the seed and the realization count alone, not on the rest of
the grid; all rows are positively correlated (common random numbers), those
of one annulus most.  The density sweep runs its batches in order on the
calling thread, each across the whole grid, with fields drawn on the whole
cell.  Its fields are nested: a Poisson process at ``n_bar_i`` is the one at
``n_bar_{i-1}`` plus an independent increment, so grid point i draws only
that increment, from ``(seed, _TAG_DENSITY_FIELD, i, batch)``, and adds it
to the field of the point below it.  A density row therefore depends on the
grid points below it, and its substitution-mode interference columns never
rise with ``n_bar``.

The interference kernel :func:`_field_powers` works on chunks of whole
realizations with about ``_CHUNK`` active interferers each, so its memory
per worker thread is bounded by ``_CHUNK`` whatever the mean device count,
unless one realization alone averages more than ``_CHUNK`` active
interferers.  The chunk size is not part of the stream contract: every
per-realization sum adds the same terms in the same order at any chunk size.
This relies on PCG64's ``advance`` and on ``Generator.random`` using one
64-bit word per double: the fading draws come from a copy of the batch
generator advanced past the position draws.

The kernel works in normalized units.  Every scenario SIR is a ratio of
received powers ``tx * fading * gain(d)``, and both path-loss forms give
``gain(d) = C * d**(-eta)`` with a constant ``C``, so the transmit power,
wavelength, ``4*pi``, the km-to-m factor and the path-loss form cancel.  A
device at uniform-by-area draw ``u`` enters with its clamped area fraction
``v = max(u, (d_min/R)**2) = (d/R)**2`` as ``fading * v**(-eta/2)``.  Its
annulus is the one of the sub-field that drew it, or, in a whole-cell draw,
is read off ``v`` against the squared ring starts ``_RING_U``.  The
physical gain is computed only where noise needs it: the noise-only success
``p_snr`` and, in the density sweep, its per-realization form.  The point
step never forms the SIRs of the substitution mode: a coherent-FSK success
``1 - outage(g)`` depends on the SIR ``g = c * s / P`` only through
``1 / (1 + 2/g) = s / (s + (2/c) * P)``, so it is computed straight from the
desired signal ``s`` and the field power ``P`` (:func:`_successes`).

The interference field is sampled in its thinned form: instead of drawing
Poisson(mean_devices) candidates and keeping each with the duty-cycle
probability, the engine draws the active interferers directly as
Poisson(duty_cycle * mean_devices) with i.i.d. uniform positions.  The two
procedures produce identically distributed active fields, and only active
interferers enter any SIR.  This kernel is the only Monte Carlo engine.
The object-level path (:func:`geometry.sample_realization` with
:func:`interference.sir_sample`) keeps the explicit candidate-plus-thinning
form as the independent reference that tests and ``validate`` compare
against; no sweep or estimate calls it.
"""

from __future__ import annotations

import contextlib
import copy
import math
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import (
    JOINT_MODES,
    SIR_MODES,
    ScenarioProbabilities,
    combine_sf,
    outage_closed_form,
    success_from_sir,
)
from .channel import ChannelModel, path_loss, snr_success_probability
from .geometry import OutOfCellError, annulus_to_sf
from .params import CO_CHANNEL_REJECTION, SF_MIN, NetworkConfig, db_to_linear, dbm_to_mw, sf_table

DISTANCE_GRID_POINTS = 120
DENSITY_GRID_POINTS = 30

# Fixed batch size: realizations are simulated in vectorized chunks of this
# many; changing it changes the random streams, so it is part of the
# reproducibility contract.
_BATCH = 4096

# Interferers per chunk of the interference kernel: bounds its memory and
# keeps its working set in cache.  Not part of the stream contract; the
# kernel reads it at call time.
_CHUNK = 1 << 15

# Stream tags keep the generator families of the different draw purposes
# disjoint.  The density sweep samples the desired devices' distances and
# fading from a point-independent stream, so the noise-only column is exactly
# identical across the density grid.
_TAG_DISTANCE = 0
_TAG_DENSITY_DESIRED = 1
_TAG_DENSITY_FIELD = 2

# Squared ring starts (k/6)^2, k = 0..5, then inf: a device whose clamped
# area fraction v = (d/R)^2 lies in [_RING_U[k], _RING_U[k+1]) is in annulus
# k (SF 7 + k), so a ring start belongs to the outer ring.
_RING_U = np.array([(j / 6) ** 2 for j in range(6)] + [math.inf])
_RING_U.flags.writeable = False


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: the abscissa grid, per-point realization count, seed,
    and the combination modes."""

    kind: str  # "distance" | "density"
    grid: tuple[float, ...]
    realizations_per_point: int
    seed: int
    joint_mode: str = "success-product"
    sir_mode: str = "substitution"

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        if self.kind not in ("distance", "density"):
            raise ValueError(f"kind must be 'distance' or 'density', got {self.kind!r}")
        if not self.grid:
            raise ValueError("grid must not be empty")
        if not all(math.isfinite(x) for x in self.grid):
            raise ValueError(f"grid values must be finite, got {self.grid}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        low = self.grid[0]
        if self.kind == "distance" and low <= 0:
            raise ValueError(f"distance grid must be positive, got {low}")
        if self.kind == "density" and low < 0:
            raise ValueError(f"density grid must be non-negative, got {low}")
        if self.realizations_per_point < 1:
            raise ValueError(
                f"realizations_per_point must be >= 1, got {self.realizations_per_point}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.joint_mode not in JOINT_MODES:
            raise ValueError(f"joint_mode must be one of {JOINT_MODES}, got {self.joint_mode!r}")
        if self.sir_mode not in SIR_MODES:
            raise ValueError(f"sir_mode must be one of {SIR_MODES}, got {self.sir_mode!r}")


@dataclass(frozen=True)
class CurvePoint:
    """One sweep abscissa with its per-scenario means and standard errors."""

    abscissa: float
    probs: ScenarioProbabilities
    stderr: ScenarioProbabilities


@dataclass(frozen=True)
class SirStats:
    """Summary of one scenario's SIR draws at a fixed desired distance: the
    draws the ``mean-sir`` mode averages in the row of that distance of any
    distance sweep with the same seed and realization count.

    The scenario SIR is a ratio of fading mixtures and is heavy-tailed; its
    sample mean can be unstable (for a single co-SF interferer it is a ratio
    of exponentials, whose mean diverges), so the median and the fraction of
    infinite draws are reported alongside.
    """

    mean: float  # mean of the finite draws; inf when every draw is inf
    median: float  # median over all draws, infinities included
    inf_fraction: float
    count: int


def default_distance_grid(
    cfg: NetworkConfig, points: int = DISTANCE_GRID_POINTS
) -> tuple[float, ...]:
    """Evenly spaced distances from 0.1 km to the cell edge."""
    return tuple(float(x) for x in np.linspace(0.1, cfg.cell_radius_km, points))


def default_density_grid(
    n_bar_max: float = 3000.0, points: int = DENSITY_GRID_POINTS
) -> tuple[float, ...]:
    """Log-spaced mean device counts from 1 to ``n_bar_max`` inclusive."""
    if not (math.isfinite(n_bar_max) and n_bar_max > 1):
        raise ValueError(f"n_bar_max must be finite and > 1, got {n_bar_max}")
    grid = np.geomspace(1.0, n_bar_max, points)
    grid[0], grid[-1] = 1.0, float(n_bar_max)
    return tuple(float(x) for x in grid)


class _MeanAcc:
    """Running mean/standard-error accumulator, fed in batch order.  The
    mean of no values is inf: the mean-SIR of draws that are all inf."""

    __slots__ = ("count", "total", "total_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray) -> None:
        self.count += values.size
        self.total += float(values.sum())
        self.total_sq += float((values * values).sum())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.inf

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        var = (self.total_sq - self.total * self.total / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0) / self.count)


def _batches(n: int) -> list[tuple[int, int]]:
    full, rem = divmod(n, _BATCH)
    out = [(i, _BATCH) for i in range(full)]
    if rem:
        out.append((full, rem))
    return out


def _field_powers(
    rng: np.random.Generator,
    batch: int,
    n_bar: float,
    cfg: NetworkConfig,
    interval: tuple[float, float] = (0.0, 1.0),
    annulus: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one batch of active interference fields and return their
    normalized powers per realization: the strongest co-SF term, the co-SF
    sum and the inter-SF sum (0 where the interferer set is empty).  The
    point step turns them into successes (:func:`_successes`), or into SIRs
    in ``mean-sir`` mode (:func:`_sirs`).

    The field is a Poisson process of intensity ``duty * n_bar`` per unit
    of area fraction, restricted to the uniform-by-area draws ``u`` in
    ``interval = [lo, hi)``.  An interferer at area fraction
    ``v = max(u, (d_min/R)**2)`` contributes ``v**(-eta/2) * fading`` (see
    the module docstring).  With ``annulus=None`` the field is one
    annulus's sub-field (:func:`_ring_intervals`): every term is co-SF and
    no draw is tested against the ring starts.  Otherwise ``annulus`` holds
    one desired annulus per realization, the field is the whole cell, and
    each term is co-SF if its ``v`` lies in the desired ring.
    """
    lo_u, hi_u = interval
    width = hi_u - lo_u
    counts = rng.poisson(cfg.duty_cycle * n_bar * width, size=batch)
    total = int(counts.sum())
    co_power = np.zeros(batch)
    inter_power = np.zeros(batch)
    strongest = np.zeros(batch)
    if total == 0:
        return strongest, co_power, inter_power

    # The uniform draws of all interferers come first in ``rng``'s stream
    # and the exponential draws follow, one word per uniform double, so a
    # copy advanced by ``total`` words continues the fading stream where it
    # starts: chunked draws return the same numbers as two full-length ones.
    # A batch that fits one chunk draws its fading from ``rng`` itself.
    fading_rng = rng
    if total > _CHUNK:
        fading_bits = copy.copy(rng.bit_generator)
        fading_bits.advance(total)
        fading_rng = np.random.Generator(fading_bits)

    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    exponent = -0.5 * cfg.path_loss_exponent
    ends = np.cumsum(counts)
    lo = 0
    while lo < batch:
        # Whole realizations up to about _CHUNK interferers; one larger
        # realization is a chunk of its own.
        base = int(ends[lo] - counts[lo])
        hi = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), lo + 1)
        size = int(ends[hi - 1]) - base
        chunk_counts = counts[lo:hi]
        w = rng.random(size)
        if width < 1.0:  # on [0, 1) both steps would be exact no-ops
            w *= width
            w += lo_u
        if lo_u < v_min:
            np.maximum(w, v_min, out=w)
        if annulus is not None:  # ring k is [_RING_U[k], _RING_U[k + 1])
            same = w >= np.repeat(_RING_U[annulus[lo:hi]], chunk_counts)
            same &= w < np.repeat(_RING_U[annulus[lo:hi] + 1], chunk_counts)
        w **= exponent
        w *= fading_rng.exponential(size=size)
        # reduceat misreads empty segments, so it runs over the non-empty
        # realizations' (strictly increasing) starts only.
        filled = chunk_counts > 0
        starts = (ends[lo:hi] - chunk_counts - base)[filled]
        rows = lo + np.flatnonzero(filled)
        co_terms = w
        if annulus is not None:
            # w - w is exactly 0, so w holds the other-SF terms after this,
            # and zeros change neither a segment's sum nor its maximum.
            co_terms = w * same
            w -= co_terms
            inter_power[rows] = np.add.reduceat(w, starts)
        co_power[rows] = np.add.reduceat(co_terms, starts)
        strongest[rows] = np.maximum.reduceat(co_terms, starts)
        lo = hi
    return strongest, co_power, inter_power


def _draw(
    stream: tuple[int, ...],
    batch: int,
    n_bar: float,
    cfg: NetworkConfig,
    interval: tuple[float, float],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One batch from generator ``stream``: the desired fading, then the
    powers of one annulus's sub-field (see :func:`_field_powers`)."""
    rng = np.random.default_rng(stream)
    fading = _desired_fading(rng, batch)
    return fading, _field_powers(rng, batch, n_bar, cfg, interval)


def _desired_fading(rng: np.random.Generator, batch: int) -> np.ndarray:
    """One batch of desired-device fading: exponential draws raised to at
    least the smallest normal double.  A draw is exactly 0 with probability
    about 2**-53; the clamp keeps every desired signal ``gain * fading``
    positive, since every gain is at least 1, so :func:`_successes` never
    divides 0 by 0."""
    fading = rng.exponential(size=batch)
    return np.maximum(fading, np.finfo(float).tiny, out=fading)


def _ring_intervals(cfg: NetworkConfig) -> list[tuple[float, float]]:
    """The ``u``-interval of each annulus's sub-field, in annulus order: the
    draws whose clamped area fraction ``max(u, (d_min/R)**2)`` lies in the
    annulus.  That is ``[_RING_U[k], min(_RING_U[k+1], 1))``, except that the
    annulus holding ``(d_min/R)**2`` starts at 0 and any inside it is empty.
    """
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    return [
        (float(lo) if lo > v_min else 0.0, float(min(hi, 1.0)) if hi > v_min else 0.0)
        for lo, hi in zip(_RING_U[:-1], _RING_U[1:])
    ]


def _ring_batches(
    cfg: NetworkConfig, n: int, seed: int, run: Callable = map
) -> Iterator[list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
    """Per batch of ``n`` realizations, in batch order: the desired fading
    and the field powers of a desired device in each annulus, in annulus
    order.

    The active devices are the superposition of six independent Poisson
    processes, one per annulus (:func:`_ring_intervals`).  Batch ``b`` of
    annulus k draws annulus k's desired fading, then its sub-field, from
    generator ``(seed, _TAG_DISTANCE, k, b)``.  Annulus k reads its own
    sub-field's strongest term and sum, and as inter-SF power the other five
    sums added in annulus order: the total minus its own sum would cancel to
    0 where its own sum dominates, and turn a finite SIR into inf.  ``run``
    is ``map`` or a thread pool's ``map``; the bytes are the same for both.
    """
    intervals = _ring_intervals(cfg)
    for batch_index, batch in _batches(n):

        def draw(k: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
            stream = (seed, _TAG_DISTANCE, k, batch_index)
            return _draw(stream, batch, cfg.mean_devices, cfg, intervals[k])

        # Outer annuli hold more devices; starting them first evens the
        # threads' loads.
        rings = list(run(draw, range(5, -1, -1)))[::-1]
        sums = [co_power for _, (_, co_power, _) in rings]
        yield [
            (fading, (strongest, sums[k], sum(sums[j] for j in range(6) if j != k)))
            for k, (fading, (strongest, _, _)) in enumerate(rings)
        ]


def _sirs(
    powers: tuple[np.ndarray, np.ndarray, np.ndarray], s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three scenario SIRs of desired signals ``s`` against one batch of
    field powers (see :func:`_field_powers`), inf where the relevant
    interferer set is empty."""
    strongest, co_power, inter_power = powers
    # Dividing only where the power is positive keeps the empty-set points
    # at inf and avoids 0/0.
    return tuple(
        np.divide(signal, power, out=np.full(s.shape, np.inf), where=power > 0.0)
        for signal, power in (
            (CO_CHANNEL_REJECTION * s, strongest),
            (s, co_power),
            (s, inter_power),
        )
    )


def _successes(
    powers: tuple[np.ndarray, np.ndarray, np.ndarray], s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three substitution-mode successes ``1 - outage(SIR)`` of desired
    signals ``s > 0`` against one batch of field powers (see
    :func:`_field_powers`), as ``0.5 + 0.5 * sqrt(s / (s + k * P))``: with
    the SIR ``g = c * s / P``, ``k = 2 / c``, and ``c`` is
    ``CO_CHANNEL_REJECTION`` for the strongest term and 1 for the sums.  An
    empty interferer set (``P = 0``) gives exactly 1, the success at
    infinite SIR."""
    out = []
    for k, power in zip((2.0 / CO_CHANNEL_REJECTION, 2.0, 2.0), powers):
        q = k * power
        q += s
        np.divide(s, q, out=q)
        np.sqrt(q, out=q)
        q *= 0.5
        q += 0.5
        out.append(q)
    return tuple(out)


def _joint_success(s_co: np.ndarray, s_inter: np.ndarray, mode: str) -> np.ndarray:
    if mode == "success-product":
        return s_co * s_inter
    return 1.0 - (1.0 - s_co) * (1.0 - s_inter)


def _pinned(cfg: NetworkConfig, d_km: float) -> tuple[float, int]:
    """Normalized gain ``(d/R)**(-eta)`` and annulus index of a desired
    device pinned at ``d_km``."""
    if not cfg.min_distance_km <= d_km <= cfg.cell_radius_km:
        raise OutOfCellError(
            f"desired distance {d_km} km outside "
            f"[{cfg.min_distance_km}, {cfg.cell_radius_km}] km"
        )
    gain = (d_km / cfg.cell_radius_km) ** -cfg.path_loss_exponent
    return gain, annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN


def _by_area(
    u: np.ndarray, cfg: NetworkConfig, model: ChannelModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Desired devices at uniform-by-area draws ``u``: their normalized gain
    ``v**(-eta/2)`` and annulus index, from the clamped area fraction
    ``v = max(u, (d_min/R)**2)``, and their noise-only success.  The
    physical gain is the cell-edge gain times the normalized one."""
    v = np.maximum(u, (cfg.min_distance_km / cfg.cell_radius_km) ** 2)
    annulus = np.searchsorted(_RING_U, v, side="right") - 1
    gain = v ** (-0.5 * cfg.path_loss_exponent)
    theta = np.array([db_to_linear(row.snr_threshold_db) for row in sf_table()])[annulus]
    edge_mw = dbm_to_mw(cfg.tx_power_dbm) * path_loss(cfg.cell_radius_km, model)
    return gain, annulus, np.exp(-(model.noise_mw * theta) / (edge_mw * gain))


class _Point:
    """The running sums of one sweep point, fed batch by batch: the success
    sums in ``substitution`` mode, the finite-SIR sums in ``mean-sir`` mode,
    and, in ``substitution`` mode with a per-realization noise-only success,
    the sums of its product with the joint success.
    """

    __slots__ = ("joint_mode", "substitution", "scenario", "snr_sf")

    def __init__(self, spec: SweepSpec) -> None:
        self.joint_mode = spec.joint_mode
        self.substitution = spec.sir_mode == "substitution"
        # substitution: success of max_co, co, sf; mean-sir: finite SIRs of
        # max_co, co, inter
        self.scenario = [_MeanAcc() for _ in range(3)]
        self.snr_sf = _MeanAcc()

    def add(
        self,
        powers: tuple[np.ndarray, np.ndarray, np.ndarray],
        s: np.ndarray,
        s_snr: np.ndarray | None = None,
    ) -> None:
        """One batch: field powers, desired signals ``s`` in normalized
        units, and the per-realization noise-only success, if any."""
        if self.substitution:
            s_max, s_co, s_inter = _successes(powers, s)
            s_sf = _joint_success(s_co, s_inter, self.joint_mode)
            values = (s_max, s_co, s_sf)
        else:
            values = tuple(g[np.isfinite(g)] for g in _sirs(powers, s))
        for acc, v in zip(self.scenario, values):
            acc.add(v)
        if s_snr is not None and self.substitution:
            self.snr_sf.add(s_snr * s_sf)

    def result(self, abscissa: float, p_snr: float, se_snr: float = 0.0) -> CurvePoint:
        """The point's means and standard errors, with the noise-only
        success ``p_snr`` and its standard error."""
        if self.substitution:
            p_max, p_co, p_sf = (acc.mean for acc in self.scenario)
            se_max, se_co, se_sf = (acc.stderr for acc in self.scenario)
        else:
            mean_max, mean_co, mean_inter = (acc.mean for acc in self.scenario)
            p_max, p_co = success_from_sir(mean_max), success_from_sir(mean_co)
            p_sf = combine_sf(
                outage_closed_form(mean_co), outage_closed_form(mean_inter), self.joint_mode
            )
            se_max = se_co = se_sf = 0.0
        # A random desired position couples noise and interference, so the
        # substitution mode averages their per-realization product there.
        if self.snr_sf.count:
            p_snr_sf, se_snr_sf = self.snr_sf.mean, self.snr_sf.stderr
        else:
            p_snr_sf, se_snr_sf = p_snr * p_sf, p_snr * se_sf
        return CurvePoint(
            abscissa=abscissa,
            probs=ScenarioProbabilities(p_snr, p_max, p_co, p_sf, p_snr_sf),
            stderr=ScenarioProbabilities(se_snr, se_max, se_co, se_sf, se_snr_sf),
        )


@contextlib.contextmanager
def _mapper(threads: int) -> Iterator[Callable]:
    """``map`` for one thread, else the ``map`` of a pool of ``threads``
    threads that lives as long as the context; both keep input order."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool.map


def success_vs_distance(
    cfg: NetworkConfig,
    spec: SweepSpec,
    *,
    path_loss_form: str = "standard",
    threads: int = 1,
) -> list[CurvePoint]:
    """Per-scenario success probability at each grid distance, with the
    desired device pinned at the abscissa and the interference field
    resampled every realization.

    Every batch draws one field for the whole grid, as six annulus
    sub-fields (:func:`_ring_batches`), and the grid points of one annulus
    scale the same desired fading by their own gains.  A row therefore
    depends only on its distance, the seed and the realization count, not
    on the rest of the grid, and all points are positively correlated,
    those of one annulus most.
    """
    if spec.kind != "distance":
        raise ValueError(f"spec.kind must be 'distance', got {spec.kind!r}")
    pinned = [_pinned(cfg, d_km) for d_km in spec.grid]
    points = [_Point(spec) for _ in spec.grid]
    with _mapper(threads) as run:
        for rings in _ring_batches(cfg, spec.realizations_per_point, spec.seed, run):
            for point, (gain, ring) in zip(points, pinned):
                fading, powers = rings[ring]
                point.add(powers, gain * fading)
    return [
        point.result(
            d_km, snr_success_probability(d_km, SF_MIN + ring, cfg, path_loss_form)
        )
        for point, d_km, (_, ring) in zip(points, spec.grid, pinned)
    ]


def coverage_vs_density(
    cfg: NetworkConfig,
    spec: SweepSpec,
    *,
    path_loss_form: str = "standard",
    threads: int = 1,
) -> list[CurvePoint]:
    """Per-scenario coverage probability at each mean device count: the
    spatial average of success probability over a uniformly-by-area random
    desired-device location.

    The fields of the grid are nested.  A Poisson process of intensity
    ``duty * n_bar_i`` is the one at ``n_bar_{i-1}`` plus an independent
    increment of intensity ``duty * (n_bar_i - n_bar_{i-1})``, so each
    batch walks the grid once and point i draws only its increment, from
    generator ``(seed, _TAG_DENSITY_FIELD, i, batch)``, and adds it to the
    running field powers.  The desired devices and their fading are drawn
    once per batch, from generator ``(seed, _TAG_DENSITY_DESIRED, batch)``,
    and every point reads them, which is why the noise-only column ``p_snr``
    is bit-identical across the grid.  Each row keeps its law, but a row
    depends on the grid points below it, and in substitution mode the
    interference columns never rise with the mean device count.

    The batches run in order on the calling thread: ``threads`` must be at
    least 1 and does not affect this sweep.
    """
    if spec.kind != "density":
        raise ValueError(f"spec.kind must be 'density', got {spec.kind!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    model = ChannelModel.from_config(cfg, path_loss_form)
    steps = np.diff(spec.grid, prepend=0.0)  # n_bar_i - n_bar_{i-1}, n_bar_{-1} = 0
    points = [_Point(spec) for _ in spec.grid]
    snr = _MeanAcc()
    for batch_index, batch in _batches(spec.realizations_per_point):
        rng = np.random.default_rng([spec.seed, _TAG_DENSITY_DESIRED, batch_index])
        gain, annulus, s_snr = _by_area(rng.random(batch), cfg, model)
        s = gain * _desired_fading(rng, batch)
        snr.add(s_snr)
        strongest, co_power, inter_power = np.zeros(batch), np.zeros(batch), np.zeros(batch)
        for i, (point, step) in enumerate(zip(points, steps)):
            stream = (spec.seed, _TAG_DENSITY_FIELD, i, batch_index)
            added = _field_powers(np.random.default_rng(stream), batch, step, cfg, annulus=annulus)
            np.maximum(strongest, added[0], out=strongest)
            co_power += added[1]
            inter_power += added[2]
            point.add((strongest, co_power, inter_power), s, s_snr)
    return [point.result(n_bar, snr.mean, snr.stderr) for point, n_bar in zip(points, spec.grid)]


def estimate_mean_sir(
    cfg: NetworkConfig,
    d_km: float,
    n: int,
    seed: int,
) -> dict[str, SirStats]:
    """Statistics of the per-scenario SIR draws that the ``mean-sir`` mode
    averages.  For the same seed and realization count these are the draws
    of the ``d_km`` row of any distance sweep whose grid holds ``d_km``: it
    reads the same six annulus sub-fields (:func:`_ring_batches`).  So, for
    instance, ``success_from_sir(stats["co"].mean)`` is that row's ``p_co``
    with either path-loss form.  Keys: ``max_co``, ``co``, ``inter``."""
    if n < 1:
        raise ValueError(f"need n >= 1 realizations, got {n}")
    gain, ring = _pinned(cfg, d_km)
    finite = [_MeanAcc() for _ in range(3)]
    kept: list[list[np.ndarray]] = [[], [], []]
    for rings in _ring_batches(cfg, n, seed):
        fading, powers = rings[ring]
        for acc, arrays, gammas in zip(finite, kept, _sirs(powers, gain * fading)):
            acc.add(gammas[np.isfinite(gammas)])
            arrays.append(gammas)
    return {
        key: SirStats(
            mean=acc.mean,
            median=float(np.median(np.concatenate(arrays))),
            inf_fraction=(n - acc.count) / n,
            count=n,
        )
        for key, acc, arrays in zip(("max_co", "co", "inter"), finite, kept)
    }
