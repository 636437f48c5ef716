"""Seeded Monte Carlo sweeps: success probability versus distance and
coverage probability versus the average number of devices.

Determinism contract: every work unit draws from its own generators, seeded
by the seed, a stream tag and the unit's indices, and results are added in
index order, so output is bit-identical no matter how many workers run the
sweep.  The distance sweep's unit is the (annulus, batch) pair
(:func:`_ring_draw`).  The active devices form a Poisson process on the
cell, which is the superposition of six independent Poisson processes, one
per annulus, so each batch draws the field once for the whole grid, as six
annulus sub-fields (:func:`_ring_batch`).  A desired device in annulus k
reads sub-field k as its co-SF field and the other five as its inter-SF
field; the grid points of one annulus also share annulus k's desired fading,
because in normalized units a point's SIR is ``(d/R)**(-eta) * fading / I``.
So a row depends on its distance, the seed and the realization count alone,
not on the rest of the grid; all rows are positively correlated (common
random numbers), those of one annulus most.  The density sweep's unit is the
batch (:func:`_density_batch`), each across the whole grid, with fields drawn
on the whole cell.  Its fields are nested: a Poisson process at ``n_bar_i`` is
the one at ``n_bar_{i-1}`` plus an independent increment, so grid point i
draws only that increment and adds it to the field of the point below it.
The increment's interferers in one batch are a single Poisson count, each
with a uniform owner realization, which gives every realization an
independent Poisson count (Poisson splitting); each batch reads all its
increments, in grid order, from three generators
``(seed, _TAG_DENSITY_FIELD, batch, j)`` (:func:`_nested_field_powers`).
A density row therefore depends on the grid points below it, and its
interference columns never rise with ``n_bar``.  Both sweeps run on the
same workers (:func:`_forked`), the calling process and forked children,
which write each batch's raw sums into that batch's row of shared memory
(:func:`_shared`); the calling process adds the rows in batch order.  Where
the distance sweep has fewer batches than workers, a pool of as many threads
first only draws its units, each into its own slice of one array, and the
calling process then runs every batch from them without forking.

Both interference samplers cut their active interferers into chunks of at
most ``_CHUNK``, at any count, so their memory per worker is bounded
whatever the mean device count.  The draws are the same at any chunk size,
and the chunk size changes no byte unless one realization holds more than
``_CHUNK`` terms of one sub-field.  :func:`_nested_field_powers` reads each
of its generators in order across chunks and adds term by term
(``ufunc.at``), so its sums never depend on the chunk size; its owner draws
take 32-bit words, whose spare half PCG64 keeps in the bit generator between
calls.  :func:`_field_powers` folds each chunk per realization with
``np.add.reduceat``, which does not add a segment left to right, so it ends
each chunk between two realizations: a realization's terms lie in one
segment, whose pairwise sum depends only on its terms.  Only a realization
longer than ``_CHUNK``, about 10**7 mean devices at 1% duty, is cut inside,
and its sum is regrouped at the cut.  :func:`_field_powers` relies on
PCG64's ``advance`` and on ``Generator.random`` using one 64-bit word per
double: its fading draws come from a copy of the batch generator advanced
past the position draws.

The kernel works in normalized units.  Every scenario SIR is a ratio of
received powers ``tx * fading * gain(d)``, and the free-space gain is
``gain(d) = C * d**(-eta)`` with a constant ``C``, so the transmit power,
wavelength, ``4*pi`` and the km-to-m factor cancel.  A device at
uniform-by-area draw ``u`` enters with its clamped area fraction
``v = max(u, (d_min/R)**2) = (d/R)**2`` as ``fading * v**(-eta/2)``.  Its
annulus is the one of the sub-field that drew it, or, in a whole-cell draw,
is read off ``v`` against the squared ring starts ``_RING_U``.  The
physical gain is computed only where noise needs it: the noise-only success
``p_snr`` and, in the density sweep, its per-realization form.  Each
realization's instantaneous SIR is substituted into the coherent-FSK outage
closed form and the successes are averaged, but the point step never forms
the SIR: a success ``1 - outage(g)`` depends on the SIR ``g = c * s / P``
only through ``1 / (1 + 2/g) = s / (s + (2/c) * P)``.  With the desired
signal ``s = G * f`` of gain ``G`` and fading ``f``, that is
``q = G / (G + y)`` with the scaled power ``y = (2/c) * P / f``
(:func:`_scaled`).  One evaluator serves both sweeps (:func:`_evaluate`).
It keeps per-point raw sums in doubled units: ``u = 1 + sqrt(q)`` is twice
a success and ``t = u_co * u_inter`` four times the joint one, and the
factors 1/2 and 1/4 go on the finished means, so the scenario order
``p_snr_sf <= p_sf <= p_co <= p_max_co`` holds exactly.  The distance sweep
computes ``y`` once per (annulus, batch), since the grid points of one
annulus read the same ``P`` and ``f`` and differ only in ``G``, and
evaluates those points together in row blocks of at most ``_BLOCK``
elements; the density sweep evaluates each point as one row with ``f = 1``
and ``G = s``.

The interference field is sampled in its thinned form: instead of drawing
Poisson(mean_devices) candidates and keeping each with the duty-cycle
probability, the engine draws the active interferers directly as
Poisson(duty_cycle * mean_devices) with i.i.d. uniform positions.  The two
procedures produce identically distributed active fields, and only active
interferers enter any SIR.  These samplers are the only Monte Carlo engine,
and ``validate`` checks its interference algebra on one batch of
:func:`_ring_batch`.  The object-level path in
:mod:`lora_reliability.reference` keeps the explicit candidate-plus-thinning
form as the independent reference that the tests compare against; no sweep,
estimate or command imports it.
"""

from __future__ import annotations

import contextlib
import copy
import math
import mmap
import os
import signal
import traceback
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import ScenarioProbabilities
from .channel import ChannelModel, path_loss, snr_success_probability
from .params import (
    CO_CHANNEL_REJECTION,
    SF_MIN,
    NetworkConfig,
    annulus_to_sf,
    db_to_linear,
    dbm_to_mw,
    require_active_headroom,
    require_in_cell,
    require_integer,
    require_real,
    sf_table,
)

DISTANCE_GRID_POINTS = 120
DENSITY_GRID_POINTS = 30

# Fixed batch size: realizations are simulated in vectorized chunks of this
# many; changing it changes the random streams, so it is part of the
# reproducibility contract.  params.require_active_headroom bounds the mean
# active interferers so that a batch of this many counts adds up in int64.
_BATCH = 4096

# Interferers per chunk of the interference kernel: bounds its memory and
# keeps its working set in cache.  It changes no draw, and no byte unless one
# realization holds more than this many terms of one sub-field, whose sum the
# cut regroups (module docstring).  The kernel reads it at call time.
_CHUNK = 1 << 15

# Elements per block of the point step: the distance sweep evaluates the
# points of one annulus together, as many rows of a batch as fit.  Not part
# of the stream contract: a point's sums are the same at any block size.
_BLOCK = 5 * _BATCH

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
    """What to sweep: the abscissa grid, per-point realization count and
    seed.  The grid holds floats (:func:`params.require_real`); each sweep
    checks it against its own abscissa's range."""

    kind: str  # "distance" | "density"
    grid: tuple[float, ...]
    realizations_per_point: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(require_real("grid", x) for x in self.grid))
        if self.kind not in ("distance", "density"):
            raise ValueError(f"kind must be 'distance' or 'density', got {self.kind!r}")
        if not self.grid:
            raise ValueError("grid must not be empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        require_integer("realizations_per_point", self.realizations_per_point, 1)
        require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class CurvePoint:
    """One sweep abscissa with its per-scenario means and standard errors."""

    abscissa: float
    probs: ScenarioProbabilities
    stderr: ScenarioProbabilities


@dataclass(frozen=True)
class SirStats:
    """Summary of one scenario's SIR draws at a fixed desired distance, from
    the same draws as the row of that distance of any distance sweep with
    the same seed and realization count.

    The scenario SIR is a ratio of fading mixtures and is heavy-tailed: its
    moments are dominated by the nearest interferer (for a single co-SF
    interferer the SIR is a ratio of exponentials, whose mean diverges), so
    only the median and the fraction of infinite draws, an empty interferer
    set, are reported.
    """

    median: float  # median over all draws, infinities included
    inf_fraction: float
    count: int


def default_distance_grid(
    cfg: NetworkConfig, points: int = DISTANCE_GRID_POINTS
) -> tuple[float, ...]:
    """Evenly spaced distances from 0.1 km to the cell edge.  A cell that
    excludes 0.1 km starts at ``min_distance_km`` or, if it is no wider than
    0.1 km, at the larger of ``min_distance_km`` and ``R / points``.  A start
    within a few ulps of the edge rounds some distances together; each
    distinct one is kept once, so the grid may hold fewer than ``points``."""
    require_integer("points", points, 1)
    radius = cfg.cell_radius_km
    start = max(cfg.min_distance_km, 0.1 if radius > 0.1 else radius / points)
    return tuple(float(x) for x in np.unique(np.linspace(start, radius, points)))


def default_density_grid(
    n_bar_max: float = 3000.0, points: int = DENSITY_GRID_POINTS
) -> tuple[float, ...]:
    """Log-spaced mean device counts from 1 to ``n_bar_max`` inclusive.  An
    ``n_bar_max`` within a few ulps of 1 rounds some counts together; each
    distinct one is kept once, so the grid may hold fewer than ``points``."""
    require_integer("points", points, 2)
    if (n_bar_max := require_real("n_bar_max", n_bar_max)) <= 1:
        raise ValueError(f"n_bar_max must be > 1, got {n_bar_max}")
    # Near the largest double the last power may overflow; it is set below.
    with np.errstate(over="ignore"):
        grid = np.geomspace(1.0, n_bar_max, points)
    grid[0], grid[-1] = 1.0, n_bar_max
    return tuple(float(x) for x in np.unique(grid))


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Mean and standard error of ``n`` values from their sum and sum of
    squares."""
    if n < 2:
        return total / n, 0.0
    var = (total_sq - total * total / n) / (n - 1)
    return total / n, math.sqrt(max(var, 0.0) / n)


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
    interval: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one batch of one annulus's sub-field (:func:`_ring_intervals`)
    and return its normalized powers per realization: the strongest term and
    the sum (0 where the interferer set is empty).

    The sub-field is a Poisson process of intensity ``duty * n_bar`` per
    unit of area fraction, restricted to the uniform-by-area draws ``u`` in
    ``interval = [lo, hi)``.  An interferer at area fraction
    ``v = max(u, (d_min/R)**2)`` contributes ``v**(-eta/2) * fading`` (see
    the module docstring).  It works in chunks of at most ``_CHUNK`` terms at
    any count, each ending at the last realization boundary it holds, so
    the chunk size changes no sum unless one realization holds more than
    ``_CHUNK`` terms.  Only such a realization is cut, and carried into the
    next chunk.
    """
    lo_u, hi_u = interval
    width = hi_u - lo_u
    counts = rng.poisson(cfg.duty_cycle * n_bar * width, size=batch)
    # Realization i has terms bounds[i]:bounds[i + 1].
    bounds = np.concatenate(([0], np.cumsum(counts)))
    total = int(bounds[-1])

    # The uniform draws of all interferers come first in ``rng``'s stream
    # and the exponential draws follow, one word per uniform double, so a
    # copy advanced by ``total`` words continues the fading stream where it
    # starts: chunked draws return the same numbers as two full-length ones.
    fading_rng = np.random.Generator(copy.copy(rng.bit_generator).advance(total))

    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    exponent = -0.5 * cfg.path_loss_exponent
    # reduceat misreads empty segments, so it folds the non-empty
    # realizations only, at their (strictly increasing) starts.
    rows = np.flatnonzero(counts)
    starts = bounds[rows]
    strongest, power = np.zeros(batch), np.zeros(batch)
    start = 0
    while start < total:
        # The chunk ends at the last realization boundary within _CHUNK terms,
        # inside a realization only if that one alone is longer.
        stop = int(bounds[np.searchsorted(bounds, start + _CHUNK, side="right") - 1])
        if stop <= start:
            stop = min(start + _CHUNK, total)
        w = rng.random(stop - start)
        w *= width
        w += lo_u
        if lo_u < v_min:
            np.maximum(w, v_min, out=w)
        w **= exponent
        w *= fading_rng.standard_exponential(stop - start)
        # Realizations rows[lo:hi] have terms here; only rows[lo] can have
        # terms in an earlier chunk, whose running values it adds.
        lo = int(np.searchsorted(starts, start, side="right")) - 1
        hi = int(np.searchsorted(starts, stop))
        at, segments = rows[lo:hi], starts[lo:hi] - start
        segments[0] = 0
        top, sums = np.maximum.reduceat(w, segments), np.add.reduceat(w, segments)
        top[0], sums[0] = max(top[0], strongest[at[0]]), sums[0] + power[at[0]]
        strongest[at], power[at] = top, sums
        start = stop
    return strongest, power


def _nested_field_powers(
    draws: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
    annulus: np.ndarray,
    steps: Iterable[float],
    cfg: NetworkConfig,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nested whole-cell fields for one batch of desired devices in
    ``annulus`` (one index per realization): after adding each increment
    of ``steps`` mean devices, yield the running normalized powers per
    realization, the strongest co-SF term, the co-SF sum and the inter-SF
    sum (0 where the interferer set is empty).  The three arrays are
    updated in place by the next increment.

    An increment of ``n_bar`` is a Poisson process of intensity
    ``duty * n_bar`` per unit of area fraction on the cell of every
    realization.  Their superposition over the batch is one Poisson count
    ``N ~ Poisson(duty * n_bar * batch)`` of interferers, each with a
    uniform owner realization, which gives every realization an
    independent Poisson count of the right mean (Poisson splitting).  Each
    interferer has a uniform-by-area draw and fading as in
    :func:`_field_powers`, and is co-SF if its clamped area fraction lies in
    its owner's desired ring.  ``draws`` are three generators read in
    order across increments and chunks: the counts and owners, the area
    draws and the fading.  Terms are added one by one in interferer order
    (``ufunc.at``), so the chunk size changes neither the draws nor the
    sums, and memory is bounded by ``_CHUNK`` whatever the mean count.
    """
    owners, positions, fadings = draws
    batch = annulus.size
    ring_lo, ring_hi = _RING_U[annulus], _RING_U[annulus + 1]
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    exponent = -0.5 * cfg.path_loss_exponent
    strongest, co_power, inter_power = np.zeros(batch), np.zeros(batch), np.zeros(batch)
    for step in steps:
        total = int(owners.poisson(cfg.duty_cycle * step * batch))
        for start in range(0, total, _CHUNK):
            size = min(_CHUNK, total - start)
            owner = owners.integers(batch, size=size)
            w = positions.random(size)
            np.maximum(w, v_min, out=w)
            same = w >= ring_lo[owner]  # ring k is [_RING_U[k], _RING_U[k + 1])
            same &= w < ring_hi[owner]
            w **= exponent
            w *= fadings.standard_exponential(size)
            co = same.nonzero()[0]
            co_owner, co_terms = owner[co], w[co]
            np.maximum.at(strongest, co_owner, co_terms)
            np.add.at(co_power, co_owner, co_terms)
            w[co] = 0.0  # a zero term changes no sum
            np.add.at(inter_power, owner, w)
        yield strongest, co_power, inter_power


def _desired_fading(rng: np.random.Generator, batch: int) -> np.ndarray:
    """One batch of desired-device fading: exponential draws raised to at
    least the smallest normal double.  A draw is exactly 0 with probability
    about 2**-53; the clamp keeps every scaled power ``k * P / fading``
    (:func:`_scaled`) from 0/0 where the field is empty, and every desired
    signal ``gain * fading`` positive, since every gain is at least 1."""
    fading = rng.standard_exponential(batch)
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


def _ring_draw(cfg: NetworkConfig, seed: int, k: int, b: int, out: np.ndarray) -> None:
    """Unit (annulus ``k``, batch ``b``) of the distance sweep: write
    annulus k's desired fading, then its sub-field's strongest term and sum
    at ``cfg.mean_devices`` (:func:`_ring_intervals`, :func:`_field_powers`),
    into ``out[0]``, ``out[1]`` and ``out[2]``, one realization per column.
    Each unit draws from generator ``(seed, _TAG_DISTANCE, k, b)``."""
    rng = np.random.default_rng((seed, _TAG_DISTANCE, k, b))
    size = out.shape[-1]
    out[0] = _desired_fading(rng, size)
    out[1], out[2] = _field_powers(rng, size, cfg.mean_devices, cfg, _ring_intervals(cfg)[k])


def _ring_batch(
    cfg: NetworkConfig, seed: int, b: int, size: int
) -> list[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Batch ``b`` of ``size`` realizations (:func:`_batches`): the six
    units of :func:`_ring_draw`, folded (:func:`_fold`)."""
    units = np.empty((6, 3, size))
    for k in range(6):
        _ring_draw(cfg, seed, k, b, units[k])
    return _fold(units)


def _fold(units: np.ndarray) -> list[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """One batch's six units (:func:`_ring_draw`), an array of shape
    ``(6, 3, size)`` in annulus order, as each annulus's desired fading and
    field powers: its own sub-field's strongest term and sum, and as
    inter-SF power the other five sums added in annulus order.  The total
    minus its own sum would cancel to 0 where its own sum dominates, and
    turn a finite SIR into inf."""
    sums = units[:, 2]
    return [
        (fading, (strongest, sums[k], sum(sums[j] for j in range(6) if j != k)))
        for k, (fading, strongest, _) in enumerate(units)
    ]


def _sirs(
    powers: tuple[np.ndarray, np.ndarray, np.ndarray], s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three scenario SIRs of desired signals ``s`` against one batch of
    field powers (strongest co-SF term, co-SF sum, inter-SF sum), inf where
    the relevant interferer set is empty."""
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


def _scaled(
    powers: tuple[np.ndarray, np.ndarray, np.ndarray],
    fading: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    """Write the point step's scaled powers ``y = k * P / f`` of one batch
    of field powers (strongest co-SF term, co-SF sum, inter-SF sum) into
    ``out[0]``, ``out[1]`` and ``out[2]``, and return ``out``: ``k = 2 / c``,
    ``c`` is ``CO_CHANNEL_REJECTION`` for the strongest term and 1 for the
    sums, and ``f`` is the desired fading, or 1 where ``fading`` is None.
    A desired signal ``s = g * f`` of gain ``g`` then has the success
    ``(1 + sqrt(g / (g + y))) / 2`` (:func:`_evaluate`).  ``k * P`` is
    exact, and the strongest term is at most the co-SF sum, so ``y`` of the
    strongest term is at most ``y`` of the co-SF sum, elementwise and
    exactly."""
    for k, power, y in zip((2.0 / CO_CHANNEL_REJECTION, 2.0, 2.0), powers, out):
        np.multiply(power, k, out=y)
    if fading is not None:
        # A fading near the smallest double can overflow y to inf, which
        # gives the success 1/2 of an infinite power-to-signal ratio.
        with np.errstate(over="ignore"):
            np.divide(out, fading, out=out)
    return out


def _evaluate(
    y: np.ndarray,
    g: np.ndarray,
    sums: np.ndarray,
    scratch: np.ndarray,
    s_snr: np.ndarray | None = None,
) -> None:
    """Add one batch's raw success sums to ``sums``, one row per point, in
    doubled units: ``u = 1 + sqrt(q)`` is twice a success,
    ``t = u_co * u_inter`` four times the joint success and, with
    ``s_snr``, the per-realization noise-only success, ``x = s_snr * t``
    four times its product with the noise-only success.  The columns are
    ``sum(q_max), sum(q_co), sum(u_max), sum(u_co), sum(t), sum(t**2)``,
    then ``sum(x), sum(x**2)`` with ``s_snr``.

    ``y`` holds the scaled powers of :func:`_scaled`, one scenario per
    entry of its first axis, and ``g`` the gains.  Each ``y[j]`` and ``g``
    broadcast to one block of shape ``g.shape[:-1] + y.shape[-1:]``: a
    column of the points' gains, ``(points, 1)``, against ``y`` of shape
    ``(3, 1, realizations)``, or one point's per-realization gains,
    ``(realizations,)``, against ``(3, realizations)``.  On the block
    ``q = g / (g + y)`` is computed in place, so a success is
    ``(1 + sqrt(q)) / 2`` and an empty interferer set (``y = 0``, ``g > 0``)
    gives exactly 1.  ``scratch`` is a ``(3, m)`` work array, ``m`` at
    least the block's element count, reused across calls to spare an
    allocation per block.  Each row's sums are taken along the last axis,
    so they are the same however the rows are grouped into blocks.  The
    factors 1/2 and 1/4 are left to the finished means
    (:func:`_curve_point`), where the second moment of ``u`` is
    ``2 * sum(u) - n + sum(q)``, since ``u**2 = 2*u - 1 + q``.
    """
    shape = g.shape[:-1] + y.shape[-1:]
    q = scratch[:, : math.prod(shape)].reshape(3, *shape)
    part = np.empty(sums.shape[-1:] + shape[:-1])
    np.add(g, y, out=q)
    np.divide(g, q, out=q)
    np.add.reduce(q[:2], axis=-1, out=part[0:2])
    np.sqrt(q, out=q)
    q += 1.0
    np.add.reduce(q[:2], axis=-1, out=part[2:4])
    u_max, t, u_inter = q
    t *= u_inter
    np.add.reduce(t, axis=-1, out=part[4, ...])
    np.add.reduce(np.multiply(t, t, out=u_inter), axis=-1, out=part[5, ...])
    if s_snr is not None:
        x = np.multiply(t, s_snr, out=u_max)
        np.add.reduce(x, axis=-1, out=part[6, ...])
        np.add.reduce(np.multiply(x, x, out=x), axis=-1, out=part[7, ...])
    sums += part.T


def _curve_point(
    abscissa: float, sums: np.ndarray, n: int, p_snr: float, se_snr: float = 0.0
) -> CurvePoint:
    """One point's means and standard errors from its raw sums over ``n``
    realizations (:func:`_evaluate`), with the noise-only success ``p_snr``
    and its standard error.  The doubled units are halved (quartered for
    ``t`` and ``x``) in the finished scalars, exactly, so the order
    ``u_max >= u_co``, ``t <= 2 * u_co`` and ``x <= t`` of every
    realization gives ``p_max_co >= p_co >= p_sf >= p_snr_sf`` exactly."""
    q_max, q_co, u_max, u_co, t, t_sq, *x = sums.tolist()
    p_max, se_max = _mean_se(u_max, 2.0 * u_max - n + q_max, n)
    p_co, se_co = _mean_se(u_co, 2.0 * u_co - n + q_co, n)
    p_sf, se_sf = _mean_se(t, t_sq, n)
    # A random desired position couples noise and interference, so their
    # per-realization product is averaged there.
    if x:
        p_snr_sf, se_snr_sf = (0.25 * v for v in _mean_se(*x, n))
    else:
        p_snr_sf, se_snr_sf = p_snr * (0.25 * p_sf), p_snr * (0.25 * se_sf)
    return CurvePoint(
        abscissa=abscissa,
        probs=ScenarioProbabilities(p_snr, 0.5 * p_max, 0.5 * p_co, 0.25 * p_sf, p_snr_sf),
        stderr=ScenarioProbabilities(se_snr, 0.5 * se_max, 0.5 * se_co, 0.25 * se_sf, se_snr_sf),
    )


def _pinned(cfg: NetworkConfig, d_km: float) -> tuple[float, int]:
    """Normalized gain ``(d/R)**(-eta)`` and annulus index of a desired
    device pinned at ``d_km``, which must lie in the cell."""
    d_km = require_in_cell(d_km, cfg)
    gain = (d_km / cfg.cell_radius_km) ** -cfg.path_loss_exponent
    return gain, annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN


def _by_area(u: np.ndarray, cfg: NetworkConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Desired devices at uniform-by-area draws ``u``: their normalized gain
    ``v**(-eta/2)`` and annulus index, from the clamped area fraction
    ``v = max(u, (d_min/R)**2)``, and their noise-only success.  The
    physical gain is the cell-edge gain times the normalized one."""
    model = ChannelModel.from_config(cfg)
    v = np.maximum(u, (cfg.min_distance_km / cfg.cell_radius_km) ** 2)
    annulus = np.searchsorted(_RING_U, v, side="right") - 1
    gain = v ** (-0.5 * cfg.path_loss_exponent)
    theta = np.array([db_to_linear(row.snr_threshold_db) for row in sf_table()])[annulus]
    edge_mw = dbm_to_mw(cfg.tx_power_dbm) * path_loss(cfg.cell_radius_km, model)
    return gain, annulus, np.exp(-(model.noise_mw * theta) / (edge_mw * gain))


def _density_batch(
    cfg: NetworkConfig, steps: np.ndarray, seed: int, index: int, size: int
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Batch ``index`` of ``size`` realizations (:func:`_batches`): the
    desired signals in normalized units, their noise-only success, and the
    running field powers after each increment of ``steps`` mean devices, in
    grid order (:func:`_nested_field_powers`; read each before drawing the
    next).

    It draws its desired devices' area fractions and fading from generator
    ``(seed, _TAG_DENSITY_DESIRED, index)``, and its nested fields from
    generators ``(seed, _TAG_DENSITY_FIELD, index, j)``, ``j = 0, 1, 2``, so
    its draws do not depend on the other batches.
    """
    rng = np.random.default_rng([seed, _TAG_DENSITY_DESIRED, index])
    gain, annulus, s_snr = _by_area(rng.random(size), cfg)
    s = gain * _desired_fading(rng, size)
    draws = tuple(np.random.default_rng([seed, _TAG_DENSITY_FIELD, index, j]) for j in range(3))
    return s, s_snr, _nested_field_powers(draws, annulus, steps, cfg)


def _workers(threads: int, units: int) -> int:
    """How many workers run ``units`` units of work, forked processes
    (:func:`_forked`) or the distance sweep's drawing threads
    (:func:`success_vs_distance`): ``threads``, but at most ``units`` and
    the CPUs this process may run on, and 1 where the platform has no
    ``os.fork``."""
    require_integer("threads", threads, 1)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, units, cpus) if hasattr(os, "fork") else 1


def _shared(*shape: int) -> np.ndarray:
    """Zero-filled doubles of ``shape`` in an anonymous shared mapping, so
    the writes of workers forked after this call reach the calling process
    (:func:`_forked`)."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def _forked(work: Callable[[int], None], workers: int) -> None:
    """Run ``work(w)`` for every worker ``w < workers``: worker 0 in the
    calling process, the others in children it forks, all at once, and
    return once every child has exited.  A child shares the caller's memory
    as it was at the fork, copy on write, so ``work`` returns its results
    through shared memory mapped before the call.

    A child runs its share and leaves with ``os._exit``, so it never
    returns into the caller and never flushes the stdio buffers it copied;
    it prints an exception's traceback to file descriptor 2 and exits 1.
    Every child is reaped before this returns or raises, and one still
    running when the caller's own share raises is killed first.  A child
    that exits non-zero raises :class:`RuntimeError` naming its worker.
    It needs ``os.fork`` for more than one worker, and :func:`_workers`
    gives both sweeps one where the platform has none.

    Fork, not a fresh interpreter per worker: a spawned worker would
    import numpy and this package again, which takes about as long as the
    share of a full-scale density sweep it would run.  Fork copies only
    the calling thread, so call this while no other thread of the process
    holds a lock the work needs.
    """
    children: dict[int, int] = {}  # worker -> pid
    finished = False
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    work(w)
                    code = 0
                except Exception:
                    os.write(2, f"worker {w}: {traceback.format_exc()}".encode())
                finally:
                    os._exit(code)
            children[w] = pid
        work(0)
        finished = True
    finally:
        failed = []
        for w, pid in children.items():
            if not finished:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(f"worker {w} (pid {pid}) exited with status {code}")
    if failed:
        raise RuntimeError("forked workers failed: " + "; ".join(failed))


def success_vs_distance(
    cfg: NetworkConfig,
    spec: SweepSpec,
    *,
    threads: int = 1,
) -> list[CurvePoint]:
    """Per-scenario success probability at each grid distance, with the
    desired device pinned at the abscissa and the interference field
    resampled every realization.

    Every batch draws one field for the whole grid, as six annulus
    sub-fields (:func:`_ring_batch`), and the grid points of one annulus
    scale the same desired fading by their own gains, in row blocks that
    share its scaled powers (:func:`_scaled`, :func:`_evaluate`).  A row
    therefore depends only on its distance, the seed and the realization
    count, not on the rest of the grid, and all points are positively
    correlated, those of one annulus most.

    It runs on ``W`` workers, at most one per (annulus, batch) unit
    (:func:`_workers`, :func:`_forked`).  Worker ``w`` draws, folds
    (:func:`_fold`) and evaluates batches ``w, w + W, ...``, each into its
    own zero-filled row of shared memory (:func:`_shared`).  With fewer
    batches than workers, a pool of ``W`` threads first only draws the
    units (:func:`_ring_draw`), outer annuli first, each into its own slice
    of one array, since numpy releases the interpreter lock in most of a
    draw; the pool is joined, and the same loop then runs in the calling
    process alone, folding the drawn units instead of drawing them, and
    forks nothing.  The calling process adds the rows in batch order, so
    the bytes are the same at any ``threads``.  A fork copies only the
    calling thread, so while a sweep of at least ``W`` batches runs no other
    thread of the caller may hold a lock the sweep needs; ``threads=1``
    never forks.
    """
    if spec.kind != "distance":
        raise ValueError(f"spec.kind must be 'distance', got {spec.kind!r}")
    pinned = [_pinned(cfg, d_km) for d_km in spec.grid]
    gains = np.array([[gain] for gain, _ in pinned])
    # The grid's points of annulus k are rows starts[k]:starts[k + 1].
    starts = np.searchsorted([ring for _, ring in pinned], np.arange(7)).tolist()
    # A block holds at most max(_BLOCK, batch) elements, and at most one
    # batch of each point of the annulus.
    widest = max(hi - lo for lo, hi in zip(starts, starts[1:]))
    scratch_shape = (3, min(max(_BLOCK, _BATCH), widest * _BATCH))
    n = spec.realizations_per_point
    batches = _batches(n)
    workers = _workers(threads, 6 * len(batches))
    rows = _shared(len(batches), len(pinned), 6)
    drawn = None
    if len(batches) < workers:
        # Imported here: it adds 4-7 ms to importing the package.
        from concurrent.futures import ThreadPoolExecutor

        drawn = np.empty((len(batches), 6, 3, _BATCH))
        # Outer annuli, the largest, first, so the queue balances the threads.
        units = [(k, b, drawn[b, k, :, :size]) for k in range(5, -1, -1) for b, size in batches]
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda unit: _ring_draw(cfg, spec.seed, *unit), units))
        workers = 1

    def work(w: int) -> None:
        scratch = np.empty(scratch_shape)
        for b, size in batches[w::workers]:
            if drawn is None:
                rings = _ring_batch(cfg, spec.seed, b, size)
            else:
                rings = _fold(drawn[b, ..., :size])
            for (fading, powers), lo, hi in zip(rings, starts, starts[1:]):
                if lo == hi:
                    continue
                # One row of realizations per scenario, against a column of gains.
                y = _scaled(powers, fading, np.empty((3, size)))[:, np.newaxis]
                step = max(1, _BLOCK // size)
                for row in range(lo, hi, step):
                    end = min(row + step, hi)
                    _evaluate(y, gains[row:end], rows[b, row:end], scratch)

    _forked(work, workers)
    # Along the first axis: the rows are added one at a time, in batch order.
    sums = np.add.reduce(rows, axis=0)
    return [
        _curve_point(d_km, row, n, snr_success_probability(d_km, SF_MIN + ring, cfg))
        for row, d_km, (_, ring) in zip(sums, spec.grid, pinned)
    ]


def coverage_vs_density(
    cfg: NetworkConfig,
    spec: SweepSpec,
    *,
    threads: int = 1,
) -> list[CurvePoint]:
    """Per-scenario coverage probability at each mean device count: the
    spatial average of success probability over a uniformly-by-area random
    desired-device location.

    The fields of the grid are nested.  A Poisson process of intensity
    ``duty * n_bar_i`` is the one at ``n_bar_{i-1}`` plus an independent
    increment of intensity ``duty * (n_bar_i - n_bar_{i-1})``, so each
    batch walks the grid once and point i draws only its increment and adds
    it to the running field powers (:func:`_density_batch`).  A batch's
    increment is one Poisson count of interferers with uniform owner
    realizations, drawn with all the batch's other increments from
    generators ``(seed, _TAG_DENSITY_FIELD, batch, j)``, ``j = 0, 1, 2``.
    The desired devices and their fading are drawn once per batch, from
    generator ``(seed, _TAG_DENSITY_DESIRED, batch)``, and every point reads
    them, which is why the noise-only column ``p_snr`` is bit-identical
    across the grid.  Each row keeps its law, but a row depends on the grid
    points below it, and the interference columns never rise with the mean
    device count.

    Worker ``w`` of ``W``, at most one per batch (:func:`_workers`,
    :func:`_forked`), runs batches ``w, w + W, ...``, each across the whole
    grid, and writes each batch's raw sums (:func:`_evaluate`, ``8`` per
    point, then the two noise-only sums) into that batch's zero-filled row
    of shared memory (:func:`_shared`), ``8 * (8 * points + 2)`` bytes per
    batch of ``_BATCH`` realizations.  The calling process adds the rows in
    batch order, so the bytes are the same at any ``threads``.
    """
    if spec.kind != "density":
        raise ValueError(f"spec.kind must be 'density', got {spec.kind!r}")
    if spec.grid[0] < 0:
        raise ValueError(f"density grid must be non-negative, got {spec.grid[0]}")
    require_active_headroom("n_bar_max", spec.grid[-1], cfg.duty_cycle)
    n = spec.realizations_per_point
    batches = _batches(n)
    workers = _workers(threads, len(batches))
    steps = np.diff(spec.grid, prepend=0.0)  # n_bar_i - n_bar_{i-1}, n_bar_{-1} = 0
    width = 8 * len(spec.grid) + 2
    rows = _shared(len(batches), width)

    def work(w: int) -> None:
        scratch = np.empty((3, _BATCH))
        y = np.empty((3, _BATCH))
        for b, size in batches[w::workers]:
            s, s_snr, fields = _density_batch(cfg, steps, spec.seed, b, size)
            rows[b, -2:] = s_snr.sum(), (s_snr * s_snr).sum()
            for point, powers in zip(rows[b, :-2].reshape(-1, 8), fields):
                _evaluate(_scaled(powers, None, y[:, :size]), s, point, scratch, s_snr)

    _forked(work, workers)
    # Along the first axis: the rows are added one at a time, in batch order.
    total = np.add.reduce(rows, axis=0)
    sums = total[:-2].reshape(-1, 8)
    p_snr, se_snr = _mean_se(*total[-2:], n)
    return [_curve_point(n_bar, row, n, p_snr, se_snr) for row, n_bar in zip(sums, spec.grid)]


def estimate_mean_sir(
    cfg: NetworkConfig,
    d_km: float,
    n: int,
    seed: int,
) -> dict[str, SirStats]:
    """Median and fraction of infinite draws of the per-scenario SIRs of a
    desired device pinned at ``d_km``.  For the same seed and realization
    count these are the draws behind the ``d_km`` row of any distance sweep
    whose grid holds ``d_km``: it folds the same six units of each batch
    (:func:`_ring_batch`), so ``stats["co"].inf_fraction`` is the share of
    that row's realizations with no active same-SF interferer.  No mean is
    reported: it does not settle as ``n`` grows (see :class:`SirStats`).
    Keys: ``max_co``, ``co``, ``inter``."""
    require_integer("n", n, 1)
    require_integer("seed", seed, 0)
    gain, ring = _pinned(cfg, d_km)
    kept: list[list[np.ndarray]] = [[], [], []]
    for b, size in _batches(n):
        fading, powers = _ring_batch(cfg, seed, b, size)[ring]
        for arrays, gammas in zip(kept, _sirs(powers, gain * fading)):
            arrays.append(gammas)
    stats = {}
    for key, arrays in zip(("max_co", "co", "inter"), kept):
        gammas = np.concatenate(arrays)
        stats[key] = SirStats(
            median=float(np.median(gammas)),
            inf_fraction=np.count_nonzero(np.isinf(gammas)) / n,
            count=n,
        )
    return stats
