"""Object-level reference of the Monte Carlo model, one Python object per
device.

Devices form a Poisson point process on the cell disk: the device count is
Poisson with the configured mean and, given the count, positions are i.i.d.
uniform by area.  Each device gets the SF of the annulus its distance falls
in, a fresh unit-mean fading draw, and an independent Bernoulli activity flag
with the duty-cycle probability.  The instantaneous SIR of a realization is
then read under the three interference scenarios: strongest same-SF
interferer (with a rejection margin), aggregate same-SF, and aggregate
different-SF.

The sweeps never call this module: they run the array kernel in
:mod:`lora_reliability.montecarlo`, which draws the active field directly in
its thinned form.  This explicit candidate-plus-thinning form is the
independent reference the tests compare the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, path_loss
from .params import (
    CO_CHANNEL_REJECTION,
    ConfigError,
    NetworkConfig,
    annulus_to_sf,
    db_to_linear,
    dbm_to_mw,
    require_in_cell,
    require_integer,
    sf_params,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class Position:
    distance_km: float
    angle_rad: float


@dataclass(frozen=True, slots=True)
class EndDevice:
    """One end device: where it is, which SF it uses, and its channel state."""

    position: Position
    sf: int
    tx_power_mw: float
    fading: float  # squared fading magnitude, unit-mean exponential
    active: bool


@dataclass(frozen=True)
class Realization:
    """One sampled interference field: the desired device plus candidate
    interferers (only those with ``active=True`` contribute interference)."""

    desired: EndDevice
    interferers: list[EndDevice]


@dataclass(frozen=True)
class SirSample:
    """The three scenario SIRs of one realization (inf when the relevant
    interferer set is empty)."""

    gamma_max_co: float
    gamma_co: float
    gamma_inter: float


def sample_fading(rng: np.random.Generator) -> float:
    """Draw one squared fading magnitude: unit-mean exponential."""
    return float(rng.exponential())


def snr_success_empirical(
    d_km: float,
    sf: int,
    cfg: NetworkConfig,
    rng: np.random.Generator,
    n: int,
) -> float:
    """Monte Carlo estimate of :func:`channel.snr_success_probability` from
    ``n`` fading draws; converges to the closed form as n grows."""
    require_integer("n", n, 1)
    d_km = require_in_cell(d_km, cfg)
    model = ChannelModel.from_config(cfg)
    theta = db_to_linear(sf_params(sf).snr_threshold_db)
    # SNR >= theta  <=>  fading >= noise * theta / (power * gain)
    fading_threshold = (model.noise_mw * theta) / (
        dbm_to_mw(cfg.tx_power_dbm) * path_loss(d_km, model)
    )
    draws = rng.exponential(size=n)
    return int(np.count_nonzero(draws >= fading_threshold)) / n


def sample_device_count(mean: float, rng: np.random.Generator) -> int:
    """Draw the number of deployed devices, Poisson with the given mean."""
    if mean < 0:
        raise ConfigError(f"device-count mean must be >= 0, got {mean}")
    return int(rng.poisson(mean))


def sample_realization(
    cfg: NetworkConfig, desired_distance_km: float, rng: np.random.Generator
) -> Realization:
    """Sample one interference field around a desired device pinned at the
    given distance.

    The desired device gets the annulus SF of its distance and a fresh fading
    draw.  Interferer candidates are Poisson(mean_devices) many, placed
    uniformly by area, and each is active independently with probability
    ``duty_cycle``.
    """
    desired_distance_km = require_in_cell(desired_distance_km, cfg)
    tx_mw = dbm_to_mw(cfg.tx_power_dbm)
    desired = EndDevice(
        position=Position(desired_distance_km, 0.0),
        sf=annulus_to_sf(desired_distance_km, cfg.cell_radius_km),
        tx_power_mw=tx_mw,
        fading=sample_fading(rng),
        active=True,
    )

    n = sample_device_count(cfg.mean_devices, rng)
    radial = rng.random(n)
    angular = rng.random(n)
    fadings = rng.exponential(size=n)
    active = rng.random(n) < cfg.duty_cycle

    radius = cfg.cell_radius_km
    distances = np.maximum(cfg.min_distance_km, radius * np.sqrt(radial))
    # Positional arguments (position, sf, tx_power_mw, fading, active):
    # keywords cost more per device.
    interferers = [
        EndDevice(Position(d, angle), annulus_to_sf(d, radius), tx_mw, fading, on)
        for d, angle, fading, on in zip(
            distances.tolist(), (TWO_PI * angular).tolist(), fadings.tolist(), active.tolist()
        )
    ]
    return Realization(desired=desired, interferers=interferers)


def received_power_mw(dev: EndDevice, model: ChannelModel) -> float:
    """Power received at the gateway from one device, in mW."""
    return dev.tx_power_mw * dev.fading * path_loss(dev.position.distance_km, model)


def _active_powers(r: Realization, model: ChannelModel) -> tuple[list[float], list[float]]:
    """Received powers of the active interferers, split into (same-SF,
    different-SF) lists in interferer order."""
    same: list[float] = []
    other: list[float] = []
    sf = r.desired.sf
    for dev in r.interferers:
        if dev.active:
            (same if dev.sf == sf else other).append(received_power_mw(dev, model))
    return same, other


def split_interference_power(
    r: Realization, model: ChannelModel
) -> tuple[float, float]:
    """Total active interference power split into (same-SF, different-SF) mW.

    Every active interferer lands in exactly one of the two buckets, so the
    pair sums to the total active interference power.  Sums are exactly
    rounded (math.fsum); interferer powers span many orders of magnitude.
    """
    same, other = _active_powers(r, model)
    return math.fsum(same), math.fsum(other)


def sir_sample(r: Realization, model: ChannelModel) -> SirSample:
    """All three scenario SIRs of one realization, computing each received
    power once."""
    same, other = _active_powers(r, model)
    strongest = max(same, default=0.0)
    s = received_power_mw(r.desired, model)
    same_sum = math.fsum(same)
    other_sum = math.fsum(other)
    return SirSample(
        gamma_max_co=CO_CHANNEL_REJECTION * s / strongest if strongest > 0.0 else math.inf,
        gamma_co=s / same_sum if same_sum > 0.0 else math.inf,
        gamma_inter=s / other_sum if other_sum > 0.0 else math.inf,
    )
