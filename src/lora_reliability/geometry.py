"""Spatial deployment sampling.

Devices form a Poisson point process on the cell disk: the device count is
Poisson with the configured mean and, given the count, positions are i.i.d.
uniform by area.  Each device gets the SF of the annulus its distance falls
in, a fresh unit-mean fading draw, and an independent Bernoulli activity flag
with the duty-cycle probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import sample_fading
from .params import SF_MIN, ConfigError, NetworkConfig, dbm_to_mw

TWO_PI = 2.0 * math.pi


class OutOfCellError(ValueError):
    """Distance outside the [0, R] cell range."""


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


def sample_device_count(mean: float, rng: np.random.Generator) -> int:
    """Draw the number of deployed devices, Poisson with the given mean."""
    if mean < 0:
        raise ConfigError(f"device-count mean must be >= 0, got {mean}")
    return int(rng.poisson(mean))


def annulus_to_sf(distance_km: float, cell_radius_km: float) -> int:
    """Map a gateway distance to its annulus SF.

    Annuli are the six equal-width rings ``[k*R/6, (k+1)*R/6)``; boundaries
    belong to the outer ring and the outermost ring is closed at ``R``.  The
    SF is 7 plus the number of ring starts ``k*R/6``, k = 1..5, at or below
    the distance, compared as computed: ``int(6*d/R)`` alone rounds some
    starts into the inner ring (``R = 0.7``, ``k = 3``).
    """
    if not 0 <= distance_km <= cell_radius_km:
        raise OutOfCellError(
            f"distance {distance_km} km outside cell [0, {cell_radius_km}] km"
        )
    # int(6*d/R) is off by at most one ring; the object sampler calls this
    # once per device, so correct it rather than count all five starts.
    ring = min(int(6.0 * distance_km / cell_radius_km), 5)
    if distance_km < ring * cell_radius_km / 6:
        ring -= 1
    elif ring < 5 and distance_km >= (ring + 1) * cell_radius_km / 6:
        ring += 1
    return SF_MIN + ring


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
    if not cfg.min_distance_km <= desired_distance_km <= cfg.cell_radius_km:
        raise OutOfCellError(
            f"desired distance {desired_distance_km} km outside "
            f"[{cfg.min_distance_km}, {cfg.cell_radius_km}] km"
        )
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
