"""Propagation and noise: free-space path loss and the closed-form
probability that a frame survives noise alone under Rayleigh fading."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .params import (
    NetworkConfig,
    db_to_linear,
    dbm_to_mw,
    noise_floor_dbm,
    require_in_cell,
    require_real,
    sf_params,
    wavelength_m,
)


@dataclass(frozen=True)
class ChannelModel:
    """Linear-domain channel constants used by the power computations, each
    a positive real (:func:`params.require_real`), stored as a float."""

    wavelength_m: float
    path_loss_exponent: float
    noise_mw: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = require_real(f.name, getattr(self, f.name))
            if value <= 0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_config(cls, cfg: NetworkConfig) -> "ChannelModel":
        return cls(
            wavelength_m=wavelength_m(cfg),
            path_loss_exponent=cfg.path_loss_exponent,
            noise_mw=dbm_to_mw(noise_floor_dbm(cfg)),
        )


def path_loss(d_km: float, model: ChannelModel) -> float:
    """Free-space power gain ``(lambda / (4*pi*d))**eta`` (dimensionless, in
    (0, 1] beyond d = lambda/4pi)."""
    if (d_km := require_real("d_km", d_km)) <= 0:
        raise ValueError(f"distance must be > 0 km, got {d_km}")
    try:
        return path_loss_array(d_km, model)
    except OverflowError:  # a distance so small that the gain passes the doubles
        raise ValueError(f"path gain at d_km = {d_km} overflows the doubles") from None


def path_loss_array(d_km: np.ndarray, model: ChannelModel) -> np.ndarray:
    """Vector counterpart of :func:`path_loss` (inputs assumed > 0); on a
    Python float it returns a Python float."""
    d_m = 1000.0 * d_km
    return (model.wavelength_m / (4.0 * math.pi * d_m)) ** model.path_loss_exponent


def snr_success_probability(d_km: float, sf: int, cfg: NetworkConfig) -> float:
    """Closed-form probability that a frame at distance ``d_km`` using ``sf``
    survives noise alone (no interference): under unit-mean exponential
    fading, P[power * fading * gain / noise >= theta] is
    exp(-noise * theta / (power * gain)).  ``d_km`` must lie in the cell
    (:func:`params.require_in_cell`)."""
    d_km = require_in_cell(d_km, cfg)
    model = ChannelModel.from_config(cfg)
    theta = db_to_linear(sf_params(sf).snr_threshold_db)
    gain = path_loss(d_km, model)
    return math.exp(-(model.noise_mw * theta) / (dbm_to_mw(cfg.tx_power_dbm) * gain))
