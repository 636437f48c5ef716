"""Propagation and noise: free-space path loss and the closed-form
probability that a frame survives noise alone under Rayleigh fading."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    NetworkConfig,
    db_to_linear,
    dbm_to_mw,
    noise_floor_dbm,
    sf_params,
    wavelength_m,
)


@dataclass(frozen=True)
class ChannelModel:
    """Linear-domain channel constants used by the power computations."""

    wavelength_m: float
    path_loss_exponent: float
    noise_mw: float

    def __post_init__(self) -> None:
        if self.wavelength_m <= 0:
            raise ValueError(f"wavelength_m must be > 0, got {self.wavelength_m}")
        if self.path_loss_exponent <= 0:
            raise ValueError(
                f"path_loss_exponent must be > 0, got {self.path_loss_exponent}"
            )
        if self.noise_mw <= 0:
            raise ValueError(f"noise_mw must be > 0, got {self.noise_mw}")

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
    if d_km <= 0:
        raise ValueError(f"distance must be > 0 km, got {d_km}")
    return path_loss_array(d_km, model)


def path_loss_array(d_km: np.ndarray, model: ChannelModel) -> np.ndarray:
    """Vector counterpart of :func:`path_loss` (inputs assumed > 0); on a
    Python float it returns a Python float."""
    d_m = 1000.0 * d_km
    return (model.wavelength_m / (4.0 * math.pi * d_m)) ** model.path_loss_exponent


def _success_given_threshold(
    theta_linear: float, noise_mw: float, tx_power_mw: float, gain: float
) -> float:
    """P[power * fading * gain / noise >= theta] for unit-mean exponential
    fading, i.e. exp(-noise * theta / (power * gain))."""
    return math.exp(-(noise_mw * theta_linear) / (tx_power_mw * gain))


def snr_success_probability(d_km: float, sf: int, cfg: NetworkConfig) -> float:
    """Closed-form probability that a frame at distance ``d_km`` using ``sf``
    survives noise alone (no interference)."""
    if not 0 < d_km <= cfg.cell_radius_km:
        raise ValueError(
            f"distance {d_km} km outside cell (0, {cfg.cell_radius_km}] km"
        )
    model = ChannelModel.from_config(cfg)
    theta = db_to_linear(sf_params(sf).snr_threshold_db)
    return _success_given_threshold(
        theta, model.noise_mw, dbm_to_mw(cfg.tx_power_dbm), path_loss(d_km, model)
    )
