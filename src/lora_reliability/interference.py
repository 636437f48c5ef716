"""Instantaneous SIR of a realization under the three interference scenarios:
strongest same-SF interferer (with a rejection margin), aggregate same-SF,
and aggregate different-SF."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelModel, path_loss
from .geometry import EndDevice, Realization
from .params import CO_CHANNEL_REJECTION


@dataclass(frozen=True)
class SirSample:
    """The three scenario SIRs of one realization (inf when the relevant
    interferer set is empty)."""

    gamma_max_co: float
    gamma_co: float
    gamma_inter: float


def received_power_mw(dev: EndDevice, model: ChannelModel) -> float:
    """Power received at the gateway from one device, in mW."""
    return dev.tx_power_mw * dev.fading * path_loss(dev.position.distance_km, model)


def split_interference_power(
    r: Realization, model: ChannelModel
) -> tuple[float, float]:
    """Total active interference power split into (same-SF, different-SF) mW.

    Every active interferer lands in exactly one of the two buckets, so the
    pair sums to the total active interference power.  Sums are exactly
    rounded (math.fsum); interferer powers span many orders of magnitude.
    """
    same: list[float] = []
    other: list[float] = []
    sf = r.desired.sf
    for dev in r.interferers:
        if not dev.active:
            continue
        (same if dev.sf == sf else other).append(received_power_mw(dev, model))
    return math.fsum(same), math.fsum(other)


def sir_sample(r: Realization, model: ChannelModel) -> SirSample:
    """All three scenario SIRs of one realization, computing each received
    power once."""
    sf = r.desired.sf
    same: list[float] = []
    other: list[float] = []
    strongest = 0.0
    for dev in r.interferers:
        if not dev.active:
            continue
        p = received_power_mw(dev, model)
        if dev.sf == sf:
            same.append(p)
            strongest = max(strongest, p)
        else:
            other.append(p)
    s = received_power_mw(r.desired, model)
    same_sum = math.fsum(same)
    other_sum = math.fsum(other)
    return SirSample(
        gamma_max_co=CO_CHANNEL_REJECTION * s / strongest if strongest > 0.0 else math.inf,
        gamma_co=s / same_sum if same_sum > 0.0 else math.inf,
        gamma_inter=s / other_sum if other_sum > 0.0 else math.inf,
    )
