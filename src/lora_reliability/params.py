"""Network constants, unit conversions, and the spreading-factor schedule.

Configuration values are carried in their customary units (dBm, dB, Hz, km)
and converted to linear/SI units only at the point of use, so every number
stays traceable to its data sheet value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

SPEED_OF_LIGHT_M_S = 299792458.0


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


@dataclass(frozen=True)
class SfParams:
    """The demodulation SNR threshold of one spreading factor, the one radio
    number the model reads per SF.

    SF ``7 + k`` serves the annulus ``[k*R/6, (k+1)*R/6)`` of the cell; see
    :func:`annulus_to_sf`.
    """

    sf: int
    snr_threshold_db: float


_SF_TABLE: tuple[SfParams, ...] = (
    SfParams(7, -6.0),
    SfParams(8, -9.0),
    SfParams(9, -12.0),
    SfParams(10, -15.0),
    SfParams(11, -17.5),
    SfParams(12, -20.0),
)

SF_MIN = 7
SF_MAX = 12

# Capture margin of the desired signal over the strongest same-SF
# interferer: a factor 4 (~6 dB), used by the array kernel and by the
# object-level reference alike.
CO_CHANNEL_REJECTION = 4.0


def sf_table() -> list[SfParams]:
    """Return the six-row SF schedule in SF order 7..12."""
    return list(_SF_TABLE)


def sf_params(sf: int) -> SfParams:
    """Return the schedule row for one spreading factor."""
    require_integer("sf", sf, SF_MIN)
    if sf > SF_MAX:
        raise ValueError(f"spreading factor must be in {SF_MIN}..{SF_MAX}, got {sf}")
    return _SF_TABLE[sf - SF_MIN]


class OutOfCellError(ValueError):
    """Distance outside the cell ``[min_distance_km, cell_radius_km]``
    (:func:`require_in_cell`), or, in :func:`annulus_to_sf`, which reads no
    config, outside ``[0, cell_radius_km]``."""


def annulus_to_sf(distance_km: float, cell_radius_km: float) -> int:
    """Map a gateway distance to its annulus SF.

    Annuli are the six equal-width rings ``[k*R/6, (k+1)*R/6)``; boundaries
    belong to the outer ring and the outermost ring is closed at ``R``.  The
    SF is 7 plus the number of ring starts ``k*R/6``, k = 1..5, at or below
    the distance, compared as computed: ``int(6*d/R)`` alone rounds some
    starts into the inner ring (``R = 0.7``, ``k = 3``).
    """
    distance_km = require_real("distance_km", distance_km)
    cell_radius_km = require_real("cell_radius_km", cell_radius_km)
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


@dataclass(frozen=True)
class NetworkConfig:
    """Deployment and channel constants for a single-gateway cell.

    Defaults describe the reference EU868 deployment: one 125 kHz channel at
    868.10 MHz, 19 dBm transmit power, 1% duty cycle, a 12 km cell split into
    six equal-width SF annuli, and an average of 1500 end devices.  Every
    field but ``seed`` takes a real number (:func:`require_real`) and stores
    it as a Python float.
    """

    bandwidth_hz: float = 125_000.0
    carrier_hz: float = 868.1e6
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 6.0
    path_loss_exponent: float = 2.7
    tx_power_dbm: float = 19.0
    duty_cycle: float = 0.01
    mean_devices: float = 1500.0
    cell_radius_km: float = 12.0
    # 1 m clamp: the free-space gain diverges as d -> 0 and the plotted range
    # never goes below ~0.1 km, so the clamp is physically inert.
    min_distance_km: float = 0.001
    seed: int = 1

    def __post_init__(self) -> None:
        require_integer("seed", self.seed, 0)
        for f in fields(self):
            if f.name != "seed":
                object.__setattr__(self, f.name, require_real(f.name, getattr(self, f.name)))
        for key in ("bandwidth_hz", "carrier_hz", "cell_radius_km"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.path_loss_exponent <= 2:
            raise ConfigError(
                f"path_loss_exponent must be > 2, got {self.path_loss_exponent}"
            )
        if not 0 < self.duty_cycle <= 1:
            raise ConfigError(f"duty_cycle must be in (0, 1], got {self.duty_cycle}")
        if self.mean_devices < 0:
            raise ConfigError(f"mean_devices must be >= 0, got {self.mean_devices}")
        require_active_headroom("mean_devices", self.mean_devices, self.duty_cycle)
        if not 0 < self.min_distance_km < self.cell_radius_km:
            raise ConfigError(
                "min_distance_km must satisfy 0 < min_distance_km < cell_radius_km, "
                f"got {self.min_distance_km}"
            )
        # The noise-only success divides the noise floor by the received
        # power, so each must be a positive finite double: the transmit
        # power, the noise floor, and the received power at the cell edge,
        # the weakest in the cell, with the gain as channel.path_loss
        # computes it.
        budget = (
            ("transmit power", "tx_power_dbm", lambda: dbm_to_mw(self.tx_power_dbm)),
            (
                "noise floor",
                "noise_density_dbm_hz, noise_figure_db and bandwidth_hz",
                lambda: dbm_to_mw(noise_floor_dbm(self)),
            ),
            (
                "received power at the cell edge",
                "tx_power_dbm, carrier_hz, path_loss_exponent and cell_radius_km",
                lambda: dbm_to_mw(self.tx_power_dbm)
                * (wavelength_m(self) / (4.0 * math.pi * (1000.0 * self.cell_radius_km)))
                ** self.path_loss_exponent,
            ),
        )
        for power, keys, power_mw in budget:
            try:
                ok = 0.0 < power_mw() < math.inf
            except OverflowError:  # float ** raises where it overflows
                ok = False
            if not ok:
                raise ConfigError(f"the {power} set by {keys} must be a positive finite double")


def require_integer(name: str, value: object, low: int) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is an
    integer, Python's or numpy's but not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def require_real(name: str, value: object) -> float:
    """Return ``value`` as a Python float, or raise :class:`ConfigError`
    naming ``name`` unless it is a finite real number, Python's or numpy's
    but not a bool: the one rule for every real argument and field."""
    # float first: isinstance then skips the slower numbers.Real check.
    if not isinstance(value, (float, numbers.Real)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or fraction past the largest double
        kind = "an int" if isinstance(value, int) else "a number"
        raise ConfigError(f"{name} must be finite, got {kind} beyond the doubles") from None
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be finite, got {value}")
    return real


def require_in_cell(d_km: object, cfg: NetworkConfig) -> float:
    """Return ``d_km`` as a float (:func:`require_real`), or raise
    :class:`OutOfCellError` unless it lies in the cell
    ``[min_distance_km, cell_radius_km]``, the range the sweeps draw their
    distances from: the one check of a distance against a config."""
    d_km = require_real("d_km", d_km)
    if not cfg.min_distance_km <= d_km <= cfg.cell_radius_km:
        raise OutOfCellError(
            f"distance {d_km} km outside [{cfg.min_distance_km}, {cfg.cell_radius_km}] km"
        )
    return d_km


def require_active_headroom(name: str, n_bar: float, duty_cycle: float) -> None:
    """Raise :class:`ConfigError` naming ``name`` if ``duty_cycle * n_bar``,
    the mean active interferers per realization, exceeds 2**50.  The
    samplers draw them as int64 Poisson counts and add the counts of a
    batch of 2**12 realizations, so a batch's total stays within 2**62."""
    if duty_cycle * n_bar > 2.0**50:
        raise ConfigError(
            f"{name} must be at most 2**50 / duty_cycle = {2.0**50 / duty_cycle:g}, got {n_bar:g}"
        )


def dbm_to_mw(x_dbm: float) -> float:
    """Convert a dBm power level to linear milliwatts."""
    return 10.0 ** (x_dbm / 10.0)


def db_to_linear(x_db: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (x_db / 10.0)


def noise_floor_dbm(cfg: NetworkConfig) -> float:
    """Thermal noise floor in dBm: density + receiver noise figure + 10*log10(BW)."""
    return cfg.noise_density_dbm_hz + cfg.noise_figure_db + 10.0 * math.log10(cfg.bandwidth_hz)


def wavelength_m(cfg: NetworkConfig) -> float:
    """Carrier wavelength in meters."""
    return SPEED_OF_LIGHT_M_S / cfg.carrier_hz


# --- config file handling -------------------------------------------------
#
# Flat `key = value` text, one key per line, keys exactly matching the
# NetworkConfig field names.  `#` starts a comment; blank lines are ignored.
# Unknown or duplicate keys are errors; omitted keys keep their defaults.

_INT_FIELDS = frozenset({"seed"})
_FIELD_NAMES = frozenset(f.name for f in fields(NetworkConfig))


def _parse_value(key: str, raw: str) -> float | int:
    # An integer key takes an integer literal alone, as --seed does.
    if key in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} has a non-numeric value {raw!r}") from None


def parse_config_text(text: str) -> dict[str, float | int]:
    """Parse config-file text into a {field: value} mapping."""
    values: dict[str, float | int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw_value.strip())
    return values
