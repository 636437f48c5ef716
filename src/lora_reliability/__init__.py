"""Success and coverage probability of LoRa uplinks under noise, same-SF,
and cross-SF interference: closed forms plus a deterministic Monte Carlo
sweep engine over a Poisson deployment."""

from .analytic import (
    QuadratureError,
    ScenarioProbabilities,
    outage_closed_form,
    outage_numeric_oracle,
    q_bound,
    q_function,
    success_from_sir,
)
from .channel import (
    ChannelModel,
    path_loss,
    sample_fading,
    snr_success_empirical,
    snr_success_probability,
)
from .geometry import (
    EndDevice,
    OutOfCellError,
    Position,
    Realization,
    annulus_to_sf,
    sample_device_count,
    sample_realization,
)
from .interference import (
    SirSample,
    received_power_mw,
    sir_sample,
    split_interference_power,
)
from .montecarlo import (
    CurvePoint,
    SirStats,
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    estimate_mean_sir,
    success_vs_distance,
)
from .params import (
    CO_CHANNEL_REJECTION,
    ConfigError,
    NetworkConfig,
    SfParams,
    db_to_linear,
    dbm_to_mw,
    mw_to_dbm,
    noise_floor_dbm,
    parse_config_text,
    sf_params,
    sf_table,
    wavelength_m,
)

__version__ = "0.1.0"
