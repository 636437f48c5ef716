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
from .channel import ChannelModel, path_loss, snr_success_probability
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
    OutOfCellError,
    SfParams,
    annulus_to_sf,
    db_to_linear,
    dbm_to_mw,
    mw_to_dbm,
    noise_floor_dbm,
    parse_config_text,
    sf_params,
    sf_table,
    wavelength_m,
)
from .reference import sample_realization, sir_sample

__version__ = "0.1.0"
