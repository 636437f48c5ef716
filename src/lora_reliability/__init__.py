"""Success and coverage probability of LoRa uplinks under noise, same-SF,
and cross-SF interference: closed forms plus a deterministic Monte Carlo
sweep engine over a Poisson deployment."""

from .analytic import (
    QuadratureError,
    ScenarioProbabilities,
    outage_closed_form,
    outage_numeric_oracle,
)
from .channel import ChannelModel, snr_success_probability
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
    ConfigError,
    NetworkConfig,
    OutOfCellError,
    SfParams,
    annulus_to_sf,
    sf_table,
)
from .reference import sample_realization, sir_sample

__version__ = "0.1.0"
