"""Closed-form error model: Gaussian tail, its Chernoff bound, and the
outage probability of a coherent-FSK link with exponentially distributed
SIR, with the per-scenario result container.

A quadrature routine integrates the error rate against the exponential SIR
density directly and serves as an independent cross-check of the closed
form.  It is the only user of scipy, which it imports when called, so
importing the package and running the sweeps load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""


@dataclass(frozen=True)
class ScenarioProbabilities:
    """Per-scenario values at one sweep point: noise-only, strongest same-SF
    interferer, aggregate same-SF, joint same+different SF, and noise joint
    with SF interference.  Also reused as the container for the matching
    standard errors."""

    p_snr: float
    p_max_co: float
    p_co: float
    p_sf: float
    p_snr_sf: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def q_function(x: float) -> float:
    """Gaussian tail probability P[N(0,1) > x], via the complementary error
    function; accurate to well below 1e-12 absolute on [-8, 8]."""
    return 0.5 * math.erfc(x / _SQRT2)


def q_bound(x: float) -> float:
    """Chernoff upper bound exp(-x^2/2)/2 on the Gaussian tail, valid for
    x > 0 where it dominates :func:`q_function`."""
    if x <= 0:
        raise ValueError(f"the bound requires x > 0, got {x}")
    return 0.5 * math.exp(-0.5 * x * x)


def outage_closed_form(gamma_bar: float) -> float:
    """Outage probability of a coherent-FSK link whose SIR is exponential
    with mean ``gamma_bar``: (1 - sqrt(gamma/(2+gamma))) / 2.

    Evaluated through the equivalent chain 1/(1 + 2/gamma) so that every
    floating-point step is monotone in ``gamma_bar``; handles 0 and inf
    exactly (0.5 and 0.0).  The value never exceeds 0.5 because the
    underlying symbol error rate is at most 1/2.
    """
    if math.isnan(gamma_bar) or gamma_bar < 0:
        raise ValueError(f"mean SIR must be >= 0, got {gamma_bar}")
    if gamma_bar == 0.0:
        return 0.5
    t = 1.0 / (1.0 + 2.0 / gamma_bar)
    return 0.5 * (1.0 - math.sqrt(t))


def success_from_sir(sir: float) -> float:
    """Per-realization success probability 1 - outage at the given SIR.

    Note the floor of 0.5 at sir = 0: the coherent-FSK error rate never
    exceeds one half, so even a fully jammed frame keeps success 0.5 under
    this error model.
    """
    return 1.0 - outage_closed_form(sir)


def success_from_sir_array(gamma: np.ndarray) -> np.ndarray:
    """Vector counterpart of :func:`success_from_sir`; bit-identical to the
    scalar for the same inputs (same operation chain)."""
    with np.errstate(divide="ignore"):
        t = 1.0 / (1.0 + 2.0 / gamma)
    return 1.0 - 0.5 * (1.0 - np.sqrt(t))


def outage_numeric_oracle(
    gamma_bar: float, rel_tol: float = 1e-8, error_rate: str = "exact"
) -> float:
    """Outage by adaptive quadrature of the error rate against the
    exponential SIR density, integral over a >= 0 of R_e(a) * exp(-a/g)/g.

    ``error_rate="exact"`` uses the Gaussian tail Q(sqrt(a)) and must agree
    with :func:`outage_closed_form`; ``error_rate="bound"`` uses the Chernoff
    bound and therefore upper-bounds the exact mode.  Kept deliberately
    independent of the closed form so it can serve as its cross-check.
    """
    from scipy import integrate

    if gamma_bar <= 0:
        raise ValueError(f"mean SIR must be > 0, got {gamma_bar}")
    if not 0 < rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must be in (0, 1e-3], got {rel_tol}")
    if error_rate == "exact":
        rate = lambda a: 0.5 * math.erfc(math.sqrt(a) / _SQRT2)  # noqa: E731
    elif error_rate == "bound":
        rate = lambda a: 0.5 * math.exp(-0.5 * a)  # noqa: E731
    else:
        raise ValueError(f"error_rate must be 'exact' or 'bound', got {error_rate!r}")

    # Substitute a = gamma_bar * u so the integrand decays like exp(-u)
    # regardless of gamma_bar's magnitude.
    value, abs_err = integrate.quad(
        lambda u: rate(gamma_bar * u) * math.exp(-u),
        0.0,
        math.inf,
        epsabs=0.0,
        epsrel=rel_tol,
        limit=200,
    )
    if value <= 0 or abs_err > rel_tol * value:
        raise QuadratureError(
            f"quadrature did not converge for mean SIR {gamma_bar}: "
            f"value={value}, abs_err={abs_err}, requested rel_tol={rel_tol}"
        )
    return value

