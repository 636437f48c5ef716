"""The distance sweep's ``p_co`` column against a quadrature oracle.

A desired device at area fraction ``v_d = (d/R)**2`` in annulus k sees as
co-SF interferers a Poisson process of intensity ``lam = duty * n_bar`` on
the annulus's area-fraction interval, each at ``v = max(u, (d_min/R)**2)``
with unit-mean exponential fading.  With ``a = eta/2`` the Laplace
functional of that field gives

    P[SIR_co > x] = exp(-lam * integral over the ring of du / (1 + (v/b)**a)),
    b = v_d * x**(1/a),

whose inner integral is closed form,
``integral_0^Y dv / (1 + (v/b)**a) = Y * 2F1(1, 1/a; 1 + 1/a; -(Y/b)**a)``,
and ring 0 adds the point mass of the interferers clamped to ``d_min``.
With the per-realization success ``f(x) = 1/2 + sqrt(x/(2+x))/2``,
``p_co = 1/2 + integral_0^inf f'(x) P[SIR_co > x] dx`` where
``f'(x) = x**(-1/2) * (2+x)**(-3/2) / 2``; Gauss-Legendre nodes on
``x = (t/(1-t))**2`` take the outer integral.

The bound |z| <= 4 on every point of a desk sweep was fixed before the
first comparison.

The inter-SF field is the same process on the complement of the desired
annulus, so ``p_inter`` takes the same head over that complement, with the
``d_min`` point mass when the desired annulus is not the innermost.  Given
the desired fading, the co-SF and inter-SF fields are independent and both
success factors increase with the fading, so Chebyshev's association
inequality brackets the joint column:
``p_co * p_inter <= p_sf <= min(p_co, p_inter)``.  Every point of a desk
sweep must lie within 4 standard errors of that bracket.  The bracket is
loose, so the inter-SF factor the sweep multiplies into ``p_sf`` is also
gated on its own against ``p_inter``, at the same |z| <= 4.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from lora_reliability import montecarlo
from lora_reliability.analytic import success_from_sir_array
from lora_reliability.geometry import annulus_to_sf
from lora_reliability.montecarlo import SweepSpec, default_distance_grid, success_vs_distance
from lora_reliability.params import SF_MIN, NetworkConfig

Z_MAX = 4.0
NODES = 200


def _ring(d_km, cfg):
    """Desired annulus index and its area-fraction interval."""
    k = annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN
    return k, (k / 6) ** 2, ((k + 1) / 6) ** 2


def _p_co_oracle(d_km, cfg):
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    k, lo, hi = _ring(d_km, cfg)
    t, w = np.polynomial.legendre.leggauss(NODES)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    x = (t / (1.0 - t)) ** 2
    b = (d_km / cfg.cell_radius_km) ** 2 * x ** (1.0 / a)

    def head(y):  # integral over [0, y] of dv / (1 + (v/b)**a)
        return y * special.hyp2f1(1.0, 1.0 / a, 1.0 + 1.0 / a, -((y / b) ** a))

    if k == 0:
        ring = v_min / (1.0 + (v_min / b) ** a) + head(hi) - head(v_min)
    else:
        ring = head(hi) - head(lo)
    # f'(x) dx = (2 + x)**(-3/2) / (1 - t)**2 dt
    return 0.5 + float(np.sum(w * (2.0 + x) ** -1.5 / (1.0 - t) ** 2 * np.exp(-lam * ring)))


def _p_inter_oracle(d_km, cfg):
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    _, lo, hi = _ring(d_km, cfg)
    t, w = np.polynomial.legendre.leggauss(NODES)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    x = (t / (1.0 - t)) ** 2
    b = (d_km / cfg.cell_radius_km) ** 2 * x ** (1.0 / a)

    def head(y):  # integral over [0, y] of dv / (1 + (v/b)**a)
        return y * special.hyp2f1(1.0, 1.0 / a, 1.0 + 1.0 / a, -((y / b) ** a))

    def clamped(y):  # the same integral of v = max(u, v_min) over u in [0, y]
        if y <= v_min:
            return y / (1.0 + (v_min / b) ** a)
        return v_min / (1.0 + (v_min / b) ** a) + head(y) - head(v_min)

    outside = clamped(lo) + clamped(1.0) - clamped(hi)
    return 0.5 + float(np.sum(w * (2.0 + x) ** -1.5 / (1.0 - t) ** 2 * np.exp(-lam * outside)))


def _p_co_nested_quad(d_km, cfg):
    """The same probability with both integrals by adaptive quadrature."""
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    v_d = (d_km / cfg.cell_radius_km) ** 2
    k, lo, hi = _ring(d_km, cfg)

    def survival(x):
        def term(v):
            return x * (v_d / v) ** a / (1.0 + x * (v_d / v) ** a)

        ring = integrate.quad(term, max(lo, v_min), hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        if k == 0:
            ring += v_min * term(v_min)
        return math.exp(-lam * ring)

    def integrand(x):
        return 0.5 * x**-0.5 * (2.0 + x) ** -1.5 * survival(x)

    return 0.5 + integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=400)[0]


def _p_inter_nested_quad(d_km, cfg):
    """``p_inter`` with both integrals by adaptive quadrature."""
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    v_d = (d_km / cfg.cell_radius_km) ** 2
    k, lo, hi = _ring(d_km, cfg)

    def survival(x):
        def term(v):
            return x * (v_d / v) ** a / (1.0 + x * (v_d / v) ** a)

        outside = integrate.quad(term, hi, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        if k > 0:
            outside += v_min * term(v_min)
            outside += integrate.quad(term, v_min, lo, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        return math.exp(-lam * outside)

    def integrand(x):
        return 0.5 * x**-0.5 * (2.0 + x) ** -1.5 * survival(x)

    return 0.5 + integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=400)[0]


@pytest.mark.parametrize("d_km", [0.5, 2.0, 6.5, 11.0])
def test_oracle_matches_nested_quadrature(d_km):
    cfg = NetworkConfig()
    assert _p_co_oracle(d_km, cfg) == pytest.approx(_p_co_nested_quad(d_km, cfg), abs=1e-9)


@pytest.mark.parametrize("d_km", [0.5, 2.0, 6.5, 12.0])
def test_inter_oracle_matches_nested_quadrature(d_km):
    cfg = NetworkConfig()
    assert _p_inter_oracle(d_km, cfg) == pytest.approx(_p_inter_nested_quad(d_km, cfg), abs=1e-9)


def test_desk_distance_sweep_p_co_within_z_of_oracle():
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="distance",
        grid=default_distance_grid(cfg),
        realizations_per_point=10_000,
        seed=11,
    )
    z = []
    for point in success_vs_distance(cfg, spec):
        assert point.stderr.p_co > 0.0
        z.append((point.probs.p_co - _p_co_oracle(point.abscissa, cfg)) / point.stderr.p_co)
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= Z_MAX, f"z = {z[worst]:.2f} at {spec.grid[worst]} km"


def test_desk_distance_sweep_p_sf_within_z_of_association_bracket():
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="distance",
        grid=default_distance_grid(cfg),
        realizations_per_point=10_000,
        seed=11,
    )
    z = []
    for point in success_vs_distance(cfg, spec):
        assert point.stderr.p_sf > 0.0
        p_co, p_inter = _p_co_oracle(point.abscissa, cfg), _p_inter_oracle(point.abscissa, cfg)
        p_sf, se = point.probs.p_sf, point.stderr.p_sf
        z.append(min(p_sf - p_co * p_inter, min(p_co, p_inter) - p_sf) / se)
    worst = int(np.argmin(z))
    assert z[worst] >= -Z_MAX, f"z = {z[worst]:.2f} at {spec.grid[worst]} km"


def test_desk_distance_inter_sf_success_within_z_of_oracle():
    """The inter-SF power each annulus rebuilds from the other five
    sub-fields, through the per-realization success of the sweep's
    ``p_sf`` factor, at every point of a desk grid."""
    cfg = NetworkConfig()
    grid = default_distance_grid(cfg)
    pinned = [montecarlo._pinned(cfg, d_km) for d_km in grid]
    success = [[] for _ in grid]
    for rings in montecarlo._ring_batches(cfg, 10_000, 11):
        for values, (gain, ring) in zip(success, pinned):
            fading, powers = rings[ring]
            values.append(success_from_sir_array(montecarlo._sirs(powers, gain * fading)[2]))
    z = []
    for d_km, values in zip(grid, success):
        s = np.concatenate(values)
        z.append((s.mean() - _p_inter_oracle(d_km, cfg)) / (s.std(ddof=1) / math.sqrt(s.size)))
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= Z_MAX, f"z = {z[worst]:.2f} at {grid[worst]} km"
