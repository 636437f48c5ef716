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

The density sweep's ``p_co`` is the same head averaged over the desired
device's clamped area fraction ``v_d = max(u, (d_min/R)**2)`` with ``u``
uniform on the cell: the point mass ``(d_min/R)**2`` at ``v_d = (d_min/R)**2``,
then 24 Gauss-Legendre nodes in each annulus.  The ring integral does not
depend on ``n_bar``, so one array of it over the (v_d, x) nodes serves the
whole grid.  Every point of a full-scale density sweep must lie within the
same |z| <= 4.  The density ``p_inter`` averages ``p_inter``'s head over the
complement of each node's annulus the same way, and gates the per-realization
inter-SF success on the sweep's own streams at the same |z| <= 4.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from lora_reliability import montecarlo
from lora_reliability.analytic import success_from_sir_array
from lora_reliability.montecarlo import (
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    success_vs_distance,
)
from lora_reliability.params import SF_MIN, NetworkConfig, annulus_to_sf

Z_MAX = 4.0
NODES = 200
AREA_NODES = 24  # Gauss-Legendre nodes per annulus of the density average


def _outer_nodes():
    """The outer integral's Gauss-Legendre nodes as SIR thresholds
    ``x = (t/(1-t))**2``, ``t`` in (0, 1), and their weights: with
    f'(x) dx = (2 + x)**(-3/2) / (1 - t)**2 dt, ``p = 1/2 + sum(weight *
    P[SIR > x])``."""
    t, w = np.polynomial.legendre.leggauss(NODES)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    x = (t / (1.0 - t)) ** 2
    return x, w * (2.0 + x) ** -1.5 / (1.0 - t) ** 2


def _head(y, a, b):
    """Integral over [0, y] of dv / (1 + (v/b)**a)."""
    return y * special.hyp2f1(1.0, 1.0 / a, 1.0 + 1.0 / a, -((y / b) ** a))


def _clamped(y, a, b, v_min):
    """The same integral of v = max(u, v_min) over u in [0, y]."""
    mass = np.minimum(y, v_min) / (1.0 + (v_min / b) ** a)
    return mass + np.where(y > v_min, _head(np.maximum(y, v_min), a, b) - _head(v_min, a, b), 0.0)


def _ring(d_km, cfg):
    """Desired annulus index and its area-fraction interval."""
    k = annulus_to_sf(d_km, cfg.cell_radius_km) - SF_MIN
    return k, (k / 6) ** 2, ((k + 1) / 6) ** 2


def _p_co_oracle(d_km, cfg):
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    k, lo, hi = _ring(d_km, cfg)
    x, outer = _outer_nodes()
    b = (d_km / cfg.cell_radius_km) ** 2 * x ** (1.0 / a)
    if k == 0:
        ring = v_min / (1.0 + (v_min / b) ** a) + _head(hi, a, b) - _head(v_min, a, b)
    else:
        ring = _head(hi, a, b) - _head(lo, a, b)
    return 0.5 + float(np.sum(outer * np.exp(-lam * ring)))


def _p_inter_oracle(d_km, cfg):
    a = 0.5 * cfg.path_loss_exponent
    lam = cfg.duty_cycle * cfg.mean_devices
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    _, lo, hi = _ring(d_km, cfg)
    x, outer = _outer_nodes()
    b = (d_km / cfg.cell_radius_km) ** 2 * x ** (1.0 / a)
    outside = _clamped(lo, a, b, v_min) + _clamped(1.0, a, b, v_min) - _clamped(hi, a, b, v_min)
    return 0.5 + float(np.sum(outer * np.exp(-lam * outside)))


def _area_nodes(cfg, area_nodes=AREA_NODES):
    """Nodes and weights of the average over the desired device's clamped
    area fraction, each with the u-interval of its co-SF interferers."""
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    starts = [(j / 6) ** 2 for j in range(6)] + [1.0]
    g, gw = np.polynomial.legendre.leggauss(area_nodes)
    v_d, weight, lo, hi = [], [], [], []
    for k in range(6):
        # the draws u whose clamped area fraction lies in annulus k
        ring = (starts[k] if starts[k] > v_min else 0.0, starts[k + 1])
        if starts[k] <= v_min < starts[k + 1]:  # desired devices clamped to d_min
            v_d.append(v_min)
            weight.append(v_min)
            lo.append(ring[0])
            hi.append(ring[1])
        lo_v, hi_v = max(starts[k], v_min), starts[k + 1]
        if hi_v <= lo_v:
            continue
        v_d.extend(lo_v + 0.5 * (g + 1.0) * (hi_v - lo_v))
        weight.extend(0.5 * gw * (hi_v - lo_v))
        lo.extend([ring[0]] * area_nodes)
        hi.extend([ring[1]] * area_nodes)
    return np.array(v_d), np.array(weight), np.array(lo), np.array(hi)


def _density_oracle(n_bars, cfg, area_nodes, inter):
    """The co-SF or, with ``inter``, the inter-SF success of the density
    sweep at each mean device count in ``n_bars``, vectorized over the
    (v_d, x) node grid."""
    a = 0.5 * cfg.path_loss_exponent
    v_min = (cfg.min_distance_km / cfg.cell_radius_km) ** 2
    v_d, weight, lo, hi = _area_nodes(cfg, area_nodes)
    v_d, lo, hi = v_d[:, None], lo[:, None], hi[:, None]
    x, outer = _outer_nodes()
    b = v_d * x ** (1.0 / a)
    ring = _clamped(hi, a, b, v_min) - _clamped(lo, a, b, v_min)  # independent of n_bar
    if inter:  # the complement of the desired annulus
        ring = _clamped(1.0, a, b, v_min) - ring
    return [
        0.5 + float(weight @ (np.exp(-cfg.duty_cycle * n_bar * ring) @ outer))
        for n_bar in n_bars
    ]


def _p_co_density_oracle(n_bars, cfg, area_nodes=AREA_NODES):
    return _density_oracle(n_bars, cfg, area_nodes, inter=False)


def _p_inter_density_oracle(n_bars, cfg, area_nodes=AREA_NODES):
    return _density_oracle(n_bars, cfg, area_nodes, inter=True)


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


def _area_average(scalar_oracle, cfg, area_nodes):
    v_d, weight, _, _ = _area_nodes(cfg, area_nodes)
    return sum(
        wt * scalar_oracle(cfg.cell_radius_km * math.sqrt(v), cfg) for v, wt in zip(v_d, weight)
    )


def test_density_oracle_matches_scalar_oracle():
    """The vectorized density oracle is the area average of the distance
    oracle's ``p_co`` at the same desired nodes."""
    cfg = NetworkConfig()
    scalar = _area_average(_p_co_oracle, cfg, 4)
    assert _p_co_density_oracle([cfg.mean_devices], cfg, 4)[0] == pytest.approx(scalar, abs=1e-12)


def test_density_inter_oracle_matches_scalar_oracle():
    """The same for ``p_inter``: the complement of each node's annulus."""
    cfg = NetworkConfig()
    scalar = _area_average(_p_inter_oracle, cfg, 4)
    assert _p_inter_density_oracle([cfg.mean_devices], cfg, 4)[0] == pytest.approx(
        scalar, abs=1e-12
    )


def test_density_oracle_converged_in_area_nodes():
    n_bars = default_density_grid()
    cfg = NetworkConfig()
    coarse = _p_co_density_oracle(n_bars, cfg)
    fine = _p_co_density_oracle(n_bars, cfg, 2 * AREA_NODES)
    assert coarse == pytest.approx(fine, abs=1e-7)


def test_full_density_sweep_p_co_within_z_of_oracle():
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="density",
        grid=default_density_grid(),
        realizations_per_point=100_000,
        seed=11,
    )
    oracle = _p_co_density_oracle(spec.grid, cfg)
    z = []
    for point, p_co in zip(coverage_vs_density(cfg, spec), oracle):
        assert point.stderr.p_co > 0.0
        z.append((point.probs.p_co - p_co) / point.stderr.p_co)
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= Z_MAX, f"z = {z[worst]:.2f} at n_bar = {spec.grid[worst]}"


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
    for b, size in montecarlo._batches(10_000):
        rings = montecarlo._ring_batch(cfg, 11, b, size)
        for values, (gain, ring) in zip(success, pinned):
            fading, powers = rings[ring]
            values.append(success_from_sir_array(montecarlo._sirs(powers, gain * fading)[2]))
    z = []
    for d_km, values in zip(grid, success):
        s = np.concatenate(values)
        z.append((s.mean() - _p_inter_oracle(d_km, cfg)) / (s.std(ddof=1) / math.sqrt(s.size)))
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= Z_MAX, f"z = {z[worst]:.2f} at {grid[worst]} km"


def test_full_density_inter_sf_success_within_z_of_oracle():
    """The inter-SF power the density split leaves outside each desired
    annulus, through the per-realization success of the sweep's ``p_sf``
    factor, at every point of the default grid.  It reads the sweep's own
    batch walk and its evaluator; its co-SF success reproduces the sweep's
    ``p_co`` column exactly."""
    cfg = NetworkConfig()
    spec = SweepSpec(
        kind="density",
        grid=default_density_grid(),
        realizations_per_point=100_000,
        seed=11,
    )
    # The evaluator computes the same doubled success in its max_co and co
    # slots from the scaled power it is given, so the co-SF scaled power
    # goes in the first slot and the inter-SF one in the second: the
    # finished point's p_max_co is then the co-SF success and its p_co the
    # inter-SF one, with its standard error.
    sums = np.zeros((len(spec.grid), 6))
    scratch = np.empty((3, montecarlo._BATCH))
    steps = np.diff(spec.grid, prepend=0.0)
    for b, size in montecarlo._batches(spec.realizations_per_point):
        s, _, fields = montecarlo._density_batch(cfg, steps, spec.seed, b, size)
        y = np.empty((3, 1, s.size))
        for row, powers in zip(sums, fields):
            montecarlo._scaled(powers, None, y)
            y[:2] = y[1:]
            montecarlo._evaluate(y, s[np.newaxis], row[np.newaxis], scratch)
    n = spec.realizations_per_point
    points = [montecarlo._curve_point(n_bar, row, n, 1.0) for row, n_bar in zip(sums, spec.grid)]
    co = [pt.probs.p_max_co for pt in points]
    assert co == [pt.probs.p_co for pt in coverage_vs_density(cfg, spec)]
    z = []
    for pt, p_inter in zip(points, _p_inter_density_oracle(spec.grid, cfg)):
        assert pt.stderr.p_co > 0.0
        z.append((pt.probs.p_co - p_inter) / pt.stderr.p_co)
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= Z_MAX, f"z = {z[worst]:.2f} at n_bar = {spec.grid[worst]}"
