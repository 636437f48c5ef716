import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lora_reliability.analytic import (
    QuadratureError,
    ScenarioProbabilities,
    outage_closed_form,
    outage_numeric_oracle,
    q_bound,
    q_function,
    success_from_sir_array,
)

GAMMA_GRID = (0.01, 0.1, 1.0, 2.0, 10.0, 100.0, 1e4)


def test_q_function_at_zero():
    assert abs(q_function(0.0) - 0.5) < 1e-12


def test_q_function_vanishes_at_infinity():
    assert q_function(40.0) < 1e-300
    assert q_function(math.inf) == 0.0


def test_q_function_quantile_value():
    # 95th percentile of the standard normal
    assert q_function(1.6449) == pytest.approx(0.05, abs=5e-5)


def test_q_function_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for x in (-8.0, -3.0, -1.0, -0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0):
        exact = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
        assert abs(q_function(x) - exact) < 1e-12


def test_q_bound_values():
    assert q_bound(1.0) == pytest.approx(0.3032653298563167, rel=1e-12)
    assert q_bound(2.0) == pytest.approx(0.06766764161830635, rel=1e-12)


def test_q_bound_domain():
    with pytest.raises(ValueError):
        q_bound(0.0)
    with pytest.raises(ValueError):
        q_bound(-1.0)


def test_q_bound_dominates_tail():
    for k in range(1, 81):
        x = 0.1 * k
        assert q_bound(x) >= q_function(x)


def test_outage_closed_form_values():
    assert outage_closed_form(0.0) == 0.5
    assert outage_closed_form(math.inf) == 0.0
    assert outage_closed_form(2.0) == pytest.approx(0.1464466094067262, rel=1e-12)
    # direct form agreement: (1 - sqrt(g/(2+g)))/2
    for g in GAMMA_GRID:
        direct = 0.5 * (1.0 - math.sqrt(g / (2.0 + g)))
        assert outage_closed_form(g) == pytest.approx(direct, rel=1e-12)


def test_outage_closed_form_domain():
    with pytest.raises(ValueError):
        outage_closed_form(-0.1)
    with pytest.raises(ValueError):
        outage_closed_form(float("nan"))


@given(st.floats(min_value=0.0, max_value=1e12))
def test_outage_in_range_and_below_half(gamma):
    v = outage_closed_form(gamma)
    assert 0.0 < v <= 0.5


@given(
    st.floats(min_value=0.0, max_value=1e15),
    st.floats(min_value=0.0, max_value=1e15),
)
def test_outage_monotone_decreasing(g1, g2):
    lo, hi = sorted((g1, g2))
    assert outage_closed_form(lo) >= outage_closed_form(hi)


def test_outage_strictly_decreasing_on_grid():
    values = [outage_closed_form(float(g)) for g in np.geomspace(1e-6, 1e9, 60)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quadrature_matches_closed_form():
    for g in GAMMA_GRID:
        numeric = outage_numeric_oracle(g, rel_tol=1e-8)
        assert abs(numeric - outage_closed_form(g)) < 1e-6


def test_quadrature_validates_inputs():
    with pytest.raises(ValueError):
        outage_numeric_oracle(0.0)
    for gamma_bar in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mean SIR must be finite and > 0"):
            outage_numeric_oracle(gamma_bar)
    with pytest.raises(ValueError):
        outage_numeric_oracle(1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        outage_numeric_oracle(1.0, rel_tol=0.1)


def test_success_from_sir_values():
    assert 1.0 - outage_closed_form(math.inf) == 1.0
    assert 1.0 - outage_closed_form(0.0) == 0.5
    assert 1.0 - outage_closed_form(2.0) == pytest.approx(0.8535533905932737, rel=1e-12)


def test_success_array_matches_scalar_bitwise():
    gammas = np.concatenate(
        [np.geomspace(1e-12, 1e12, 200), [0.0, np.inf]]
    )
    vec = success_from_sir_array(gammas)
    for g, v in zip(gammas, vec):
        assert v == 1.0 - outage_closed_form(float(g))


@given(
    st.floats(min_value=0.0, allow_infinity=True, allow_nan=False),
    st.floats(min_value=0.0, allow_infinity=True, allow_nan=False),
)
def test_success_from_sir_float_monotone(g1, g2):
    lo, hi = sorted((g1, g2))
    assert 1.0 - outage_closed_form(lo) <= 1.0 - outage_closed_form(hi)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_success_dominance_under_4x(gamma):
    # the strongest-interferer SIR is at least 4x the sum-based SIR;
    # success must preserve that ordering exactly in floats
    assert 1.0 - outage_closed_form(4.0 * gamma) >= 1.0 - outage_closed_form(gamma)


def test_scenario_probabilities_validation():
    ScenarioProbabilities(1.0, 0.9, 0.8, 0.7, 0.6)
    with pytest.raises(ValueError):
        ScenarioProbabilities(1.1, 0.9, 0.8, 0.7, 0.6)
    with pytest.raises(ValueError):
        ScenarioProbabilities(1.0, 0.9, 0.8, 0.7, -0.1)
