"""The one real-number rule, ``params.require_real``, at every public entry
point that takes a real argument or field.

Each generated value comes tagged with whether the rule must accept it: a
finite real of a number type, Python's or numpy's, but not a bool.  A
rejected value must raise :class:`ConfigError` naming the argument; an
accepted one may pass or fail its range check with a ``ValueError``
(``ConfigError`` and ``OutOfCellError`` are both), but never with a
``TypeError`` or a warning.
"""

import math
import os
import re
import sys
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import from_dtype

from lora_reliability import montecarlo
from lora_reliability.channel import ChannelModel, snr_success_probability
from lora_reliability.cli import curve_to_csv
from lora_reliability.montecarlo import (
    SweepSpec,
    coverage_vs_density,
    default_density_grid,
    default_distance_grid,
    estimate_mean_sir,
    success_vs_distance,
)
from lora_reliability.params import ConfigError, NetworkConfig, annulus_to_sf

REAL_FIELDS = [f.name for f in fields(NetworkConfig) if f.name != "seed"]

_NUMPY_REALS = st.one_of(
    *(
        from_dtype(np.dtype(t), allow_nan=False, allow_infinity=False)
        for t in ("float16", "float32", "float64")
    ),
    *(from_dtype(np.dtype(t)) for t in ("int8", "int64", "uint8", "uint64")),
)
_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**1023), max_value=2**1023),
    st.fractions(min_value=-(10**6), max_value=10**6),
    _NUMPY_REALS,
)
_NOT_REALS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf")]),
    st.sampled_from([10**400, -(10**400), Fraction(10**400, 3)]),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.text(max_size=8),
    st.none(),
    st.complex_numbers(),
    st.sampled_from([np.complex128(1.0), np.complex64(1j)]),
    st.decimals(),
)
# (must the rule accept it, value)
VALUES = st.one_of(_REALS.map(lambda v: (True, v)), _NOT_REALS.map(lambda v: (False, v)))
# Every kind but an integer, for the worker count.
NON_INTEGERS = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.complex_numbers(),
    st.decimals(),
    st.fractions(),
    from_dtype(np.dtype("float64")),
    st.sampled_from([np.True_, np.float32(2.0)]),
)

_RULE = "{} must be (a real number|finite), got "


def _meets_the_rule(call, name, tagged):
    real, value = tagged
    rule = re.compile(_RULE.format(re.escape(name)))
    if not real:
        with pytest.raises(ConfigError, match=rule):
            call(value)
        return
    try:
        call(value)
    except ValueError as err:  # out of range
        assert not rule.match(str(err)), err


@given(st.sampled_from(REAL_FIELDS), VALUES)
@example("duty_cycle", (False, True))
def test_config_fields_follow_the_real_rule(key, tagged):
    _meets_the_rule(lambda v: NetworkConfig(**{key: v}), key, tagged)


@given(VALUES)
@example((False, "1"))
def test_spec_grid_follows_the_real_rule(tagged):
    _meets_the_rule(lambda v: SweepSpec("distance", (v,), 10, 1), "grid", tagged)


@given(VALUES)
@example((False, "1"))
def test_noise_only_success_distance_follows_the_real_rule(tagged):
    _meets_the_rule(lambda v: snr_success_probability(v, 7, NetworkConfig()), "d_km", tagged)


@given(VALUES)
@example((False, "1"))
def test_mean_sir_distance_follows_the_real_rule(tagged):
    _meets_the_rule(lambda v: estimate_mean_sir(NetworkConfig(), v, 16, 1), "d_km", tagged)


@given(st.sampled_from(["distance_km", "cell_radius_km"]), VALUES)
@example("distance_km", (False, "1"))
def test_annulus_to_sf_follows_the_real_rule(key, tagged):
    base = {"distance_km": 1.0, "cell_radius_km": 12.0}
    _meets_the_rule(lambda v: annulus_to_sf(**{**base, key: v}), key, tagged)


@given(st.sampled_from(["wavelength_m", "path_loss_exponent", "noise_mw"]), VALUES)
@example("wavelength_m", (False, math.nan))
def test_channel_model_fields_follow_the_real_rule(key, tagged):
    base = {"wavelength_m": 0.345, "path_loss_exponent": 2.7, "noise_mw": 1e-12}
    _meets_the_rule(lambda v: ChannelModel(**{**base, key: v}), key, tagged)


@given(VALUES)
@example((False, "3000"))
@example((True, sys.float_info.max))  # its last power overflows in np.geomspace
def test_density_grid_bound_follows_the_real_rule(tagged):
    _meets_the_rule(default_density_grid, "n_bar_max", tagged)


@pytest.mark.parametrize("kind", ["distance", "density"])
@given(threads=NON_INTEGERS)
def test_sweep_threads_reject_non_integers_before_any_fork(kind, threads):
    def fail(*args, **kwargs):
        raise AssertionError("the sweep drew or forked before checking threads")

    sweep = success_vs_distance if kind == "distance" else coverage_vs_density
    spec = SweepSpec(kind, (1.0, 2.0), 10, 1)
    with (
        mock.patch.object(os, "fork", fail),
        mock.patch.object(montecarlo, "_ring_batch", fail),
        mock.patch.object(montecarlo, "_ring_draw", fail),
        mock.patch.object(montecarlo, "_density_batch", fail),
    ):
        with pytest.raises(ConfigError, match="threads must be an integer, got "):
            sweep(NetworkConfig(), spec, threads=threads)


def _csv(cfg, kind):
    if kind == "distance":
        spec = SweepSpec(kind, default_distance_grid(cfg, 12), 4096, 1)
        return curve_to_csv(success_vs_distance(cfg, spec), "d_km")
    spec = SweepSpec(kind, default_density_grid(3000.0, 12), 4096, 1)
    return curve_to_csv(coverage_vs_density(cfg, spec), "n_bar")


def test_equal_configs_give_equal_bytes():
    """A field given as a numpy or fraction scalar is stored as the float it
    equals, so no narrower type reaches the arithmetic: the config equals
    the default one and gives its bytes."""
    base = NetworkConfig()
    values = {key: getattr(base, key) for key in REAL_FIELDS}
    narrow = {key: np.float32(v) for key, v in values.items() if float(np.float32(v)) == v}
    assert "cell_radius_km" in narrow
    cfg = NetworkConfig(**narrow)
    assert cfg == base
    for kind in ("distance", "density"):
        assert _csv(cfg, kind) == _csv(base, kind), kind
    d32 = np.float32(1.0)
    assert snr_success_probability(d32, 7, cfg) == snr_success_probability(1.0, 7, base)
    assert estimate_mean_sir(cfg, d32, 4096, 1) == estimate_mean_sir(base, 1.0, 4096, 1)
    exact = NetworkConfig(**{key: Fraction(v) for key, v in values.items()})
    assert exact == base
    for key in REAL_FIELDS:
        assert type(getattr(cfg, key)) is float, key
        assert type(getattr(exact, key)) is float, key
