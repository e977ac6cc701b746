"""Property tests: invariants over random admissible inputs and random configs.

Examples are derandomized and kept few, so the suite stays deterministic and
fast; each property still covers inputs no fixed case names.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbox.coeffs import COEFFICIENT_NAMES, coefficients, reference_state
from fockbox.displace import DisplacementParams, InterchangeChecker
from fockbox.errors import ConfigError
from fockbox.fockspace import displacement_block, leakage_admissible, max_admissible_amplitude
from fockbox.model import ModelConfig, build_layout, default_config
from test_displace import dense_interchange_residuals

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def admissible_blocks(draw):
    cutoff = draw(st.integers(min_value=1, max_value=40))
    limit = max_admissible_amplitude(cutoff)
    amplitude = draw(st.floats(min_value=-limit, max_value=limit))
    return cutoff, amplitude


@PROPERTY_SETTINGS
@given(admissible_blocks())
def test_displacement_block_is_orthogonal_and_inverted_by_its_negative(case):
    cutoff, amplitude = case
    assert leakage_admissible(amplitude, cutoff)
    u = displacement_block(cutoff, amplitude)
    eye = np.eye(cutoff + 1)
    np.testing.assert_allclose(u.T @ u, eye, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(u @ displacement_block(cutoff, -amplitude), eye, rtol=0.0, atol=1e-12)


@st.composite
def config_values(draw):
    """Mostly usable values; about one draw in ten is any float or index."""

    def pick(usable, anything):
        return draw(anything if draw(st.integers(min_value=0, max_value=9)) == 0 else usable)

    def number(lo, hi):
        return pick(st.floats(min_value=lo, max_value=hi), st.floats())

    any_index = st.integers(min_value=-3, max_value=3)
    neutral = pick(st.lists(any_index, min_size=1, max_size=2), st.lists(any_index, max_size=2))
    charged = pick(st.lists(any_index, min_size=1, max_size=2), st.lists(any_index, max_size=2))
    return {
        "box_length": number(0.5, 20.0),
        "mass_neutral": number(0.0, 5.0),
        "mass_charged": number(0.0, 5.0),
        "lambda1": number(0.0, 5.0),
        "lambda2": number(0.0, 5.0),
        "neutral_modes": neutral,
        "charged_modes": charged,
        "k_index": pick(st.sampled_from(neutral), any_index) if neutral else draw(any_index),
        "q_index": pick(st.sampled_from(charged), any_index) if charged else draw(any_index),
        "cutoff_default": pick(st.integers(min_value=1, max_value=3), st.integers(min_value=-1, max_value=3)),
    }


@PROPERTY_SETTINGS
@given(config_values())
def test_random_config_is_rejected_or_gives_finite_coefficients(values):
    try:
        config = ModelConfig(**values)
        layout = build_layout(config)
        cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cs, name)) for name in COEFFICIENT_NAMES), cs


BOUND_CUTOFF = 8


@st.composite
def admissible_params(draw):
    limit = max_admissible_amplitude(BOUND_CUTOFF)
    amplitude = st.floats(min_value=-limit, max_value=limit)
    return DisplacementParams(draw(amplitude), draw(amplitude))


@PROPERTY_SETTINGS
@given(admissible_params())
def test_interchange_bound_covers_the_dense_residual(params):
    # the dense evaluation resolves residuals only down to its own rounding
    # floor; at subnormal amplitudes the bound's products underflow to zero
    # and may sit a few subnormal units under it
    config = default_config().with_cutoff(BOUND_CUTOFF)
    checks = InterchangeChecker(config).run(params)
    dense, floors = dense_interchange_residuals(config, params)
    for c, exact, floor in zip(checks, dense, floors, strict=True):
        assert exact <= c.residual + floor + np.finfo(np.float64).smallest_normal, (c.name, exact, c.residual)
