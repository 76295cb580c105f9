"""Property tests of the closed forms over reachable parameter space."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from squeezer_sim import classify_regime, steady_state
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps
from squeezer_sim.steadystate import fixed_point_residual


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_closed_forms_are_fixed_points_in_their_regime(seed):
    rng = np.random.default_rng(seed)
    params = sample_reachable_params(rng)
    for region in ("i", "ii", "iii"):
        g = sample_regime_pumps(rng, params, region)
        regime = classify_regime(params, g)
        assert regime.value == region
        ss = steady_state(params, g)
        assert ss.regime is regime
        assert fixed_point_residual(params, g, ss) <= 1e-10
