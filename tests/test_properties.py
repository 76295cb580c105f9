"""Property tests of the closed forms over reachable parameter space."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from squeezer_sim import (
    RootFindFailure,
    frequency_sweep_curve,
    orth_phase_variance_reduced,
    orth_threshold_intensity,
    pump_sweep_curve,
    sh_power,
    steady_state,
    steady_state_sweep,
)
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps
from squeezer_sim.steadystate import (
    fixed_point_residual,
    regime_thresholds,
)


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_closed_forms_are_fixed_points_in_their_regime(seed):
    rng = np.random.default_rng(seed)
    params = sample_reachable_params(rng)
    for region in ("i", "ii", "iii"):
        g = sample_regime_pumps(rng, params, region)
        ss = steady_state(params, g)
        assert ss.regime.value == region
        assert fixed_point_residual(params, g, ss) <= 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_sweeps_equal_scalar_calls_bitwise(seed):
    # steady_state_sweep against steady_state row by row, and the pump
    # and frequency curves against the scalar reduced form, on a linear
    # grid through all three regions and a log grid around them.
    rng = np.random.default_rng(seed)
    params = sample_reachable_params(rng)
    g_laser, g_orth = regime_thresholds(params)
    for pumps in (np.linspace(0.0, rng.uniform(1.5, 4.0) * g_orth, 97),
                  np.geomspace(1e-3 * g_laser, 1e3 * g_orth, 97)):
        sweep = steady_state_sweep(params, pumps)
        for k, g in enumerate(pumps.tolist()):
            try:
                ss = steady_state(params, g)
            except RootFindFailure:
                assert sweep.status[k] == "error:RootFindFailure"
                continue
            got = [getattr(sweep, name)[k] for name in (
                "a_par", "a_orth", "sigma1", "sigma2", "sigma3", "sh_power")]
            want = [ss.a_par, ss.a_orth, ss.sigma1, ss.sigma2, ss.sigma3,
                    sh_power(params, ss)]
            assert (sweep.regime[k], sweep.status[k]) == (ss.regime.value, "ok")
            assert [float(v).hex() for v in got] == [v.hex() for v in want]
    omega = params.gamma_orth * 10.0 ** rng.uniform(-2, 2)
    top = orth_threshold_intensity(params)
    curve = pump_sweep_curve(params, omega, np.linspace(0.0, 1.0, 97) * g_orth)
    for g, status, v in zip(curve.pumps.tolist(), curve.status.tolist(),
                            curve.variances.tolist()):
        if status == "ok":
            i = min(steady_state(params, g).i_par, top)
            assert v.hex() == orth_phase_variance_reduced(params, i, omega).hex()
    i_par = rng.uniform(0.0, top)
    omegas = params.gamma_orth * np.geomspace(1e-3, 1e3, 97)
    curve = frequency_sweep_curve(params, i_par, omegas)
    assert [v.hex() for v in curve.variances.tolist()] == [
        orth_phase_variance_reduced(params, i_par, w).hex() for w in omegas.tolist()]
