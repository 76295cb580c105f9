import dataclasses

import numpy as np
import pytest

from squeezer_sim import (
    Regime,
    StateVector,
    derivatives,
    integrate,
    jacobian,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    settle,
    stability,
    steady_state,
)
from squeezer_sim.dynamics import export_trajectory_csv

GROUND = StateVector(0.0, 0.0, 1.0, 0.0, 0.0)


def _random_states(rng, n):
    for _ in range(n):
        yield np.concatenate([rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 1.0, 3)])


def test_ground_state_is_stationary_without_pump(moderate):
    rates = derivatives(GROUND, moderate, 0.0)
    assert rates.to_array().tolist() == [0.0] * 5


def test_population_rates_cancel_exactly(moderate, rng):
    for y in _random_states(rng, 50):
        r = derivatives(StateVector.from_array(y), moderate, rng.uniform(0, 10))
        assert r.sigma1 + r.sigma2 + r.sigma3 == 0.0


def test_closed_form_steady_state_is_a_fixed_point(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    ss = steady_state(moderate, g)
    rate = derivatives(StateVector.from_array(ss.state_vector()), moderate, g)
    assert np.linalg.norm(rate.to_array()) <= 1e-9 * np.linalg.norm(ss.state_vector())


def test_integrate_preserves_fixed_point(moderate):
    g = 2.0 * orth_threshold_pump(moderate)
    y0 = steady_state(moderate, g).state_vector()
    rel_tol = 1e-8
    traj = integrate(moderate, g, y0, t_end=10.0, rel_tol=rel_tol)
    drift = np.linalg.norm(traj.states[-1] - y0) / np.linalg.norm(y0)
    assert drift <= 10 * rel_tol


def test_integrate_converges_to_closed_form(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    y0 = np.array([1e-3, 1e-3, 1.0, 0.0, 0.0])
    traj = integrate(moderate, g, y0, t_end=80.0)
    ss = steady_state(moderate, g).state_vector()
    scale = np.maximum(np.abs(ss), 1e-9 * np.max(np.abs(ss)))
    assert np.max(np.abs(traj.states[-1] - ss) / scale) < 1e-5


def test_integrate_tolerance_halving_sanity(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    y0 = np.array([1e-3, 1e-3, 1.0, 0.0, 0.0])
    a = integrate(moderate, g, y0, t_end=5.0, rel_tol=1e-6, abs_tol=1e-10)
    b = integrate(moderate, g, y0, t_end=5.0, rel_tol=5e-7, abs_tol=1e-10)
    change = np.linalg.norm(a.states[-1] - b.states[-1])
    assert change <= 1e-6 * np.linalg.norm(a.states[-1])


def test_integrate_rejects_bad_arguments(moderate):
    with pytest.raises(ValueError):
        integrate(moderate, 1.0, GROUND, t_end=-1.0)
    with pytest.raises(ValueError):
        integrate(moderate, 1.0, GROUND, t_end=1.0, rel_tol=0.0)


def test_settle_zero_pump(moderate):
    ss = settle(moderate, 0.0)
    assert ss.regime is Regime.BelowLaser
    assert ss.sigma1 == pytest.approx(1.0, abs=1e-9)
    assert ss.i_par == 0.0 and ss.i_orth == 0.0


def test_settle_matches_closed_form_in_regime2(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    ss = steady_state(moderate, g)
    st = settle(moderate, g)
    ref, got = ss.state_vector(), st.state_vector()
    scale = np.maximum(np.abs(ref), 1e-9 * np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref) / scale) < 1e-5


@pytest.mark.parametrize("point", ["i", "0.99 laser", "1.01 laser", "ii", "iii"])
def test_settle_matches_closed_form_when_k2_is_very_fast(moderate, point):
    # k2 = 5e6 puts seven decades between the fastest and slowest rates;
    # an explicit method would need ~1e4x the steps it takes on moderate.
    p = dataclasses.replace(moderate, decay_k2=1e4 * moderate.decay_k2)
    gl, go = laser_threshold(p), orth_threshold_pump(p)
    g = {"i": 0.5 * gl, "0.99 laser": 0.99 * gl, "1.01 laser": 1.01 * gl,
         "ii": np.sqrt(gl * go), "iii": 1.5 * go}[point]
    ss = steady_state(p, g)
    st = settle(p, g)
    assert st.regime is ss.regime
    ref, got = ss.state_vector(), st.state_vector()
    scale = np.maximum(np.abs(ref), 1e-9 * np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref) / scale) < 1e-5


def test_settle_regime3_difference_clamp(moderate):
    g = 1.8 * orth_threshold_pump(moderate)
    st = settle(moderate, g)
    target = moderate.gamma_orth / moderate.nl_coupling_mu
    assert st.regime is Regime.OrthExcited
    assert st.i_par - st.i_orth == pytest.approx(target, rel=1e-6)


def test_settle_requires_positive_seed(moderate):
    with pytest.raises(ValueError):
        settle(moderate, 1.0, seed_amplitude=0.0)


def test_dark_orthogonal_mode_is_invariant(moderate):
    # a_orth = 0 is preserved exactly: its rate and the off-diagonal
    # Jacobian entries of its row and column are all proportional to
    # a_orth, so every Rosenbrock stage leaves it at zero.
    g = 2.0 * orth_threshold_pump(moderate)
    y0 = np.array([1e-3, 0.0, 1.0, 0.0, 0.0])
    traj = integrate(moderate, g, y0, t_end=30.0)
    assert np.all(traj.states[:, 1] == 0.0)


def test_population_sum_conserved_along_trajectory(moderate):
    g = 1.5 * orth_threshold_pump(moderate)
    y0 = np.array([1e-3, 1e-3, 1.0, 0.0, 0.0])
    traj = integrate(moderate, g, y0, t_end=50.0)
    sums = traj.states[:, 2:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_jacobian_matches_finite_differences(moderate, rng):
    from squeezer_sim import model as _model

    worst = 0.0
    for y in _random_states(rng, 100):
        g = float(10.0 ** rng.uniform(-1, 1))
        J = jacobian(y, moderate, g)
        scale_J = np.max(np.abs(J))
        for j in range(5):
            h = 1e-6 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            col = (_model.rhs(yp, moderate, g) - _model.rhs(ym, moderate, g)) / (2 * h)
            denom = np.maximum(np.abs(J[:, j]), 1e-7 * scale_J)
            worst = max(worst, float(np.max(np.abs(col - J[:, j]) / denom)))
    assert worst < 1e-5


def test_population_columns_sum_to_zero(moderate, rng):
    for y in _random_states(rng, 20):
        J = jacobian(y, moderate, rng.uniform(0, 10))
        for j in (2, 3, 4):
            assert J[2, j] + J[3, j] + J[4, j] == 0.0


def test_orth_eigenvalue_crosses_zero_at_threshold(moderate):
    from squeezer_sim.steadystate import laser_only_branch

    go = orth_threshold_pump(moderate)
    i_star = orth_threshold_intensity(moderate)
    ss = laser_only_branch(moderate, go)
    eig = -moderate.gamma_orth + moderate.nl_coupling_mu * ss.i_par
    assert abs(eig) <= 1e-8 * moderate.gamma_orth
    J = jacobian(ss.state_vector(), moderate, go)
    assert J[1, 1] == pytest.approx(eig, abs=1e-8 * moderate.gamma_orth)
    assert ss.i_par == pytest.approx(i_star, rel=1e-9)


def test_stability_below_laser_threshold(moderate):
    res = stability(moderate, 0.5 * laser_threshold(moderate))
    assert res["stable"]


def test_stability_regime2_below_orth_threshold(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    res = stability(moderate, g)
    assert res["stable"]


def test_lasing_branch_unstable_above_orth_threshold(moderate):
    g = 1.5 * orth_threshold_pump(moderate)
    res = stability(moderate, g, branch=Regime.LaserOnly)
    assert not res["stable"]
    assert np.max(res["eigen_real_parts"]) > 0.0
    # while the realized regime-iii state is stable
    assert stability(moderate, g)["stable"]


def test_trajectory_csv_export(tmp_path, moderate):
    g = 1.5 * orth_threshold_pump(moderate)
    traj = integrate(moderate, g, np.array([1e-3, 1e-3, 1.0, 0.0, 0.0]), t_end=1.0)
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out, header_comments=["source = test"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# source = test"
    assert lines[1] == "t,a_par,a_orth,sigma1,sigma2,sigma3"
    assert len(lines) == 2 + len(traj.times)
