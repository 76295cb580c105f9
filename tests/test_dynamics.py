import dataclasses
import math

import numpy as np
import pytest

from squeezer_sim import (
    NonFiniteState,
    Regime,
    integrate,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    settle,
    stability,
    steady_state,
)
from squeezer_sim import dynamics, model
from squeezer_sim.steadystate import zero_field_populations

GROUND = np.array([0.0, 0.0, 1.0, 0.0, 0.0])


def _random_states(rng, n):
    for _ in range(n):
        yield np.concatenate([rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 1.0, 3)])


def test_ground_state_is_stationary_without_pump(moderate):
    rates = model.rhs(GROUND, moderate, 0.0)
    assert rates.tolist() == [0.0] * 5


def test_population_rates_cancel_exactly(moderate, rng):
    for y in _random_states(rng, 50):
        r = model.rhs(y, moderate, rng.uniform(0, 10))
        assert r[2] + r[3] + r[4] == 0.0


def test_closed_form_steady_state_is_a_fixed_point(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    ss = steady_state(moderate, g)
    rate = model.rhs(ss.state_vector(), moderate, g)
    assert np.linalg.norm(rate) <= 1e-9 * np.linalg.norm(ss.state_vector())


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


def test_integrate_rejects_populations_not_summing_to_one(moderate):
    with pytest.raises(ValueError):
        integrate(moderate, 1.0, np.array([0.0, 0.0, 1.0, 1e-9, 0.0]), t_end=1.0)


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


@pytest.mark.parametrize("point", ["0.5 laser", "1.01 laser", "1.5 laser", "ii",
                                   "0.8 orth", "1.5 orth"])
def test_settle_matches_closed_form_at_reference_rates(reference, point):
    # k2/k3 = 1e15.  At 1.01x the laser threshold the seed decays below
    # atol before the inversion builds, so the flow first lands on the
    # unstable dark state and settle has to reseed.
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    g = {"0.5 laser": 0.5 * gl, "1.01 laser": 1.01 * gl, "1.5 laser": 1.5 * gl,
         "ii": np.sqrt(gl * go), "0.8 orth": 0.8 * go, "1.5 orth": 1.5 * go}[point]
    ss = steady_state(reference, g)
    st = settle(reference, g)
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
        J = model.jacobian(y, moderate, g)
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
        J = model.jacobian(y, moderate, rng.uniform(0, 10))
        for j in (2, 3, 4):
            assert J[2, j] + J[3, j] + J[4, j] == 0.0


def test_orth_eigenvalue_crosses_zero_at_threshold(moderate):
    from squeezer_sim.steadystate import laser_only_branch

    go = orth_threshold_pump(moderate)
    i_star = orth_threshold_intensity(moderate)
    ss = laser_only_branch(moderate, go)
    eig = -moderate.gamma_orth + moderate.nl_coupling_mu * ss.i_par
    assert abs(eig) <= 1e-8 * moderate.gamma_orth
    J = model.jacobian(ss.state_vector(), moderate, go)
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


def test_stability_at_reference_rates(reference):
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    for g in (0.5 * gl, 1.5 * gl, np.sqrt(gl * go), 0.8 * go, 1.5 * go):
        assert stability(reference, g)["stable"]
    # Unstable branches: the dark state above the laser threshold and
    # the lasing branch continued past the orthogonal-mode threshold.
    for g, branch in ((1.01 * gl, Regime.BelowLaser), (1.5 * gl, Regime.BelowLaser),
                      (1.5 * go, Regime.LaserOnly)):
        res = stability(reference, g, branch=branch)
        assert not res["stable"]
        assert np.max(res["eigen_real_parts"]) > 0.0


def _reduced_states(rng, params, n):
    """(z, pump) pairs on the reduced state, amplitudes on the scale of
    the orthogonal threshold intensity of `params`."""
    scale = np.sqrt(orth_threshold_intensity(params))
    g_max = 2.0 * orth_threshold_pump(params)
    for _ in range(n):
        a, b = rng.uniform(-3.0, 3.0, 2) * scale
        s1, s2 = rng.uniform(0.0, 1.0, 2)
        yield (float(a), float(b), float(s1), float(s2)), float(rng.uniform(0.0, g_max))


@pytest.mark.parametrize("which", ["moderate", "reference"])
def test_kernel_equations_match_model_bitwise(moderate, reference, rng, which):
    params = {"moderate": moderate, "reference": reference}[which]
    for z, g in _reduced_states(rng, params, 1000):
        f, jac = dynamics._reduced(params, g)
        y = (*z, 1.0 - z[2] - z[3])
        assert np.array(f(z)).tobytes() == model.rhs(y, params, g)[:4].tobytes()
        J = model.jacobian(y, params, g)
        J[:, 2:4] -= J[:, 4:]
        assert np.array(jac(z)).tobytes() == J[:4, :4].tobytes()


def test_block_solve_matches_dense_w(reference, rng):
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    s1, s2, _ = zero_field_populations(reference, 1.5 * gl)
    cases = [((0.0, 0.0, s1, s2), 1.5 * gl)]  # dark fields above threshold
    for g in (1.5 * gl, np.sqrt(gl * go), 1.5 * go):  # lit
        cases.append((tuple(steady_state(reference, g).state_vector()[:4].tolist()), g))
    worst = 0.0
    for z, g in cases:
        f, jac = dynamics._reduced(reference, g)
        J = jac(z)
        for hd in np.geomspace(1e-25, 1.0, 51):
            solve = dynamics._w_solver(J, float(hd))
            W = np.eye(4) - hd * np.array(J)
            for v in (np.array(f(z)), *rng.standard_normal((3, 4))):
                x = np.array(solve(v.tolist()))
                err = np.max(np.abs(W @ x - v)) / (
                    np.max(np.abs(W).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(v)))
                worst = max(worst, float(err))
    assert worst <= 1e-14


def _singular_step(params):
    """(pump, z, h): dark fields above the laser threshold and a step h at
    which W's amplitude block diag(1 - h*d*J4[0][0], 1 - h*d*J4[1][1])
    has its first entry round to exactly 0 (J4[0][0] > 0 there)."""
    gl = laser_threshold(params)
    for k in range(100):
        g = 1.5 * gl * (1.0 + 1e-3 * k)
        s1, s2, _ = zero_field_populations(params, g)
        z = (0.0, 0.0, s1, s2)
        j00 = dynamics._reduced(params, g)[1](z)[0][0]
        h0 = 1.0 / (dynamics._D * j00)
        for h in (h0, *np.nextafter(h0, [0.0, np.inf]).tolist()):
            if 1.0 - h * dynamics._D * j00 == 0.0:
                return g, z, h
    raise AssertionError("no step makes W exactly singular")


def test_singular_w_is_a_rejected_step(reference):
    g, z, h = _singular_step(reference)
    _, jac = dynamics._reduced(reference, g)
    assert dynamics._w_solver(jac(z), h * dynamics._D) is None

    # With f = 0 the first step is the whole span h, so it meets the
    # singular W, is rejected and retried at a fifth of the step.
    def still(_):
        return (0.0, 0.0, 0.0, 0.0)

    out = dynamics._rosenbrock23(still, jac, z, h, rtol=1e-7, atol=1e-9)
    assert out["n_rejected"] == 1
    assert out["y"] == z

    def nan_jac(_):
        return ((math.nan,) * 4,) * 4

    with pytest.raises(NonFiniteState):
        dynamics._rosenbrock23(still, nan_jac, z, 1.0, rtol=1e-7, atol=1e-9)


def test_integrate_step_counts_are_pinned(moderate):
    # The kernel's cost per step is what changes; the steps it takes stay.
    traj = integrate(moderate, 1.1 * laser_threshold(moderate),
                     (1e-3, 1e-3, 1.0, 0.0, 0.0), t_end=10.0)
    assert traj.diagnostics == {"nfev": 1613, "n_accepted": 806, "n_rejected": 0}
