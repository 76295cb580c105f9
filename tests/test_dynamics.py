import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from squeezer_sim import (
    NoConvergence,
    NonFiniteState,
    Regime,
    SteadyState,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    settle,
    steady_state,
)
from squeezer_sim import dynamics, model, steadystate
from squeezer_sim.errors import StepUnderflow, Unreachable
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps
from squeezer_sim.steadystate import zero_field_populations

GROUND = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
# (a_par, a_orth, s1, s2) of the seeded ground state `settle` starts from.
SEED = (1e-3, 1e-3, 1.0, 0.0)


def _full(y):
    """Five-component state of a reduced one, s3 = 1 - s1 - s2."""
    return np.array([*y, 1.0 - y[2] - y[3]])


def _random_states(rng, n):
    for _ in range(n):
        yield np.concatenate([rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 1.0, 3)])


def test_ground_state_is_stationary_without_pump(moderate):
    rates = model.rhs(GROUND, moderate, 0.0)
    assert rates.tolist() == [0.0] * 4


def test_closed_form_steady_state_is_a_fixed_point(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    ss = steady_state(moderate, g)
    rate = model.rhs(ss.state_vector(), moderate, g)
    assert np.linalg.norm(rate) <= 1e-9 * np.linalg.norm(ss.state_vector())


def test_integrate_preserves_fixed_point(moderate, kernel_path):
    g = 2.0 * orth_threshold_pump(moderate)
    y0 = steady_state(moderate, g).state_vector()
    rel_tol = 1e-8
    out, _ = kernel_path(moderate, g, y0[:4].tolist(), 10.0, rtol=rel_tol)
    drift = np.linalg.norm(_full(out["y"]) - y0) / np.linalg.norm(y0)
    assert drift <= 10 * rel_tol


def test_integrate_converges_to_closed_form(moderate, kernel_path):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    out, _ = kernel_path(moderate, g, SEED, 80.0)
    ss = steady_state(moderate, g).state_vector()
    scale = np.maximum(np.abs(ss), 1e-9 * np.max(np.abs(ss)))
    assert np.max(np.abs(_full(out["y"]) - ss) / scale) < 1e-5


def test_integrate_tolerance_halving_sanity(moderate, kernel_path):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    a, _ = kernel_path(moderate, g, SEED, 5.0, rtol=1e-6, atol=1e-10)
    b, _ = kernel_path(moderate, g, SEED, 5.0, rtol=5e-7, atol=1e-10)
    change = np.linalg.norm(_full(a["y"]) - _full(b["y"]))
    assert change <= 1e-6 * np.linalg.norm(_full(a["y"]))


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


def _kernel_calls(monkeypatch):
    """Count `settle`'s runs of the kernel: one per window."""
    calls = []
    kernel = dynamics._rosenbrock23

    def counted(*args, **kwargs):
        calls.append(args[3])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_rosenbrock23", counted)
    return calls


def test_settle_runs_on_past_the_default_window_where_slowing_needs_it(monkeypatch):
    # The 150th family drawn from seed 5 with its regions' pumps, as they
    # are drawn in turn: at its region-iii pump, 1.228 g_orth, one default
    # window leaves a scaled residual of 6.85e-8, and the second settles.
    rng = np.random.default_rng(5)
    for _ in range(150):
        params = sample_reachable_params(rng)
        g = [sample_regime_pumps(rng, params, r) for r in ("i", "ii", "iii")][-1]
    t_max = dynamics._settle_t_max(params, g)
    with pytest.raises(NoConvergence, match=f"window of t_max = {t_max!r}"):
        settle(params, g, t_max=t_max)
    calls = _kernel_calls(monkeypatch)
    st = settle(params, g)
    assert calls == [t_max, t_max]
    ss = steady_state(params, g)
    assert st.regime is ss.regime is Regime.OrthExcited
    assert np.max(np.abs(st.state_vector() / ss.state_vector() - 1.0)) < 1e-5


def test_settle_gives_up_after_four_default_windows(moderate, monkeypatch):
    # An explicit t_max is one window; the default runs on for at most
    # three more.  A pump 1e-6 above the laser threshold slows too much
    # for either.
    g = laser_threshold(moderate) * (1.0 + 1e-6)
    calls = _kernel_calls(monkeypatch)
    with pytest.raises(NoConvergence, match="scaled residual"):
        settle(moderate, g, t_max=1.0)
    assert calls == [1.0]
    calls.clear()
    with pytest.raises(NoConvergence):
        settle(moderate, g)
    assert calls == [dynamics._settle_t_max(moderate, g)] * 4


def test_settle_refuses_a_dark_field_left_unstable(reference, monkeypatch):
    # At 1.01 x the laser threshold the first window ends on the dark
    # state, which the lasing mode has left unstable; with no reseed the
    # state has not settled, though it is a fixed point.
    monkeypatch.setattr(dynamics, "_MAX_RESEEDS", 0)
    g = 1.01 * laser_threshold(reference)
    with pytest.raises(NoConvergence, match="a dark field unstable"):
        settle(reference, g, t_max=dynamics._settle_t_max(reference, g))


def test_settle_without_a_laser_threshold_sizes_its_window_by_the_pump(moderate):
    # With G = 1 the gain never reaches the loss, so the window is sized
    # from the pump itself, and every pump settles dark.
    params = dataclasses.replace(moderate, stim_rate_G=1.0)
    with pytest.raises(Unreachable):
        laser_threshold(params)
    assert dynamics._settle_t_max(params, 1e-3) == 400.0 / 1e-3
    st = settle(params, 1.0)
    assert st.regime is Regime.BelowLaser
    assert st.sigma1 == pytest.approx(zero_field_populations(params, 1.0)[0], rel=1e-9)


def test_dark_orthogonal_mode_is_invariant(moderate, kernel_path):
    # a_orth = 0 is preserved exactly: its rate and the off-diagonal
    # Jacobian entries of its row and column are all proportional to
    # a_orth, so every Rosenbrock stage leaves it at zero.
    g = 2.0 * orth_threshold_pump(moderate)
    out, seen = kernel_path(moderate, g, (1e-3, 0.0, 1.0, 0.0), 30.0)
    assert out["y"][1] == 0.0
    assert np.all(seen[:, 1] == 0.0)


def test_populations_stay_in_unit_interval_along_trajectory(moderate, kernel_path):
    # The kernel builds s3 as 1 - s1 - s2, so the sum is 1 whatever the
    # stepper does; each population staying in [0, 1] is not enforced.
    # Every state f is called at, stage points included, must keep it.
    g = 1.5 * orth_threshold_pump(moderate)
    _, seen = kernel_path(moderate, g, SEED, 50.0)
    pops = seen[:, 2:]
    assert np.all((pops >= 0.0) & (pops <= 1.0))


def _j4(params, pump, y):
    return np.array(model.rate_equations(params, pump)[1](*y.tolist()))


def test_jacobian_matches_finite_differences(moderate, rng):
    # J4 is the Jacobian over (a_par, a_orth, s1, s2) with s3 = 1 - s1 -
    # s2, so a step in s1 or s2 takes s3 the other way.
    worst = 0.0
    for y in _random_states(rng, 100):
        g = float(10.0 ** rng.uniform(-1, 1))
        J = _j4(moderate, g, y)
        scale_J = np.max(np.abs(J))
        for j in range(4):
            h = 1e-6 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            if j >= 2:
                yp[4] -= h
                ym[4] += h
            col = (model.rhs(yp, moderate, g) - model.rhs(ym, moderate, g)) / (2 * h)
            denom = np.maximum(np.abs(J[:, j]), 1e-7 * scale_J)
            worst = max(worst, float(np.max(np.abs(col - J[:, j]) / denom)))
    assert worst < 1e-5


def _complex_field_rates(params, a, b, s2, s3):
    # The field equations on complex amplitudes, written out here rather
    # than taken from `model`.
    G, mu = params.stim_rate_G, params.nl_coupling_mu
    da = ((0.5 * G * (s3 - s2) - params.gamma_par) * a
          - mu * (abs(a) ** 2 * a - b * b * a.conjugate()))
    db = -params.gamma_orth * b + mu * (a * a * b.conjugate() - abs(b) ** 2 * b)
    return np.array([da, db])


def _field_states(rng, params, n):
    # Amplitudes up to twice the instability amplitude of each rate set.
    amp = 2.0 * math.sqrt(orth_threshold_intensity(params))
    for _ in range(n):
        yield np.concatenate([rng.uniform(0.0, amp, 2), rng.uniform(0.0, 1.0, 3)])


def test_phase_drift_matches_complex_field_differences(reference, rng):
    # A step of h in Im a_par or Im a_orth must move the rates by i*h
    # times the block's column: the imaginary rows are the block, and the
    # real rows do not move, at a real state.
    worst = 0.0
    for params in (reference, *(sample_reachable_params(rng) for _ in range(5))):
        for y in _field_states(rng, params, 20):
            a, b, _s1, s2, s3 = y.tolist()
            P = np.array(model.phase_drift(params, a, b, s2, s3))
            scale_P = np.max(np.abs(P))
            h = 1e-6 * max(1.0, math.hypot(a, b))
            for j, step in enumerate(((1j * h, 0.0), (0.0, 1j * h))):
                plus = _complex_field_rates(params, a + step[0], b + step[1], s2, s3)
                minus = _complex_field_rates(params, a - step[0], b - step[1], s2, s3)
                col = (plus - minus) / (2 * h)
                denom = np.maximum(np.abs(P[:, j]), 1e-7 * scale_P)
                worst = max(worst, float(np.max(np.abs(col - 1j * P[:, j]) / denom)))
    assert worst <= 1e-5


def test_complex_field_real_slice_is_the_rate_equations(reference, rng):
    for params in (reference, *(sample_reachable_params(rng) for _ in range(5))):
        g = float(10.0 ** rng.uniform(-1, 1)) * laser_threshold(params)
        f, _ = model.rate_equations(params, g)
        for y in _field_states(rng, params, 20):
            a, b, s1, s2, s3 = y.tolist()
            field = _complex_field_rates(params, complex(a), complex(b), s2, s3)
            assert np.all(field.imag == 0.0)
            err = np.abs(field.real - f(a, b, s1, s2, s3)[:2])
            scales = model.rate_scales_at(params, g, a, b, s1, s2, s3)
            assert np.all(err <= 1e-14 * np.array(scales[:2]))


def test_phase_drift_annihilates_global_phase_in_region_iii(reference, rng):
    # Rotating both fields by one phase is neutral, so at a region-iii
    # state the block must map (a, b) to zero, to rounding of its terms.
    for params in (reference, *(sample_reachable_params(rng) for _ in range(5))):
        for m in (1.0001, 1.2, 2.0, 3.5, 100.0):
            ss = steady_state(params, m * orth_threshold_pump(params))
            a, b = ss.a_par, ss.a_orth
            P = np.array(model.phase_drift(params, a, b, ss.sigma2, ss.sigma3))
            mu = params.nl_coupling_mu
            terms = np.array([
                0.5 * params.stim_rate_G * abs(ss.sigma3 - ss.sigma2) + params.gamma_par
                + mu * (a * a + b * b),
                params.gamma_orth + mu * (a * a + b * b)]) * np.hypot(a, b)
            assert np.all(np.abs(P @ [a, b]) <= 1e-12 * terms)


def test_orth_mode_sees_no_laser_medium_in_region_ii(reference, moderate):
    # The paper's mechanism: below its threshold the orthogonal mode is
    # driven by the doubler alone.  Its J4 row has no population entries
    # and no coupling 2*mu*a*b to a_par, and the phase block is diagonal.
    # Past the threshold the doubler couples the two modes.
    def blocks(params, g):
        ss = steady_state(params, g)
        J = model.rate_equations(params, g)[1](
            ss.a_par, ss.a_orth, ss.sigma1, ss.sigma2, ss.sigma3)
        P = model.phase_drift(params, ss.a_par, ss.a_orth, ss.sigma2, ss.sigma3)
        return ss.regime, J, P

    for params in (reference, moderate):
        g_laser, g_orth = laser_threshold(params), orth_threshold_pump(params)
        for frac in (0.01, 0.3, 0.7, 0.99):
            regime, J, P = blocks(params, g_laser + frac * (g_orth - g_laser))
            assert regime is Regime.LaserOnly
            assert J[1][2:] == (0.0, 0.0)
            assert J[0][1] == J[1][0] == 0.0
            assert P[0][1] == P[1][0] == 0.0
        for m in (1.2, 2.0, 10.0):
            regime, J, P = blocks(params, m * g_orth)
            assert regime is Regime.OrthExcited
            assert J[0][1] != 0.0 and P[0][1] != 0.0


def test_orth_eigenvalue_crosses_zero_at_threshold(moderate):
    go = orth_threshold_pump(moderate)
    i_star = orth_threshold_intensity(moderate)
    ss = steady_state(moderate, go)
    eig = -moderate.gamma_orth + moderate.nl_coupling_mu * ss.i_par
    assert abs(eig) <= 1e-8 * moderate.gamma_orth
    J = _j4(moderate, go, ss.state_vector())
    assert J[1, 1] == pytest.approx(eig, abs=1e-8 * moderate.gamma_orth)
    assert ss.i_par == pytest.approx(i_star, rel=1e-9)


def _stability(params, pump, ss):
    """Sorted real parts of J4's eigenvalues at state ss, and whether
    each lies below 1e-15 of the largest rate.

    J4 has no structural zero eigenvalue, so that bound is stability.
    """
    a, b, s1, s2 = ss.a_par, ss.a_orth, ss.sigma1, ss.sigma2
    J4 = np.array(model.rate_equations(params, pump)[1](a, b, s1, s2, 1.0 - s1 - s2))
    real_parts = np.sort(np.linalg.eigvals(J4).real)
    scale = max(params.stim_rate_G, params.decay_k2, params.decay_k3,
                params.gamma_par, params.gamma_orth, pump)
    return real_parts, bool(np.all(real_parts < 1e-15 * scale))


def _dark_state(params, pump):
    return SteadyState(*zero_field_populations(params, pump), 0.0, 0.0,
                       Regime.BelowLaser)


def _lasing_state(params, pump):
    """The lasing branch at this pump, continued past g_orth too."""
    _, i_par = steadystate._lasing_root(params, pump, math.sqrt)
    return SteadyState(*steadystate._lasing_populations(params, pump, i_par),
                       i_par, 0.0, Regime.LaserOnly)


def test_stability_below_laser_threshold(moderate):
    g = 0.5 * laser_threshold(moderate)
    assert _stability(moderate, g, steady_state(moderate, g))[1]


def test_stability_regime2_below_orth_threshold(moderate):
    g = np.sqrt(laser_threshold(moderate) * orth_threshold_pump(moderate))
    assert _stability(moderate, g, steady_state(moderate, g))[1]


def test_lasing_branch_unstable_above_orth_threshold(moderate):
    g = 1.5 * orth_threshold_pump(moderate)
    real_parts, stable = _stability(moderate, g, _lasing_state(moderate, g))
    assert not stable
    assert np.max(real_parts) > 0.0
    # while the realized regime-iii state is stable
    assert _stability(moderate, g, steady_state(moderate, g))[1]


def test_stability_at_reference_rates(reference):
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    for g in (0.5 * gl, 1.5 * gl, np.sqrt(gl * go), 0.8 * go, 1.5 * go):
        assert _stability(reference, g, steady_state(reference, g))[1]
    # Unstable branches: the dark state above the laser threshold and
    # the lasing branch continued past the orthogonal-mode threshold.
    for g, state in ((1.01 * gl, _dark_state), (1.5 * gl, _dark_state),
                     (1.5 * go, _lasing_state)):
        real_parts, stable = _stability(reference, g, state(reference, g))
        assert not stable
        assert np.max(real_parts) > 0.0


def _block_solver(J, hd):
    """v -> W^-1 v for W = I - hd*J with J = J4, or None if W is singular.

    The block solve `_rosenbrock23` does inline, with the same operations
    in the same order, as a function that can be checked against a dense
    W; `test_block_solver_makes_the_kernels_step` ties the two together.
    """
    (j00, j01, j02, j03), (j10, j11, _, _), (_, _, j22, j23), (j30, _, j32, j33) = J
    d00, d01, d10, d11 = 1.0 - hd * j22, -hd * j23, -hd * j32, 1.0 - hd * j33
    det_d = d00 * d11 - d01 * d10
    w02, w03, w30 = -hd * j02, -hd * j03, -hd * j30
    s00 = 1.0 - hd * j00 - w30 * (w03 * d00 - w02 * d01) / det_d
    s01, s10, s11 = -hd * j01, -hd * j10, 1.0 - hd * j11
    det_s = s00 * s11 - s01 * s10
    if det_s == 0.0:
        return None

    def solve(v):
        v0, v1, p0, p1 = v
        r0 = v0 - (w02 * (d11 * p0 - d01 * p1) + w03 * (d00 * p1 - d10 * p0)) / det_d
        x0 = (s11 * r0 - s01 * v1) / det_s
        p1 -= w30 * x0
        return (x0, (s00 * v1 - s10 * r0) / det_s,
                (d11 * p0 - d01 * p1) / det_d, (d00 * p1 - d10 * p0) / det_d)

    return solve


def _reference_step(f, jac, z, h, rtol, atol):
    """(new state, error norm) of one ode23s step of size h from z, with
    the stages solved by `_block_solver`."""
    y0, y1, y2, y3 = z
    f0 = f(y0, y1, y2, y3, 1.0 - y2 - y3)
    solve = _block_solver(jac(y0, y1, y2, y3, 1.0 - y2 - y3), h * dynamics._D)
    if solve is None:
        return None, math.inf
    a = solve(f0)
    hh = 0.5 * h
    m = [yi + hh * ai for yi, ai in zip(z, a)]
    f1 = f(*m, 1.0 - m[2] - m[3])
    b = [ui + ai for ui, ai in zip(solve([fi - ai for fi, ai in zip(f1, a)]), a)]
    n = tuple(yi + h * bi for yi, bi in zip(z, b))
    f2 = f(*n, 1.0 - n[2] - n[3])
    c = solve([f2i - dynamics._E32 * (bi - f1i) - 2.0 * (ai - f0i)
               for f2i, bi, f1i, ai, f0i in zip(f2, b, f1, a, f0)])
    h6 = h / 6.0
    return n, 0.5 * math.hypot(*(h6 * (ai - 2.0 * bi + ci) / (atol + rtol * abs(ni))
                                 for ai, bi, ci, ni in zip(a, b, c, n)))


def test_block_solver_makes_the_kernels_step(reference, moderate, rng):
    # With t_end set to the kernel's own first step, the kernel takes one
    # step of exactly that size; tolerances from 1e-12 to 1e6 spread it
    # over the non-stiff and stiff ranges of h*d*k2.  The tie means
    # little unless most of the 140 steps are accepted and compared.
    compared = 0
    for params in (reference, moderate):
        amp = 2.0 * math.sqrt(orth_threshold_intensity(params))
        for _ in range(10):
            s1, s2 = sorted(rng.uniform(0.0, 1.0, 2))
            z = (*rng.uniform(0.0, amp, 2).tolist(), s1, s2 - s1)
            f, jac = model.rate_equations(
                params, float(10.0 ** rng.uniform(-1, 1)) * laser_threshold(params))
            fnorm = math.hypot(*f(*z, 1.0 - z[2] - z[3]))
            for tol in np.geomspace(1e-12, 1e6, 7).tolist():
                h = 0.01 * (tol + tol * math.hypot(*z)) / fnorm
                n, err_norm = _reference_step(f, jac, z, h, tol, tol)
                out = dynamics._rosenbrock23(f, jac, z, h, rtol=tol, atol=tol)
                if err_norm <= 1.0:
                    assert out["y"] == n
                    assert (out["nfev"], out["n_accepted"], out["n_rejected"]) == (3, 1, 0)
                    compared += 1
                else:
                    assert out["n_rejected"] >= 1
    assert compared >= 70


def test_block_solve_matches_dense_w(reference, rng):
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    s1, s2, _ = zero_field_populations(reference, 1.5 * gl)
    cases = [((0.0, 0.0, s1, s2), 1.5 * gl)]  # dark fields above threshold
    for g in (1.5 * gl, np.sqrt(gl * go), 1.5 * go):  # lit
        cases.append((tuple(steady_state(reference, g).state_vector()[:4].tolist()), g))
    worst = 0.0
    for z, g in cases:
        f, jac = model.rate_equations(reference, g)
        y = (*z, 1.0 - z[2] - z[3])
        J = jac(*y)
        for hd in np.geomspace(1e-25, 1.0, 51):
            solve = _block_solver(J, float(hd))
            W = np.eye(4) - hd * np.array(J)
            for v in (np.array(f(*y)), *rng.standard_normal((3, 4))):
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
        j00 = model.rate_equations(params, g)[1](*z, 1.0 - s1 - s2)[0][0]
        h0 = 1.0 / (dynamics._D * j00)
        for h in (h0, *np.nextafter(h0, [0.0, np.inf]).tolist()):
            if 1.0 - h * dynamics._D * j00 == 0.0:
                return g, z, h
    raise AssertionError("no step makes W exactly singular")


def test_singular_w_is_a_rejected_step(reference):
    g, z, h = _singular_step(reference)
    _, jac = model.rate_equations(reference, g)
    assert _block_solver(jac(*z, 1.0 - z[2] - z[3]), h * dynamics._D) is None

    # With f = 0 the first step is the whole span h, so it meets the
    # singular W, is rejected and retried at a fifth of the step.
    def still(*_):
        return (0.0, 0.0, 0.0, 0.0)

    out = dynamics._rosenbrock23(still, jac, z, h, rtol=1e-7, atol=1e-9)
    assert out["n_rejected"] == 1
    assert out["y"] == z

    def nan_jac(*_):
        return ((math.nan,) * 4,) * 4

    with pytest.raises(NonFiniteState):
        dynamics._rosenbrock23(still, nan_jac, z, 1.0, rtol=1e-7, atol=1e-9)


def _wild_after(n, first):
    """An f that returns (first, 0, 0, 0) for its first n calls and then
    (+-1e300, 0, 0, 0), alternating: the error estimate of every step
    from then on is about 2.5e6 at any step size."""
    calls = itertools.count()

    def f(*_):
        k = next(calls)
        return (first if k < n else (-1e300 if k % 2 else 1e300), 0.0, 0.0, 0.0)
    return f


def _zero_jac(*_):
    return ((0.0,) * 4,) * 4


def test_kernel_stops_on_repeated_rejections():
    # The first step is the whole span; each retry is rejected at a fifth
    # of the step, and the 61st rejection in a row ends the run at t = 0.
    f = _wild_after(1, 1e-12)
    with pytest.raises(StepUnderflow, match=r"repeated step rejections at t = 0\.0"):
        dynamics._rosenbrock23(f, _zero_jac, SEED, 1.0, rtol=1e-7, atol=1e-9)


def test_kernel_stops_on_a_step_below_the_resolution_of_t():
    # One step of 1e-9 is taken; then the rejected step shrinks below
    # the spacing of floats at t, where t would no longer advance.
    f = _wild_after(3, 1.0)
    with pytest.raises(StepUnderflow, match=r"underflowed at t = 1\.01e-09"):
        dynamics._rosenbrock23(f, _zero_jac, (1.0, 0.0, 0.0, 0.0), 1.0,
                               rtol=1e-7, atol=1e-9)


def test_kernel_refuses_a_state_that_leaves_the_float_range():
    # dz/dt = 1e307 is integrated exactly, every step accepted; by t = 100
    # the state is past the largest float.
    def steep(*_):
        return (1e307, 0.0, 0.0, 0.0)

    with pytest.raises(NonFiniteState, match="non-finite state values"):
        dynamics._rosenbrock23(steep, _zero_jac, SEED, 100.0, rtol=1e-7, atol=1e-9)


def test_integrate_step_counts_are_pinned(moderate, kernel_path):
    # The kernel's cost per step may change; the states it evaluates f at,
    # the steps it takes and where it ends may not.
    out, seen = kernel_path(moderate, 1.1 * laser_threshold(moderate), SEED, 10.0)
    assert [v.hex() for v in out["y"]] == [
        "0x1.e44812fc594a3p-11", "0x1.1edd4926c957fp-39",
        "0x1.c8049010ac1f7p-1", "0x1.c9b2c8b94a9ccp-13"]
    assert (out["nfev"], out["n_accepted"], out["n_rejected"]) == (1613, 806, 0)
    assert seen.shape == (1613, 5)
    digest = hashlib.sha256(seen.astype("<f8").tobytes()).hexdigest()
    assert digest == "e1a6d21aca49e4433790777b4bea4b050a0a66043ddf30de34031c31a2a23d1f"


# The sampled family and its region pumps that perfbench's oracle-settle
# workload draws at seed 1, as float.hex.
_FAMILY = {
    "stim_rate_G": "0x1.2f3963b8c877ap+4", "nl_coupling_mu": "0x1.6767333f011b6p-4",
    "decay_k2": "0x1.2e18a1231a616p+8", "decay_k3": "0x1.ee8d53d1b5a5ap-1",
    "gamma_par_c": "0x1.8537289507efbp-1", "gamma_par_l": "0x1.b8ff5ef669eabp-4",
    "gamma_orth_c": "0x1.e484534f5d3a5p-1", "gamma_orth_l": "0x1.625d9022a54dap-2",
}
_FAMILY_PUMPS = {"i": "0x1.4735981d36635p-5", "ii": "0x1.9fafb9824c535p+1",
                 "iii": "0x1.424a1772a4617p+8"}

# Per `_rosenbrock23` call of one settle: the end state as float.hex and
# (nfev, n_accepted, n_rejected).
_SETTLE_PINS = {
    "moderate 0.9 laser": [
        (("0x1.9b0bb35352a20p-51", "0x1.f204bab90c800p-244",
          "0x1.d1441f081445fp-1", "0x1.7e1478553265ep-13"), (371, 185, 0))],
    "moderate 1.1 laser": [
        (("0x1.20ae03086e05cp-4", "0x1.42ddcc1ce6000p-378",
          "0x1.cc8c8204ae85dp-1", "0x1.ce407ed96a207p-13"), (899, 449, 0))],
    "family i": [
        (("0x1.515f9e7cbce00p-61", "0x1.89c84afd5c600p-93",
          "0x1.eb9b31fb93218p-1", "0x1.0a3c942917680p-13"), (283, 141, 0))],
    "family ii": [
        (("0x1.2d1e3e2a9e718p+0", "-0x1.e5ed09dd3a500p-53",
          "0x1.c0e596e300d7dp-1", "0x1.34d7b0926831cp-7"), (2549, 1271, 3))],
    "family iii": [
        (("0x1.118aec58a5478p+2", "0x1.e199bfdc012a3p+0",
          "0x1.f88d4189d558dp-3", "0x1.0d2390f3ce4c2p-2"), (4903, 2451, 0))],
    # Lands on the dark state first and reseeds; 57 rejected steps.
    "reference 1.01 laser": [
        (("0x1.fd8712ce18000p-147", "-0x1.e203bc8800000p-456",
          "0x1.fa4ff343498dbp-1", "0x1.99d7712e2b3ccp-57"), (377, 188, 0)),
        (("0x1.4b96be9c2d9e5p-12", "0x0.0p+0",
          "0x1.fa5e353f7ced7p-1", "0x1.99e2fbb63af4bp-57"), (1025, 455, 57))],
}


@pytest.mark.parametrize("case", list(_SETTLE_PINS))
def test_settle_end_states_and_step_counts_are_pinned(case, moderate, reference,
                                                      monkeypatch):
    # The kernel may get cheaper per step; its arithmetic may not move.
    name, point = case.split(" ", 1)
    if name == "family":
        params = dataclasses.replace(
            moderate, **{k: float.fromhex(v) for k, v in _FAMILY.items()})
        g = float.fromhex(_FAMILY_PUMPS[point])
    else:
        params = {"moderate": moderate, "reference": reference}[name]
        g = float(point.split()[0]) * laser_threshold(params)
    calls = []
    kernel = dynamics._rosenbrock23

    def recorded(*args, **kwargs):
        out = kernel(*args, **kwargs)
        calls.append((tuple(v.hex() for v in out["y"]),
                      (out["nfev"], out["n_accepted"], out["n_rejected"])))
        return out

    monkeypatch.setattr(dynamics, "_rosenbrock23", recorded)
    settle(params, g)
    assert calls == _SETTLE_PINS[case]
