"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from squeezer_sim import (
    compare_to_analytic,
    estimate_psd,
    orth_phase_variance,
    orth_phase_variance_reduced,
    orth_threshold_intensity,
    orth_threshold_pump,
    reference_params,
    settle,
    simulate_decoupled,
    steady_state,
    threshold_variance,
    to_decibel,
)
from squeezer_sim import model
from squeezer_sim.cli import main
from squeezer_sim.dynamics import _settle_t_max
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps

OMEGA_2MHZ = 4.0 * math.pi * 1e6


def _verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_threshold_intensity():
    p = reference_params()
    i_star = orth_threshold_intensity(p)
    exact = abs(i_star - 1.96875e10) <= 1e-3
    vs_rounded = abs(i_star / 19.7e9 - 1.0) <= 0.002
    _verdict(1, exact and vs_rounded,
             f"threshold intensity {i_star:.6e} (target 1.96875e10, "
             f"within 0.2% of 19.7e9)")


def test_criterion_2_headline_squeezing():
    p = reference_params()
    v = threshold_variance(p, OMEGA_2MHZ)
    db = to_decibel(v)
    ok = abs(v - 0.1784) <= 1e-4 and abs(db - (-7.5)) <= 0.1
    _verdict(2, ok, f"threshold variance {v:.6f} = {db:.3f} dB at 2 MHz "
                    "(target 0.1784 +- 1e-4, within 0.1 dB of -7.5)")


def test_criterion_3_route_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    points = 0
    while points < 100:
        p = sample_reachable_params(rng)
        for _ in range(5):
            g = sample_regime_pumps(rng, p, "ii")
            ss = steady_state(p, g)
            for w in (0.0, 0.7 * p.gamma_orth, 6.0 * p.gamma_orth):
                full = orth_phase_variance(p, g, w)
                red = orth_phase_variance_reduced(p, ss.i_par, w)
                worst = max(worst, abs(full - red) / red)
            points += 1
            if points >= 100:
                break
    _verdict(3, worst <= 1e-12,
             f"sigma-based vs reduced spectrum split {worst:.2e} over 100 "
             "lasing-only operating points (tol 1e-12)")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4)
    plan = ["i"] * 20 + ["ii"] * 20 + ["iii"] * 10
    rng.shuffle(plan)
    t0 = time.time()
    worst = 0.0
    worst_clamp = 0.0
    for region in plan:
        p = sample_reachable_params(rng)
        g = sample_regime_pumps(rng, p, region)
        ss = steady_state(p, g)
        st = settle(p, g)
        assert st.regime is ss.regime, f"regime mismatch at pump {g!r}"
        ref, got = ss.state_vector(), st.state_vector()
        scale = np.maximum(np.abs(ref), 1e-9 * float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
        if region == "iii":
            target = p.gamma_orth / p.nl_coupling_mu
            worst_clamp = max(worst_clamp,
                              abs(st.i_par - st.i_orth - target) / target)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and worst_clamp <= 1e-6
    _verdict(4, ok,
             f"closed form vs ODE settling: max componentwise error "
             f"{worst:.2e} (tol 1e-5), regime-iii clamp residual "
             f"{worst_clamp:.2e} (tol 1e-6), 50 points in {elapsed:.0f}s")


def test_criterion_5_figure_reproduction(tmp_path):
    steady = tmp_path / "steady.csv"
    assert main(["steady-sweep", "--out", str(steady)]) == 0
    rows = [line.split(",") for line in steady.read_text().splitlines()
            if not line.startswith("#")][1:]
    regimes = [r[1] for r in rows]
    transitions = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    second = next(i for i, r in enumerate(regimes) if r == "iii")
    a_orth_dark = all(float(rows[i][3]) == 0.0 for i in range(second))
    plateau = [float(r[7]) for r in rows if r[1] == "iii"]
    flat = (max(plateau) - min(plateau)) <= 1e-9 * max(plateau)

    ps = tmp_path / "ps.csv"
    assert main(["pump-sweep", "--out", str(ps)]) == 0
    prows = [line.split(",") for line in ps.read_text().splitlines()
             if not line.startswith("#")][1:]
    db = [float(r[3]) for r in prows]
    monotone = all(a >= b - 1e-12 for a, b in zip(db, db[1:]))
    at_one = float(prows[-1][1]) == 1.0 and abs(db[-1] - (-7.49)) <= 0.1
    minimum_at_end = min(db) == db[-1]

    ok = (transitions == 2 and a_orth_dark and flat and monotone
          and at_one and minimum_at_end)
    _verdict(5, ok,
             f"steady sweep: {transitions} regime transitions, orth mode "
             f"dark below the second: {a_orth_dark}, plateau flat to "
             f"{(max(plateau) - min(plateau)) / max(plateau):.1e}; pump sweep "
             f"monotone: {monotone}, minimum {db[-1]:.3f} dB at normalized "
             "pump 1")


def test_criterion_6_stochastic_verification():
    p = reference_params()
    i_star = orth_threshold_intensity(p)
    segments = 2048

    # mc-verify's two legs: both at lam*dt = 0.16, the QNL leg (lam =
    # gamma_orth) in segments of 256 samples, the threshold leg (lam =
    # 2*gamma_orth) in segments of 512, so both resolve the same bins.
    dt0 = 0.16 / p.gamma_orth
    run0 = simulate_decoupled(p, 0.0, 7, dt0, segments * 256 * dt0, segments)
    res0 = compare_to_analytic(estimate_psd(run0), p, 0.0)
    qnl_ok = res0["max_sigma_deviation"] <= 3.0

    dt = 0.16 / (2.0 * p.gamma_orth)
    run = simulate_decoupled(p, i_star, 8, dt, segments * 512 * dt, segments)
    est = estimate_psd(run)
    res = compare_to_analytic(est, p, i_star)
    thr_ok = res["pass"] and est.n_segments >= 64

    _verdict(6, qnl_ok and thr_ok,
             f"QNL calibration flat within {res0['max_sigma_deviation']:.2f} "
             f"standard errors (tol 3); threshold spectrum within "
             f"{res['max_sigma_deviation']:.2f} standard errors per bin over "
             f"{res['n_bins']} bins in [0.1, 10]*gamma_orth (tol 4), "
             f"{est.n_segments} Welch segments")


def test_criterion_7_numerical_hygiene(moderate, kernel_path):
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    for _ in range(100):
        y = np.concatenate([rng.uniform(0, 3, 2), rng.uniform(0, 1, 3)])
        g = float(10.0 ** rng.uniform(-1, 1))
        # J4: over (a_par, a_orth, s1, s2), with s3 = 1 - s1 - s2.
        J = np.array(model.rate_equations(moderate, g)[1](*y.tolist()))
        scale_J = np.max(np.abs(J))
        for j in range(4):
            h = 1e-6 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            if j >= 2:
                yp[4] -= h
                ym[4] += h
            col = (model.rhs(yp, moderate, g)
                   - model.rhs(ym, moderate, g)) / (2 * h)
            denom = np.maximum(np.abs(J[:, j]), 1e-7 * scale_J)
            worst_fd = max(worst_fd,
                           float(np.max(np.abs(col - J[:, j]) / denom)))
    fd_ok = worst_fd <= 1e-5

    g = 1.6 * orth_threshold_pump(moderate)
    _, seen = kernel_path(moderate, g, (1e-3, 1e-3, 1.0, 0.0),
                          _settle_t_max(moderate, g))
    # The kernel builds s3 as 1 - s1 - s2, so their sum cannot drift; the
    # Rosenbrock step does not keep each one inside [0, 1], so check that
    # at every state the right-hand side is evaluated at.
    pops = seen[:, 2:]
    lo, hi = float(pops.min()), float(pops.max())
    pops_ok = 0.0 <= lo and hi <= 1.0

    i_star = orth_threshold_intensity(reference_params())
    dt = 0.01 / reference_params().gamma_orth
    a = simulate_decoupled(reference_params(), i_star, 99, dt, 40000 * dt, 8)
    b = simulate_decoupled(reference_params(), i_star, 99, dt, 40000 * dt, 8)
    seed_ok = a.series_out.tobytes() == b.series_out.tobytes()

    _verdict(7, fd_ok and pops_ok and seed_ok,
             f"Jacobian vs central differences {worst_fd:.2e} (tol 1e-5) on "
             f"100 random states; populations in [{lo!r}, {hi!r}] over "
             f"{len(pops)} states evaluated on the way to t_max (must lie in "
             f"[0, 1]); "
             f"same-seed reruns byte-identical: {seed_ok}")
