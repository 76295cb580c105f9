import math
import tracemalloc

import numpy as np
import pytest
import scipy.signal

from squeezer_sim import (
    BandMismatch,
    DomainError,
    TooShort,
    compare_to_analytic,
    estimate_psd,
    orth_phase_variance_reduced,
    orth_threshold_intensity,
    reference_params,
    simulate_decoupled,
    validate,
)
from squeezer_sim import montecarlo

OMEGA_2MHZ = 4.0 * math.pi * 1e6


def _threshold_run(params, seed=7, segments=2048, dt_frac=0.02):
    i_star = orth_threshold_intensity(params)
    lam = 2.0 * params.gamma_orth
    dt = dt_frac / lam
    n = (segments + 1) * 4096 // 2 + 4096
    return simulate_decoupled(params, i_star, seed=seed, dt=dt,
                              duration=n * dt), i_star


def test_same_seed_is_bit_identical(reference):
    a, _ = _threshold_run(reference, segments=64)
    b, _ = _threshold_run(reference, segments=64)
    assert a.series_out.tobytes() == b.series_out.tobytes()
    assert a.series_cavity.tobytes() == b.series_cavity.tobytes()


def test_different_seed_differs(reference):
    a, _ = _threshold_run(reference, seed=1, segments=64)
    b, _ = _threshold_run(reference, seed=2, segments=64)
    assert not np.array_equal(a.series_out, b.series_out)


def test_noise_free_decay_rate(reference):
    i_star = orth_threshold_intensity(reference)
    lam = 2.0 * reference.gamma_orth
    dt = 0.02 / lam
    run = simulate_decoupled(reference, i_star, seed=0, dt=dt,
                             duration=2000 * dt, channel_gains=(0.0, 0.0),
                             y0=1.0)
    y = run.series_cavity
    assert np.all(y > 0)
    slope = (math.log(y[1500]) - math.log(y[500])) / (1000 * dt)
    assert slope == pytest.approx(-lam, rel=0.02)


def test_stationary_variance_matches_ou_prediction(reference):
    i_star = orth_threshold_intensity(reference)
    lam = 2.0 * reference.gamma_orth
    dt = 0.02 / lam
    T = 2000.0 / lam
    run = simulate_decoupled(reference, i_star, seed=11, dt=dt, duration=T)
    x = run.series_cavity[int(10.0 / lam / dt):]
    analytic = reference.gamma_orth / lam
    std_err = analytic * math.sqrt(2.0 / (lam * T))
    assert abs(x.var() - analytic) <= 3.0 * std_err + 0.5 * lam * dt * analytic


def test_dt_gate_enforced(reference):
    lam = 2.0 * reference.gamma_orth
    with pytest.raises(DomainError):
        simulate_decoupled(reference, orth_threshold_intensity(reference),
                           seed=0, dt=0.2 / lam, duration=1.0 / lam)


def test_intensity_domain_gate(reference):
    i_star = orth_threshold_intensity(reference)
    with pytest.raises(DomainError):
        simulate_decoupled(reference, 1.5 * i_star, seed=0,
                           dt=0.01 / reference.gamma_orth,
                           duration=1.0 / reference.gamma_orth)


def test_qnl_calibration_is_flat(reference):
    lam = reference.gamma_orth
    dt = 0.02 / lam
    n = 2049 * 4096 // 2 + 4096
    run = simulate_decoupled(reference, 0.0, seed=7, dt=dt, duration=n * dt)
    est = estimate_psd(run, 2048)
    nyq = math.pi / dt
    mask = (est.freqs > 0) & (est.freqs <= nyq / 4.0)
    dev = np.abs(est.psd[mask] - 1.0) / est.rel_std_err
    assert float(np.max(dev)) <= 3.0


def test_threshold_psd_matches_headline_point(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run, 2048)
    idx = int(np.argmin(np.abs(est.freqs - OMEGA_2MHZ)))
    sigma = 0.1784 * est.rel_std_err
    assert abs(est.psd[idx] - 0.1784) <= 3.0 * sigma


def test_doubling_segments_shrinks_error_scale(reference):
    run, _ = _threshold_run(reference, segments=256)
    est1 = estimate_psd(run, 128)
    est2 = estimate_psd(run, 256)
    ratio = est1.rel_std_err / est2.rel_std_err
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.08)


def test_estimate_psd_requires_enough_data(reference):
    lam = 2.0 * reference.gamma_orth
    dt = 0.02 / lam
    run = simulate_decoupled(reference, orth_threshold_intensity(reference),
                             seed=0, dt=dt, duration=3000 * dt)
    with pytest.raises(TooShort):
        estimate_psd(run, 512)
    with pytest.raises(ValueError):
        estimate_psd(run, 4)


def test_estimate_matches_two_sided_welch_exactly(reference):
    run, _ = _threshold_run(reference, seed=5, segments=64)
    est = estimate_psd(run, 64)
    # The last block of segments is a partial one.
    assert est.n_segments % montecarlo._SEGMENT_BLOCK != 0
    x = run.series_out[montecarlo._transient_samples(run):]
    nperseg = 2 * len(est.freqs)
    f, pxx = scipy.signal.welch(
        x, fs=1.0 / run.dt, window="hann", nperseg=nperseg,
        noverlap=nperseg // 2, detrend=False, return_onesided=False,
        scaling="density")
    keep = f >= 0.0
    assert np.array_equal(est.freqs, 2.0 * math.pi * f[keep])
    assert np.array_equal(est.psd, pxx[keep])


def test_memory_footprint_of_simulation_and_estimate(reference):
    # tracemalloc sees every numpy buffer, so the peaks are exact counts.
    # scipy.signal is already imported above, keeping import-time
    # allocations out of the measured windows.
    tracemalloc.start()
    try:
        run, _ = _threshold_run(reference, segments=512)
        _, sim_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        estimate_psd(run, 512)
        _, psd_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = run.series_out.nbytes
    assert len(run.series_out) > 1_000_000
    assert sim_peak <= 4.5 * nbytes
    assert psd_peak - start <= 1.5 * nbytes


def test_supplied_increments_are_left_unchanged(reference):
    i_star = orth_threshold_intensity(reference)
    dt = 0.02 / (2.0 * reference.gamma_orth)
    n = 5000
    rng = np.random.Generator(np.random.Philox(3))
    dw1 = rng.standard_normal(n + 17) * math.sqrt(dt)
    dw2 = rng.standard_normal(n + 5) * math.sqrt(dt)
    before = (dw1.tobytes(), dw2.tobytes())
    run = simulate_decoupled(reference, i_star, seed=0, dt=dt,
                             duration=n * dt, y0=0.5, increments=(dw1, dw2))
    assert len(run.series_out) == n
    assert (dw1.tobytes(), dw2.tobytes()) == before


def test_compare_passes_at_threshold(reference):
    run, i_star = _threshold_run(reference)
    res = compare_to_analytic(estimate_psd(run, 2048), reference, i_star)
    assert res["pass"]
    assert res["max_sigma_deviation"] <= 4.0
    assert res["n_bins"] >= 30


def test_compare_detects_wrong_coupler_rate(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run, 2048)
    wrong = validate({**reference.as_dict(),
                      "gamma_orth_c": reference.gamma_orth_c * 1.2})
    res = compare_to_analytic(est, wrong, i_star)
    assert not res["pass"]


def test_compare_qnl_against_unit_curve(reference):
    lam = reference.gamma_orth
    dt = 0.02 / lam
    n = 2049 * 4096 // 2 + 4096
    run = simulate_decoupled(reference, 0.0, seed=7, dt=dt, duration=n * dt)
    res = compare_to_analytic(estimate_psd(run, 2048), reference, 0.0)
    assert res["pass"]
    assert np.all(res["analytic"] == 1.0)


def test_compare_band_mismatch(reference):
    run, i_star = _threshold_run(reference, segments=64)
    est = estimate_psd(run, 64)
    with pytest.raises(BandMismatch):
        compare_to_analytic(est, reference, i_star,
                            band=(1e3 * reference.gamma_orth,
                                  2e3 * reference.gamma_orth))


def test_halving_dt_changes_psd_less_than_one_sigma(reference):
    # Couple the two runs through shared Brownian paths: each coarse
    # increment is the sum of two fine ones, so the difference isolates
    # the discretization effect from statistical scatter.
    i_star = orth_threshold_intensity(reference)
    lam = 2.0 * reference.gamma_orth
    dt = 0.04 / lam
    n = 1025 * 4096 // 2 + 4096
    rng = np.random.Generator(np.random.Philox(123))
    fine1 = rng.standard_normal(2 * n) * math.sqrt(dt / 2)
    fine2 = rng.standard_normal(2 * n) * math.sqrt(dt / 2)
    coarse = (fine1[0::2] + fine1[1::2], fine2[0::2] + fine2[1::2])
    run_c = simulate_decoupled(reference, i_star, seed=0, dt=dt,
                               duration=n * dt, increments=coarse)
    run_f = simulate_decoupled(reference, i_star, seed=0, dt=dt / 2,
                               duration=n * dt, increments=(fine1, fine2))
    est_c = estimate_psd(run_c, 1024)
    est_f = estimate_psd(run_f, 1024)
    idx_c = int(np.argmin(np.abs(est_c.freqs - OMEGA_2MHZ)))
    idx_f = int(np.argmin(np.abs(est_f.freqs - est_c.freqs[idx_c])))
    v = orth_phase_variance_reduced(reference, i_star, est_c.freqs[idx_c])
    assert abs(est_c.psd[idx_c] - est_f.psd[idx_f]) <= v * est_c.rel_std_err


def test_psd_respects_analytic_floor(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run, 2048)
    res = compare_to_analytic(est, reference, i_star)
    floor = 1.0 - reference.gamma_orth_c / reference.gamma_orth
    sigma = res["analytic"] * est.rel_std_err
    assert np.all(res["psd"] >= floor - 4.0 * sigma)
