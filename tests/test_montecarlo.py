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
    laser_threshold,
    orth_phase_variance_reduced,
    orth_threshold_intensity,
    orth_threshold_pump,
    reference_params,
    simulate_decoupled,
    steady_state,
    validate,
)
from squeezer_sim import model, montecarlo

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


_BLOCK = montecarlo._SEGMENT_BLOCK


# A threshold run sized for s segments yields s + 1 of them.
@pytest.mark.parametrize("qnl_leg, segments, expected", [
    pytest.param(False, 16, 17, id="under-one-block"),
    pytest.param(False, 2 * _BLOCK - 1, 2 * _BLOCK, id="whole-blocks"),
    pytest.param(False, _BLOCK, _BLOCK + 1, id="block-plus-one"),
    pytest.param(False, 64, 65, id="partial-last-block"),
    pytest.param(True, 40, 41, id="qnl-leg"),
])
def test_estimate_matches_two_sided_welch_exactly(reference, qnl_leg,
                                                  segments, expected):
    if qnl_leg:
        # i_par = 0 at mc-verify's QNL-leg dt, sized for nperseg 1024.
        dt = 0.05 / reference.gamma_orth
        n = (segments + 1) * 1024 // 2 + 1024
        run = simulate_decoupled(reference, 0.0, seed=5, dt=dt,
                                 duration=n * dt)
    else:
        run, _ = _threshold_run(reference, seed=5, segments=segments)
    est = estimate_psd(run, segments)
    assert est.n_segments == expected
    # Only the bins up to a quarter of Nyquist, which compare_to_analytic
    # trusts, are kept; those hold scipy's bytes.
    nperseg = 1024 if qnl_leg else 4096
    bins = nperseg // 8 + 1
    assert len(est.freqs) == bins
    x = run.series_out[montecarlo._transient_samples(run):]
    f, pxx = scipy.signal.welch(
        x, fs=1.0 / run.dt, window="hann", nperseg=nperseg,
        noverlap=nperseg // 2, detrend=False, return_onesided=False,
        scaling="density")
    # scipy orders the two-sided grid from 0 up, then the negatives.
    assert np.array_equal(est.freqs, 2.0 * math.pi * f[:bins])
    assert np.array_equal(est.psd, pxx[:bins])


def test_memory_footprint_of_simulation_and_estimate(reference):
    # tracemalloc sees every numpy buffer, so the peaks are exact counts.
    # Neither call imports anything, so the windows hold only their data.
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
    # The run is two series-length buffers (trajectory and output) plus
    # the scan's and the chunks' temporaries; the estimate is a
    # quarter-length bin matrix plus about 2 MB of FFT blocks.
    assert sim_peak <= 2.5 * nbytes
    assert psd_peak - start <= 0.75 * nbytes


def _ar1_loop(x, a):
    y, prev = np.empty(len(x)), 0.0
    for k, v in enumerate(x.tolist()):
        prev = a * prev + v
        y[k] = prev
    return y


@pytest.mark.parametrize("a", [0.9, 0.98, 1.0 - 1e-6])
def test_ar1_matches_lfilter_on_a_long_series(a):
    # The scan sums in another order than lfilter's sequential loop, so
    # the bound comes from the dtype: 1e-14 of the series' scale, or the
    # rounding lfilter itself accumulates over its memory of 1/(1 - a)
    # steps, eps*sqrt(1/(1 - a)) = 2.2e-13 at a = 1 - 1e-6, whichever is
    # larger.  On white noise a long-double loop puts lfilter about
    # 5e-14 from the exact recurrence there, and the scan about 5e-16.
    x = np.random.default_rng(17).standard_normal(4_200_000)
    ref = scipy.signal.lfilter([1.0], [1.0, -a], x)
    y = montecarlo._ar1(x, a)
    eps = np.finfo(float).eps
    tol = max(1e-14, eps * math.sqrt(1.0 / (1.0 - a)))
    assert np.max(np.abs(y - ref)) <= tol * np.max(np.abs(ref))


def test_ar1_impulse_response_is_powers_of_a():
    # Held against pow to 1e-14 where lfilter's own rounding cannot be:
    # without its carry correction the scan misses by 2.5e-12 here.
    a = 1.0 - 1e-6
    x = np.zeros(4_200_000)
    x[0] = 1.0
    powers = a ** np.arange(len(x), dtype=float)
    y = montecarlo._ar1(x, a)
    assert np.max(np.abs(y - powers) / powers) <= 1e-14


@pytest.mark.parametrize("n", [1, 31, 32, 33, 129, 100003])
def test_ar1_matches_a_plain_loop(n):
    # Below two whole blocks the scan is the loop itself; beyond, it
    # agrees to rounding, with the first sample playing y0.
    x = np.random.default_rng(n).standard_normal(n)
    x[0] = 1.5
    ref = _ar1_loop(x, 0.98)
    y = montecarlo._ar1(x, 0.98)
    if n < 2 * montecarlo._AR1_BLOCK:
        assert np.array_equal(y, ref)
    assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nperseg", [64, 512, 4096])
def test_welch_window_and_grid_match_short_time_fft_bitwise(reference,
                                                           nperseg):
    # At the QNL leg's dt, 1/(1/dt) != dt, and the window at nperseg
    # 4096 differs in its last bits if it is scaled over dt itself.
    dt = 0.05 / reference.gamma_orth
    win, f = montecarlo._welch_window(nperseg, dt)
    sft = scipy.signal.ShortTimeFFT(
        scipy.signal.get_window("hann", nperseg), nperseg // 2, 1.0 / dt,
        fft_mode="onesided", scale_to="psd")
    assert np.array_equal(win, sft.win)
    assert np.array_equal(f, sft.f)


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


def test_relaxation_rate_is_models_phase_drift_in_region_ii(reference, moderate, rng):
    # montecarlo writes the region-ii phase rate gorth + mu*i by hand;
    # model's block gives -(gorth + mu*(a*a + 0*0)) at a = sqrt(i), b = 0.
    # The two differ only by rounding: sqrt(i) and its square carry 3u
    # relative (u = 2**-53), the two products mu*(.) one u each and the
    # two sums with gorth one u each of the result, so 7u times the
    # result to first order, and u times a double is below one of its
    # ulps.  One more ulp covers the second-order terms.
    worst = 0.0
    for params in (reference, moderate):
        g_laser, g_orth = laser_threshold(params), orth_threshold_pump(params)
        intensities = [steady_state(params, g_laser + frac * (g_orth - g_laser)).i_par
                       for frac in (1e-6, 0.01, 0.3, 0.7, 0.99)]
        intensities += rng.uniform(0.0, orth_threshold_intensity(params), 50).tolist()
        for i in intensities:
            hand = montecarlo._relaxation_rate(params, i)
            tied = -model.phase_drift(params, math.sqrt(i), 0.0, 0.2, 0.3)[1][1]
            worst = max(worst, abs(hand - tied) / math.ulp(max(hand, tied)))
    assert worst <= 8.0
