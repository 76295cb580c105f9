import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from squeezer_sim import (
    BandMismatch,
    DomainError,
    PsdEstimate,
    SdeRun,
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
U = 2.0 ** -53  # unit roundoff of a double


def _threshold_run(params, seed=7, segments=2048, nperseg=512, dt_frac=0.16):
    # mc-verify's threshold leg: lam*dt = 0.16 at lam = 2*gamma_orth.
    i_star = orth_threshold_intensity(params)
    dt = dt_frac / (2.0 * params.gamma_orth)
    return simulate_decoupled(params, i_star, seed, dt,
                              segments * nperseg * dt, segments), i_star


def _qnl_run(params, seed=7, segments=2048):
    # mc-verify's QNL leg: i_par = 0, lam*dt = 0.16 at lam = gamma_orth.
    dt = 0.16 / params.gamma_orth
    return simulate_decoupled(params, 0.0, seed, dt, segments * 256 * dt,
                              segments)


class _Draws:
    """Stands in for np.random.default_rng: returns itself, and hands
    out consecutive rows of the given arrays as standard normals, into a
    new array of the asked `size` or into `out`."""

    def __init__(self, *arrays):
        self.rows = np.vstack(arrays)
        self.taken = 0

    def __call__(self, seed):
        return self

    def standard_normal(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        draws = self.rows[self.taken:self.taken + len(out)]
        assert draws.shape == out.shape
        out[...] = draws
        self.taken += len(out)
        return out


def test_same_seed_is_bit_identical(reference):
    a, _ = _threshold_run(reference, segments=64)
    b, _ = _threshold_run(reference, segments=64)
    assert a.series_out.tobytes() == b.series_out.tobytes()


def test_different_seed_differs(reference):
    a, _ = _threshold_run(reference, seed=1, segments=64)
    b, _ = _threshold_run(reference, seed=2, segments=64)
    assert not np.array_equal(a.series_out, b.series_out)


def test_supplied_seed_sequence_is_left_unchanged(reference):
    # A SeedSequence is read, not spawned from, so the same object seeds
    # the same run twice and can still hand out its own children after.
    seq = np.random.SeedSequence(3)
    state = (seq.entropy, seq.spawn_key, seq.n_children_spawned)
    a, _ = _threshold_run(reference, seed=seq, segments=16)
    b, _ = _threshold_run(reference, seed=seq, segments=16)
    assert a.series_out.tobytes() == b.series_out.tobytes()
    assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == state


def test_noise_free_decay_rate(reference, monkeypatch):
    # With every innovation and output noise drawn as 0 and each start at
    # one stationary standard deviation, a segment is the noise-free
    # decay c*s*a^k.  Over 1000 steps the sequential products round at
    # most 1000u relative, so the log slope misses lam by at most about
    # 1000u/(1000*lam*dt) = 6e-15 relative, plus u/(lam*dt) from a itself.
    i_star = orth_threshold_intensity(reference)
    lam = 2.0 * reference.gamma_orth
    dt = 0.02 / lam
    segments, nperseg = 8, 2000
    start = np.zeros((nperseg + 1, segments))
    start[0] = 1.0
    monkeypatch.setattr(np.random, "default_rng",
                        _Draws(start, np.zeros((nperseg, segments))))
    run = simulate_decoupled(reference, i_star, 0, dt, segments * nperseg * dt,
                             segments)
    y = run.series_out.reshape(nperseg, segments)
    assert np.all(y > 0)
    assert np.all(y == y[:, :1])
    slope = (math.log(y[1500, 0]) - math.log(y[500, 0])) / (1000 * dt)
    assert slope == pytest.approx(-lam, rel=1e-12)


@pytest.mark.parametrize("a", [0.9, 0.98, 1.0 - 1e-6])
def test_ar1_matches_lfilter_on_a_long_series(reference, monkeypatch, a):
    # Fed known draws (1M samples), the states must follow the AR(1)
    # recurrence y[k+1] = a*y[k] + l11*z1[k] from the stationary start in
    # every segment, and each segment's output c*y[k] + l21*z1[k] +
    # l22*z2[k] must come out time-major in series_out.  Both sides step
    # sequentially and differ only in how the output's three terms are
    # summed; the bound is the one the blocked scan was held to: 1e-14 of
    # the output's scale, or eps*sqrt(1/(1 - a)), the rounding lfilter
    # accumulates over its memory, if larger.
    i_star = orth_threshold_intensity(reference)
    lam = montecarlo._relaxation_rate(reference, i_star)
    dt = -math.log(a) / lam
    segments, nperseg = 64, 16384
    rng = np.random.default_rng(17)
    y_draws = rng.standard_normal((nperseg + 1, segments))
    z2 = rng.standard_normal((nperseg, segments))
    monkeypatch.setattr(np.random, "default_rng", _Draws(y_draws, z2))
    run = simulate_decoupled(reference, i_star, 0, dt, segments * nperseg * dt,
                             segments)
    gl, gc = reference.gamma_orth_l, reference.gamma_orth_c
    step_a, c, l11, l21, l22 = montecarlo._exact_step(gl, gc, lam, dt)
    drive = np.vstack((y_draws[0] * math.sqrt((2 * gl + 2 * gc) / (2 * lam)),
                       l11 * y_draws[1:]))
    y = scipy.signal.lfilter([1.0], [1.0, -step_a], drive, axis=0)
    ref = c * y[:-1] + l21 * y_draws[1:] + l22 * z2
    got = run.series_out.reshape(nperseg, segments)
    tol = max(1e-14, 2 * U * math.sqrt(1.0 / (1.0 - a)))
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


def _per_row_reference(params, i_par, seed, dt, segments, nperseg):
    # Two whole-array draws, the z1 (after the starts) and then the z2,
    # stepped one row at a time with the output's three products summed
    # as l22 z2 + l21 z1, then + c y.
    lam = montecarlo._relaxation_rate(params, i_par)
    gl, gc = params.gamma_orth_l, params.gamma_orth_c
    a, c, l11, l21, l22 = montecarlo._exact_step(gl, gc, lam, dt)
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal((nperseg + 1, segments))
    z2 = rng.standard_normal((nperseg, segments))
    y = z1[0] * math.sqrt((gl + gc) / lam)
    out = np.empty((nperseg, segments))
    for k in range(nperseg):
        out[k] = (l22 * z2[k] + l21 * z1[k + 1]) + c * y
        y = l11 * z1[k + 1] + a * y
    return out


@pytest.mark.parametrize("qnl_leg, segments, nperseg", [
    pytest.param(False, 3000, 64, id="partial-last-chunk"),
    pytest.param(False, montecarlo._BLOCK_SAMPLES + 3, 3, id="one-row-chunks"),
    pytest.param(True, 40, 256, id="qnl-leg"),
])
def test_simulation_keeps_the_stream_order(reference, qnl_leg, segments, nperseg):
    # Chunked z2 draws must consume the stream as one whole draw does,
    # and the in-place update must give the per-row loop's bits.  Chunks
    # are _BLOCK_SAMPLES // segments rows: 21 rows at 3000 segments, so
    # the last of 64 holds 1; a single row past _BLOCK_SAMPLES segments;
    # and one chunk, partly filled, on the QNL leg.
    if qnl_leg:
        i_par, dt = 0.0, 0.16 / reference.gamma_orth
    else:
        i_par = orth_threshold_intensity(reference)
        dt = 0.16 / (2.0 * reference.gamma_orth)
    run = simulate_decoupled(reference, i_par, 29, dt,
                             segments * nperseg * dt, segments)
    ref = _per_row_reference(reference, i_par, 29, dt, segments, nperseg)
    assert run.series_out.shape == (segments * nperseg,)
    assert run.series_out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [1 << 10, 1 << 16, 1 << 20])
def test_block_size_leaves_the_bytes_alone(reference, monkeypatch, block):
    # 301 segments of 512 samples: at 1 << 10 the chunks are 3 rows and
    # the FFT blocks 2 segments, at 1 << 16 217 rows and 128 segments,
    # each with a partial last one; at 1 << 20 one chunk and one block
    # hold the whole run.
    def run_and_estimate():
        run, _ = _threshold_run(reference, seed=13, segments=301)
        series = run.series_out.tobytes()
        est = estimate_psd(run)
        return series, est.psd.tobytes(), est.freqs.tobytes()

    expected = run_and_estimate()
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", block)
    assert run_and_estimate() == expected


def _van_loan(gl, gc, lam, dt):
    """Decay, output state coefficient and (e, n) covariance of one step,
    from Van Loan's block exponential (IEEE TAC 23, 395, 1978) of the
    linear SDE in (y, int y dt, W2): dy = -lam y dt + g1 dW1 + g2 dW2."""
    g1, g2 = math.sqrt(2 * gl), math.sqrt(2 * gc)
    drift = np.array([[-lam, 0, 0], [1, 0, 0], [0, 0, 0.0]])
    noise = np.array([[g1, g2], [0, 0], [0, 1.0]])
    block = np.zeros((6, 6))
    block[:3, :3] = -drift
    block[:3, 3:] = noise @ noise.T
    block[3:, 3:] = drift.T
    e = scipy.linalg.expm(block * dt)
    phi = e[3:, 3:].T
    q = phi @ e[:3, 3:]
    # e = y(dt) - a y0; n = (g2 int y dt - W2(dt)) / dt minus its mean.
    t = np.array([[1, 0, 0], [0, g2 / dt, -1 / dt]])
    return phi[0, 0], g2 * phi[1, 0] / dt, t @ q @ t.T


@pytest.mark.parametrize("x", [1e-6, 1e-4, 1e-2, 0.16, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("leg", ["threshold", "qnl", "lossless"])
def test_exact_step_matches_van_loan(reference, leg, x):
    # In units of 1/lam.  Each closed form is a short chain of rounded
    # operations on nonnegative terms, so it holds to a few u.  expm is
    # accurate to a few u of the norm of its result, about e^x, while the
    # entries compared scale with e^-x, so the reference carries about
    # u*e^(2x) relative; the 2x2 products add a few u.  16u(1 + e^(2x))
    # covers both.  The determinant is a difference, so its bound scales
    # with the terms it subtracts.
    gorth = reference.gamma_orth
    lam = {"threshold": 2.0 * gorth, "qnl": gorth, "lossless": gorth}[leg]
    gl = 0.0 if leg == "lossless" else reference.gamma_orth_l / lam
    gc = gorth / lam if leg == "lossless" else reference.gamma_orth_c / lam
    a, c, l11, l21, l22 = montecarlo._exact_step(gl, gc, 1.0, x)
    ref_a, ref_c, ref_cov = _van_loan(gl, gc, 1.0, x)
    cov = np.array([[l11 * l11, l11 * l21], [l11 * l21, l21 * l21 + l22 * l22]])
    tol = 16 * U * (1.0 + math.exp(2.0 * x))
    assert abs(a - ref_a) <= tol * ref_a
    assert abs(c - ref_c) <= tol * ref_c
    assert np.all(np.abs(cov - ref_cov) <= tol * np.abs(ref_cov))
    det = (l11 * l22) ** 2
    ref_det = ref_cov[0, 0] * ref_cov[1, 1] - ref_cov[0, 1] ** 2
    terms = ref_cov[0, 0] * ref_cov[1, 1] + ref_cov[0, 1] ** 2
    assert abs(det - ref_det) <= 3 * tol * terms


def test_stationary_variance_matches_ou_prediction(reference):
    # Each segment starts from N(0, D/2lam), D = 2(gl + gc), so its first
    # sample c*y0 + n has variance c^2 D/2lam + var n.  At lam*dt = 2 and
    # i_par = 0 the start carries 70% of it.  Over M segments a Gaussian
    # sample variance has standard error sqrt(2/(M - 1)) of its value, so
    # the start variance read back is held to five of those.
    lam = reference.gamma_orth
    dt = 2.0 / lam
    segments = 1 << 16
    run = simulate_decoupled(reference, 0.0, 11, dt, segments * 2 * dt, segments)
    gl, gc = reference.gamma_orth_l, reference.gamma_orth_c
    _, c, l11, l21, l22 = montecarlo._exact_step(gl, gc, lam, dt)
    first = run.series_out[:segments]
    v0 = float(np.mean(first * first))
    start_var = (v0 - (l21 * l21 + l22 * l22)) / (c * c)
    analytic = (2 * gl + 2 * gc) / (2 * lam)
    bound = 5.0 * math.sqrt(2.0 / (segments - 1)) * v0 / (c * c)
    assert abs(start_var - analytic) <= bound


def test_dt_gate_enforced(reference):
    # The exact update has no step-size limit: lam*dt = 2 runs, and only
    # a dt that is not positive and finite is refused.
    i_star = orth_threshold_intensity(reference)
    lam = 2.0 * reference.gamma_orth
    run = simulate_decoupled(reference, i_star, 0, 2.0 / lam, 16 * 4 * 2.0 / lam, 16)
    assert len(run.series_out) == 64
    for dt in (0.0, -1.0 / lam, math.inf, math.nan):
        with pytest.raises(DomainError):
            simulate_decoupled(reference, i_star, 0, dt, 1.0 / lam, 16)


def test_intensity_domain_gate(reference):
    i_star = orth_threshold_intensity(reference)
    with pytest.raises(DomainError):
        simulate_decoupled(reference, 1.5 * i_star, 0,
                           0.01 / reference.gamma_orth,
                           1.0 / reference.gamma_orth, 16)


def test_oversize_run_is_refused_before_allocating(reference):
    # duration = 1e6 at the default dt asks for about 2e14 samples,
    # petabytes of buffers: the library call must raise the typed memory
    # gate's error, not numpy's MemoryError, and allocate nothing first.
    i_star = orth_threshold_intensity(reference)
    args = (reference, i_star, 0.16 / (2.0 * reference.gamma_orth), 1e6, 2048)
    for call in (lambda: montecarlo.run_length(*args),
                 lambda: simulate_decoupled(*args[:2], 7, *args[2:])):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_qnl_calibration_is_flat(reference):
    # Every bin strictly between 0 and Nyquist averages M complex
    # periodograms, so its relative standard error is 1/sqrt(M); DC and
    # Nyquist average real ones, with sqrt(2) of that.
    run = _qnl_run(reference)
    est = estimate_psd(run)
    nyq = math.pi / run.dt
    mask = (est.freqs > 0) & (est.freqs < nyq)
    dev = np.abs(est.psd[mask] - 1.0) / est.rel_std_err
    assert float(np.max(dev)) <= 3.0


def test_threshold_psd_matches_headline_point(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run)
    idx = int(np.argmin(np.abs(est.freqs - OMEGA_2MHZ)))
    sigma = 0.1784 * est.rel_std_err
    assert abs(est.psd[idx] - 0.1784) <= 3.0 * sigma


def test_doubling_segments_shrinks_error_scale(reference):
    run1, _ = _threshold_run(reference, segments=128)
    run2, _ = _threshold_run(reference, segments=256)
    est1, est2 = estimate_psd(run1), estimate_psd(run2)
    assert (est1.n_segments, est2.n_segments) == (128, 256)
    ratio = est1.rel_std_err / est2.rel_std_err
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.08)


def test_estimate_psd_requires_enough_data(reference):
    i_star = orth_threshold_intensity(reference)
    dt = 0.16 / (2.0 * reference.gamma_orth)
    with pytest.raises(TooShort):
        simulate_decoupled(reference, i_star, 0, dt, 512 * 1.4 * dt, 512)
    with pytest.raises(ValueError):
        simulate_decoupled(reference, i_star, 0, dt, 4 * 512 * dt, 4)


_NPERSEG = 512
_BLOCK = montecarlo._BLOCK_SAMPLES // _NPERSEG


@pytest.mark.parametrize("qnl_leg, segments", [
    pytest.param(False, 16, id="under-one-block"),
    pytest.param(False, 2 * _BLOCK, id="whole-blocks"),
    pytest.param(False, _BLOCK + 1, id="block-plus-one"),
    pytest.param(False, _BLOCK + _BLOCK // 2, id="partial-last-block"),
    pytest.param(True, 40, id="qnl-leg"),
])
def test_estimate_matches_two_sided_welch_exactly(reference, qnl_leg, segments):
    if qnl_leg:
        run, nperseg = _qnl_run(reference, seed=5, segments=segments), 256
    else:
        run, nperseg = _threshold_run(reference, seed=5, segments=segments)[0], _NPERSEG
    # scipy reads the segments end to end: a segment-major copy, taken
    # before the estimate consumes the run.
    end_to_end = run.series_out.reshape(nperseg, segments).T.reshape(-1)
    est = estimate_psd(run)
    assert est.n_segments == segments
    assert est.rel_std_err == 1.0 / math.sqrt(segments)
    f, pxx = scipy.signal.welch(
        end_to_end, fs=1.0 / run.dt, window="hann", nperseg=nperseg,
        noverlap=0, detrend=False, return_onesided=False, scaling="density")
    # scipy orders the two-sided grid from 0 up, then the negatives,
    # starting at -Nyquist; the bins match bitwise.
    half = nperseg // 2
    assert len(est.freqs) == half + 1
    assert np.array_equal(est.freqs, 2.0 * math.pi * np.abs(f[:half + 1]))
    assert np.array_equal(est.psd, pxx[:half + 1])


def test_run_refuses_a_series_that_is_not_whole_segments():
    # SdeRun is exported, and estimate_psd reshapes whatever run it gets.
    SdeRun(dt=1.0, segments=3, series_out=np.zeros(12))
    for segments, series in ((3, np.zeros(10)), (1, np.zeros((2, 3)))):
        with pytest.raises(ValueError, match="equal segments"):
            SdeRun(dt=1.0, segments=segments, series_out=series)


@pytest.mark.parametrize("change, message", [
    ({"psd": np.array([1.0, 0.0])}, "finite and positive"),
    ({"psd": np.array([1.0, math.nan])}, "finite and positive"),
    ({"psd": np.array([1.0, math.inf])}, "finite and positive"),
    ({"n_segments": 0}, "implausible"),
    ({"n_segments": 1}, "implausible"),
])
def test_estimate_refuses_an_impossible_psd_or_statistics(change, message):
    # PsdEstimate is exported, and compare_to_analytic takes one built by
    # hand as readily as one from estimate_psd.
    fields = {"freqs": np.array([0.0, 1.0]), "psd": np.ones(2), "n_segments": 4}
    PsdEstimate(**fields)
    with pytest.raises(ValueError, match=message):
        PsdEstimate(**{**fields, **change})


def test_second_estimate_of_a_run_is_refused(reference):
    # The first estimate writes its periodograms over the series, so a
    # second one would average periodograms of periodograms.
    run, _ = _threshold_run(reference, segments=16)
    estimate_psd(run)
    assert not run.series_out.flags.writeable
    with pytest.raises(ValueError, match="already consumed"):
        estimate_psd(run)


def test_memory_footprint_of_simulation_and_estimate(reference):
    # tracemalloc sees every numpy buffer, so the peaks are exact counts.
    # A small run first imports numpy.fft outside the window, and plans
    # the FFT of the same nperseg, so the windows hold only their data.
    # 2048 segments fill whole blocks; 2000 end on a partial one.
    estimate_psd(_threshold_run(reference, segments=16)[0])
    for segments in (2048, 2000):
        tracemalloc.start()
        try:
            run, _ = _threshold_run(reference, segments=segments)
            _, sim_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            estimate_psd(run)
            _, psd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(run.series_out) > 1_000_000
        # The run holds one state array of nperseg + 1 rows, one row and
        # two chunk buffers of _BLOCK_SAMPLES // segments rows, plus a few
        # KB of Python objects (the generator, the run).  The estimate
        # writes its bins over the series and adds its two block buffers
        # (windowed segments and their spectra), the in-place window
        # multiply's one ufunc buffer (np.getbufsize() doubles, for the
        # broadcast window column; the copy of the strided segments
        # beside it buffers nothing) and a few KB for the window, the
        # grid and the estimate itself.
        rows = montecarlo._BLOCK_SAMPLES // segments
        state_rows = len(run.series_out) // segments + 1
        assert sim_peak <= 8 * segments * (state_rows + 1 + 2 * rows) + 8192
        nperseg = state_rows - 1
        block = montecarlo._BLOCK_SAMPLES // nperseg
        blocks = 8 * nperseg * block + 16 * block * (nperseg // 2 + 1)
        assert psd_peak - start <= blocks + 8 * np.getbufsize() + 32768


@pytest.mark.parametrize("nperseg", [64, 512, 4096])
def test_welch_window_and_grid_match_short_time_fft_bitwise(reference,
                                                           nperseg):
    # At dt = 0.05/gamma_orth, 1/(1/dt) != dt, and the window at nperseg
    # 4096 differs in its last bits if it is scaled over dt itself.
    dt = 0.05 / reference.gamma_orth
    win, f = montecarlo._welch_window(nperseg, dt)
    sft = scipy.signal.ShortTimeFFT(
        scipy.signal.get_window("hann", nperseg), nperseg // 2, 1.0 / dt,
        fft_mode="onesided", scale_to="psd")
    assert np.array_equal(win, sft.win)
    assert np.array_equal(f, sft.f)


def test_compare_passes_at_threshold(reference):
    run, i_star = _threshold_run(reference)
    res = compare_to_analytic(estimate_psd(run), reference, i_star)
    assert res["pass"]
    assert res["max_sigma_deviation"] <= 4.0
    assert res["n_bins"] >= 30


def test_compare_detects_wrong_coupler_rate(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run)
    wrong = validate({**reference.as_dict(),
                      "gamma_orth_c": reference.gamma_orth_c * 1.2})
    res = compare_to_analytic(est, wrong, i_star)
    assert not res["pass"]


def test_compare_qnl_against_unit_curve(reference):
    res = compare_to_analytic(estimate_psd(_qnl_run(reference)), reference, 0.0)
    assert res["pass"]
    assert np.all(res["analytic"] == 1.0)


def test_compare_band_mismatch(reference):
    run, i_star = _threshold_run(reference, segments=64)
    est = estimate_psd(run)
    with pytest.raises(BandMismatch):
        compare_to_analytic(est, reference, i_star,
                            band=(1e3 * reference.gamma_orth,
                                  2e3 * reference.gamma_orth))


def test_halving_dt_changes_psd_less_than_one_sigma(reference):
    # The update is exact, so halving dt at fixed M and fixed segment
    # length nperseg*dt (the same bins) leaves the expected estimate
    # unchanged up to the boxcar's aliasing, about 0.1 sigma at 10
    # gamma_orth.  The two runs are independent, so each bin's
    # difference has sqrt(2) sigma, and their mean over the 65 Hann-
    # correlated bins (adjacent correlation 4/9) has about
    # sqrt(2 * (1 + 8/9) / 65) = 0.24 sigma: one sigma is four of those.
    coarse_seed, fine_seed = np.random.SeedSequence(123).spawn(2)
    est_c = estimate_psd(_threshold_run(reference, coarse_seed, 1024, 512, 0.16)[0])
    est_f = estimate_psd(_threshold_run(reference, fine_seed, 1024, 1024, 0.08)[0])
    i_star = orth_threshold_intensity(reference)
    gorth = reference.gamma_orth
    band = (est_c.freqs >= 0.1 * gorth) & (est_c.freqs <= 10.0 * gorth)
    om = est_c.freqs[band]
    assert np.array_equal(om, est_f.freqs[:len(est_c.freqs)][band])
    v = orth_phase_variance_reduced(reference, i_star, om)
    diff = (est_c.psd[band] - est_f.psd[:len(est_c.freqs)][band]) / (
        v * est_c.rel_std_err)
    assert len(om) == 65
    assert abs(float(np.mean(diff))) <= 1.0


def test_psd_respects_analytic_floor(reference):
    run, i_star = _threshold_run(reference)
    est = estimate_psd(run)
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
