"""Stochastic verification of the analytic phase-quadrature spectrum.

The dark orthogonal mode's phase quadrature is an Ornstein-Uhlenbeck
process,

    dY = -(gorth + mu*i_par) Y dt + sqrt(2*gl) dW1 + sqrt(2*gc) dW2,

with the measurable output Y_out = sqrt(2*gc) Y - Z_in2.  Discretizing
needs two cares.  First, a continuous unit-spectral-density input is
represented per Euler-Maruyama step by a Gaussian increment of variance
dt, and the "instantaneous" reflected value entering the output
relation is that same increment divided by dt: reusing the identical
in2 increment in both the cavity update and the output sample preserves
the cavity / reflection cross-correlation that pushes the output below
the QNL (an independent draw would converge to an unsqueezed spectrum).
Second, dW/dt is the boxcar average of the white input over step k, so
the cavity term of the output must be boxcar-averaged over the same
interval, i.e. sampled at the step midpoint (y_k + y_{k+1})/2; sampling
the pre-update state instead leaves an O(1) spectral bias at fixed
omega*dt that no refinement of dt removes.  With both in place the
estimated spectrum converges to the continuous input-output result,
which is exactly why this simulation is a genuine check of the analytic
spectrum rather than a restatement of it.

The update is a first-order recurrence, solved as a blocked scan
(Blelloch, "Prefix sums and their applications", 1990) by `_ar1`.
The output spectrum is a Hann-windowed, 50%-overlap Welch estimate
(Welch, IEEE Trans. Audio Electroacoust. 15, 70, 1967) in the two-sided
density convention.  It is computed one-sided, with one batched real FFT
per block of segments read through a strided view of the series: for a
real series the interior one-sided bins, left undoubled, are exactly the
two-sided density at f >= 0.  Both halves of the data path work in
place: a simulation of n steps holds two series-length buffers, the
trajectory and the in2 draws that the output overwrites, and peaks at
about 2.1n doubles; the estimate keeps only the bins the comparison
trusts, up to a quarter of Nyquist, so its bin-by-segment matrix adds
about n/4 on top of the run it reads.

Seeding uses a counter-based generator (Philox), so every run is fully
reproducible from (seed, dt, duration) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BandMismatch, DomainError, TooShort
from .params import ModelParams
from .spectra import orth_phase_variance_reduced
from .steadystate import orth_threshold_intensity

__all__ = ["SdeRun", "PsdEstimate", "run_length", "simulate_decoupled",
           "estimate_psd", "compare_to_analytic"]

# Squared overlap correlation of Hann-windowed periodograms at 50% hop.
_HANN_OVERLAP_RHO = 1.0 / 9.0
_MIN_SEGMENT = 64
# Segments per batched rfft in estimate_psd: bounds the windowed block
# and its complex spectrum to about 1 MB each at nperseg 4096, whatever
# the series length.
_SEGMENT_BLOCK = 32
# Samples per block of the AR(1) scan, and blocks per cache-sized matmul.
_AR1_BLOCK = 32
_AR1_ROWS = 512
# Samples per chunk of simulate_decoupled's elementwise passes, which
# keeps their temporaries at 256 KB instead of one series length.
_CHUNK = 32768
# The comparison trusts the Euler-Maruyama spectrum up to this fraction
# of Nyquist, so estimate_psd keeps no bins above it.
_TRUSTED_NYQUIST = 0.25


@dataclass(frozen=True)
class SdeRun:
    """One Euler-Maruyama realization of the decoupled phase quadrature.

    `relaxation_rate` is the drift rate gamma_orth + mu*i_par of the run,
    which sets the transient `estimate_psd` discards.
    """

    dt: float
    relaxation_rate: float
    series_out: np.ndarray
    series_cavity: np.ndarray

    def __post_init__(self):
        if len(self.series_out) != len(self.series_cavity):
            raise ValueError("output and cavity series must have equal length")


@dataclass(frozen=True)
class PsdEstimate:
    """Welch estimate of the two-sided output PSD, QNL-normalized."""

    freqs: np.ndarray  # angular, rad/s, ascending, 0 to Nyquist/4
    psd: np.ndarray
    n_segments: int
    rel_std_err: float
    dt: float

    def __post_init__(self):
        if np.any(self.psd <= 0) or np.any(~np.isfinite(self.psd)):
            raise ValueError("PSD estimate must be finite and positive")
        if self.n_segments < 1 or not 0 < self.rel_std_err < 1:
            raise ValueError("implausible Welch averaging statistics")


def _relaxation_rate(params: ModelParams, i_par) -> float:
    return params.gamma_orth + params.nl_coupling_mu * float(i_par)


def run_length(params: ModelParams, i_par, dt: float, duration: float) -> int:
    """Steps n of the `simulate_decoupled` run with these arguments.

    Raises the run's DomainErrors (i_par outside [0, gamma_orth/mu], dt
    above 0.1 over the relaxation rate, a duration / dt that is not
    finite, fewer than two steps) without allocating anything, so a run
    can be sized before it is made.
    """
    i = float(i_par)
    top = orth_threshold_intensity(params)
    if not 0.0 <= i <= top * (1.0 + 1e-12):
        raise DomainError(f"i_par must lie in [0, {top!r}], got {i!r}")
    lam = _relaxation_rate(params, i)
    if dt <= 0 or dt > 0.1 / lam:
        raise DomainError(
            f"dt must satisfy 0 < dt <= 0.1/relaxation rate = {0.1 / lam!r}")
    steps = duration / dt
    if not math.isfinite(steps):
        raise DomainError(f"duration / dt = {steps!r} is not a finite step count")
    n = int(steps)
    if n < 2:
        raise DomainError("duration must cover at least two steps")
    return n


def simulate_decoupled(params: ModelParams, i_par, seed: int, dt: float,
                       duration: float, *, channel_gains=(1.0, 1.0),
                       y0: float = 0.0, increments=None) -> SdeRun:
    """Euler-Maruyama run of the decoupled equation plus output relation.

    `channel_gains`, `y0` and `increments` are test hooks: they scale or
    replace the two noise channels (e.g. to watch the noise-free decay,
    or to couple runs at different dt through shared Brownian paths).
    """
    n = run_length(params, i_par, dt, duration)
    lam = _relaxation_rate(params, i_par)
    g1 = channel_gains[0] * math.sqrt(2.0 * params.gamma_orth_l)
    g2 = channel_gains[1] * math.sqrt(2.0 * params.gamma_orth_c)
    a = 1.0 - lam * dt
    # y[0] = y0 and y[k+1] = a*y[k] + drive[k] is the AR(1) recurrence
    # `_ar1` solves on the input (y0, drive[0], ..., drive[n-1]), so the
    # trajectory comes out as one n+1 buffer: series_cavity[k] = y[k] is
    # the pre-update state and y[k+1] the post-update one.  The drive is
    # built in place in that input buffer, starting from the in1 draws.
    x = np.empty(n + 1)
    x[0] = y0
    drive = x[1:]
    if increments is None:
        rng = np.random.Generator(np.random.Philox(int(seed)))
        root_dt = math.sqrt(dt)
        rng.standard_normal(out=drive)
        drive *= root_dt
        dw2 = rng.standard_normal(n)
        dw2 *= root_dt
    else:
        dw1, dw2 = (np.asarray(v, float) for v in increments)
        if len(dw1) < n or len(dw2) < n:
            raise ValueError("supplied increments shorter than the run")
        # Copies: the in-place arithmetic below must not reach the
        # caller's arrays.
        drive[:] = dw1[:n]
        dw2 = dw2[:n].copy()
    drive *= g1
    chunks = [slice(k, k + _CHUNK) for k in range(0, n, _CHUNK)]
    for part in chunks:
        drive[part] += g2 * dw2[part]
    y = _ar1(x, a)
    # Output over step k: boxcar average of the cavity field minus the
    # boxcar-averaged reflected input, sharing the same in2 increment.
    # It is built chunk by chunk over the in2 buffer, which it replaces.
    dw2 /= dt
    c = math.sqrt(2.0 * params.gamma_orth_c) * 0.5
    pre, post = y[:-1], y[1:]
    for part in chunks:
        cav = pre[part] + post[part]
        cav *= c
        np.subtract(cav, dw2[part], out=dw2[part])
    return SdeRun(dt=float(dt), relaxation_rate=lam,
                  series_out=dw2, series_cavity=pre)


def _ar1(x: np.ndarray, a: float) -> np.ndarray:
    """y[k] = a*y[k-1] + x[k] from y[-1] = 0, for 0 <= a < 1, written
    over the contiguous float input x, which is returned.

    A blocked scan over rows of B = `_AR1_BLOCK` samples: a GEMV gives
    each row's end from zero, the carries between rows follow the same
    recurrence with a^B (solved by recursion), and each row is then
    `[row, carry] @ mat`.  Short inputs and the tail run a plain loop.
    Sums run in another order than in a sequential loop, so the two agree
    to rounding, not bitwise; the rounding of a^B, which the carry memory
    1/(1 - a^B) would amplify 3e4-fold at a = 1 - 1e-6, is corrected for.
    """
    b = _AR1_BLOCK
    m = len(x) // b
    start, prev = 0, 0.0
    if m >= 2:
        xb = x[:m * b].reshape(m, b)
        p = a ** np.arange(b + 1.0)
        # a^(i-j) for i >= j, over the carry-in weights a^(i+1).
        lag = np.arange(b) - np.arange(b)[:, None]
        mat = np.vstack((np.where(lag >= 0, p[abs(lag)], 0.0), p[1:]))
        c = float(p[b])
        # ends[r] is the end value of row r - 1: the carry into row r.
        ends = np.concatenate(([0.0], _ar1(xb @ mat[:b, -1], c)))
        if c > 0.5:
            # Below 0.5 the carry memory is under 2 and c's rounding does
            # not grow; above, the logs give a^B - c exactly enough.
            c_err = c * (b * math.log1p(a - 1.0) - math.log1p(c - 1.0))
            ends[1:] += _ar1(c_err * ends[:-1], c)
        carry = ends[:-1, None]
        for r in range(0, m, _AR1_ROWS):
            rows = slice(r, r + _AR1_ROWS)
            np.matmul(np.hstack((xb[rows], carry[rows])), mat, out=xb[rows])
        start, prev = m * b, float(ends[-1])
    for k, v in enumerate(x[start:].tolist(), start):
        prev = a * prev + v
        x[k] = prev
    return x


def _transient_samples(run: SdeRun) -> int:
    return int(math.ceil(10.0 / run.relaxation_rate / run.dt))


def _welch_window(nperseg: int, dt: float):
    """Density-scaled periodic Hann window and one-sided grid in Hz, as
    scipy's ShortTimeFFT(..., scale_to="psd") builds them: a general
    cosine, scaled over the sampling period 1/fs, which is not always dt.
    """
    period = 1.0 / (1.0 / dt)
    win = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1)[:-1])
    win *= 1.0 / np.sqrt(sum((win * win).tolist()) / period)
    return win, np.fft.rfftfreq(nperseg, period)


def estimate_psd(run: SdeRun, n_segments: int) -> PsdEstimate:
    """Hann-windowed 50%-overlap Welch estimate of the output PSD.

    The scaling is the plain two-sided density in angular-frequency
    convention, under which a pure vacuum input (i_par = 0) comes out
    flat at 1; there is no post-hoc calibration factor.

    The segments are rows of a strided view of the series, so none is
    copied before windowing.  `_SEGMENT_BLOCK` of them at a time are
    multiplied by the psd-scaled Hann window into one reused buffer and
    transformed by a single `rfft` along the rows; the squared
    magnitudes of the bins up to `_TRUSTED_NYQUIST` of Nyquist (the
    first nperseg//8 + 1) are written transposed into one (bins, k)
    matrix, whose segment mean is the estimate.  For a real series the
    interior one-sided bins are the two-sided density at +f before any
    folding, so without the usual doubling they are exactly the
    two-sided values.  The window, its scaling and the frequency grid
    are computed as scipy's ShortTimeFFT does, and the transposed write
    keeps each bin's row contiguous, so the mean sums in the same order
    and the kept bins have the same bytes as
    `scipy.signal.welch(..., return_onesided=False)` at f >= 0, with a
    working set of about a quarter of a series length instead of about
    eight.
    """
    if n_segments < 8:
        raise ValueError("n_segments must be >= 8")
    x = run.series_out[_transient_samples(run):]
    n = len(x)
    # Largest power-of-two segment that still yields n_segments at 50% hop.
    limit = 2 * n // (n_segments + 1)
    if limit < _MIN_SEGMENT:
        raise TooShort(
            f"series of {n} samples cannot host {n_segments} segments of "
            f"at least {_MIN_SEGMENT}")
    nperseg = 2 ** int(math.floor(math.log2(limit)))
    hop = nperseg // 2
    k = (n - nperseg) // hop + 1
    win, freqs = _welch_window(nperseg, run.dt)
    segments = sliding_window_view(x, nperseg)[::hop]
    windowed = np.empty((_SEGMENT_BLOCK, nperseg))
    bins = int(_TRUSTED_NYQUIST * hop) + 1
    pxx = np.empty((bins, k))
    for p0 in range(0, k, _SEGMENT_BLOCK):
        p1 = min(p0 + _SEGMENT_BLOCK, k)
        seg = np.multiply(segments[p0:p1], win, out=windowed[:p1 - p0])
        spec = np.fft.rfft(seg, axis=-1)
        # |X|^2 of the kept bins in place in the spectrum's own real
        # part: no other buffer.
        re, im = spec.real[:, :bins], spec.imag[:, :bins]
        np.square(re, out=re)
        np.square(im, out=im)
        re += im
        pxx[:, p0:p1] = re.T
        # Freed before the next block's rfft allocates, so two spectra
        # are never alive at once.
        del spec, re, im
    freqs = 2.0 * math.pi * freqs[:bins]
    psd = pxx.mean(axis=-1)
    rel = math.sqrt((1.0 + 2.0 * _HANN_OVERLAP_RHO * (k - 1) / k) / k)
    return PsdEstimate(freqs=freqs, psd=psd, n_segments=k, rel_std_err=rel,
                       dt=run.dt)


def compare_to_analytic(estimate: PsdEstimate, params: ModelParams, i_par,
                        band=None) -> dict:
    """Per-bin deviation of the estimate from the analytic spectrum.

    Deviations are measured in units of each bin's standard error
    (analytic value times the Welch relative error); the comparison
    passes when the maximum over the trusted band stays within 4.  The
    default band is omega in [0.1, 10]*gamma_orth, clipped to a quarter
    of the sampling bandwidth where the Euler-Maruyama discretization is
    faithful.
    """
    gorth = params.gamma_orth
    nyquist = math.pi / estimate.dt
    lo, hi = band if band is not None else (0.1 * gorth, 10.0 * gorth)
    hi = min(hi, _TRUSTED_NYQUIST * nyquist)
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi) & (estimate.freqs > 0)
    if not np.any(mask):
        raise BandMismatch(
            f"no PSD bins inside the trusted band [{lo!r}, {hi!r}]")
    om = estimate.freqs[mask]
    analytic = orth_phase_variance_reduced(params, i_par, om)
    sigma = analytic * estimate.rel_std_err
    dev = np.abs(estimate.psd[mask] - analytic) / sigma
    worst = int(np.argmax(dev))
    return {
        "max_sigma_deviation": float(dev[worst]),
        "pass": bool(dev[worst] <= 4.0),
        "n_bins": int(len(om)),
        "worst_omega": float(om[worst]),
        "band": (float(om[0]), float(om[-1])),
        "analytic": analytic,
        "omegas": om,
        "psd": estimate.psd[mask],
        "deviations": dev,
    }
