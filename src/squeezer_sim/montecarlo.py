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

The output spectrum is a Hann-windowed, 50%-overlap Welch estimate in
the two-sided density convention.  It is computed one-sided and a block
of segments at a time: for a real series the interior one-sided bins,
left undoubled, are exactly the two-sided density at f >= 0, and the
unpaired Nyquist bin is dropped because the two-sided f >= 0 half has
none.  Both halves of the data path work in place on a few series-length
buffers: a simulation of n steps peaks at about 3n doubles, and the
estimate adds about one series length (its segment-by-bin matrix) on
top of the run it reads.

Seeding uses a counter-based generator (Philox), so every run is fully
reproducible from (seed, dt, duration) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandMismatch, DomainError, TooShort
from .params import ModelParams
from .spectra import orth_phase_variance_reduced
from .steadystate import orth_threshold_intensity

__all__ = ["SdeRun", "PsdEstimate", "simulate_decoupled", "estimate_psd",
           "compare_to_analytic"]

# Squared overlap correlation of Hann-windowed periodograms at 50% hop.
_HANN_OVERLAP_RHO = 1.0 / 9.0
_MIN_SEGMENT = 64
# Segments per spectrogram call in estimate_psd: bounds the complex
# working set to a few MB whatever the series length.
_SEGMENT_BLOCK = 32


@dataclass(frozen=True)
class SdeRun:
    """One Euler-Maruyama realization of the decoupled phase quadrature."""

    seed: int
    dt: float
    duration: float
    series_out: np.ndarray
    series_cavity: np.ndarray
    params: dict
    i_par: float

    def __post_init__(self):
        if len(self.series_out) != len(self.series_cavity):
            raise ValueError("output and cavity series must have equal length")

    @property
    def relaxation_rate(self) -> float:
        gorth = self.params["gamma_orth_c"] + self.params["gamma_orth_l"]
        return gorth + self.params["nl_coupling_mu"] * self.i_par


@dataclass(frozen=True)
class PsdEstimate:
    """Welch estimate of the two-sided output PSD, QNL-normalized."""

    freqs: np.ndarray  # angular, rad/s, ascending, >= 0
    psd: np.ndarray
    n_segments: int
    rel_std_err: float
    dt: float
    params: dict = field(default_factory=dict)
    i_par: float = 0.0

    def __post_init__(self):
        if np.any(self.psd <= 0) or np.any(~np.isfinite(self.psd)):
            raise ValueError("PSD estimate must be finite and positive")
        if self.n_segments < 1 or not 0 < self.rel_std_err < 1:
            raise ValueError("implausible Welch averaging statistics")


def simulate_decoupled(params: ModelParams, i_par, seed: int, dt: float,
                       duration: float, *, channel_gains=(1.0, 1.0),
                       y0: float = 0.0, increments=None) -> SdeRun:
    """Euler-Maruyama run of the decoupled equation plus output relation.

    `channel_gains`, `y0` and `increments` are test hooks: they scale or
    replace the two noise channels (e.g. to watch the noise-free decay,
    or to couple runs at different dt through shared Brownian paths).
    """
    # scipy.signal is imported here and in estimate_psd rather than at
    # module level: it costs about a second and tens of MB, and importing
    # the package should not pay that for work that never simulates.
    from scipy.signal import lfilter

    i = float(i_par)
    top = orth_threshold_intensity(params)
    if not 0.0 <= i <= top * (1.0 + 1e-12):
        raise DomainError(f"i_par must lie in [0, {top!r}], got {i!r}")
    lam = params.gamma_orth + params.nl_coupling_mu * i
    if dt <= 0 or dt > 0.1 / lam:
        raise DomainError(
            f"dt must satisfy 0 < dt <= 0.1/relaxation rate = {0.1 / lam!r}")
    n = int(duration / dt)
    if n < 2:
        raise DomainError("duration must cover at least two steps")
    g1 = channel_gains[0] * math.sqrt(2.0 * params.gamma_orth_l)
    g2 = channel_gains[1] * math.sqrt(2.0 * params.gamma_orth_c)
    a = 1.0 - lam * dt
    # y[0] = y0 and y[k+1] = a*y[k] + drive[k] is lfilter's plain
    # recurrence on the input (y0, drive[0], ..., drive[n-1]), so the
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
    drive += g2 * dw2
    y = lfilter([1.0], [1.0, -a], x)
    del x, drive  # free the input buffer before `out` is allocated
    # Output over step k: boxcar average of the cavity field minus the
    # boxcar-averaged reflected input, sharing the same in2 increment.
    dw2 /= dt
    out = y[:-1] + y[1:]
    out *= math.sqrt(2.0 * params.gamma_orth_c) * 0.5
    out -= dw2
    return SdeRun(seed=int(seed), dt=float(dt), duration=float(duration),
                  series_out=out, series_cavity=y[:-1],
                  params=params.as_dict(), i_par=i)


def _transient_samples(run: SdeRun) -> int:
    return int(math.ceil(10.0 / run.relaxation_rate / run.dt))


def estimate_psd(run: SdeRun, n_segments: int) -> PsdEstimate:
    """Hann-windowed 50%-overlap Welch estimate of the output PSD.

    The scaling is the plain two-sided density in angular-frequency
    convention, under which a pure vacuum input (i_par = 0) comes out
    flat at 1; there is no post-hoc calibration factor.

    The periodograms are one-sided and computed `_SEGMENT_BLOCK`
    segments at a time into one (nperseg//2 + 1, k) matrix, whose
    segment mean is the estimate.  For a real series the interior
    one-sided bins are the two-sided density at +f before any folding,
    so without the usual doubling they are exactly the two-sided values;
    the unpaired Nyquist bin is dropped, as the two-sided f >= 0 half
    has no +fs/2 bin.  A block of segments equals the same columns of
    the whole-series spectrogram, and the mean runs along the same
    contiguous rows, so the result has the same bytes as a whole-series
    two-sided Welch call at f >= 0, with a working set of about one
    series length instead of about eight.
    """
    from scipy.signal import ShortTimeFFT, get_window

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
    # phase_shift=None, as in scipy's welch: each segment goes to the FFT
    # as it is, without the circular shift (and copy) of the default.
    sft = ShortTimeFFT(get_window("hann", nperseg), hop, 1.0 / run.dt,
                       fft_mode="onesided", scale_to="psd", phase_shift=None)
    pxx = np.empty((hop + 1, k))
    # With k_offset=hop, segment p covers samples [p*hop, p*hop + nperseg).
    for p0 in range(0, k, _SEGMENT_BLOCK):
        p1 = min(p0 + _SEGMENT_BLOCK, k)
        pxx[:, p0:p1] = sft.spectrogram(x, detr=None, p0=p0, p1=p1,
                                        k_offset=hop)
    freqs = 2.0 * math.pi * sft.f[:-1]
    psd = pxx.mean(axis=-1)[:-1]
    rel = math.sqrt((1.0 + 2.0 * _HANN_OVERLAP_RHO * (k - 1) / k) / k)
    return PsdEstimate(freqs=freqs, psd=psd, n_segments=k, rel_std_err=rel,
                       dt=run.dt, params=dict(run.params), i_par=run.i_par)


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
    hi = min(hi, nyquist / 4.0)
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi) & (estimate.freqs > 0)
    if not np.any(mask):
        raise BandMismatch(
            f"no PSD bins inside the trusted band [{lo!r}, {hi!r}]")
    om = estimate.freqs[mask]
    analytic = np.array(
        [orth_phase_variance_reduced(params, i_par, w) for w in om])
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
