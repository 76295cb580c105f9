"""Stochastic verification of the analytic phase-quadrature spectrum.

The dark orthogonal mode's phase quadrature is an Ornstein-Uhlenbeck
process,

    dY = -lam Y dt + sqrt(2*gl) dW1 + sqrt(2*gc) dW2,   lam = gorth + mu*i_par,

with the measurable output Y_out = sqrt(2*gc) Y - Z_in2.  A sample of
the output over a step of length dt is the boxcar average of that
relation over the step: sqrt(2*gc) times the mean of Y over the step,
minus the in2 increment over dt.  Both halves of the sample share the
one in2 increment, and that shared increment is the cavity /
reflection cross-correlation that pushes the output below the QNL (an
independent draw would converge to an unsqueezed spectrum).

An OU process has an exact update at any step (Gillespie, PRE 54,
2084, 1996), and so does this sample.  Given the state y_k at the start
of step k, the next state and the sample are

    y_{k+1} = a y_k + e_k,      out_k = c y_k + n_k,

with a = exp(-lam dt), c = sqrt(2*gc) (1 - a)/(lam dt), and (e_k, n_k)
jointly Gaussian, independent of y_k and of every other step, with a
closed-form 2x2 covariance.  `_exact_step` writes its Cholesky factor
out in floats, so each sample costs two standard normals and there is
no discretization error at any lam*dt: no step-size gate, no transient
and no band limit below Nyquist.

A run is `segments` independent segments of `nperseg` samples each,
every one started from the stationary law N(0, (gl + gc)/lam).  They
are stepped together as the columns of one (nperseg + 1, segments)
state array, one elementwise multiply-add of a row per step, with no
BLAS call, so the bytes of a seeded run do not depend on the CPU.  Each
sample is written over the state it was formed from, so the array ends
up holding the output itself, time-major: `series_out` is its first
nperseg rows, sample k of segment j at index k*segments + j.

The output spectrum is a Hann-windowed Welch estimate (Welch, IEEE
Trans. Audio Electroacoust. 15, 70, 1967) over those segments, without
overlap, in the two-sided density convention: for a real series the
one-sided bins, left undoubled, are the two-sided density at f >= 0.
The segments are independent, so each bin's relative standard error is
1/sqrt(segments) with no overlap correction.  The estimate writes its
periodograms over the series' spent rows, so it consumes the run: a run
holds one series from its first draw to its estimate.

Draws come from numpy's default generator (PCG64), seeded by an int or
a `np.random.SeedSequence`, so a run is reproducible from (seed, dt,
duration, segments) alone.  PCG64 is chosen over Philox by speed: the
normals are most of a run's time, and with PCG64 a whole default
mc-verify run took 67 ms against 77 ms (medians of 16 runs on one CPU of
a 2-CPU x86-64 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandMismatch, DomainError, TooShort, check_fits_in_memory
from .params import ModelParams
from .spectra import _gate_intensity, orth_phase_variance_reduced

__all__ = ["SdeRun", "PsdEstimate", "run_length", "simulate_decoupled",
           "estimate_psd", "compare_to_analytic"]

_MIN_SEGMENTS = 8
# Samples per chunk of rows in simulate_decoupled (its z2 draws and
# output noise) and per batched rfft in estimate_psd: 512 KB of doubles,
# which keeps each pass over a chunk in cache.  The bytes do not depend
# on it.
_BLOCK_SAMPLES = 1 << 16
# Peak doubles per sample of a run and its estimate.  The series plus
# the simulation's chunk buffers or the estimate's FFT blocks measure
# about 1.145 series lengths under tracemalloc over a whole default
# mc-verify; tests/test_cli.py holds that run to 1.2.  The factor is
# about 1.44 times that peak, headroom for numpy's temporaries and for
# runs of other shapes.
_DOUBLES_PER_SAMPLE = 1.65


@dataclass(frozen=True)
class SdeRun:
    """One exact realization of the output, `segments` independent
    stationary segments interleaved time-major in `series_out`: sample k
    of segment j is series_out[k * segments + j].

    `estimate_psd` consumes the run: it writes its periodograms over the
    series and leaves `series_out` read-only, so read or copy the
    samples before estimating."""

    dt: float
    segments: int
    series_out: np.ndarray

    def __post_init__(self):
        if self.series_out.ndim != 1 or len(self.series_out) % self.segments:
            raise ValueError("series_out must hold `segments` equal segments")


@dataclass(frozen=True)
class PsdEstimate:
    """Welch estimate of the two-sided output PSD, QNL-normalized."""

    freqs: np.ndarray  # angular, rad/s, ascending, 0 to Nyquist
    psd: np.ndarray
    n_segments: int

    def __post_init__(self):
        if np.any(self.psd <= 0) or np.any(~np.isfinite(self.psd)):
            raise ValueError("PSD estimate must be finite and positive")
        if self.n_segments < 2:
            raise ValueError("implausible Welch averaging statistics")

    @property
    def rel_std_err(self) -> float:
        """Relative standard error of each bin, 1/sqrt(n_segments): the
        segments are independent and do not overlap."""
        return 1.0 / math.sqrt(self.n_segments)


def _relaxation_rate(params: ModelParams, i_par) -> float:
    return params.gamma_orth + params.nl_coupling_mu * float(i_par)


def _exact_step(gl: float, gc: float, lam: float, dt: float):
    """(a, c, l11, l21, l22) of one exact step of length dt.

    y_{k+1} = a y_k + l11 z1 and out_k = c y_k + l21 z1 + l22 z2 for
    independent standard normals z1, z2.  With D = 2 (gl + gc), x = lam dt
    and m = 1 - a, the innovation e and the sample's own noise n have

        var e = D m (2 - m) / (2 lam)
        cov   = -sqrt(2 gc) m (2 lam - D m) / (2 lam x)
        det   = m / (2 x^2) [2 gl x (2 - m) + 2 gc (1 - D/lam)^2 p],

    p = 2 (x - m) - m x, a sum of nonnegative terms.  m comes from expm1,
    so a small x does not cancel.  p itself (about x^3/6) carries an
    absolute error of a few u x; weighted against 2 gl, that is a few
    u gc/gl relative in l22^2, which grows only as gl goes to 0.
    """
    d = 2.0 * (gl + gc)
    x = lam * dt
    m = -math.expm1(-x)
    g2 = math.sqrt(2.0 * gc)
    l11 = math.sqrt(-d * math.expm1(-2.0 * x) / (2.0 * lam))
    l21 = (-g2 * (1.0 - d * m / (2.0 * lam))
           * math.sqrt(2.0 * lam * m / (d * (2.0 - m))) / x)
    p = 2.0 * (x - m) - m * x
    r = 1.0 - d / lam
    l22 = math.sqrt(lam / (d * x)
                    * (2.0 * gl + 2.0 * gc * r * r * p / (x * (2.0 - m))))
    return math.exp(-x), g2 * m / x, l11, l21, l22


def run_length(params: ModelParams, i_par, dt: float, duration: float,
               segments: int) -> int:
    """Samples n of the `simulate_decoupled` run with these arguments.

    `duration` is the run's total time, split into `segments` segments of
    nperseg = duration / (dt * segments) steps, rounded to the nearest
    integer; n = segments * nperseg.  Raises the run's errors (i_par
    outside [0, gamma_orth/mu], a dt that is not positive and finite, a
    duration / dt that is not finite, buffers larger than the machine's
    physical memory: DomainError; fewer than 8 segments: ValueError;
    fewer than two steps a segment: TooShort) without allocating
    anything, so a run can be sized before it is made.
    """
    _gate_intensity(params, i_par)
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    steps = duration / dt
    if not math.isfinite(steps):
        raise DomainError(f"duration / dt = {steps!r} is not a finite step count")
    if segments < _MIN_SEGMENTS:
        raise ValueError(f"segments must be >= {_MIN_SEGMENTS}")
    nperseg = round(steps / segments)
    if nperseg < 2:
        raise TooShort(f"duration must cover at least two steps in each of "
                       f"{segments} segments")
    n = segments * nperseg
    check_fits_in_memory(8 * _DOUBLES_PER_SAMPLE * n, f"a run of {n} steps",
                         "shorten duration or raise dt")
    return n


def simulate_decoupled(params: ModelParams, i_par, seed, dt: float,
                       duration: float, segments: int) -> SdeRun:
    """Exact run of the decoupled equation plus output relation.

    `seed` is an int or a `np.random.SeedSequence`.  The draws are the
    segments' stationary starts, then the z1 of every step, then the z2
    of every step, each in time-major order.  The z2 are drawn a chunk
    of rows at a time into one reused buffer, which consumes the stream
    as one whole draw would, and each chunk's output is written over the
    chunk's states once every step from them is taken, so the run holds
    one series length plus two chunks.
    """
    nperseg = run_length(params, i_par, dt, duration, segments) // segments
    lam = _relaxation_rate(params, i_par)
    gl, gc = params.gamma_orth_l, params.gamma_orth_c
    a, c, l11, l21, l22 = _exact_step(gl, gc, lam, dt)
    rng = np.random.default_rng(seed)
    # Row k of y is the state at the start of step k in every segment:
    # row 0 the stationary start, rows 1.. first the z1 of each step.
    # Rows 0..nperseg-1 end as the output samples of each step.
    y = rng.standard_normal((nperseg + 1, segments))
    y[0] *= math.sqrt((gl + gc) / lam)
    rows = max(1, _BLOCK_SAMPLES // segments)
    noise = np.empty((rows, segments))
    term = np.empty((rows, segments))
    row = np.empty(segments)
    for k0 in range(0, nperseg, rows):
        k1 = min(k0 + rows, nperseg)
        # The chunk's output noise l22 z2 + l21 z1, formed while rows
        # k0+1..k1 still hold the raw z1.
        n = rng.standard_normal(out=noise[:k1 - k0])
        n *= l22
        z1 = y[k0 + 1:k1 + 1]
        n += np.multiply(z1, l21, out=term[:k1 - k0])
        z1 *= l11
        for k in range(k0, k1):
            y[k + 1] += np.multiply(y[k], a, out=row)
        # Every step from states k0..k1-1 is taken, so the chunk's output
        # c y + noise is written over them.
        done = y[k0:k1]
        done *= c
        done += n
    return SdeRun(dt=float(dt), segments=segments,
                  series_out=y[:nperseg].reshape(-1))


def _welch_window(nperseg: int, dt: float):
    """Density-scaled periodic Hann window and one-sided grid in Hz, as
    scipy's ShortTimeFFT(..., scale_to="psd") builds them: a general
    cosine, scaled over the sampling period 1/fs, which is not always dt.
    """
    period = 1.0 / (1.0 / dt)
    win = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1)[:-1])
    win *= 1.0 / np.sqrt(sum((win * win).tolist()) / period)
    return win, np.fft.rfftfreq(nperseg, period)


def estimate_psd(run: SdeRun) -> PsdEstimate:
    """Hann-windowed Welch estimate of the output PSD over the run's
    segments, without overlap.

    The scaling is the plain two-sided density in angular-frequency
    convention, under which a pure vacuum input (i_par = 0) comes out
    flat at 1; there is no post-hoc calibration factor.

    Blocks of whole segments, about `_BLOCK_SAMPLES` samples each, are
    copied as column blocks of the time-major series into one reused
    buffer, multiplied there by the psd-scaled Hann window (a strided
    multiply would buffer both operands) and transformed by a
    single `rfft` down the columns into another; their squared
    magnitudes are written over rows 0..bins-1 of the block's own
    columns of the series, whose first `bins` rows end as the (bins,
    segments) periodogram matrix; its segment mean is the estimate.  The
    window, its scaling and the frequency grid are computed as scipy's
    ShortTimeFFT does, and each bin's row of the matrix is contiguous,
    so the mean sums in the same order and the bins have the same bytes
    as `scipy.signal.welch(..., noverlap=0, return_onesided=False)` on
    the segments laid end to end, at f >= 0.

    The estimate consumes the run: `run.series_out` no longer holds the
    samples and is left read-only, and a second `estimate_psd` on the
    same run raises ValueError.  Besides the series it needs only the two
    block buffers.
    """
    if not run.series_out.flags.writeable:
        raise ValueError("run.series_out is read-only: estimate_psd has "
                         "already consumed this run, whose first rows now "
                         "hold periodograms")
    m = run.segments
    x = run.series_out.reshape(-1, m)
    # Marked consumed before the first write, so a run that an error
    # interrupts is not estimated again either; x keeps its own flag.
    run.series_out.flags.writeable = False
    nperseg = x.shape[0]
    win, freqs = _welch_window(nperseg, run.dt)
    win = win[:, None]
    bins = len(freqs)
    block = max(1, _BLOCK_SAMPLES // nperseg)
    windowed = np.empty(nperseg * block)
    spectra = np.empty((block, bins), dtype=complex)
    for p0 in range(0, m, block):
        p1 = min(p0 + block, m)
        # Contiguous on a partial last block too, where a column slice
        # would make the window multiply buffer its operands.
        seg = windowed[:nperseg * (p1 - p0)].reshape(nperseg, p1 - p0)
        np.copyto(seg, x[:, p0:p1])
        seg *= win
        spec = np.fft.rfft(seg, axis=0, out=spectra[:p1 - p0].T).T
        # |X|^2 in place in the spectra's own real parts, each segment's
        # row contiguous, then written over rows 0..bins-1 of the block's
        # own columns: the window multiply has read them in full, later
        # blocks read only other columns, and bins <= nperseg.
        re, im = spec.real, spec.imag
        np.square(re, out=re)
        np.square(im, out=im)
        re += im
        x[:bins, p0:p1] = re.T
    return PsdEstimate(freqs=2.0 * math.pi * freqs,
                       psd=x[:bins].mean(axis=-1), n_segments=m)


def _default_band(params: ModelParams) -> tuple:
    """compare_to_analytic's default band, omega in [0.1, 10]*gamma_orth."""
    return 0.1 * params.gamma_orth, 10.0 * params.gamma_orth


def compare_to_analytic(estimate: PsdEstimate, params: ModelParams, i_par,
                        band=None) -> dict:
    """Per-bin deviation of the estimate from the analytic spectrum.

    Deviations are measured in units of each bin's standard error
    (analytic value times the Welch relative error); the comparison
    passes when the maximum over the band stays within 4.  The default
    band is omega in [0.1, 10]*gamma_orth.
    """
    lo, hi = band if band is not None else _default_band(params)
    mask = (estimate.freqs >= lo) & (estimate.freqs <= hi) & (estimate.freqs > 0)
    if not np.any(mask):
        raise BandMismatch(f"no PSD bins inside the band [{lo!r}, {hi!r}]")
    om = estimate.freqs[mask]
    analytic = orth_phase_variance_reduced(params, i_par, om)
    sigma = analytic * estimate.rel_std_err
    dev = np.abs(estimate.psd[mask] - analytic) / sigma
    worst = float(dev.max())
    return {
        "max_sigma_deviation": worst,
        "pass": worst <= 4.0,
        "n_bins": int(len(om)),
        "analytic": analytic,
        "omegas": om,
        "psd": estimate.psd[mask],
        "deviations": dev,
    }
