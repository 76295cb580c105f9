"""Linearized-Langevin phase-quadrature noise spectra.

Conventions used everywhere in this module:

  * every vacuum input channel has unit two-sided spectral density, so
    the quantum noise limit (QNL) sits at variance 1 and squeezing means
    V < 1;
  * omega is an angular analysis frequency in rad/s ("2 MHz" is
    omega = 4 pi x 10^6 s^-1);
  * decibels are 10*log10(V), negative for squeezing.

In region ii the orthogonally polarized mode decouples from the laser
noise and its phase quadrature obeys a damped equation with rate
gamma_orth + mu*i_par driven by the two loss ports.  Its output
spectrum is

    V(omega) = 1 - 2*gc*(G*(s3 - s2) - 2*gpar)
                   / ((gorth - gpar + G*(s3 - s2)/2)^2 + omega^2)

which the gain-clamping identity G(s3 - s2) = 2*gpar + 2*mu*i_par turns
into the reduced form

    V(omega) = 1 - 4*gc*mu*i_par / ((gorth + mu*i_par)^2 + omega^2)

depending only on mu, the orthogonal-mode decays and the operating
intensity.  These closed forms are the production path in region ii.
Nothing here compares a pump with a threshold: a point goes by the
regime `steady_state` settles on, and a pump grid by the same rule
applied row by row in `steadystate`.
One input-output solve, `output_phase_variances` on the phase block of
`model.phase_drift`, gives the coupled pair of region iii and checks
the reduced form (`check`'s route_equivalence).  The region-ii
populations are derived from i_par, so whether that state is a fixed
point at all is checked separately, against the rate equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, SingularMatrix, WrongRegime
from .params import ModelParams, as_pump
from .steadystate import (
    Regime,
    _grid_branches,
    as_pumps,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    steady_state,
)

__all__ = [
    "SpectrumCurve",
    "PumpSweep",
    "PhasePairVariance",
    "output_phase_variances",
    "orth_phase_variance",
    "orth_phase_variance_reduced",
    "threshold_variance",
    "to_decibel",
    "pump_sweep_curve",
    "frequency_sweep_curve",
    "regime3_phase_pair_spectrum",
]


@dataclass(frozen=True)
class SpectrumCurve:
    """Phase-quadrature variance versus analysis frequency, validated."""

    omegas: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, float)
        var = np.asarray(self.variances, float)
        if om.shape != var.shape or om.ndim != 1:
            raise ValueError("omegas and variances must be 1-d and equal length")
        if len(om) and (om[0] < 0 or np.any(np.diff(om) <= 0)):
            raise ValueError("omegas must be >= 0 and strictly increasing")
        if np.any(~np.isfinite(var)) or np.any(var <= 0):
            raise DomainError("every variance must be finite and > 0")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "variances", var)


@dataclass(frozen=True)
class PumpSweep:
    """Variance at one omega across a pump grid, one row per pump rate.

    `status` is "ok", "below_laser" (reported at the QNL, variance 1) or
    "above_orth", where the orthogonal mode oscillates (or
    `steady_state` raises) and the variance is NaN.
    """

    pumps: np.ndarray
    variances: np.ndarray
    status: np.ndarray


def _check_omega(omega: float) -> float:
    w = float(omega)
    if not math.isfinite(w) or w < 0:
        raise DomainError("omega must be finite and >= 0")
    return w


def orth_phase_variance(params: ModelParams, pump, omega) -> float:
    """Output phase-quadrature variance of the dark orthogonal mode.

    Full form in terms of the region-ii populations; only valid while
    the orthogonal mode is actually dark, so it raises WrongRegime
    unless `steady_state` settles in region ii at this pump.
    """
    w = _check_omega(omega)
    g = as_pump(pump)
    ss = steady_state(params, g)
    if ss.regime is not Regime.LaserOnly:
        raise WrongRegime(f"pump {g!r} is not in the lasing-only region")
    G = params.stim_rate_G
    inv = ss.sigma3 - ss.sigma2
    num = 2.0 * params.gamma_orth_c * (G * inv - 2.0 * params.gamma_par)
    den = (params.gamma_orth - params.gamma_par + 0.5 * G * inv) ** 2 + w * w
    return 1.0 - num / den


# Above about 1.34e154 rad/s omega^2 overflows to inf and V is 1, the
# QNL, as the scalar forms give it silently in floats.
@np.errstate(over="ignore")
def orth_phase_variance_reduced(params: ModelParams, i_par, omega) -> float | np.ndarray:
    """Same spectrum in terms of the operating intensity alone.

    V = 1 - 4*gc*mu*i / ((gorth + mu*i)^2 + omega^2).  Independent of G,
    k2 and k3, which is what makes the headline squeezing numbers
    reproducible without the unspecified laser constants.  i_par and
    omega broadcast together: a float when both are scalars or 0-d, else
    an ndarray whose every element has the bits of the call at that
    point.  A bad omega or i_par raises DomainError naming the first one.
    """
    w = np.asarray(omega, float)
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise DomainError("omega must be finite and >= 0")
    mu_i = params.nl_coupling_mu * _gate_intensity(params, i_par)
    rate = params.gamma_orth + mu_i
    # The square is a product: `**` would call libm's pow, which is not
    # correctly rounded for about one argument in a thousand.
    v = 1.0 - 4.0 * params.gamma_orth_c * mu_i / (rate * rate + w * w)
    return v if v.ndim else float(v)


def _gate_intensity(params: ModelParams, i_par):
    """i_par through `np.asarray`, clamped to gamma_orth/mu.

    Raises DomainError unless every element lies in [0, gamma_orth/mu],
    with 1e-12 relative slack above, which the clamp removes.
    """
    i = np.asarray(i_par, float)
    top = orth_threshold_intensity(params)
    bad = ~(np.isfinite(i) & (i >= 0.0) & (i <= top * (1.0 + 1e-12)))
    if bad.any():
        raise DomainError(f"i_par must lie in [0, {top!r}], "
                          f"got {float(i[bad].flat[0])!r}")
    return np.minimum(i, top)


def threshold_variance(params: ModelParams, omega) -> float:
    """Squeezing at the orthogonal-mode oscillation threshold.

    V = 1 - 4*gc*gorth / (4*gorth^2 + omega^2), the i_par = gorth/mu
    limit of the reduced form.
    """
    w = _check_omega(omega)
    gorth = params.gamma_orth
    return 1.0 - 4.0 * params.gamma_orth_c * gorth / (4.0 * gorth * gorth + w * w)


def to_decibel(variance):
    """Variance as a power ratio in dB; negative means squeezing.

    A float for a scalar or 0-d variance, else an ndarray of the same
    shape.  A variance that is not finite and > 0 raises DomainError
    naming the first one.  Each value goes through `math.log10`, since
    numpy's log10 differs from libm's in the last bit for about one
    value in five.
    """
    v = np.asarray(variance, float)
    bad = ~(np.isfinite(v) & (v > 0.0))
    if bad.any():
        raise DomainError("variance must be > 0 for dB conversion, "
                          f"got {float(v[bad].flat[0])!r}")
    logs = np.fromiter(map(math.log10, v.ravel().tolist()), float, v.size)
    db = 10.0 * logs.reshape(v.shape)
    return db if db.ndim else float(db)


def frequency_sweep_curve(params: ModelParams, i_par, omega_grid) -> SpectrumCurve:
    """Reduced-form variance across an increasing grid of frequencies."""
    om = np.asarray(omega_grid, float)
    return SpectrumCurve(omegas=om,
                         variances=orth_phase_variance_reduced(params, i_par, om))


def pump_sweep_curve(params: ModelParams, omega, pumps) -> PumpSweep:
    """Variance at fixed omega versus pump across region ii.

    The pump axis is a 1-D grid of pump rates; returns a `PumpSweep`
    with one row per grid pump, in grid order.  Each row goes by the
    branch `steady_state` takes at its pump, through the grid rule
    `steady_state_sweep` uses: the dark state is reported at the QNL
    (V = 1), the lasing branch at the reduced form of its intensity,
    and a pump past the instability (or one where `steady_state` raises)
    is flagged per row rather than failing the sweep.  A grid pump that
    is negative or not finite raises InvalidParams, a grid that is not
    1-D ValueError.
    """
    w = _check_omega(omega)
    g_laser = laser_threshold(params)  # each raises Unreachable with its reason
    g_orth = orth_threshold_pump(params)
    g = as_pumps(pumps)
    dark, lasing, i_par, *_ = _grid_branches(params, g, g_laser, g_orth)
    variance = np.full(len(g), np.nan)
    variance[dark] = 1.0
    variance[lasing] = orth_phase_variance_reduced(params, i_par, w)
    status = np.full(len(g), "above_orth", "<U11")
    status[dark] = "below_laser"
    status[lasing] = "ok"
    return PumpSweep(g, variance, status)


# ---------------------------------------------------------------------------
# Input-output solve of the phase quadratures; the region-iii pair.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePairVariance:
    """Output phase variances of both modes in region iii."""

    v_orth: float
    v_par: float


# Column of each mode's output-coupler vacuum in `_phase_noise`.
_COUPLER_PORT = (2, 4)


def _phase_noise(params: ModelParams, a: float, b: float):
    """Noise map of (Y_par, Y_orth) on unit vacuum inputs: the shared
    second-harmonic port, then each mode's passive loss and coupler.
    """
    rm = 2.0 * math.sqrt(params.nl_coupling_mu)
    return ((rm * a, math.sqrt(2.0 * params.gamma_par_l),
             math.sqrt(2.0 * params.gamma_par_c), 0.0, 0.0),
            (-rm * b, 0.0, 0.0, math.sqrt(2.0 * params.gamma_orth_l),
             math.sqrt(2.0 * params.gamma_orth_c)))


def output_phase_variances(params: ModelParams, drift, a: float, b: float,
                           modes, omega) -> list[float]:
    """Output phase-quadrature variance of each mode in `modes`.

    Modes are 0 (parallel) and 1 (orthogonal), and drift is the block of
    `model.phase_drift` over them at amplitudes (a, b).  By input-output
    theory (Gardiner & Collett, PRA 31, 3761, 1985) the quadratures solve
    (i w - A) Y = B Z for the vacuum inputs Z of `_phase_noise`, and mode
    j leaves as sqrt(2 gc_j) Y_j - Z_j, Z_j its own coupler vacuum:

        V_j = sum_k |sqrt(2 gc_j) [(i w - A)^-1 B]_jk - delta(k, coupler_j)|^2

    Raises SingularMatrix where i w - A is singular: at omega = 0 in
    region iii, where the global phase is free.
    """
    w = _check_omega(omega)
    M = [[(1j * w if j == k else 0.0) - x for k, x in enumerate(row)]
         for j, row in enumerate(drift)]
    # det(M / scale) stays finite where det(M) would overflow.
    scale = max(abs(x) for row in M for x in row)
    if abs(np.linalg.det(np.divide(M, scale))) <= 1e-12:
        raise SingularMatrix(
            f"(i w I - A) singular at omega {w!r} (free-phase direction)")
    noise = _phase_noise(params, a, b)
    T = np.linalg.solve(M, [noise[m] for m in modes])
    couplers = (params.gamma_par_c, params.gamma_orth_c)
    variances = []
    for row, m in zip(T, modes):
        out = math.sqrt(2.0 * couplers[m]) * row
        out[_COUPLER_PORT[m]] -= 1.0
        variances.append(float(np.sum(np.abs(out) ** 2)))
    return variances


def regime3_phase_pair_spectrum(params: ModelParams, pump, omega) -> PhasePairVariance:
    """Coupled phase-quadrature output variances in region iii.

    `output_phase_variances` of both modes, with the model's phase block
    at the region-iii steady state; WrongRegime unless `steady_state`
    settles in region iii at this pump.
    """
    w = _check_omega(omega)
    g = as_pump(pump)
    ss = steady_state(params, g)
    if ss.regime is not Regime.OrthExcited:
        raise WrongRegime(f"pump {g!r} is not in the orth-excited region")
    a, b = ss.a_par, ss.a_orth
    drift = model.phase_drift(params, a, b, ss.sigma2, ss.sigma3)
    v_par, v_orth = output_phase_variances(params, drift, a, b, (0, 1), w)
    return PhasePairVariance(v_orth=v_orth, v_par=v_par)
