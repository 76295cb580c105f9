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
intensity.  Both routes are implemented and must agree to 1e-12; their
agreement validates the clamping algebra and the spectrum itself.  The
region-ii populations are derived from i_par, so whether that state is a
fixed point at all is checked separately, against the rate equations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularMatrix, WrongRegime
from .params import ModelParams, as_pump
from .steadystate import (
    Regime,
    classify_regime,
    laser_branch_intensity,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    regime_thresholds,
    steady_state,
)

__all__ = [
    "Quadrature",
    "NoiseChannel",
    "SpectrumCurve",
    "PumpSweepPoint",
    "PumpSweepCurve",
    "PhasePairVariance",
    "orth_phase_variance",
    "orth_phase_variance_reduced",
    "threshold_variance",
    "to_decibel",
    "pump_sweep_curve",
    "frequency_sweep_curve",
    "regime3_phase_pair_spectrum",
]


class Quadrature(enum.Enum):
    """Amplitude (X) or phase (Y) quadrature selector."""

    Amplitude = "amplitude"
    Phase = "phase"


class NoiseChannel(enum.Enum):
    """Independent unit-variance vacuum inputs entering through each port."""

    PassiveLossIn = "in1"
    OutputCouplerIn = "in2"
    ShVacuumIn = "b_in"
    PumpIn = "pump"


@dataclass(frozen=True)
class SpectrumCurve:
    """Variance versus analysis frequency with its parameter snapshot."""

    omegas: np.ndarray
    variances: np.ndarray
    quadrature: Quadrature
    params: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

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
class PumpSweepPoint:
    pump: float
    pump_normalized: float
    variance: float | None
    status: str  # "ok", "below_laser" (reported at QNL) or "above_orth"


@dataclass(frozen=True)
class PumpSweepCurve:
    points: list[PumpSweepPoint]
    omega: float
    orth_threshold: float
    params: dict = field(default_factory=dict)


def _check_omega(omega: float) -> float:
    w = float(omega)
    if not math.isfinite(w) or w < 0:
        raise DomainError("omega must be finite and >= 0")
    return w


def orth_phase_variance(params: ModelParams, pump, omega) -> float:
    """Output phase-quadrature variance of the dark orthogonal mode.

    Full form in terms of the region-ii populations; only valid while
    the orthogonal mode is actually dark (region ii).
    """
    w = _check_omega(omega)
    g = as_pump(pump)
    thresholds = regime_thresholds(params)
    if classify_regime(params, g, thresholds) is not Regime.LaserOnly:
        raise WrongRegime(f"pump {g!r} is not in the lasing-only region")
    ss = steady_state(params, g, thresholds=thresholds)
    G = params.stim_rate_G
    inv = ss.sigma3 - ss.sigma2
    num = 2.0 * params.gamma_orth_c * (G * inv - 2.0 * params.gamma_par)
    den = (params.gamma_orth - params.gamma_par + 0.5 * G * inv) ** 2 + w * w
    return 1.0 - num / den


def orth_phase_variance_reduced(params: ModelParams, i_par, omega) -> float:
    """Same spectrum in terms of the operating intensity alone.

    V = 1 - 4*gc*mu*i / ((gorth + mu*i)^2 + omega^2).  Independent of G,
    k2 and k3, which is what makes the headline squeezing numbers
    reproducible without the unspecified laser constants.
    """
    w = _check_omega(omega)
    i = float(i_par)
    top = orth_threshold_intensity(params)
    if not math.isfinite(i) or i < 0 or i > top * (1.0 + 1e-12):
        raise DomainError(f"i_par must lie in [0, {top!r}], got {i!r}")
    i = min(i, top)
    mu_i = params.nl_coupling_mu * i
    num = 4.0 * params.gamma_orth_c * mu_i
    den = (params.gamma_orth + mu_i) ** 2 + w * w
    return 1.0 - num / den


def threshold_variance(params: ModelParams, omega) -> float:
    """Squeezing at the orthogonal-mode oscillation threshold.

    V = 1 - 4*gc*gorth / (4*gorth^2 + omega^2), the i_par = gorth/mu
    limit of the reduced form.
    """
    w = _check_omega(omega)
    gorth = params.gamma_orth
    return 1.0 - 4.0 * params.gamma_orth_c * gorth / (4.0 * gorth * gorth + w * w)


def to_decibel(variance: float) -> float:
    """Variance as a power ratio in dB; negative means squeezing."""
    v = float(variance)
    if not math.isfinite(v) or v <= 0:
        raise DomainError(f"variance must be > 0 for dB conversion, got {v!r}")
    return 10.0 * math.log10(v)


def frequency_sweep_curve(params: ModelParams, i_par, omega_grid) -> SpectrumCurve:
    """Reduced-form variance across an increasing grid of frequencies."""
    om = np.asarray(omega_grid, float)
    var = np.array([orth_phase_variance_reduced(params, i_par, w) for w in om])
    return SpectrumCurve(omegas=om, variances=var, quadrature=Quadrature.Phase,
                         params=params.as_dict(), metadata={"i_par": float(i_par)})


def pump_sweep_curve(params: ModelParams, omega, pumps=None,
                     normalized_pumps=None) -> PumpSweepCurve:
    """Variance at fixed omega versus pump across region ii.

    The pump axis may be given directly or normalized to the
    orthogonal-mode threshold pump.  Points below laser threshold are
    reported at the QNL (V = 1); points beyond the instability are
    flagged per point rather than failing the sweep.
    """
    w = _check_omega(omega)
    g_orth = orth_threshold_pump(params)  # may raise Unreachable
    g_laser = laser_threshold(params)
    if (pumps is None) == (normalized_pumps is None):
        raise ValueError("give exactly one of pumps or normalized_pumps")
    if normalized_pumps is not None:
        grid = [(float(x) * g_orth, float(x)) for x in normalized_pumps]
    else:
        grid = [(float(g), float(g) / g_orth) for g in pumps]
    top = orth_threshold_intensity(params)
    points = []
    for g, gn in grid:
        if g < g_laser:
            points.append(PumpSweepPoint(g, gn, 1.0, "below_laser"))
        elif g <= g_orth * (1.0 + 1e-12):
            i = min(laser_branch_intensity(params, g), top)
            points.append(PumpSweepPoint(
                g, gn, orth_phase_variance_reduced(params, i, w), "ok"))
        else:
            points.append(PumpSweepPoint(g, gn, None, "above_orth"))
    return PumpSweepCurve(points=points, omega=w, orth_threshold=g_orth,
                          params=params.as_dict())


# ---------------------------------------------------------------------------
# Region-iii extension: coupled phase-quadrature pair.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePairVariance:
    """Output phase variances of both modes with the assumption set pinned."""

    v_orth: float
    v_par: float
    omega: float
    pump: float
    metadata: dict = field(default_factory=dict)


def _phase_pair_drift(params: ModelParams, a: float, b: float) -> np.ndarray:
    """Drift matrix of (dY_par, dY_orth) at a region-iii operating point.

    Gain clamping removes the net damping of the laser phase, leaving

        dY_par:  -2 mu b^2            coupling  2 mu a b
        dY_orth: -gorth - mu(a^2-b^2) - 2 mu b^2, coupling 2 mu a b

    Both cross couplings carry the same sign: the pair must annihilate
    the global-phase direction (a, b), which is the exactly neutral mode
    of the phase dynamics, so the matrix is singular at omega = 0 and
    nowhere else.
    """
    mu = params.nl_coupling_mu
    diff = a * a - b * b
    return np.array([
        [-2.0 * mu * b * b, 2.0 * mu * a * b],
        [2.0 * mu * a * b, -params.gamma_orth - mu * diff - 2.0 * mu * b * b],
    ])


def _phase_pair_noise(params: ModelParams, a: float, b: float,
                      include_pump_noise: bool) -> tuple[np.ndarray, list]:
    """Noise input map; the frequency-doubled vacuum port is shared."""
    mu = params.nl_coupling_mu
    channels = [
        (NoiseChannel.ShVacuumIn, None),
        (NoiseChannel.PassiveLossIn, "par"),
        (NoiseChannel.OutputCouplerIn, "par"),
        (NoiseChannel.PassiveLossIn, "orth"),
        (NoiseChannel.OutputCouplerIn, "orth"),
    ]
    B = np.array([
        [2.0 * math.sqrt(mu) * a,
         math.sqrt(2.0 * params.gamma_par_l), math.sqrt(2.0 * params.gamma_par_c),
         0.0, 0.0],
        [-2.0 * math.sqrt(mu) * b,
         0.0, 0.0,
         math.sqrt(2.0 * params.gamma_orth_l), math.sqrt(2.0 * params.gamma_orth_c)],
    ])
    if include_pump_noise:
        channels.append((NoiseChannel.PumpIn, "par"))
        B = np.hstack([B, [[math.sqrt(params.stim_rate_G)], [0.0]]])
    return B, channels


def regime3_phase_pair_spectrum(params: ModelParams, pump, omega,
                                include_pump_noise: bool = False) -> PhasePairVariance:
    """Coupled phase-quadrature output variances in region iii.

    Solves (i w I - A) Y = B Z in frequency space and applies the output
    relations Y_out = sqrt(2 gc) Y - Z_in2 per mode, keeping the
    correlation between each intracavity field and its reflected
    coupler vacuum.  Whether the pump-noise channel sqrt(G) Z_p feeds
    the parallel phase row is not decidable from the drift equations
    alone; it is off by default and the choice is pinned in the result
    metadata.
    """
    w = _check_omega(omega)
    g = as_pump(pump)
    thresholds = regime_thresholds(params)
    if classify_regime(params, g, thresholds) is not Regime.OrthExcited:
        raise WrongRegime(f"pump {g!r} is not in the orth-excited region")
    ss = steady_state(params, g, thresholds=thresholds)
    a, b = ss.a_par, ss.a_orth
    A = _phase_pair_drift(params, a, b)
    B, channels = _phase_pair_noise(params, a, b, include_pump_noise)
    M = 1j * w * np.eye(2) - A
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = float(np.max(np.abs(M))) ** 2
    if abs(det) <= 1e-12 * scale:
        raise SingularMatrix(
            f"(i w I - A) singular at omega {w!r} (free-phase direction)")
    try:
        T = np.linalg.solve(M, B.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"(i w I - A) singular at omega {w!r}") from exc
    idx_par_in2, idx_orth_in2 = 2, 4
    out_par = math.sqrt(2.0 * params.gamma_par_c) * T[0]
    out_par[idx_par_in2] -= 1.0
    out_orth = math.sqrt(2.0 * params.gamma_orth_c) * T[1]
    out_orth[idx_orth_in2] -= 1.0
    meta = {
        "include_pump_noise": include_pump_noise,
        "channels": [(ch.value, mode) for ch, mode in channels],
        "cross_coupling": "global-phase neutral (+2 mu a_par a_orth both rows)",
        "i_par": ss.i_par,
        "i_orth": ss.i_orth,
    }
    return PhasePairVariance(
        v_orth=float(np.sum(np.abs(out_orth) ** 2)),
        v_par=float(np.sum(np.abs(out_par) ** 2)),
        omega=w, pump=g, metadata=meta)
