"""Time integration of the semiclassical equations and local stability.

This module is the brute-force oracle for the closed-form steady states:
`settle` integrates from a seeded ground state until the flow stalls and
classifies what it landed on.  Integration uses the linearly implicit,
L-stable Rosenbrock 2(3) pair of `ode23s` (Shampine & Reichelt, SIAM J.
Sci. Comput. 18, 1997) with the analytic `model.jacobian`.  The lower
lasing level is routinely the fastest rate in the system by many
decades; an L-stable method damps it at any step size, so the step is
set by accuracy alone and no stability cap is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import NoConvergence, NonFiniteState, StepUnderflow, Unreachable
from .params import ModelParams, as_pump
from .steadystate import (
    Regime,
    SteadyState,
    laser_only_branch,
    laser_threshold,
    orth_threshold_intensity,
    steady_state,
    zero_field_populations,
)

__all__ = [
    "StateVector",
    "Trajectory",
    "derivatives",
    "integrate",
    "settle",
    "jacobian",
    "stability",
    "export_trajectory_csv",
]

_STALL_REL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Real field amplitudes and scaled populations."""

    a_par: float
    a_orth: float
    sigma1: float
    sigma2: float
    sigma3: float

    def to_array(self) -> np.ndarray:
        return np.array([self.a_par, self.a_orth,
                         self.sigma1, self.sigma2, self.sigma3])

    @classmethod
    def from_array(cls, y) -> "StateVector":
        return cls(*map(float, y))


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps plus step-acceptance diagnostics."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 5), rows aligned with times
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> StateVector:
        return StateVector.from_array(self.states[-1])


def derivatives(state: StateVector, params: ModelParams, pump) -> StateVector:
    """Right-hand sides of the five equations of motion at this state."""
    return StateVector.from_array(
        model.rhs(state.to_array(), params, as_pump(pump)))


def jacobian(state: StateVector | np.ndarray, params: ModelParams, pump) -> np.ndarray:
    """Analytic 5x5 Jacobian of the flow at this state."""
    y = state.to_array() if isinstance(state, StateVector) else np.asarray(state, float)
    return model.jacobian(y, params, as_pump(pump))


# ode23s coefficients: d makes the pair L-stable, e32 weights the
# third-order stage that only serves the error estimate.
_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_CONSECUTIVE_REJECTS = 60


def _norm(v) -> float:
    return math.sqrt(float(v @ v))


def _rosenbrock23(f, jac, y0, t_end: float, rtol: float, atol: float,
                  record: bool = False, stall_rel: float | None = None) -> dict:
    """Integrate the autonomous system dy/dt = f(y) from 0 to t_end.

    Each step inverts W = I - h*d*J once, with J = jac(y) at the start
    of the step, applies it to three stage right-hand sides and advances
    the second-order solution; the third stage only estimates the error.
    f at the new state is the next step's first stage (FSAL), so the
    stall test is free: with `stall_rel`, integration stops once
    |f| < stall_rel*|y| at an accepted state.  Returns the final (t, y), the recorded path when
    `record`, a `stalled` flag and step counts.
    """
    y = np.asarray(y0, float).copy()
    eye = np.eye(len(y))
    inv_n = 1.0 / len(y)
    t = 0.0
    f0 = f(y)
    nfev = 1
    naccept = nreject = rejects = 0
    ts, ys = [0.0], [y.copy()]

    fnorm = _norm(f0)
    h = t_end if fnorm == 0.0 else min(
        t_end, 0.01 * (atol + rtol * _norm(y)) / fnorm)
    stalled = bool(stall_rel is not None and fnorm < stall_rel * _norm(y))
    J = None
    while t < t_end and not stalled:
        h = min(h, t_end - t)
        if h < 1e-16 * t_end:
            raise StepUnderflow(f"step {h!r} underflowed at t = {t!r}")
        if J is None:
            J = jac(y)
        W_inv = np.linalg.inv(eye - (h * _D) * J)
        k1 = W_inv @ f0
        f1 = f(y + (0.5 * h) * k1)
        k2 = W_inv @ (f1 - k1) + k1
        y_new = y + h * k2
        f2 = f(y_new)
        k3 = W_inv @ (f2 - _E32 * (k2 - f1) - 2.0 * (k1 - f0))
        nfev += 2
        q = (h / 6.0) * (k1 - 2.0 * k2 + k3) / (atol + rtol * np.abs(y_new))
        err_norm = math.sqrt(float(q @ q) * inv_n)
        if not math.isfinite(err_norm):
            rejects += 1
            nreject += 1
            if rejects > _MAX_CONSECUTIVE_REJECTS:
                raise NonFiniteState(f"state diverged near t = {t!r}")
            h *= _MIN_FACTOR
            continue
        if err_norm <= 1.0:
            t += h
            y, f0, J = y_new, f2, None
            naccept += 1
            rejects = 0
            if record:
                ts.append(t)
                ys.append(y.copy())
            if stall_rel is not None and _norm(f0) < stall_rel * _norm(y):
                stalled = True
            h *= _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** (-1.0 / 3.0))
        else:
            rejects += 1
            nreject += 1
            if rejects > _MAX_CONSECUTIVE_REJECTS:
                raise StepUnderflow(f"repeated step rejections at t = {t!r}")
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / 3.0))

    if not np.all(np.isfinite(y)):
        raise NonFiniteState("integration produced non-finite state values")
    return {
        "t": t,
        "y": y,
        "ts": np.array(ts) if record else None,
        "ys": np.array(ys) if record else None,
        "stalled": stalled,
        "nfev": nfev,
        "n_accepted": naccept,
        "n_rejected": nreject,
    }


def integrate(params: ModelParams, pump, init, t_end: float,
              rel_tol: float = 1e-8, abs_tol: float = 1e-12) -> Trajectory:
    """Adaptive Rosenbrock 2(3) trajectory from `init` over [0, t_end].

    Every accepted step is recorded.  Deterministic for identical
    inputs; raises StepUnderflow when the controller drives the step
    below 1e-16 of the span and NonFiniteState when the state blows up.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be > 0")
    g = as_pump(pump)
    y0 = init.to_array() if isinstance(init, StateVector) else np.asarray(init, float)
    out = _rosenbrock23(lambda y: model.rhs(y, params, g),
                        lambda y: model.jacobian(y, params, g), y0, t_end,
                        rtol=rel_tol, atol=abs_tol, record=True)
    diags = {"nfev": out["nfev"], "n_accepted": out["n_accepted"],
             "n_rejected": out["n_rejected"]}
    return Trajectory(times=out["ts"], states=out["ys"], diagnostics=diags)


def _settle_t_max(params: ModelParams, pump: float) -> float:
    # Sized from the slowest bare rate, with headroom because the slow
    # eigenvalue of the mixed population-field mode in region iii can
    # undercut every bare rate by a small factor.
    rates = [params.decay_k3, params.gamma_par, params.gamma_orth]
    try:
        g_eff = max(pump, laser_threshold(params))
    except Unreachable:
        g_eff = pump
    if g_eff > 0:
        rates.append(g_eff)
    return 400.0 / min(rates)


def settle(params: ModelParams, pump, seed_amplitude: float = 1e-3,
           t_max: float | None = None) -> SteadyState:
    """Integrate from the seeded ground state until the flow stalls.

    Both amplitudes are seeded: a_orth = 0 is invariant under the flow,
    so probing region iii needs a nonzero seed.  Stops when the
    derivative norm falls below 1e-10 of the state norm; reaching t_max
    first raises NoConvergence rather than guessing.  The default t_max
    is 400 over the slowest of (k3, gamma_par, gamma_orth, pump bounded
    below by the laser threshold); pass a larger value near regime
    boundaries where critical slowing stretches the transient.
    """
    if seed_amplitude <= 0:
        raise ValueError("seed_amplitude must be > 0")
    g = as_pump(pump)
    if t_max is None:
        t_max = _settle_t_max(params, g)
    y0 = np.array([seed_amplitude, seed_amplitude, 1.0, 0.0, 0.0])
    # Path accuracy is not what matters here: every Rosenbrock stage is
    # W^-1 applied to a combination of f values, so the stages vanish
    # where f = 0 and equilibria are preserved exactly.  The endpoint quality is set by
    # the stall criterion, not by the tolerances, and loose-ish
    # tolerances keep the walk towards the attractor cheap.
    out = _rosenbrock23(lambda y: model.rhs(y, params, g),
                        lambda y: model.jacobian(y, params, g), y0, t_max,
                        rtol=1e-7, atol=1e-9, stall_rel=_STALL_REL)
    if not out["stalled"]:
        y_end = out["y"]
        raise NoConvergence(
            f"derivative norm {np.linalg.norm(model.rhs(y_end, params, g))!r} "
            f"still above threshold at t_max = {t_max!r}")
    y = out["y"]
    i_par, i_orth = y[0] ** 2, y[1] ** 2
    cut = 1e-12 * orth_threshold_intensity(params)
    if i_orth > cut:
        regime = Regime.OrthExcited
    elif i_par > cut:
        regime = Regime.LaserOnly
        i_orth = 0.0
    else:
        regime = Regime.BelowLaser
        i_par = i_orth = 0.0
    return SteadyState(sigma1=float(y[2]), sigma2=float(y[3]), sigma3=float(y[4]),
                       i_par=float(i_par), i_orth=float(i_orth), regime=regime)


def stability(params: ModelParams, pump, branch: Regime | None = None) -> dict:
    """Real parts of the Jacobian eigenvalues at the steady state.

    `branch` forces evaluation on a particular solution branch (for
    instance the lasing branch continued above the orthogonal-mode
    threshold, whose a_orth eigenvalue -gamma_orth + mu*i_par has gone
    positive).  The population-conservation direction contributes an
    exactly zero eigenvalue, which counts as stable.
    """
    g = as_pump(pump)
    if branch is None:
        ss = steady_state(params, g)
    elif branch is Regime.LaserOnly:
        ss = laser_only_branch(params, g)
    elif branch is Regime.BelowLaser:
        s1, s2, s3 = zero_field_populations(params, g)
        ss = SteadyState(sigma1=s1, sigma2=s2, sigma3=s3,
                         i_par=0.0, i_orth=0.0, regime=Regime.BelowLaser)
    else:
        ss = steady_state(params, g)
    J = model.jacobian(ss.state_vector(), params, g)
    real_parts = np.sort(np.linalg.eigvals(J).real)
    scale = max(params.stim_rate_G, params.decay_k2, params.decay_k3,
                params.gamma_par, params.gamma_orth, g)
    return {
        "eigen_real_parts": real_parts,
        "stable": bool(np.all(real_parts < 1e-9 * scale)),
        "steady_state": ss,
    }


def export_trajectory_csv(traj: Trajectory, path, header_comments: list[str] | None = None):
    """Write a trajectory as CSV with columns t, a_par, a_orth, sigma1..3."""
    from .csvio import write_csv

    rows = [[t, *row] for t, row in zip(traj.times, traj.states)]
    write_csv(path, ["t", "a_par", "a_orth", "sigma1", "sigma2", "sigma3"],
              rows, comments=header_comments or [])
