"""Time integration of the semiclassical equations and local stability.

This module is the brute-force oracle for the closed-form steady states:
`settle` integrates from a seeded ground state until the flow stalls and
classifies what it landed on.  Integration uses an embedded adaptive
Runge-Kutta 4(5) scheme with the step capped at 2/k2, since the lower
lasing level is routinely the fastest rate in the system and an explicit
method must resolve it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from ._rk45 import rk45
from .errors import NoConvergence, Unreachable
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


def _max_step(params: ModelParams) -> float:
    return 2.0 / params.decay_k2


def _stability_cap(params: ModelParams, pump: float):
    """State-dependent step cap keeping h inside the stability region.

    The 2/k2 cap alone is not enough once stimulated emission is strong:
    G*(s3 - s2)*a_par^2 entries can push the fastest local eigenvalue
    beyond k2, and a step chattering at the stability boundary floors
    the derivative norm instead of letting it decay.
    """
    def cap(y):
        # 3.0 sits inside the dopri5 real-axis stability extent (~3.3)
        # and the row-sum norm overestimates the spectral radius anyway.
        return 3.0 / max(model.jacobian_inf_norm(y, params, pump), 1e-300)

    return cap


def integrate(params: ModelParams, pump, init, t_end: float,
              rel_tol: float = 1e-8, abs_tol: float = 1e-12) -> Trajectory:
    """Adaptive RK45 trajectory from `init` over [0, t_end].

    Deterministic for identical inputs; raises StepUnderflow when the
    controller drives the step below 1e-16 of the span and
    NonFiniteState when the state blows up.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be > 0")
    g = as_pump(pump)
    y0 = init.to_array() if isinstance(init, StateVector) else np.asarray(init, float)
    out = rk45(lambda y: model.rhs(y, params, g), y0, t_end,
               rtol=rel_tol, atol=abs_tol, max_step=_max_step(params),
               record=True)
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
    is 100 over the slowest of (k3, gamma_par, gamma_orth, pump bounded
    below by the laser threshold); pass a larger value near regime
    boundaries where critical slowing stretches the transient.
    """
    if seed_amplitude <= 0:
        raise ValueError("seed_amplitude must be > 0")
    g = as_pump(pump)
    if t_max is None:
        t_max = _settle_t_max(params, g)
    y0 = np.array([seed_amplitude, seed_amplitude, 1.0, 0.0, 0.0])
    # Path accuracy is not what matters here: Runge-Kutta steps preserve
    # equilibria exactly, so the endpoint quality is set by the stall
    # criterion, not by the tolerances.  Loose-ish tolerances keep the
    # walk towards the attractor cheap.
    out = rk45(lambda y: model.rhs(y, params, g), y0, t_max,
               rtol=1e-7, atol=1e-9, max_step=_max_step(params),
               stall_rel=_STALL_REL, max_step_fn=_stability_cap(params, g))
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
