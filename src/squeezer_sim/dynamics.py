"""Time integration of the semiclassical equations and local stability.

This module is the brute-force oracle for the closed-form steady states:
`settle` integrates from a seeded ground state to t_max and classifies
the stable fixed point it lands on.  Integration uses the linearly
implicit, L-stable Rosenbrock 2(3) pair of `ode23s` (Shampine &
Reichelt, SIAM J. Sci. Comput. 18, 1997) with the analytic Jacobian, on
the reduced state (a_par, a_orth, sigma1, sigma2), sigma3 = 1 - sigma1 -
sigma2.  The lower lasing level is routinely the fastest rate in the
system by many decades; an L-stable method damps it at any step size,
so the step is set by accuracy alone.  Dropping the conserved
population sum drops the structural zero eigenvalue, which would leave
W = I - h*d*J singular to rounding once h*k2 exceeds 1/eps.
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
    steady_state,
    zero_field_populations,
)

__all__ = [
    "Trajectory",
    "integrate",
    "settle",
    "stability",
]

_MAX_RESEEDS = 3
# Amplitude `settle` seeds both fields with, and reseeds a dark field to.
_SEED_AMPLITUDE = 1e-3


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


def _reduced(params: ModelParams, pump: float):
    """(f, J) on (a_par, a_orth, s1, s2); J4 is J[:4, :4] with column 4
    subtracted from columns 2 and 3, the chain rule through sigma3."""
    def f(z):
        a, b, s1, s2 = z.tolist()
        return model.rhs((a, b, s1, s2, 1.0 - s1 - s2), params, pump)[:4]

    def jac(z):
        a, b, s1, s2 = z.tolist()
        J = model.jacobian((a, b, s1, s2, 1.0 - s1 - s2), params, pump)
        J[:4, 2:4] -= J[:4, 4:]
        return J[:4, :4]

    return f, jac


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
                  record: bool = False) -> dict:
    """Integrate the autonomous system dy/dt = f(y) from 0 to t_end.

    Each step inverts W = I - h*d*J once, with J = jac(y) at the start
    of the step, applies it to three stage right-hand sides and advances
    the second-order solution; the third stage only estimates the error.
    f at the new state is the next step's first stage (FSAL).  Raises
    StepUnderflow when a step falls below the resolution of t.  Returns
    the final (t, y), the recorded path when `record`, and step counts.
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
    J = None
    while t < t_end:
        h = min(h, t_end - t)
        if t + h <= t:
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
        "nfev": nfev,
        "n_accepted": naccept,
        "n_rejected": nreject,
    }


def integrate(params: ModelParams, pump, init, t_end: float,
              rel_tol: float = 1e-8, abs_tol: float = 1e-12) -> Trajectory:
    """Adaptive Rosenbrock 2(3) trajectory from `init` over [0, t_end].

    Every accepted step is recorded as a five-component state, with
    sigma3 = 1 - sigma1 - sigma2, so the populations of `init` must sum
    to 1 within 1e-12.  Deterministic for identical inputs; raises
    StepUnderflow when the controller drives the step below the
    resolution of t and NonFiniteState when the state blows up.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be > 0")
    y0 = np.asarray(init, float)
    total = float(y0[2:].sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"init populations sum to {total!r}, not 1")
    out = _rosenbrock23(*_reduced(params, as_pump(pump)), y0[:4], t_end,
                        rtol=rel_tol, atol=abs_tol, record=True)
    ys = out["ys"]
    diags = {"nfev": out["nfev"], "n_accepted": out["n_accepted"],
             "n_rejected": out["n_rejected"]}
    return Trajectory(times=out["ts"], diagnostics=diags,
                      states=np.column_stack([ys, 1.0 - ys[:, 2] - ys[:, 3]]))


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


def settle(params: ModelParams, pump, t_max: float | None = None) -> SteadyState:
    """Integrate from the seeded ground state to t_max and classify the end.

    Both amplitudes are seeded at 1e-3: a_orth = 0 is invariant under the
    flow, so probing region iii needs a nonzero seed.  On a fixed point the
    step grows fivefold per step, so running on to t_max is cheap.  An
    L-stable step damps a growing mode below atol as readily as a
    decaying one, so a field below the seed whose net gain (a dark
    field's diagonal Jacobian entry and eigenvalue) is positive gets
    reseeded, at most three times.  A field is lit when its net gain is
    clamped within 1e-6 of its decay.  The end state must have |rhs|
    below 1e-10 of `model.rate_scales` on the four independent rows,
    with the amplitudes floored at the seed inside the scales so a
    decaying dark field cannot hold the test up; otherwise
    NoConvergence.  The default t_max is 400 over the slowest of (k3,
    gamma_par, gamma_orth, pump bounded below by the laser threshold);
    pass a larger value where critical slowing stretches the transient.
    """
    g = as_pump(pump)
    if t_max is None:
        t_max = _settle_t_max(params, g)
    f, jac = _reduced(params, g)
    clamp = 1e-6 * np.array([params.gamma_par, params.gamma_orth])
    z = np.array([_SEED_AMPLITUDE, _SEED_AMPLITUDE, 1.0, 0.0])
    for _ in range(_MAX_RESEEDS + 1):
        # Path accuracy is not what matters here: every Rosenbrock stage
        # is W^-1 applied to a combination of f values, so the stages
        # vanish where f = 0 and equilibria are preserved exactly.  The
        # residual test below judges the end state, and loose-ish
        # tolerances keep the walk towards the attractor cheap.
        z = _rosenbrock23(f, jac, z, t_max, rtol=1e-7, atol=1e-9)["y"]
        gain = np.diagonal(jac(z))[:2] + 2.0 * params.nl_coupling_mu * z[:2] ** 2
        unstable = (gain > clamp) & (np.abs(z[:2]) < _SEED_AMPLITUDE)
        if not unstable.any():
            break
        z[:2][unstable] = _SEED_AMPLITUDE
    else:
        raise NoConvergence(f"unstable dark state after {_MAX_RESEEDS} reseeds")
    a, b, s1, s2 = z.tolist()
    s3 = 1.0 - s1 - s2
    floored = (max(abs(a), _SEED_AMPLITUDE), max(abs(b), _SEED_AMPLITUDE),
               s1, s2, s3)
    residual = np.max(np.abs(f(z)) / model.rate_scales(floored, params, g)[:4])
    if not residual < 1e-10:
        raise NoConvergence(f"scaled residual {residual!r} at t_max = {t_max!r}")
    lit = np.abs(gain) < clamp
    i_par, i_orth = a * a, b * b
    if lit[1]:
        regime = Regime.OrthExcited
    elif lit[0]:
        regime = Regime.LaserOnly
        i_orth = 0.0
    else:
        regime = Regime.BelowLaser
        i_par = i_orth = 0.0
    return SteadyState(sigma1=s1, sigma2=s2, sigma3=s3,
                       i_par=i_par, i_orth=i_orth, regime=regime)


def stability(params: ModelParams, pump, branch: Regime | None = None) -> dict:
    """Real parts of the reduced Jacobian eigenvalues at the steady state.

    `branch` forces evaluation on a particular solution branch (for
    instance the lasing branch continued above the orthogonal-mode
    threshold, whose a_orth eigenvalue -gamma_orth + mu*i_par has gone
    positive).  The reduced Jacobian has no structural zero eigenvalue,
    so stable means every real part is below 1e-15 of the largest rate.
    """
    g = as_pump(pump)
    if branch is Regime.LaserOnly:
        ss = laser_only_branch(params, g)
    elif branch is Regime.BelowLaser:
        s1, s2, s3 = zero_field_populations(params, g)
        ss = SteadyState(sigma1=s1, sigma2=s2, sigma3=s3,
                         i_par=0.0, i_orth=0.0, regime=Regime.BelowLaser)
    else:
        ss = steady_state(params, g)
    _, jac = _reduced(params, g)
    real_parts = np.sort(np.linalg.eigvals(jac(ss.state_vector()[:4])).real)
    scale = max(params.stim_rate_G, params.decay_k2, params.decay_k3,
                params.gamma_par, params.gamma_orth, g)
    return {
        "eigen_real_parts": real_parts,
        "stable": bool(np.all(real_parts < 1e-15 * scale)),
        "steady_state": ss,
    }
