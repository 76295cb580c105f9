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

On a four-component state numpy's per-call overhead would cost several
times the arithmetic, so a step works on Python floats.  `_reduced`
binds the rate constants once and mirrors `model`'s right-hand side and
Jacobian bitwise, and each step solves W by its block structure instead
of inverting it: the population block has determinant >= 1, so all of
W's singularity sits in a 2x2 block on the amplitudes (`_w_solver`).
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
    """(f, jac) on the reduced state z = (a_par, a_orth, s1, s2).

    The rate constants are bound once per (params, pump), and both
    functions take and return plain floats: f(z) is `model.rhs[:4]` at
    (z, sigma3 = 1 - s1 - s2), and jac(z) is J4, `model.jacobian`'s first
    four rows and columns with column 4 subtracted from columns 2 and 3
    (the chain rule through sigma3), as a tuple of rows.  Both keep
    `model`'s expressions and grouping, so they agree with it bitwise.
    J4's structural zeros (da_orth/dsigma, dsigma1/da, dsigma2/da_orth)
    are what `_w_solver` relies on.
    """
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth

    def f(z):
        a, b, s1, s2 = z
        s3 = 1.0 - s1 - s2
        diff = a * a - b * b
        inv = s3 - s2
        return (0.5 * G * inv * a - gpar * a - mu * a * diff,
                -gorth * b + mu * b * diff,
                k2 * s2 - pump * s1,
                G * inv * a * a + k3 * s3 - k2 * s2)

    def jac(z):
        a, b, s1, s2 = z
        inv = 1.0 - s1 - s2 - s2  # sigma3 - s2
        half = 0.5 * G * a
        cross = 2.0 * mu * a * b
        gaa = G * a * a
        j34 = gaa + k3
        return ((0.5 * G * inv - gpar - mu * (3.0 * a * a - b * b), cross,
                 -half, -half - half),
                (cross, -gorth + mu * (a * a - 3.0 * b * b), 0.0, 0.0),
                (0.0, 0.0, -pump, k2),
                (2.0 * G * inv * a, 0.0, -j34, -gaa - k2 - j34))

    return f, jac


def _w_solver(J, hd: float):
    """v -> W^-1 v for W = I - hd*J with J = J4, or None if W is singular.

    W is solved by its blocks, not inverted.  Split it into the
    amplitude block A, the population block D and the couplings B (rows
    0-1, columns 2-3) and C (rows 2-3, columns 0-1); J4's zeros leave B
    with one nonzero row and C with the single entry W[3][0].  The
    Schur complement S = A - B D^-1 C then differs from A only in
    S[0][0], and det W = det D * det S.  With Gamma the pump,
    det D = (1 + hd*Gamma)(1 + hd*(2G a^2 + k2 + k3))
    + (hd)^2 k2 (G a^2 + k3) >= 1 is a sum of non-negative terms: it is
    formed without cancellation and never vanishes, so all of W's
    singularity sits in the 2x2 S.  A non-finite J gives a non-finite
    solve.
    """
    (j00, j01, j02, j03), (j10, j11, _, _), (_, _, j22, j23), (j30, _, j32, j33) = J
    d00, d01, d10, d11 = 1.0 - hd * j22, -hd * j23, -hd * j32, 1.0 - hd * j33
    det_d = d00 * d11 - d01 * d10
    w02, w03, w30 = -hd * j02, -hd * j03, -hd * j30
    s00 = 1.0 - hd * j00 - w30 * (w03 * d00 - w02 * d01) / det_d
    s01, s10, s11 = -hd * j01, -hd * j10, 1.0 - hd * j11
    det_s = s00 * s11 - s01 * s10
    if det_s == 0.0:
        return None

    def solve(v):
        v0, v1, p0, p1 = v
        # Amplitudes from S x_a = v_a - B D^-1 v_p, then populations
        # from D x_p = v_p - C x_a.
        r0 = v0 - (w02 * (d11 * p0 - d01 * p1) + w03 * (d00 * p1 - d10 * p0)) / det_d
        x0 = (s11 * r0 - s01 * v1) / det_s
        p1 -= w30 * x0
        return (x0, (s00 * v1 - s10 * r0) / det_s,
                (d11 * p0 - d01 * p1) / det_d, (d00 * p1 - d10 * p0) / det_d)

    return solve


# ode23s coefficients: d makes the pair L-stable, e32 weights the
# third-order stage that only serves the error estimate.
_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_CONSECUTIVE_REJECTS = 60


def _rosenbrock23(f, jac, init, t_end: float, rtol: float, atol: float,
                  record: bool = False) -> dict:
    """Integrate the autonomous system dz/dt = f(z) of `_reduced` from 0
    to t_end.

    Each step builds the solver of W = I - h*d*J (`_w_solver`) once,
    with J = jac(y) at the start of the step, applies it to three stage
    right-hand sides and advances the second-order solution; the third
    stage only estimates the error.  f at the new state is the next
    step's first stage (FSAL).  A singular W is a rejected step, and so
    is a non-finite error estimate (from a non-finite W or state): every
    divisor is tested nonzero or bounded below (det D >= 1, atol > 0) and
    the one power taken is of a finite, positive error norm, so float
    arithmetic raises nothing.  More than 60 rejections in a row raise
    NonFiniteState if the last one was non-finite and StepUnderflow
    otherwise; a step below the resolution of t raises StepUnderflow.
    Returns the final (t, y), the recorded path when `record`, and step
    counts.
    """
    y = tuple(map(float, init))
    t = 0.0
    f0 = f(y)
    nfev = 1
    naccept = nreject = rejects = 0
    ts, ys = [0.0], [y]

    fnorm = math.hypot(*f0)
    h = t_end if fnorm == 0.0 else min(
        t_end, 0.01 * (atol + rtol * math.hypot(*y)) / fnorm)
    J = None
    while t < t_end:
        h = min(h, t_end - t)
        if t + h <= t:
            raise StepUnderflow(f"step {h!r} underflowed at t = {t!r}")
        if J is None:
            J = jac(y)
        solve = _w_solver(J, h * _D)
        if solve is None:
            err_norm = math.inf
        else:
            # Unrolled over the four components: the stages k1, k2, k3
            # are (a*, b*, c*), f at the three stage points (f0*, f1*,
            # f2*), and the new state n*.
            y0, y1, y2, y3 = y
            f00, f01, f02, f03 = f0
            a0, a1, a2, a3 = solve(f0)
            hh = 0.5 * h
            f10, f11, f12, f13 = f((y0 + hh * a0, y1 + hh * a1,
                                    y2 + hh * a2, y3 + hh * a3))
            u0, u1, u2, u3 = solve((f10 - a0, f11 - a1, f12 - a2, f13 - a3))
            b0, b1, b2, b3 = u0 + a0, u1 + a1, u2 + a2, u3 + a3
            y_new = n0, n1, n2, n3 = (y0 + h * b0, y1 + h * b1,
                                      y2 + h * b2, y3 + h * b3)
            f2 = f20, f21, f22, f23 = f(y_new)
            c0, c1, c2, c3 = solve((f20 - _E32 * (b0 - f10) - 2.0 * (a0 - f00),
                                    f21 - _E32 * (b1 - f11) - 2.0 * (a1 - f01),
                                    f22 - _E32 * (b2 - f12) - 2.0 * (a2 - f02),
                                    f23 - _E32 * (b3 - f13) - 2.0 * (a3 - f03)))
            nfev += 2
            h6 = h / 6.0
            err_norm = 0.5 * math.hypot(
                h6 * (a0 - 2.0 * b0 + c0) / (atol + rtol * abs(n0)),
                h6 * (a1 - 2.0 * b1 + c1) / (atol + rtol * abs(n1)),
                h6 * (a2 - 2.0 * b2 + c2) / (atol + rtol * abs(n2)),
                h6 * (a3 - 2.0 * b3 + c3) / (atol + rtol * abs(n3)))
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
                ys.append(y)
            h *= _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** (-1.0 / 3.0))
        else:
            rejects += 1
            nreject += 1
            if rejects > _MAX_CONSECUTIVE_REJECTS:
                raise StepUnderflow(f"repeated step rejections at t = {t!r}")
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / 3.0))

    if not all(map(math.isfinite, y)):
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
    mu2 = 2.0 * params.nl_coupling_mu
    clamp = (1e-6 * params.gamma_par, 1e-6 * params.gamma_orth)
    z = [_SEED_AMPLITUDE, _SEED_AMPLITUDE, 1.0, 0.0]
    for _ in range(_MAX_RESEEDS + 1):
        # Path accuracy is not what matters here: every Rosenbrock stage
        # is W^-1 applied to a combination of f values, so the stages
        # vanish where f = 0 and equilibria are preserved exactly.  The
        # residual test below judges the end state, and loose-ish
        # tolerances keep the walk towards the attractor cheap.
        z = list(_rosenbrock23(f, jac, z, t_max, rtol=1e-7, atol=1e-9)["y"])
        J = jac(z)
        gain = [J[i][i] + mu2 * (z[i] * z[i]) for i in (0, 1)]
        unstable = [i for i in (0, 1)
                    if gain[i] > clamp[i] and abs(z[i]) < _SEED_AMPLITUDE]
        if not unstable:
            break
        for i in unstable:
            z[i] = _SEED_AMPLITUDE
    else:
        raise NoConvergence(f"unstable dark state after {_MAX_RESEEDS} reseeds")
    a, b, s1, s2 = z
    s3 = 1.0 - s1 - s2
    floored = (max(abs(a), _SEED_AMPLITUDE), max(abs(b), _SEED_AMPLITUDE),
               s1, s2, s3)
    residual = np.max(np.abs(f(z)) / model.rate_scales(floored, params, g)[:4])
    if not residual < 1e-10:
        raise NoConvergence(f"scaled residual {residual!r} at t_max = {t_max!r}")
    i_par, i_orth = a * a, b * b
    if abs(gain[1]) < clamp[1]:
        regime = Regime.OrthExcited
    elif abs(gain[0]) < clamp[0]:
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
    J4 = np.array(jac(ss.state_vector()[:4].tolist()))
    real_parts = np.sort(np.linalg.eigvals(J4).real)
    scale = max(params.stim_rate_G, params.decay_k2, params.decay_k3,
                params.gamma_par, params.gamma_orth, g)
    return {
        "eigen_real_parts": real_parts,
        "stable": bool(np.all(real_parts < 1e-15 * scale)),
        "steady_state": ss,
    }
