"""Time integration of the semiclassical equations: the ODE oracle.

This module is the brute-force oracle for the closed-form steady states.
Its one entry point, `settle`, steps from a seeded ground state to
t_max and classifies the stable fixed point it lands on; no path is
kept, only the end state and step counts.  Integration uses the linearly
implicit, L-stable Rosenbrock 2(3) pair of `ode23s` (Shampine &
Reichelt, SIAM J. Sci. Comput. 18, 1997) with the analytic Jacobian, on
the reduced state (a_par, a_orth, sigma1, sigma2), sigma3 = 1 - sigma1 -
sigma2.  The lower lasing level is routinely the fastest rate in the
system by many decades; an L-stable method damps it at any step size,
so the step is set by accuracy alone.  Dropping the conserved
population sum drops the structural zero eigenvalue, which would leave
W = I - h*d*J singular to rounding once h*k2 exceeds 1/eps.

On a four-component state numpy's per-call overhead would cost several
times the arithmetic, so a step is straight-line code on Python floats.
Its only calls are to the rate equations and J4 of
`model.rate_equations`, bound once per (params, pump), with sigma3 = 1 -
sigma1 - sigma2.  Each step factors W by its block structure into local
floats instead of inverting it, and applies the factors inline to the
three stages: the population block has determinant >= 1, so all of W's
singularity sits in a 2x2 block on the amplitudes (`_rosenbrock23`).
"""

from __future__ import annotations

import math

from . import model
from .errors import NoConvergence, NonFiniteState, StepUnderflow, Unreachable
from .params import ModelParams, as_pump
from .steadystate import Regime, SteadyState, laser_threshold

__all__ = ["settle"]

_MAX_RESEEDS = 3
# Windows of the default t_max that `settle` may run past its first.
_EXTRA_WINDOWS = 3
# Amplitude `settle` seeds both fields with, and reseeds a dark field to.
_SEED_AMPLITUDE = 1e-3


# ode23s coefficients: d makes the pair L-stable, e32 weights the
# third-order stage that only serves the error estimate.
_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_CONSECUTIVE_REJECTS = 60


def _rosenbrock23(f, jac, init, t_end: float, rtol: float, atol: float) -> dict:
    """Integrate dz/dt = f(z) from 0 to t_end on the reduced state z =
    (a_par, a_orth, sigma1, sigma2).

    f and jac are the pair of `model.rate_equations`; every call passes
    them sigma3 = 1 - sigma1 - sigma2.  Each step factors W = I - h*d*J,
    with J = jac at the start of the step, into a handful of local
    floats, applies them to three stage right-hand sides and advances
    the second-order solution; the third stage only estimates the error.
    f at the new state is the next step's first stage (FSAL).  The step
    is straight-line code on floats: no call or tuple between the stages
    but the two calls of f.  A singular W is a rejected step, and so is
    a non-finite error estimate (from a non-finite W or state): every
    divisor is tested nonzero or bounded below (det D >= 1, atol > 0)
    and the one power taken is of a finite, positive error norm, so
    float arithmetic raises nothing.  More than 60 rejections in a row
    raise NonFiniteState if the last one was non-finite and
    StepUnderflow otherwise; a step below the resolution of t raises
    StepUnderflow.  Returns the end state y and the counts nfev,
    n_accepted and n_rejected; a caller that needs the path can pass an
    f that keeps the states it is called at.
    """
    d, e32, hypot, isfinite = _D, _E32, math.hypot, math.isfinite
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    y0, y1, y2, y3 = y = tuple(map(float, init))
    t = 0.0
    f00, f01, f02, f03 = f0 = f(y0, y1, y2, y3, 1.0 - y2 - y3)
    nfev = 1
    naccept = nreject = rejects = 0

    fnorm = hypot(*f0)
    h = t_end if fnorm == 0.0 else min(
        t_end, 0.01 * (atol + rtol * hypot(*y)) / fnorm)
    stale = True
    while t < t_end:
        rest = t_end - t
        if rest < h:
            h = rest
        if t + h <= t:
            raise StepUnderflow(f"step {h!r} underflowed at t = {t!r}")
        if stale:
            ((j00, j01, j02, j03), (j10, j11, _, _), (_, _, j22, j23),
             (j30, _, j32, j33)) = jac(y0, y1, y2, y3, 1.0 - y2 - y3)
            stale = False
        # W is solved by its blocks, not inverted.  Split it into the
        # amplitude block A, the population block D and the couplings B
        # (rows 0-1, columns 2-3) and C (rows 2-3, columns 0-1); J4's
        # zeros leave B with one nonzero row and C with the single entry
        # W[3][0] = w30.  The Schur complement S = A - B D^-1 C then
        # differs from A only in S[0][0], and det W = det D * det S.  With
        # Gamma the pump, det D = (1 + hd*Gamma)(1 + hd*(2G a^2 + k2 +
        # k3)) + (hd)^2 k2 (G a^2 + k3) >= 1 is a sum of non-negative
        # terms: it is formed without cancellation and never vanishes, so
        # all of W's singularity sits in the 2x2 S.  A non-finite J gives
        # non-finite stages.
        hd = h * d
        d00, d11 = 1.0 - hd * j22, 1.0 - hd * j33
        d01, d10 = -hd * j23, -hd * j32
        det_d = d00 * d11 - d01 * d10
        w02, w03, w30 = -hd * j02, -hd * j03, -hd * j30
        s00 = 1.0 - hd * j00 - w30 * (w03 * d00 - w02 * d01) / det_d
        s01, s10, s11 = -hd * j01, -hd * j10, 1.0 - hd * j11
        det_s = s00 * s11 - s01 * s10
        if det_s == 0.0:
            err_norm = math.inf
        else:
            # Each stage x = W^-1 v, unrolled over the four components:
            # the amplitudes from S x_a = v_a - B D^-1 v_p (r0 is the
            # first component of the right side), then the populations
            # from D x_p = v_p - C x_a (q1 is the second).  The stages
            # k1, k2, k3 are (a*, b*, c*), f at the three stage points
            # (f0*, f1*, f2*), the midpoint m* and the new state n*.
            r0 = f00 - (w02 * (d11 * f02 - d01 * f03) + w03 * (d00 * f03 - d10 * f02)) / det_d
            a0 = (s11 * r0 - s01 * f01) / det_s
            q1 = f03 - w30 * a0
            a1 = (s00 * f01 - s10 * r0) / det_s
            a2 = (d11 * f02 - d01 * q1) / det_d
            a3 = (d00 * q1 - d10 * f02) / det_d
            hh = 0.5 * h
            m0, m1 = y0 + hh * a0, y1 + hh * a1
            m2, m3 = y2 + hh * a2, y3 + hh * a3
            f10, f11, f12, f13 = f(m0, m1, m2, m3, 1.0 - m2 - m3)
            v0, v1 = f10 - a0, f11 - a1
            v2, v3 = f12 - a2, f13 - a3
            r0 = v0 - (w02 * (d11 * v2 - d01 * v3) + w03 * (d00 * v3 - d10 * v2)) / det_d
            u0 = (s11 * r0 - s01 * v1) / det_s
            q1 = v3 - w30 * u0
            b0 = u0 + a0
            b1 = (s00 * v1 - s10 * r0) / det_s + a1
            b2 = (d11 * v2 - d01 * q1) / det_d + a2
            b3 = (d00 * q1 - d10 * v2) / det_d + a3
            n0, n1 = y0 + h * b0, y1 + h * b1
            n2, n3 = y2 + h * b2, y3 + h * b3
            f20, f21, f22, f23 = f(n0, n1, n2, n3, 1.0 - n2 - n3)
            v0 = f20 - e32 * (b0 - f10) - 2.0 * (a0 - f00)
            v1 = f21 - e32 * (b1 - f11) - 2.0 * (a1 - f01)
            v2 = f22 - e32 * (b2 - f12) - 2.0 * (a2 - f02)
            v3 = f23 - e32 * (b3 - f13) - 2.0 * (a3 - f03)
            r0 = v0 - (w02 * (d11 * v2 - d01 * v3) + w03 * (d00 * v3 - d10 * v2)) / det_d
            c0 = (s11 * r0 - s01 * v1) / det_s
            q1 = v3 - w30 * c0
            c1 = (s00 * v1 - s10 * r0) / det_s
            c2 = (d11 * v2 - d01 * q1) / det_d
            c3 = (d00 * q1 - d10 * v2) / det_d
            nfev += 2
            h6 = h / 6.0
            err_norm = 0.5 * hypot(
                h6 * (a0 - 2.0 * b0 + c0) / (atol + rtol * abs(n0)),
                h6 * (a1 - 2.0 * b1 + c1) / (atol + rtol * abs(n1)),
                h6 * (a2 - 2.0 * b2 + c2) / (atol + rtol * abs(n2)),
                h6 * (a3 - 2.0 * b3 + c3) / (atol + rtol * abs(n3)))
        if not isfinite(err_norm):
            rejects += 1
            nreject += 1
            if rejects > _MAX_CONSECUTIVE_REJECTS:
                raise NonFiniteState(f"state diverged near t = {t!r}")
            h *= min_factor
            continue
        if err_norm <= 1.0:
            t += h
            y0, y1 = n0, n1
            y2, y3 = n2, n3
            f00, f01 = f20, f21
            f02, f03 = f22, f23
            stale = True
            naccept += 1
            rejects = 0
            if err_norm == 0.0:
                h *= max_factor
            else:
                factor = safety * err_norm ** (-1.0 / 3.0)
                h *= factor if factor < max_factor else max_factor
        else:
            rejects += 1
            nreject += 1
            if rejects > _MAX_CONSECUTIVE_REJECTS:
                raise StepUnderflow(f"repeated step rejections at t = {t!r}")
            factor = safety * err_norm ** (-1.0 / 3.0)
            h *= factor if factor > min_factor else min_factor

    y = (y0, y1, y2, y3)
    if not all(map(isfinite, y)):
        raise NonFiniteState("integration produced non-finite state values")
    return {"y": y, "nfev": nfev, "n_accepted": naccept, "n_rejected": nreject}


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
    """Integrate from the seeded ground state and classify where it settles.

    Both amplitudes are seeded at 1e-3: a_orth = 0 is invariant under the
    flow, so probing region iii needs a nonzero seed.  On a fixed point the
    step grows fivefold per step, so running on to t_max is cheap.  An
    L-stable step damps a growing mode below atol as readily as a
    decaying one, so a field below the seed whose net gain (a dark
    field's diagonal Jacobian entry and eigenvalue) is positive gets
    reseeded, at most three times.  A field is lit when its net gain is
    clamped within 1e-6 of its decay.  The state has settled when no
    field is left dark and unstable and |rhs| is below 1e-10 of
    `model.rate_scales_at` on each of the four rates, with the
    amplitudes floored at the seed inside the scales so a decaying dark
    field cannot hold the test up.

    Each run, from the seed or a reseed, is one window of length t_max.
    The default t_max is 400 over the slowest of (k3, gamma_par,
    gamma_orth, pump bounded below by the laser threshold); where
    critical slowing stretches the transient past it, `settle` runs on
    from the end state for up to three more windows of that length.  An
    explicit t_max gets one window.  A state that has not settled by
    then raises NoConvergence.
    """
    g = as_pump(pump)
    windows = 1
    if t_max is None:
        t_max, windows = _settle_t_max(params, g), 1 + _EXTRA_WINDOWS
    f, jac = model.rate_equations(params, g)
    mu2 = 2.0 * params.nl_coupling_mu
    clamp = (1e-6 * params.gamma_par, 1e-6 * params.gamma_orth)
    z = [_SEED_AMPLITUDE, _SEED_AMPLITUDE, 1.0, 0.0]
    reseeds = 0
    while True:
        # Path accuracy is not what matters here: every Rosenbrock stage
        # is W^-1 applied to a combination of f values, so the stages
        # vanish where f = 0 and equilibria are preserved exactly.  The
        # residual test below judges the end state, and loose-ish
        # tolerances keep the walk towards the attractor cheap.
        z = list(_rosenbrock23(f, jac, z, t_max, rtol=1e-7, atol=1e-9)["y"])
        J = jac(*z, 1.0 - z[2] - z[3])
        gain = [J[i][i] + mu2 * (z[i] * z[i]) for i in (0, 1)]
        unstable = [i for i in (0, 1)
                    if gain[i] > clamp[i] and abs(z[i]) < _SEED_AMPLITUDE]
        if unstable and reseeds < _MAX_RESEEDS:
            reseeds += 1
            for i in unstable:
                z[i] = _SEED_AMPLITUDE
            continue
        a, b, s1, s2 = z
        s3 = 1.0 - s1 - s2
        floored = (max(abs(a), _SEED_AMPLITUDE), max(abs(b), _SEED_AMPLITUDE),
                   s1, s2, s3)
        scaled = [abs(r) / s for r, s in zip(f(a, b, s1, s2, s3),
                                             model.rate_scales_at(params, g, *floored))]
        # The terms are >= 0, so their sum is NaN exactly when one of them is.
        residual = math.nan if math.isnan(sum(scaled)) else max(scaled)
        if residual < 1e-10 and not unstable:
            break
        windows -= 1
        if not windows:
            raise NoConvergence(
                f"scaled residual {residual!r} at the end of a window of "
                f"t_max = {t_max!r}" + (", a dark field unstable" if unstable else ""))
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
