"""The semiclassical rate equations and their linearizations, written out once.

The fields a_par and a_orth are complex and the populations real:

    da_par/dt  = ((G/2)(s3 - s2) - gpar) a_par - mu (|a_par|^2 a_par - a_orth^2 a_par*)
    da_orth/dt = -gorth a_orth + mu (a_par^2 a_orth* - |a_orth|^2 a_orth)
    ds1/dt     = k2 s2 - Gamma s1
    ds2/dt     = G (s3 - s2) |a_par|^2 + k3 s3 - k2 s2

The populations sum to 1, so ds3/dt = -(ds1/dt + ds2/dt) carries no
information and is not written out.  The model is invariant under a
global phase rotation, so the steady states and the ODE oracle lose
nothing by working on the real slice, with state ordering (a_par,
a_orth, sigma1, sigma2, sigma3).  There the Jacobian splits.  The real
directions give J4, taken over the four independent coordinates (a_par,
a_orth, s1, s2) with s3 = 1 - s1 - s2 following them.  The imaginary
directions (the phase quadratures) give the 2x2 block of `phase_drift`,
which the noise spectra use.  Every other module (the ODE oracle, the
fixed-point residual of the closed forms, `spectra`, `check`)
evaluates these expressions through this module.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams

__all__ = ["phase_drift", "rate_equations", "rate_scales_at", "rhs"]


def rate_equations(params: ModelParams, pump: float):
    """(f, jac) with the rate constants bound once per (params, pump).

    Both take the five state components as plain floats, sigma3 given
    explicitly: the ODE oracle passes 1 - s1 - s2 for it, and the
    residual of a closed form passes the sigma3 that form computed.
    f returns the four rates above as a tuple.  jac returns J4 as a
    tuple of rows, the chain rule through sigma3 already applied; its
    structural zeros (da_orth/dsigma, dsigma1/da, dsigma2/da_orth) are
    what the oracle's block solve of W = I - h*d*J4 relies on.
    """
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth

    def f(a, b, s1, s2, s3):
        diff = a * a - b * b
        inv = s3 - s2
        return (0.5 * G * inv * a - gpar * a - mu * a * diff,
                -gorth * b + mu * b * diff,
                k2 * s2 - pump * s1,
                G * inv * a * a + k3 * s3 - k2 * s2)

    def jac(a, b, s1, s2, s3):
        inv = s3 - s2
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


def phase_drift(params: ModelParams, a, b, s2, s3):
    """Jacobian block of the phase quadratures (Im a_par, Im a_orth).

    At b = 0 the modes decouple and the orthogonal entry is -(gorth + mu
    a^2); at a region-iii state the block annihilates (a, b).
    """
    mu = params.nl_coupling_mu
    both = mu * (a * a + b * b)
    cross = 2.0 * mu * a * b
    return ((0.5 * params.stim_rate_G * (s3 - s2) - params.gamma_par - both, cross),
            (cross, -params.gamma_orth - both))


def rhs(y, params: ModelParams, pump: float) -> np.ndarray:
    """The four rates of `rate_equations` at the five-component state y,
    its closures rebuilt per call (perfbench's `model.rhs_us` times it)."""
    return np.array(rate_equations(params, pump)[0](*np.asarray(y, float).tolist()))


def rate_scales_at(params: ModelParams, pump: float, a, b, s1, s2, s3):
    """Per-equation magnitude scales (sum of absolute term sizes).

    Takes the state components as `rate_equations`' f does and returns
    four floats, each floored just above 0; a NaN scale stays NaN.
    Where the state is not floats but arrays, every scale is an array
    too, elementwise with the same bits.
    Used to express residuals of the fixed-point equations (and the
    rounding floor of finite differences) in relative terms, which keeps
    the residual tests of the closed forms and of `settle` meaningful
    when the rate constants span many decades.
    """
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth
    diff = abs(a * a - b * b)
    inv = abs(s3 - s2)
    # Both paths have a workload: every region-iii steady_state and
    # settle's residual pass floats, steady_state_sweep passes arrays.
    # max picks exactly as np.maximum does, NaN first argument included.
    clip = max if isinstance(a, float) else np.maximum
    floor = clip(max(G, mu, k2, k3, gpar, gorth), pump) * 1e-30 + 1e-300
    return (clip(0.5 * G * inv * abs(a) + gpar * abs(a) + mu * abs(a) * diff, floor),
            clip(gorth * abs(b) + mu * abs(b) * diff, floor),
            clip(k2 * abs(s2) + pump * abs(s1), floor),
            clip(G * inv * a * a + k3 * abs(s3) + k2 * abs(s2), floor))

