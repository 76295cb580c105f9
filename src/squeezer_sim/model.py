"""Right-hand sides and Jacobian of the five semiclassical equations.

State ordering is (a_par, a_orth, sigma1, sigma2, sigma3) with real
amplitudes.  The amplitudes are treated as real throughout: the model is
invariant under a global phase rotation, so the fixed-point structure
and the oracle role lose nothing by restricting to the real slice.

    da_par/dt  = (G/2)(s3 - s2) a_par - gpar a_par - mu a_par (a_par^2 - a_orth^2)
    da_orth/dt = -gorth a_orth + mu a_orth (a_par^2 - a_orth^2)
    ds1/dt     = k2 s2 - Gamma s1
    ds2/dt     = G (s3 - s2) a_par^2 + k3 s3 - k2 s2
    ds3/dt     = -G (s3 - s2) a_par^2 - k3 s3 + Gamma s1

The three population rates cancel pairwise, so s1 + s2 + s3 is an exact
invariant of the flow.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams


def rhs(y, params: ModelParams, pump: float) -> np.ndarray:
    """Time derivatives of the five-component state."""
    a, b, s1, s2, s3 = y.tolist() if isinstance(y, np.ndarray) else y
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth
    diff = a * a - b * b
    inv = s3 - s2
    stim = G * inv * a * a
    r3 = k2 * s2 - pump * s1
    r4 = stim + k3 * s3 - k2 * s2
    # -stim - k3 s3 + pump s1, grouped so the population rates cancel
    # exactly (bitwise) and the sum is a structural invariant.
    r5 = -(r3 + r4)
    return np.array([
        0.5 * G * inv * a - gpar * a - mu * a * diff,
        -gorth * b + mu * b * diff,
        r3,
        r4,
        r5,
    ])


def jacobian(y, params: ModelParams, pump: float) -> np.ndarray:
    """Analytic 5x5 Jacobian of rhs with respect to the state."""
    a, b, s1, s2, s3 = y.tolist() if isinstance(y, np.ndarray) else y
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth
    diff = a * a - b * b
    inv = s3 - s2
    J = np.zeros((5, 5))
    J[0, 0] = 0.5 * G * inv - gpar - mu * (3.0 * a * a - b * b)
    J[0, 1] = 2.0 * mu * a * b
    J[0, 3] = -0.5 * G * a
    J[0, 4] = 0.5 * G * a
    J[1, 0] = 2.0 * mu * a * b
    J[1, 1] = -gorth + mu * (a * a - 3.0 * b * b)
    J[2, 2] = -pump
    J[2, 3] = k2
    J[3, 0] = 2.0 * G * inv * a
    J[3, 3] = -G * a * a - k2
    J[3, 4] = G * a * a + k3
    # Mirrors the r5 = -(r3 + r4) grouping in rhs, so the population
    # columns sum to zero bitwise.
    J[4] = -(J[2] + J[3])
    return J


def rate_scales(y, params: ModelParams, pump: float) -> np.ndarray:
    """Per-equation magnitude scales (sum of absolute term sizes).

    Used to express residuals of the fixed-point equations (and the
    rounding floor of finite differences) in relative terms, which keeps
    the residual tests of the closed forms and of `settle` meaningful
    when the rate constants span many decades.
    """
    a, b, s1, s2, s3 = y
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar, gorth = params.gamma_par, params.gamma_orth
    diff = abs(a * a - b * b)
    inv = abs(s3 - s2)
    stim = G * inv * a * a
    scales = np.array([
        0.5 * G * inv * abs(a) + gpar * abs(a) + mu * abs(a) * diff,
        gorth * abs(b) + mu * abs(b) * diff,
        k2 * abs(s2) + pump * abs(s1),
        stim + k3 * abs(s3) + k2 * abs(s2),
        # r5 is evaluated as -(r3 + r4); k2*s2 cancels only in exact
        # arithmetic, so it still sets the rounding scale.
        stim + k3 * abs(s3) + pump * abs(s1) + k2 * abs(s2),
    ])
    floor = max(G, mu, k2, k3, gpar, gorth, pump) * 1e-30 + 1e-300
    return np.maximum(scales, floor)
