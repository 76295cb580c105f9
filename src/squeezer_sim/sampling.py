"""Random parameter families for cross-checking solvers against the ODE.

The random-family equivalence tests need parameter sets where both
thresholds exist and the rates span only a few decades, which keeps
each `settle` cheap.  Reaching the instability intensity gamma_orth/mu
requires a population flux of 2*(gamma_par + gamma_orth)*gamma_orth/mu
through the lower level, which bounds k2 from below; everything here
is sampled around that bound.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams
from .steadystate import laser_threshold, orth_threshold_pump

__all__ = ["sample_reachable_params", "sample_regime_pumps"]

# Range of the instability intensity gamma_orth/mu the families are drawn in.
_I_STAR_RANGE = (6.0, 20.0)


def sample_reachable_params(rng: np.random.Generator) -> ModelParams:
    """Draw a parameter set with both thresholds reachable and mild stiffness.

    Every draw is reachable, so it takes eight uniforms and no retry.
    With sigma = 2 gamma_par/G in [0.08, 0.18] and gamma_orth/gamma_par
    in [1.2, 3], the region-iii inversion d = 2(gamma_par + gamma_orth)/G
    is at most 4 * 0.18 = 0.72.  k3 <= 0.01 k2, so r = k3/k2 <= 0.01
    and the laser threshold's denominator (1 - r)/sigma - 1 - r is at
    least 0.99/0.18 - 1.01 > 4.4.  With flux = G d i* and k2 (1 - d) =
    2 flux v, v in [1.25, 2], the orthogonal threshold's denominator
    k2 (1 - d) - 2 flux - k3 (1 + d) is at least 0.5 flux - 1.72 k3,
    and k3 <= 0.01 k2 <= 0.04 flux/0.28 < 0.15 flux keeps it > 0.  It
    is also at most 2 flux, so g_orth >= k2/2, while g_laser <= k3/4.4:
    g_orth/g_laser > 220.
    """
    gpar = 10.0 ** rng.uniform(-0.2, 0.3)
    gorth = gpar * rng.uniform(1.2, 3.0)
    par_split = rng.uniform(0.1, 0.9)
    orth_split = rng.uniform(0.5, 0.95)  # coupler-dominated output port
    sigma3_laser = rng.uniform(0.08, 0.18)
    G = 2.0 * gpar / sigma3_laser
    i_star = rng.uniform(*_I_STAR_RANGE)
    mu = gorth / i_star
    d = 2.0 * (gpar + gorth) / G
    flux = 2.0 * (gpar + gorth) * i_star
    k2 = 2.0 * flux / (1.0 - d) * rng.uniform(1.25, 2.0)
    k3 = min(gpar * rng.uniform(0.5, 1.5), 0.01 * k2)
    return ModelParams(
        stim_rate_G=G, nl_coupling_mu=mu, decay_k2=k2, decay_k3=k3,
        gamma_par_c=gpar * par_split, gamma_par_l=gpar * (1.0 - par_split),
        gamma_orth_c=gorth * orth_split, gamma_orth_l=gorth * (1.0 - orth_split),
    )


def sample_regime_pumps(rng: np.random.Generator, params: ModelParams,
                        region: str) -> float:
    """Pump inside the requested region, away from the critical points.

    Threshold neighbourhoods are excluded because critical slowing makes
    ODE settling there arbitrarily slow, which would test patience
    rather than correctness.
    """
    g_laser = laser_threshold(params)
    g_orth = orth_threshold_pump(params)
    if region == "i":
        return g_laser * rng.uniform(0.25, 0.55)
    if region == "ii":
        lo, hi = 1.3 * g_laser, 0.8 * g_orth
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    if region == "iii":
        return g_orth * rng.uniform(1.2, 1.8)
    raise ValueError(f"unknown region {region!r}")

