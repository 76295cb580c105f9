"""Random parameter families for cross-checking solvers against the ODE.

The closed-form/ODE equivalence checks need parameter sets where (a)
both thresholds exist and (b) the rates span only a few decades, where
`settle` is known to reach the attractor.  At the reference set's spans
(k2/k3 = 1e15) its first step underflows in regions ii and iii.
Reaching the instability intensity gamma_orth/mu requires a population
flux of 2*(gamma_par + gamma_orth)*gamma_orth/mu through the lower
level, which bounds k2 from below; everything here is sampled around
that bound.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams
from .steadystate import laser_threshold, orth_threshold_pump

__all__ = ["sample_reachable_params", "sample_regime_pumps", "integration_cost"]


def sample_reachable_params(rng: np.random.Generator,
                            i_star_range=(6.0, 20.0)) -> ModelParams:
    """Draw a parameter set with both thresholds reachable and mild stiffness."""
    for _ in range(100):
        gpar = 10.0 ** rng.uniform(-0.2, 0.3)
        gorth = gpar * rng.uniform(1.2, 3.0)
        par_split = rng.uniform(0.1, 0.9)
        orth_split = rng.uniform(0.5, 0.95)  # coupler-dominated output port
        sigma3_laser = rng.uniform(0.08, 0.18)
        G = 2.0 * gpar / sigma3_laser
        i_star = rng.uniform(*i_star_range)
        mu = gorth / i_star
        d = 2.0 * (gpar + gorth) / G
        if d >= 0.8:
            continue
        flux = 2.0 * (gpar + gorth) * i_star
        k2 = 2.0 * flux / (1.0 - d) * rng.uniform(1.25, 2.0)
        k3 = min(gpar * rng.uniform(0.5, 1.5), 0.01 * k2)
        params = ModelParams(
            stim_rate_G=G, nl_coupling_mu=mu, decay_k2=k2, decay_k3=k3,
            gamma_par_c=gpar * par_split, gamma_par_l=gpar * (1.0 - par_split),
            gamma_orth_c=gorth * orth_split, gamma_orth_l=gorth * (1.0 - orth_split),
        )
        try:
            g_laser = laser_threshold(params)
            g_orth = orth_threshold_pump(params)
        except Exception:
            continue
        if g_laser < g_orth:
            return params
    raise RuntimeError("could not sample a reachable parameter set")


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


def integration_cost(params: ModelParams, pump: float) -> float:
    """Stiffness of settling at this pump: 100 slowest relaxation times
    counted in units of 2/k2, the fastest time scale.

    `check` runs its ODE oracle on the configured rates only when this is
    at most 5e5, and on a sampled family otherwise.
    """
    slow = min(params.decay_k3, params.gamma_par, params.gamma_orth,
               max(pump, 1e-300))
    return (100.0 / slow) * (params.decay_k2 / 2.0)
