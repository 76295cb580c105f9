"""Reference results for the benchmark's correctness checks.

Nothing here imports squeezer_sim.  Each function re-derives its result
from the model equations by a route the package does not use, so a
check against it cannot pass merely because both sides share a bug:

* both threshold pumps in closed form (the package bisects);
* the region-ii operating point from a quadratic in the intensity
  i_par, evaluated without cancellation (the package solves a
  quadratic in sigma3 and recovers i_par from sigma3 - sigma2);
* the region-iii fixed point from the two clamping conditions;
* the coupled region-iii phase spectrum by an explicit 2x2 inverse
  (the package calls numpy.linalg.solve).

Parameters are plain dicts keyed by the ModelParams field names.
"""

from __future__ import annotations

import math

# The test suite's `moderate` rate set, copied by value.
MODERATE = {
    "stim_rate_G": 20.0, "nl_coupling_mu": 0.1, "decay_k2": 500.0,
    "decay_k3": 1.0, "gamma_par_c": 0.3, "gamma_par_l": 0.7,
    "gamma_orth_c": 1.7, "gamma_orth_l": 0.3,
}

# Headline numbers of the reference rate set.
THRESHOLD_INTENSITY = 1.96875e10
HEADLINE_DB = -7.49
HEADLINE_OMEGA = 4.0 * math.pi * 1e6


def _rates(p):
    return (p["stim_rate_G"], p["nl_coupling_mu"], p["decay_k2"], p["decay_k3"],
            p["gamma_par_c"] + p["gamma_par_l"],
            p["gamma_orth_c"] + p["gamma_orth_l"])


def laser_threshold(p) -> float:
    """Pump where the small-signal gain (G/2)(s3 - s2) reaches gamma_par."""
    G, _, k2, k3, gpar, _ = _rates(p)
    r = k3 / k2
    den = G * (1.0 - r) / (2.0 * gpar) - 1.0 - r
    return k3 / den if den > 0 else math.inf


def orth_threshold_pump(p) -> float:
    """Pump where the lasing intensity reaches gamma_orth/mu.

    With i* = gamma_orth/mu and D = 2(gamma_par + gamma_orth)/G the
    sigma2 balance is linear in the pump.
    """
    G, mu, k2, k3, gpar, gorth = _rates(p)
    i_star = gorth / mu
    D = 2.0 * (gpar + gorth) / G
    den = k2 * (1.0 - D) - 2.0 * G * D * i_star - k3 * (1.0 + D)
    if not math.isfinite(laser_threshold(p)) or den <= 0:
        return math.inf
    return k2 * (G * D * i_star + k3 * D) / den


def thresholds(p) -> tuple[float, float]:
    return laser_threshold(p), orth_threshold_pump(p)


def region(p, pump, thr=None) -> str:
    g_laser, g_orth = thr or thresholds(p)
    if pump < g_laser:
        return "i"
    return "ii" if pump < g_orth else "iii"


def near_threshold(p, pump, thr=None, rel=1e-9) -> bool:
    """True within `rel` of either threshold, where both labels are right."""
    return any(math.isfinite(t) and abs(pump - t) <= rel * t
               for t in (thr or thresholds(p)))


def lasing_intensity(p, pump) -> float:
    """Region-ii i_par from a quadratic in the intensity.

    Gain clamping fixes s3 - s2 = (2 gamma_par + 2 mu i)/G; the pump
    balance and unit sum then give s2, and the sigma2 balance leaves
    2 mu i^2 + b i + c = 0.  The positive root is taken in the form
    2|c| / (b + sqrt(b^2 + 8 mu |c|)), which keeps full relative
    precision right down to the laser threshold (c -> 0).
    """
    G, mu, k2, k3, gpar, _ = _rates(p)
    alpha, beta = 2.0 * gpar / G, 2.0 * mu / G
    ratio = 1.0 / (2.0 + k2 / pump)  # s2 = (1 - s3 + s2) * ratio
    b = 2.0 * gpar + beta * (k3 + (k2 - k3) * ratio)
    c = k3 * alpha - (k2 - k3) * (1.0 - alpha) * ratio
    if c >= 0.0:
        return 0.0
    return -2.0 * c / (b + math.sqrt(b * b - 8.0 * mu * c))


def steady_state(p, pump, thr=None) -> tuple[str, list[float]]:
    """(region, [a_par, a_orth, sigma1, sigma2, sigma3]) at this pump."""
    G, mu, k2, k3, gpar, gorth = _rates(p)
    reg = region(p, pump, thr)
    if reg == "i":
        if pump == 0.0:
            return reg, [0.0, 0.0, 1.0, 0.0, 0.0]
        s3 = 1.0 / (1.0 + k3 / k2 + k3 / pump)
        s2 = (k3 / k2) * s3
        return reg, [0.0, 0.0, 1.0 - s2 - s3, s2, s3]
    if reg == "ii":
        i = lasing_intensity(p, pump)
        inv = (2.0 * gpar + 2.0 * mu * i) / G
        s2 = (1.0 - inv) / (2.0 + k2 / pump)
        s3 = s2 + inv
        return reg, [math.sqrt(i), 0.0, 1.0 - s2 - s3, s2, s3]
    D = 2.0 * (gpar + gorth) / G
    s2 = pump * (1.0 - D) / (k2 + 2.0 * pump)
    s3 = s2 + D
    i_par = (k2 * s2 - k3 * s3) / (G * D)
    i_orth = max(i_par - gorth / mu, 0.0)
    return reg, [math.sqrt(i_par), math.sqrt(i_orth), 1.0 - s2 - s3, s2, s3]


def state_error(got, ref) -> float:
    """Worst componentwise error, each scaled by max(|ref|, 1e-9 max|ref|).

    The same measure the package's `check` applies to its ODE oracle.
    """
    floor = 1e-9 * max(abs(v) for v in ref)
    return max(abs(g - r) / max(abs(r), floor) for g, r in zip(got, ref))


def reduced_variance(p, i_par, omega) -> float:
    """Phase-quadrature output variance of the dark orthogonal mode."""
    _, mu, _, _, _, gorth = _rates(p)
    mu_i = mu * i_par
    return 1.0 - 4.0 * p["gamma_orth_c"] * mu_i / ((gorth + mu_i) ** 2 + omega * omega)


def threshold_intensity(p) -> float:
    return (p["gamma_orth_c"] + p["gamma_orth_l"]) / p["nl_coupling_mu"]


def threshold_variance(p, omega) -> float:
    return reduced_variance(p, threshold_intensity(p), omega)


def sh_plateau(p) -> float:
    """Clamped second-harmonic flux gamma_orth^2/mu above the instability."""
    gorth = p["gamma_orth_c"] + p["gamma_orth_l"]
    return gorth * gorth / p["nl_coupling_mu"]


def phase_pair_variances(p, pump, omega) -> tuple[float, float]:
    """(v_orth, v_par) of the coupled region-iii phase pair.

    Linearizing the two phase equations about (a, b) gives the drift
    [[-2 mu b^2, 2 mu a b], [2 mu a b, -gorth - mu(a^2 - b^2) - 2 mu b^2]];
    the SH vacuum enters both rows (+2 sqrt(mu) a, -2 sqrt(mu) b) and
    each mode sees its own loss and coupler ports.  Output quadratures
    are sqrt(2 gc) Y - Z_in2 for the mode's own coupler input.
    """
    _, mu, _, _, _, gorth = _rates(p)
    _, (a, b, *_rest) = steady_state(p, pump)
    diff = a * a - b * b
    m00 = 1j * omega + 2.0 * mu * b * b
    m01 = -2.0 * mu * a * b
    m11 = 1j * omega + gorth + mu * diff + 2.0 * mu * b * b
    det = m00 * m11 - m01 * m01
    inv = ((m11 / det, -m01 / det), (-m01 / det, m00 / det))
    rm = 2.0 * math.sqrt(mu)
    # Columns: SH vacuum, par loss, par coupler, orth loss, orth coupler.
    noise = ((rm * a, math.sqrt(2.0 * p["gamma_par_l"]),
              math.sqrt(2.0 * p["gamma_par_c"]), 0.0, 0.0),
             (-rm * b, 0.0, 0.0, math.sqrt(2.0 * p["gamma_orth_l"]),
              math.sqrt(2.0 * p["gamma_orth_c"])))
    out = []
    for row, coupler, port in ((1, p["gamma_orth_c"], 4), (0, p["gamma_par_c"], 2)):
        total = 0.0
        for k in range(5):
            t = inv[row][0] * noise[0][k] + inv[row][1] * noise[1][k]
            amp = math.sqrt(2.0 * coupler) * t - (1.0 if k == port else 0.0)
            total += abs(amp) ** 2
        out.append(total)
    return out[0], out[1]


def jacobian(p, pump, y) -> list[list[float]]:
    """5x5 Jacobian of the rate equations at state y."""
    G, mu, k2, k3, gpar, gorth = _rates(p)
    a, b, _s1, s2, s3 = y
    inv = s3 - s2
    J = [[0.0] * 5 for _ in range(5)]
    J[0][0] = 0.5 * G * inv - gpar - mu * (3.0 * a * a - b * b)
    J[0][1] = J[1][0] = 2.0 * mu * a * b
    J[0][3], J[0][4] = -0.5 * G * a, 0.5 * G * a
    J[1][1] = -gorth + mu * (a * a - 3.0 * b * b)
    J[2][2], J[2][3] = -pump, k2
    J[3][0] = 2.0 * G * inv * a
    J[3][3], J[3][4] = -G * a * a - k2, G * a * a + k3
    J[4] = [-(x + z) for x, z in zip(J[2], J[3])]
    return J


def stiffness_ratio(p, pump) -> float:
    """Row-sum norm of the Jacobian over its slowest nonzero decay rate.

    Measured at the closed-form fixed point.  For an explicit integrator
    started from the ground state this predicts the work to settle: the
    step is held near 3 / norm and the run lasts a few slow time
    constants.
    """
    import numpy as np

    y = steady_state(p, pump)[1]
    J = np.array(jacobian(p, pump, y))
    rates = np.sort(np.abs(np.linalg.eigvals(J).real))
    slow = rates[rates > 1e-9 * rates[-1]][0]
    return float(np.max(np.sum(np.abs(J), axis=1)) / slow)
