"""Steady states, pump regimes, thresholds and second-harmonic power.

The pump axis splits into three regions:

  i.   below laser threshold, both fundamental fields dark;
  ii.  lasing, the orthogonally polarized mode still dark;
  iii. both polarizations excited ("oscillation" of the orthogonal mode).

Everything here is closed-form algebra.  Both threshold pumps solve
equations that are linear in the pump.  In region ii gain clamping fixes
s3 - s2 = 2(gamma_par + mu i_par)/G and leaves a quadratic in i_par.
Region iii clamps the inversion at sigma3 - sigma2 = 2(gamma_par +
gamma_orth)/G, which gives the populations and both intensities
directly; a scaled-residual guard rejects a region-iii answer that is
not a fixed point of the rate equations.

The algebra of each form is written once, in helpers that use only
+ - * /, abs and a square root the caller passes in, and so take a pump
float or a pump array alike.  A pump's branch is decided in two places,
with the same tests in the same order: `steady_state`, on one pump with
`math.sqrt` and Python branches, and `_grid_branches`, the same rule on
the rows of a 1-D grid with `np.sqrt`.  `steady_state_sweep` and
`spectra.pump_sweep_curve` both take their rows from `_grid_branches`
and evaluate each form only on its own branch's rows; the forms are
elementwise, so every row gets bitwise the scalar call's values.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import InvalidParams, RootFindFailure, Unreachable, WrongRegime
from .params import ModelParams, as_pump

__all__ = [
    "Regime",
    "SteadyState",
    "SteadySweep",
    "as_pumps",
    "steady_state",
    "steady_state_sweep",
    "regime_thresholds",
    "laser_threshold",
    "orth_threshold_intensity",
    "orth_threshold_pump",
    "fixed_point_residual",
    "sh_power",
    "zero_field_populations",
]

_BOUND_SLACK = 1e-9  # tolerance on population bounds for float dust
# Largest scaled residual accepted for a region-iii closed form.
_RESIDUAL_TOL = 1e-10


class Regime(enum.Enum):
    """Pump region tag; values follow the i/ii/iii numbering."""

    BelowLaser = "i"
    LaserOnly = "ii"
    OrthExcited = "iii"


@dataclass(frozen=True)
class SteadyState:
    """Scaled populations and intensities of a settled operating point."""

    sigma1: float
    sigma2: float
    sigma3: float
    i_par: float
    i_orth: float
    regime: Regime

    def __post_init__(self):
        total = self.sigma1 + self.sigma2 + self.sigma3
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"populations sum to {total!r}, not 1")
        for name in ("sigma1", "sigma2", "sigma3"):
            v = getattr(self, name)
            if not -_BOUND_SLACK <= v <= 1.0 + _BOUND_SLACK:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        if self.i_par < 0 or self.i_orth < 0:
            raise ValueError("intensities must be >= 0")
        if self.regime is Regime.BelowLaser and (self.i_par != 0 or self.i_orth != 0):
            raise ValueError("below-laser state must have dark fields")
        if self.regime is Regime.LaserOnly and (self.i_orth != 0 or self.i_par <= 0):
            raise ValueError("laser-only state needs i_par > 0, i_orth = 0")
        if self.regime is Regime.OrthExcited and self.i_orth <= 0:
            raise ValueError("orth-excited state needs i_orth > 0")

    @property
    def a_par(self) -> float:
        return math.sqrt(self.i_par)

    @property
    def a_orth(self) -> float:
        return math.sqrt(self.i_orth)

    def state_vector(self) -> np.ndarray:
        return np.array([self.a_par, self.a_orth,
                         self.sigma1, self.sigma2, self.sigma3])


def as_pumps(pumps) -> np.ndarray:
    """`as_pump` on every element of a 1-D pump grid, as a float array.

    A grid that is not 1-D raises ValueError naming its shape.
    """
    g = np.asarray(pumps, float)
    if not np.all(np.isfinite(g) & (g >= 0.0)):
        raise InvalidParams(["pump rate must be finite and >= 0"])
    if g.ndim != 1:
        raise ValueError(f"pumps must be a 1-D grid, got shape {g.shape}")
    return g


# The closed forms.  Each takes the pump as a float or as an array and
# uses only + - * / and abs, which round the same in numpy and on floats.

def _dark_populations(params: ModelParams, g):
    """s2 = (k3/k2) s3 and s1 = (k3/Gamma) s3 at unit sum; a pump of 0
    divides by zero, to s3 = 1/inf = 0 in numpy."""
    r = params.decay_k3 / params.decay_k2
    s3 = 1.0 / (1.0 + r + params.decay_k3 / g)
    s2 = r * s3
    return 1.0 - s2 - s3, s2, s3


def _lasing_root(params: ModelParams, g, sqrt):
    """C of the lasing-branch quadratic and its positive root, which is
    the intensity i_par where C < 0.  Where C >= 0 the root means
    nothing, and abs only keeps sqrt's argument >= 0 there.

    Gain clamping fixes s3 - s2 = 2(gamma_par + mu i)/G; the s1 balance
    and unit sum give s2 = c (1 - s3 + s2) with c = Gamma/(k2 + 2 Gamma),
    and the s2 balance leaves mu i^2 + B i + C = 0 with

        K = (k2 - k3) c + k3,
        B = gamma_par + mu K / G,
        C = gamma_par K / G - (k2 - k3) c / 2.

    The positive root is taken as -2C / (B + sqrt(B^2 - 4 mu C)), which
    keeps full relative precision down to the threshold, where C -> 0.
    """
    G = params.stim_rate_G
    mu = params.nl_coupling_mu
    k2, k3 = params.decay_k2, params.decay_k3
    gpar = params.gamma_par
    c = g / (k2 + 2.0 * g)
    K = (k2 - k3) * c + k3
    B = gpar + mu * K / G
    C = gpar * K / G - 0.5 * (k2 - k3) * c
    return C, -2.0 * C / (B + sqrt(abs(B * B - 4.0 * mu * C)))


def _lasing_populations(params: ModelParams, g, i_par):
    """Populations of the lasing branch from its intensity."""
    inv = 2.0 * (params.gamma_par + params.nl_coupling_mu * i_par) / params.stim_rate_G
    s2 = g * (1.0 - inv) / (params.decay_k2 + 2.0 * g)
    s3 = s2 + inv
    return 1.0 - s2 - s3, s2, s3


def _orth_excited_values(params: ModelParams, g):
    """(s1, s2, s3, i_par, i_orth) of region iii; see `steady_state`."""
    G = params.stim_rate_G
    k2, k3 = params.decay_k2, params.decay_k3
    D = 2.0 * (params.gamma_par + params.gamma_orth) / G
    s2 = g * (1.0 - D) / (k2 + 2.0 * g)
    s3 = s2 + D
    s1 = 1.0 - s2 - s3
    i_par = (k2 * s2 - k3 * s3) / (G * D)
    return s1, s2, s3, i_par, i_par - orth_threshold_intensity(params)


def _scaled_rates(params: ModelParams, g, y) -> list:
    """|f_i| / s_i of the four rates at state y = (a, b, s1, s2, s3)."""
    f, _ = model.rate_equations(params, g)
    return [abs(r) / s for r, s in zip(f(*y), model.rate_scales_at(params, g, *y))]


def _sh_flux(params: ModelParams, i_par, i_orth):
    diff = i_par - i_orth
    return params.nl_coupling_mu * diff * diff


def zero_field_populations(params: ModelParams, pump) -> tuple[float, float, float]:
    """Population balance with both fields dark.

    k2 s2 = Gamma s1 and k3 s3 = k2 s2, normalized to unit sum, so
    s2 = (k3/k2) s3 and s1 = (k3/Gamma) s3.
    """
    g = as_pump(pump)
    if g == 0.0:
        return 1.0, 0.0, 0.0
    return _dark_populations(params, g)


def laser_threshold(params: ModelParams) -> float:
    """Pump rate where small-signal gain equals the parallel-mode loss.

    Setting (G/2)(s3 - s2) = gamma_par with zero-field populations gives
    Gamma_L = k3 / (G (1 - r) / (2 gamma_par) - 1 - r), r = k3/k2.
    Raises Unreachable when the denominator is <= 0, i.e. when the
    saturated gain (G/2)(1 - r)/(1 + r) never reaches the loss.
    """
    gpar = params.gamma_par
    r = params.decay_k3 / params.decay_k2
    den = params.stim_rate_G * (1.0 - r) / (2.0 * gpar) - 1.0 - r
    if den <= 0.0:
        raise Unreachable(
            "small-signal gain cannot reach the parallel-mode loss: "
            f"sup gain {0.5 * params.stim_rate_G * (1.0 - r) / (1.0 + r)!r} "
            f"<= gamma_par {gpar!r}")
    return params.decay_k3 / den


def orth_threshold_intensity(params: ModelParams) -> float:
    """Parallel intensity gamma_orth/mu at which the orthogonal mode oscillates."""
    return params.gamma_orth / params.nl_coupling_mu


def orth_threshold_pump(params: ModelParams) -> float:
    """Pump rate at which the lasing-branch intensity reaches gamma_orth/mu.

    At i* = gamma_orth/mu the inversion is D = 2(gamma_par + gamma_orth)/G
    and the sigma2 balance is linear in the pump:

        Gamma_orth = k2 (G D i* + k3 D) / (k2 (1 - D) - 2 G D i* - k3 (1 + D)).

    Raises Unreachable when the denominator is <= 0: the population flux
    cannot feed the intensity i* at any pump.
    """
    G = params.stim_rate_G
    k2, k3 = params.decay_k2, params.decay_k3
    i_star = orth_threshold_intensity(params)
    D = 2.0 * (params.gamma_par + params.gamma_orth) / G
    den = k2 * (1.0 - D) - 2.0 * G * D * i_star - k3 * (1.0 + D)
    if den <= 0.0:
        raise Unreachable(
            f"lasing intensity saturates below gamma_orth/mu = {i_star!r}")
    return k2 * (G * D * i_star + k3 * D) / den


def regime_thresholds(params: ModelParams) -> tuple[float, float]:
    """Both threshold pumps, with unreachable ones mapped to +inf."""
    try:
        g_laser = laser_threshold(params)
    except Unreachable:
        return math.inf, math.inf
    try:
        g_orth = orth_threshold_pump(params)
    except Unreachable:
        g_orth = math.inf
    return g_laser, g_orth


def fixed_point_residual(params: ModelParams, pump, ss: SteadyState) -> float:
    """Largest scaled residual |f_i| / s_i of the state, NaN if any is NaN.

    f and s are `model.rate_equations`' rates and `model.rate_scales_at`,
    taken at the state's own sigma3, not at 1 - sigma1 - sigma2, which
    loses relative precision where the clamped inversion is small.
    """
    scaled = _scaled_rates(params, as_pump(pump),
                           (ss.a_par, ss.a_orth, ss.sigma1, ss.sigma2, ss.sigma3))
    # The terms are >= 0, so their sum is NaN exactly when one of them is.
    return math.nan if math.isnan(sum(scaled)) else max(scaled)


def steady_state(params: ModelParams, pump) -> SteadyState:
    """Realized steady state at this pump, tagged with its regime.

    The threshold pumps of `regime_thresholds` decide the region: i
    below g_laser, ii from g_laser up to and including g_orth, where the
    lasing branch is exact (i_orth = 0), and iii above g_orth.  At the
    laser threshold itself the lasing intensity is 0, so the dark
    zero-field state is returned there.  A few ulps above g_orth region
    iii's closed form can round to i_orth <= 0; such a dust pump takes
    the lasing branch, and raises WrongRegime if that does not lase.

    Region iii clamps both field equations, mu (i_par - i_orth) =
    gamma_orth and (G/2)(s3 - s2) = gamma_par + gamma_orth, so the
    populations follow from the s1 balance plus normalization and the
    s2 balance hands back i_par.  Its state must be a fixed point of the
    rate equations to within `_RESIDUAL_TOL`, else RootFindFailure.
    """
    g = as_pump(pump)
    g_laser, g_orth = regime_thresholds(params)
    if g > g_orth:
        s1, s2, s3, i_par, i_orth = _orth_excited_values(params, g)
        if not i_orth <= 0.0:  # else dust; a NaN i_orth fails the residual
            ss = SteadyState(s1, s2, s3, i_par, i_orth, Regime.OrthExcited)
            res = fixed_point_residual(params, g, ss)
            if not res <= _RESIDUAL_TOL:
                raise RootFindFailure(
                    f"region-iii closed form is not a fixed point at pump {g!r}: "
                    f"scaled residual {res!r} > {_RESIDUAL_TOL!r}")
            return ss
    elif g < g_laser:
        return SteadyState(*zero_field_populations(params, g), 0.0, 0.0,
                           Regime.BelowLaser)
    C, i_par = _lasing_root(params, g, math.sqrt)
    if C < 0.0 and i_par > 0.0:
        return SteadyState(*_lasing_populations(params, g, i_par), i_par, 0.0,
                           Regime.LaserOnly)
    if g > g_orth:
        raise WrongRegime(
            f"lasing branch has i_par <= 0 at pump {g!r} (not above threshold)")
    return SteadyState(*zero_field_populations(params, g), 0.0, 0.0,
                       Regime.BelowLaser)


def _grid_branches(params: ModelParams, g, g_laser: float, g_orth: float):
    """`steady_state`'s region rule on every row of a 1-D pump grid.

    Returns the row indices of each branch, and what the rule computed
    to choose them, as (dark, lasing, i_par, orth, values, wrong):

      dark:    below g_laser, or in [g_laser, g_orth] with zero lasing
               intensity;
      lasing:  in [g_laser, g_orth] with i_par > 0, plus the dust rows
               above g_orth that lase; i_par is their intensity;
      orth:    above g_orth and not dust; values is their region-iii
               (s1, s2, s3, i_par, i_orth), whose residual is the
               caller's to check;
      wrong:   dust rows that do not lase, where `steady_state` raises
               WrongRegime.
    """
    above = np.flatnonzero(g > g_orth)
    values = _orth_excited_values(params, g[above])
    dust = values[-1] <= 0.0  # a NaN i_orth is not dust: its residual fails
    if dust.any():
        values = [v[~dust] for v in values]
    rows = np.concatenate((np.flatnonzero((g >= g_laser) & (g <= g_orth)),
                           above[dust]))
    C, i_par = _lasing_root(params, g[rows], np.sqrt)
    on = (C < 0.0) & (i_par > 0.0)
    off = rows[~on]
    off_above = g[off] > g_orth
    return (np.concatenate((np.flatnonzero(g < g_laser), off[~off_above])),
            rows[on], i_par[on], above[~dust], values, off[off_above])


@dataclass(frozen=True)
class SteadySweep:
    """Steady states of a 1-D pump grid, one row per pump.

    `regime` holds the `Regime` values ("i", "ii", "iii") and `status`
    "ok", or "error:<type>" where `steady_state` would raise that error
    at the row's pump; such a row has regime "" and NaN values.
    `regime` is "<U3", and `status` only as wide as the labels it
    holds: "<U2" when every row is ok.
    """

    pumps: np.ndarray
    regime: np.ndarray
    a_par: np.ndarray
    a_orth: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray
    sh_power: np.ndarray
    status: np.ndarray


# A pump near either end of the float range overflows or underflows in
# numpy as it does, silently, in the scalar call's floats.
@np.errstate(all="ignore")
def steady_state_sweep(params: ModelParams, pumps) -> SteadySweep:
    """`steady_state` at every pump of a 1-D grid, one branch at a time.

    Every row has bitwise the values `steady_state` gives at its pump:
    the closed forms are the same helpers, evaluated elementwise on the
    rows of their own branch, and `_grid_branches` gives each row the
    branch the scalar call takes.  Where the scalar call raises
    WrongRegime or RootFindFailure, the row's status says so.  A
    negative or non-finite pump raises InvalidParams and a grid that is
    not 1-D ValueError.  The rows are not checked against `SteadyState`'s
    invariants: each holds the values from which the scalar call builds
    its `SteadyState`, which checks them, and the tests hold the two
    paths to the same bits on sampled families at pumps from the
    smallest subnormal to near overflow.
    """
    g = as_pumps(pumps)
    dark, lasing, i_lase, orth, values, wrong = _grid_branches(
        params, g, *regime_thresholds(params))
    columns = [np.full(len(g), np.nan) for _ in range(6)]
    regime = np.full(len(g), "", "<U3")

    def put(rows, tag, s1, s2, s3, a_par, a_orth, sh):
        """Write one branch's values into its rows."""
        for col, v in zip(columns, (a_par, a_orth, s1, s2, s3, sh)):
            col[rows] = v
        regime[rows] = tag.value

    # The dark and lasing branches first, dropping their arrays, so that
    # region iii's residual is the only branch alive while it runs.  A
    # zero pump gets the dark (1, 0, 0), as in the scalar.
    put(dark, Regime.BelowLaser, *_dark_populations(params, g[dark]), 0.0, 0.0, 0.0)
    put(lasing, Regime.LaserOnly, *_lasing_populations(params, g[lasing], i_lase),
        np.sqrt(i_lase), 0.0, _sh_flux(params, i_lase, 0.0))
    del dark, lasing, i_lase
    # Region iii, then the rows whose closed form is not a fixed point.
    *pops, i_par, i_orth = values
    a_par, a_orth = np.sqrt(i_par), np.sqrt(i_orth)
    put(orth, Regime.OrthExcited, *pops, a_par, a_orth,
        _sh_flux(params, i_par, i_orth))
    residual = functools.reduce(np.maximum, _scaled_rates(
        params, g[orth], (a_par, a_orth, *pops)))
    failed = orth[~(residual <= _RESIDUAL_TOL)]  # a NaN residual fails
    for col in columns:
        col[failed] = np.nan
    regime[failed] = ""
    # As wide as the labels it holds: "<U2" when every row is ok.
    errors = [(f"error:{exc.__name__}", rows) for exc, rows in (
        (WrongRegime, wrong), (RootFindFailure, failed)) if rows.size]
    status = np.full(len(g), "ok", f"<U{max([2, *(len(e) for e, _ in errors)])}")
    for label, rows in errors:
        status[rows] = label
    return SteadySweep(g, regime, *columns, status)


def sh_power(params: ModelParams, ss: SteadyState) -> float:
    """Scaled second-harmonic photon flux mu (i_par - i_orth)^2.

    This is the conversion flux implied by the -mu a_par (a_par^2 -
    a_orth^2) loss term.  In region iii the difference clamps at
    gamma_orth/mu, so the flux plateaus at gamma_orth^2/mu no matter how
    hard the laser is pumped.
    """
    return _sh_flux(params, ss.i_par, ss.i_orth)
