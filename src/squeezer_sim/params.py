"""Physical parameter set of the laser + intracavity doubler model.

All rates are SI s^-1 with no internal unit scaling.  Populations are
dimensionless (scaled so that sigma1 + sigma2 + sigma3 = 1) and field
intensities are dimensionless scaled photon numbers, so every coupling
constant below is a plain rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParams

__all__ = ["ModelParams", "reference_params", "validate"]

_POSITIVE_FIELDS = ("stim_rate_G", "nl_coupling_mu", "decay_k2", "decay_k3")


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the laser with an intracavity type-II doubler.

    Immutable after construction; safe to share across threads.
    """

    stim_rate_G: float    # stimulated emission rate per photon, G
    nl_coupling_mu: float  # nonlinear conversion rate per unit intensity, mu
    decay_k2: float       # lower lasing level decay (2 -> 1), kappa_2
    decay_k3: float       # upper lasing level decay (3 -> 2), kappa_3
    gamma_par_c: float    # parallel mode, output-coupler decay
    gamma_par_l: float    # parallel mode, passive-loss decay
    gamma_orth_c: float   # orthogonal mode, output-coupler decay
    gamma_orth_l: float   # orthogonal mode, passive-loss decay

    def __post_init__(self):
        errors = _violations(self)
        if errors:
            raise InvalidParams(errors)

    @property
    def gamma_par(self) -> float:
        """Total parallel-mode decay gamma_par_c + gamma_par_l."""
        return self.gamma_par_c + self.gamma_par_l

    @property
    def gamma_orth(self) -> float:
        """Total orthogonal-mode decay gamma_orth_c + gamma_orth_l."""
        return self.gamma_orth_c + self.gamma_orth_l

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def as_pump(pump) -> float:
    """Coerce a pump argument to a validated rate."""
    g = float(pump)
    if not math.isfinite(g) or g < 0:
        raise InvalidParams(["pump rate must be finite and >= 0"])
    return g


def _violations(p) -> list[str]:
    errors = []
    for f in fields(ModelParams):
        v = getattr(p, f.name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{f.name} must be a finite number")
            continue
        if f.name in _POSITIVE_FIELDS:
            if v <= 0:
                errors.append(f"{f.name} must be > 0")
        elif v < 0:
            errors.append(f"{f.name} must be >= 0")
    # Mode totals only make sense when the individual rates were usable.
    def _ok(name):
        v = getattr(p, name)
        return isinstance(v, (int, float)) and math.isfinite(v)

    if _ok("gamma_par_c") and _ok("gamma_par_l"):
        if p.gamma_par_c + p.gamma_par_l <= 0:
            errors.append("gamma_par_c + gamma_par_l must be > 0")
    if _ok("gamma_orth_c") and _ok("gamma_orth_l"):
        if p.gamma_orth_c + p.gamma_orth_l <= 0:
            errors.append("gamma_orth_c + gamma_orth_l must be > 0")
    return errors


def validate(raw: dict[str, float]) -> ModelParams:
    """Build a ModelParams from a dict of raw fields.

    Raises InvalidParams carrying the complete list of violated
    invariants; there is no partially valid value.
    """
    known = {f.name for f in fields(ModelParams)}
    unknown = sorted(set(raw) - known)
    missing = sorted(known - set(raw))
    errors = [f"unknown field '{k}'" for k in unknown]
    errors += [f"missing field '{k}'" for k in missing]
    if errors:
        raise InvalidParams(errors)
    # A field that is not a number becomes None, which ModelParams
    # reports along with every other violation.
    return ModelParams(**{k: _number(v) for k, v in raw.items()})


def _number(v) -> float | None:
    """float(v), or None where v is not a number."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return None


def reference_params() -> ModelParams:
    """Reference parameter set used throughout the docs and CLI defaults.

    The cavity decay rates and the nonlinear coupling are the measured
    values for a realistic doubly resonant setup:

        mu            = 8.0e-4 s^-1
        gamma_orth_c  = 1.5e7,  gamma_orth_l = 0.75e6 s^-1
        gamma_par_c   = 0.5e6,  gamma_par_l  = 5.0e6  s^-1

    G, kappa_2 and kappa_3 are calibration defaults.  They are not fixed
    by the quantities this package is meant to reproduce (threshold
    intensity and the squeezing spectra are independent of them), but
    they must be large enough that both oscillation thresholds exist:
    reaching the orthogonal-mode instability at intensity gamma_orth/mu
    requires a population flux of at least
    2*(gamma_par + gamma_orth)*gamma_orth/mu ~ 8.4e17 s^-1 through the
    lower lasing level, which bounds kappa_2 from below.  Threshold pump
    rates reported for this set therefore scale with the calibration
    constants and are not comparable across other normalizations of the
    intensity variables.
    """
    return ModelParams(
        stim_rate_G=1.0e9,
        nl_coupling_mu=8.0e-4,
        decay_k2=1.0e19,
        decay_k3=1.0e4,
        gamma_par_c=0.5e6,
        gamma_par_l=5.0e6,
        gamma_orth_c=1.5e7,
        gamma_orth_l=0.75e6,
    )
