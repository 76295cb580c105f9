"""Quantum-noise simulator for a laser with an intracavity type-II doubler.

Semiclassical steady states across the three pump regions, oscillation
thresholds, analytic phase-quadrature squeezing spectra of the
orthogonally polarized fundamental mode, and stochastic (Monte Carlo)
verification of those spectra.
"""

from .dynamics import settle
from .errors import (
    BandMismatch,
    DomainError,
    InvalidParams,
    NoConvergence,
    NonFiniteState,
    RootFindFailure,
    SingularMatrix,
    SqueezerSimError,
    StepUnderflow,
    TooShort,
    Unreachable,
    WrongRegime,
)
from .montecarlo import PsdEstimate, SdeRun, compare_to_analytic, estimate_psd, simulate_decoupled
from .params import ModelParams, reference_params, validate
from .spectra import (
    PhasePairVariance,
    PumpSweep,
    SpectrumCurve,
    frequency_sweep_curve,
    orth_phase_variance,
    orth_phase_variance_reduced,
    pump_sweep_curve,
    regime3_phase_pair_spectrum,
    threshold_variance,
    to_decibel,
)
from .steadystate import (
    Regime,
    SteadyState,
    SteadySweep,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    sh_power,
    steady_state,
    steady_state_sweep,
)

__version__ = "0.1.0"
