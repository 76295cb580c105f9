import math

import numpy as np
import pytest

from squeezer_sim import (
    DomainError,
    Quadrature,
    SingularMatrix,
    SpectrumCurve,
    WrongRegime,
    frequency_sweep_curve,
    laser_threshold,
    orth_phase_variance,
    orth_phase_variance_reduced,
    orth_threshold_intensity,
    orth_threshold_pump,
    pump_sweep_curve,
    reference_params,
    regime3_phase_pair_spectrum,
    steady_state,
    threshold_variance,
    to_decibel,
    validate,
)
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps

OMEGA_2MHZ = 4.0 * math.pi * 1e6


def test_threshold_variance_headline_value(reference):
    v = threshold_variance(reference, OMEGA_2MHZ)
    assert v == pytest.approx(0.1784, abs=1e-4)
    assert to_decibel(v) == pytest.approx(-7.49, abs=0.01)


def test_threshold_variance_explicit_arithmetic(reference):
    # 1 - 9.45e14 / 1.150164e15 at the reference decay rates and 2 MHz.
    expected = 1.0 - 9.45e14 / ((4.0 * 1.575e7 ** 2) + OMEGA_2MHZ ** 2)
    assert threshold_variance(reference, OMEGA_2MHZ) == pytest.approx(
        expected, rel=1e-12)


def test_threshold_variance_dc_limit(reference):
    expected = 1.0 - reference.gamma_orth_c / reference.gamma_orth
    assert threshold_variance(reference, 0.0) == pytest.approx(expected, rel=1e-12)


def test_threshold_variance_no_output_coupling(reference):
    d = reference.as_dict()
    d["gamma_orth_c"] = 0.0
    p = validate(d)
    for w in (0.0, 1e6, 1e9):
        assert threshold_variance(p, w) == 1.0


def test_reduced_variance_unpumped_is_qnl(reference):
    for w in (0.0, 1e5, 1e9):
        assert orth_phase_variance_reduced(reference, 0.0, w) == 1.0


def test_reduced_variance_at_threshold_matches(reference):
    i_star = orth_threshold_intensity(reference)
    for w in (0.0, OMEGA_2MHZ, 1e8):
        assert orth_phase_variance_reduced(reference, i_star, w) == pytest.approx(
            threshold_variance(reference, w), rel=1e-12)


def test_reduced_variance_monotone_in_intensity(reference):
    i_star = orth_threshold_intensity(reference)
    grid = np.linspace(0.0, i_star, 50)
    v = [orth_phase_variance_reduced(reference, i, OMEGA_2MHZ) for i in grid]
    assert all(a > b for a, b in zip(v, v[1:]))


def test_reduced_variance_domain_gate(reference):
    i_star = orth_threshold_intensity(reference)
    with pytest.raises(DomainError):
        orth_phase_variance_reduced(reference, -1.0, 1e6)
    with pytest.raises(DomainError):
        orth_phase_variance_reduced(reference, 1.01 * i_star, 1e6)
    with pytest.raises(DomainError):
        orth_phase_variance_reduced(reference, 0.5 * i_star, -1.0)


def test_high_frequency_limit_is_qnl(reference):
    i_star = orth_threshold_intensity(reference)
    assert abs(orth_phase_variance_reduced(reference, i_star, 1e12) - 1.0) < 1e-6


def test_full_and_reduced_routes_agree(rng):
    for _ in range(4):
        p = sample_reachable_params(rng)
        for _ in range(5):
            g = sample_regime_pumps(rng, p, "ii")
            ss = steady_state(p, g)
            for w in (0.0, 0.5 * p.gamma_orth, 5.0 * p.gamma_orth):
                full = orth_phase_variance(p, g, w)
                red = orth_phase_variance_reduced(p, ss.i_par, w)
                assert abs(full - red) <= 1e-12 * red


def test_full_route_headline_value_at_reference(reference):
    # Just below the instability the population-based form must land on
    # the same -7.49 dB point; this exercises the sigma3 quadratic at
    # the reference rate spans (k2 = 1e19) without any ODE involvement.
    g = orth_threshold_pump(reference) * (1.0 - 1e-9)
    v = orth_phase_variance(reference, g, OMEGA_2MHZ)
    assert v == pytest.approx(0.1784, abs=1e-4)
    assert abs(orth_phase_variance(reference, g, 1e12) - 1.0) < 1e-6


def test_full_route_rejects_wrong_regime(moderate):
    with pytest.raises(WrongRegime):
        orth_phase_variance(moderate, 0.5 * laser_threshold(moderate), 1.0)
    with pytest.raises(WrongRegime):
        orth_phase_variance(moderate, 2.0 * orth_threshold_pump(moderate), 1.0)


def test_spectrum_point_solves_thresholds_once(moderate, monkeypatch):
    from squeezer_sim import steadystate

    gl, go = laser_threshold(moderate), orth_threshold_pump(moderate)
    calls = []

    def counting(params):
        calls.append(params)
        return laser_threshold(params)

    monkeypatch.setattr(steadystate, "laser_threshold", counting)
    for spectrum, pump in ((orth_phase_variance, math.sqrt(gl * go)),
                           (regime3_phase_pair_spectrum, 1.5 * go)):
        calls.clear()
        spectrum(moderate, pump, 1.0)
        assert len(calls) == 1, spectrum.__name__


def test_variance_bounded_by_qnl_floor_and_ceiling(rng):
    for _ in range(5):
        p = sample_reachable_params(rng)
        floor = 1.0 - p.gamma_orth_c / p.gamma_orth
        i_star = orth_threshold_intensity(p)
        for _ in range(20):
            i = rng.uniform(0.0, i_star)
            w = 10.0 ** rng.uniform(-2, 3) * p.gamma_orth
            v = orth_phase_variance_reduced(p, i, w)
            assert floor - 1e-12 <= v <= 1.0
        assert orth_phase_variance_reduced(p, 0.0, 1.0) == 1.0


def test_to_decibel_values():
    assert to_decibel(1.0) == 0.0
    assert to_decibel(0.1) == pytest.approx(-10.0, rel=1e-12)
    assert to_decibel(0.1784) == pytest.approx(-7.49, abs=0.005)
    with pytest.raises(DomainError):
        to_decibel(0.0)
    with pytest.raises(DomainError):
        to_decibel(-0.3)


def test_frequency_sweep_lorentzian_half_width(reference):
    i_star = orth_threshold_intensity(reference)
    for frac in (0.3, 1.0):
        i = frac * i_star
        half_width = reference.gamma_orth + reference.nl_coupling_mu * i
        curve = frequency_sweep_curve(reference, i, [0.0, half_width])
        dip0 = curve.variances[0] - 1.0
        dip_hw = curve.variances[1] - 1.0
        assert dip_hw == pytest.approx(dip0 / 2.0, rel=1e-12)


def test_frequency_sweep_minimum_at_dc(reference):
    i_star = orth_threshold_intensity(reference)
    grid = np.linspace(0.0, 5.0 * reference.gamma_orth, 200)
    curve = frequency_sweep_curve(reference, i_star, grid)
    assert np.argmin(curve.variances) == 0
    assert curve.quadrature is Quadrature.Phase


def test_frequency_sweep_matches_threshold_formula(reference):
    i_star = orth_threshold_intensity(reference)
    grid = np.geomspace(1e5, 1e9, 50)
    curve = frequency_sweep_curve(reference, i_star, grid)
    for w, v in zip(curve.omegas, curve.variances):
        assert v == pytest.approx(threshold_variance(reference, w), rel=1e-12)


def test_spectrum_curve_validates_inputs(reference):
    with pytest.raises(ValueError):
        SpectrumCurve(omegas=np.array([2.0, 1.0]),
                      variances=np.array([0.5, 0.5]),
                      quadrature=Quadrature.Phase)
    with pytest.raises(DomainError):
        SpectrumCurve(omegas=np.array([0.0, 1.0]),
                      variances=np.array([0.5, -0.5]),
                      quadrature=Quadrature.Phase)


def test_pump_sweep_normalized_endpoint(reference):
    curve = pump_sweep_curve(reference, OMEGA_2MHZ,
                             normalized_pumps=np.linspace(0.0, 1.0, 21))
    last = curve.points[-1]
    assert last.status == "ok"
    assert last.variance == pytest.approx(
        threshold_variance(reference, OMEGA_2MHZ), rel=1e-12)


def test_pump_sweep_monotone_and_minimum(reference):
    curve = pump_sweep_curve(reference, OMEGA_2MHZ,
                             normalized_pumps=np.linspace(0.0, 1.0, 101))
    vs = [pt.variance for pt in curve.points]
    assert all(a >= b - 1e-15 for a, b in zip(vs, vs[1:]))
    assert min(vs) == pytest.approx(0.1784, abs=1e-4)


def test_pump_sweep_below_laser_reported_at_qnl(moderate):
    gl = laser_threshold(moderate)
    curve = pump_sweep_curve(moderate, 1.0, pumps=[0.0, 0.5 * gl])
    for pt in curve.points:
        assert pt.status == "below_laser"
        assert pt.variance == 1.0


def test_pump_sweep_flags_points_above_threshold(moderate):
    go = orth_threshold_pump(moderate)
    curve = pump_sweep_curve(moderate, 1.0, pumps=[0.5 * go, 2.0 * go])
    assert curve.points[0].status == "ok"
    assert curve.points[1].status == "above_orth"
    assert curve.points[1].variance is None


def test_pump_sweep_needs_exactly_one_grid(moderate):
    with pytest.raises(ValueError):
        pump_sweep_curve(moderate, 1.0)
    with pytest.raises(ValueError):
        pump_sweep_curve(moderate, 1.0, pumps=[1.0], normalized_pumps=[0.5])


# ---------------------------------------------------------------------------
# Region-iii coupled phase pair
# ---------------------------------------------------------------------------

def test_regime3_approaches_threshold_variance_from_above(moderate):
    go = orth_threshold_pump(moderate)
    w = 0.8 * moderate.gamma_orth
    vt = threshold_variance(moderate, w)
    errs = [abs(regime3_phase_pair_spectrum(moderate, go * (1 + eps), w).v_orth - vt)
            for eps in (1e-2, 1e-3, 1e-4)]
    assert errs[-1] < 0.02 * vt
    assert errs[0] > errs[1] > errs[2]


def test_regime3_reduces_to_decoupled_spectrum_when_uncoupled(moderate):
    # Zeroing the orthogonal amplitude removes the cross coupling; the
    # 2x2 solve must then reproduce the closed-form spectrum.
    from squeezer_sim.spectra import _phase_pair_drift, _phase_pair_noise

    i_star = orth_threshold_intensity(moderate)
    a = math.sqrt(i_star)
    A = _phase_pair_drift(moderate, a, 0.0)
    B, _ = _phase_pair_noise(moderate, a, 0.0, include_pump_noise=False)
    for w in (0.3, 2.0, 11.0):
        M = 1j * w * np.eye(2) - A
        T = np.linalg.solve(M, B.astype(complex))
        out = math.sqrt(2.0 * moderate.gamma_orth_c) * T[1]
        out[4] -= 1.0
        v = float(np.sum(np.abs(out) ** 2))
        assert v == pytest.approx(threshold_variance(moderate, w), rel=1e-12)


def test_regime3_positive_and_finite(moderate, rng):
    go = orth_threshold_pump(moderate)
    for g in np.linspace(1.05 * go, 3.0 * go, 20):
        for w in np.geomspace(0.05 * moderate.gamma_orth,
                              20.0 * moderate.gamma_orth, 20):
            r = regime3_phase_pair_spectrum(moderate, g, w)
            assert math.isfinite(r.v_orth) and r.v_orth > 0.0
            assert math.isfinite(r.v_par) and r.v_par > 0.0


def test_regime3_singular_only_at_dc(moderate):
    go = orth_threshold_pump(moderate)
    with pytest.raises(SingularMatrix):
        regime3_phase_pair_spectrum(moderate, 1.5 * go, 0.0)
    # any positive frequency resolves
    r = regime3_phase_pair_spectrum(moderate, 1.5 * go, 1e-4 * moderate.gamma_orth)
    assert math.isfinite(r.v_orth)


def test_regime3_high_frequency_limit_is_qnl(moderate):
    go = orth_threshold_pump(moderate)
    r = regime3_phase_pair_spectrum(moderate, 2.0 * go,
                                    1e6 * moderate.gamma_orth)
    assert r.v_orth == pytest.approx(1.0, abs=1e-6)
    assert r.v_par == pytest.approx(1.0, abs=1e-6)


def test_regime3_wrong_regime_rejected(moderate):
    with pytest.raises(WrongRegime):
        regime3_phase_pair_spectrum(
            moderate, 0.5 * orth_threshold_pump(moderate), 1.0)


def test_regime3_assumption_set_pinned(moderate):
    go = orth_threshold_pump(moderate)
    r0 = regime3_phase_pair_spectrum(moderate, 1.5 * go, 1.0)
    r1 = regime3_phase_pair_spectrum(moderate, 1.5 * go, 1.0,
                                     include_pump_noise=True)
    assert r0.metadata["include_pump_noise"] is False
    assert r1.metadata["include_pump_noise"] is True
    assert r1.v_par > r0.v_par  # the extra channel only adds noise
