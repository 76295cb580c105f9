import math
import re

import numpy as np
import pytest

from squeezer_sim import (
    DomainError,
    InvalidParams,
    Regime,
    SingularMatrix,
    SpectrumCurve,
    SqueezerSimError,
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
from squeezer_sim import model, montecarlo, spectra
from squeezer_sim.montecarlo import PsdEstimate, compare_to_analytic
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps
from squeezer_sim.spectra import output_phase_variances
from squeezer_sim.steadystate import regime_thresholds

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


@pytest.mark.parametrize("omega", [1e155, 1.7e308])
def test_omega_past_the_square_root_of_the_float_range_is_the_qnl(reference, omega):
    # omega^2 overflows to inf above about 1.34e154 rad/s: V is exactly
    # 1, with no warning, in every form.
    i_star = orth_threshold_intensity(reference)
    assert orth_phase_variance_reduced(reference, i_star, omega) == 1.0
    assert orth_phase_variance_reduced(
        reference, [0.0, 0.5 * i_star, i_star], omega).tolist() == [1.0] * 3
    assert threshold_variance(reference, omega) == 1.0
    r = regime3_phase_pair_spectrum(reference, 2.0 * orth_threshold_pump(reference),
                                    omega)
    assert (r.v_orth, r.v_par) == (1.0, 1.0)


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
    # the same -7.49 dB point; this exercises the region-ii closed form at
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


def _full_form(params, ss, w):
    """The region-ii full form of the module docstring, at state ss."""
    G = params.stim_rate_G
    inv = ss.sigma3 - ss.sigma2
    num = 2.0 * params.gamma_orth_c * (G * inv - 2.0 * params.gamma_par)
    den = (params.gamma_orth - params.gamma_par + 0.5 * G * inv) ** 2 + w * w
    return 1.0 - num / den


def test_spectra_follow_steady_state_regime_at_threshold_neighbours(reference, rng):
    # At the float neighbours of a threshold the closed forms can settle
    # on the region below it: zero lasing intensity at the laser
    # threshold, a dark orthogonal mode just above the instability.  The
    # spectra go by the regime `steady_state` settles on, and return the
    # value of their form at that state.  The orthogonal-mode threshold
    # pump itself is on the lasing branch, and the pump sweep's last
    # normalized row agrees with the full form there.
    families = [reference] + [sample_reachable_params(rng) for _ in range(100)]
    moved = 0
    for p in families:
        w = p.gamma_orth
        gl, go = regime_thresholds(p)
        assert steady_state(p, go).regime is Regime.LaserOnly
        curve = pump_sweep_curve(p, w, np.array([0.5, 1.0]) * go)
        full = orth_phase_variance(p, go, w)
        assert curve.status[-1] == "ok"
        assert abs(curve.variances[-1] - full) <= 1e-12 * full
        for g0 in (gl, go):
            up1 = math.nextafter(g0, math.inf)
            for g in (math.nextafter(g0, 0.0), g0, up1, math.nextafter(up1, math.inf)):
                ss = steady_state(p, g)
                region = (Regime.BelowLaser if g < gl else
                          Regime.LaserOnly if g <= go else Regime.OrthExcited)
                moved += ss.regime is not region
                if ss.regime is Regime.LaserOnly:
                    assert orth_phase_variance(p, g, w) == _full_form(p, ss, w)
                else:
                    with pytest.raises(WrongRegime):
                        orth_phase_variance(p, g, w)
                if ss.regime is Regime.OrthExcited:
                    a, b = ss.a_par, ss.a_orth
                    drift = model.phase_drift(p, a, b, ss.sigma2, ss.sigma3)
                    v_par, v_orth = output_phase_variances(p, drift, a, b, (0, 1), w)
                    pair = regime3_phase_pair_spectrum(p, g, w)
                    assert (pair.v_par, pair.v_orth) == (v_par, v_orth)
                else:
                    with pytest.raises(WrongRegime):
                        regime3_phase_pair_spectrum(p, g, w)
    # The boundary cases occur: some of these pumps settle below the
    # region their threshold pump puts them in.
    assert moved >= 50


def test_pump_sweep_rows_take_the_branch_of_steady_state(reference, rng):
    # Each pump-sweep row goes by the branch `steady_state` settles on at
    # the float neighbours of both thresholds: dark where the lasing
    # intensity is 0 at or just above g_laser, the lasing branch where
    # region iii rounds to i_orth <= 0 a few ulps above g_orth, and
    # "above_orth" wherever the scalar call is in region iii or raises.
    status_of = {Regime.BelowLaser: "below_laser", Regime.LaserOnly: "ok",
                 Regime.OrthExcited: "above_orth"}
    dark_above_gl = lasing_above_go = 0
    for p in [reference] + [sample_reachable_params(rng) for _ in range(200)]:
        w = p.gamma_orth
        gl, go = regime_thresholds(p)
        pumps = []
        for g0 in (gl, go):
            g = math.nextafter(g0, 0.0)
            for _ in range(5):  # nextafter -1 ... +3
                pumps.append(g)
                g = math.nextafter(g, math.inf)
        curve = pump_sweep_curve(p, w, pumps=pumps)
        for g, status, v in zip(pumps, curve.status.tolist(), curve.variances.tolist()):
            try:
                ss = steady_state(p, g)
            except SqueezerSimError:
                assert status == "above_orth" and math.isnan(v)
                continue
            assert status == status_of[ss.regime]
            if status == "ok":
                assert v.hex() == orth_phase_variance_reduced(p, ss.i_par, w).hex()
                lasing_above_go += g > go
            elif status == "below_laser":
                assert v == 1.0
                dark_above_gl += g >= gl
            else:
                assert math.isnan(v)
    # Both boundary cases occur on these families.
    assert dark_above_gl >= 50 and lasing_above_go >= 50


@pytest.mark.parametrize("pumps", [5e17, [[5e17, 6e17]]], ids=["0-d", "2-d"])
def test_pump_sweep_rejects_a_grid_that_is_not_1d(reference, pumps):
    # One row per pump, as in steady_state_sweep.
    shape = np.shape(pumps)
    with pytest.raises(ValueError, match=re.escape(f"1-D grid, got shape {shape}")):
        pump_sweep_curve(reference, OMEGA_2MHZ, pumps)


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


def test_to_decibel_on_arrays_equals_float_calls_bitwise(reference):
    # numpy's log10 and libm's differ in the last bit at the first two
    # values and at about one in five of the rest.
    values = np.concatenate([
        [0.06570125375210265, 0.1784, 1.0, 0.1, 5e-324, 1.7976931348623157e308],
        np.random.default_rng(0).uniform(0.01, 1.0, 1000)])
    got = to_decibel(values)
    assert isinstance(got, np.ndarray) and got.shape == values.shape
    assert [v.hex() for v in got.tolist()] == [
        to_decibel(v).hex() for v in values.tolist()]
    grid = np.linspace(1e5, 1e9, 12).reshape(3, 4)
    v = frequency_sweep_curve(reference, 1e9, grid.ravel()).variances.reshape(3, 4)
    assert to_decibel(v).tolist() == [[to_decibel(x) for x in row] for row in v.tolist()]
    assert to_decibel(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -0.3, math.nan, math.inf, -math.inf])
def test_to_decibel_array_rejects_what_the_float_call_rejects(bad):
    with pytest.raises(DomainError) as array_error:
        to_decibel(np.array([0.5, bad, -1.0]))
    with pytest.raises(DomainError) as float_error:
        to_decibel(bad)
    assert str(array_error.value) == str(float_error.value)


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


def test_frequency_sweep_matches_threshold_formula(reference):
    i_star = orth_threshold_intensity(reference)
    grid = np.geomspace(1e5, 1e9, 50)
    curve = frequency_sweep_curve(reference, i_star, grid)
    for w, v in zip(curve.omegas, curve.variances):
        assert v == pytest.approx(threshold_variance(reference, w), rel=1e-12)


def test_spectrum_curve_validates_inputs(reference):
    with pytest.raises(ValueError):
        SpectrumCurve(omegas=np.array([2.0, 1.0]),
                      variances=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        SpectrumCurve(omegas=np.array([0.0, 1.0]),
                      variances=np.array([0.5, -0.5]))


def test_frequency_sweep_curve_refuses_a_column_of_intensities(reference):
    # An i_par of shape (2, 1) broadcasts the variances to (2, n), which a
    # 1-D curve cannot hold.
    grid = reference.gamma_orth * np.array([0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="1-d and equal length"):
        frequency_sweep_curve(reference, np.array([[1e9], [2e9]]), grid)


def test_pump_sweep_normalized_endpoint(reference):
    curve = pump_sweep_curve(reference, OMEGA_2MHZ,
                             np.linspace(0.0, 1.0, 21) * orth_threshold_pump(reference))
    assert curve.status[-1] == "ok"
    assert curve.variances[-1] == pytest.approx(
        threshold_variance(reference, OMEGA_2MHZ), rel=1e-12)


def test_pump_sweep_monotone_and_minimum(reference):
    curve = pump_sweep_curve(reference, OMEGA_2MHZ,
                             np.linspace(0.0, 1.0, 101) * orth_threshold_pump(reference))
    vs = curve.variances.tolist()
    assert all(a >= b - 1e-15 for a, b in zip(vs, vs[1:]))
    assert min(vs) == pytest.approx(0.1784, abs=1e-4)


def test_pump_sweep_below_laser_reported_at_qnl(moderate):
    gl = laser_threshold(moderate)
    curve = pump_sweep_curve(moderate, 1.0, pumps=[0.0, 0.5 * gl])
    for status, variance in zip(curve.status, curve.variances):
        assert status == "below_laser"
        assert variance == 1.0


def test_pump_sweep_flags_points_above_threshold(moderate):
    go = orth_threshold_pump(moderate)
    curve = pump_sweep_curve(moderate, 1.0, pumps=[0.5 * go, 2.0 * go])
    assert curve.status[0] == "ok"
    assert curve.status[1] == "above_orth"
    assert np.isnan(curve.variances[1])


@pytest.mark.parametrize("grid", [[1.0, -1.0], [math.nan], [-1e17, 1e17], [math.inf]])
def test_pump_sweep_rejects_invalid_pumps(moderate, grid):
    with pytest.raises(InvalidParams):
        pump_sweep_curve(moderate, 1.0, grid)


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
    # With the orthogonal amplitude zero the model's phase block has no
    # cross coupling; the 2x2 solve must then reproduce the closed form.
    ss = steady_state(moderate, orth_threshold_pump(moderate))
    a = math.sqrt(orth_threshold_intensity(moderate))
    A = model.phase_drift(moderate, a, 0.0, ss.sigma2, ss.sigma3)
    assert A[0][1] == A[1][0] == 0.0
    for w in (0.3, 2.0, 11.0):
        _, v = output_phase_variances(moderate, A, a, 0.0, (0, 1), w)
        assert v == pytest.approx(threshold_variance(moderate, w), rel=1e-12)


def test_io_solve_matches_reduced_form_in_region_ii(rng):
    # The route_equivalence line of `check`: the input-output solve on
    # the model's orthogonal phase rate against the closed form.
    worst = 0.0
    for _ in range(10):
        p = sample_reachable_params(rng)
        for _ in range(50):
            ss = steady_state(p, sample_regime_pumps(rng, p, "ii"))
            a, b = ss.a_par, ss.a_orth
            drift = [[model.phase_drift(p, a, b, ss.sigma2, ss.sigma3)[1][1]]]
            for w in (0.0, 0.7 * p.gamma_orth, 6.0 * p.gamma_orth):
                io, = output_phase_variances(p, drift, a, b, (1,), w)
                red = orth_phase_variance_reduced(p, ss.i_par, w)
                worst = max(worst, abs(io - red) / red)
    assert worst <= 1e-12


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


# ---------------------------------------------------------------------------
# The array curves against the scalar reduced form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [{"normalized": np.linspace(0.0, 1.0, 101)},
                                  {"normalized": np.linspace(0.0, 1.0, 2001)},
                                  {"pumps": np.geomspace(1.0, 2.5e18, 500)}],
                         ids=["default", "normalized-2001", "log-pumps"])
def test_pump_sweep_equals_scalar_reduced_form(reference, grid):
    # Every point bitwise the scalar form at the lasing intensity, and
    # the point's status and grid values as the per-point rules give them.
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    pumps = grid["pumps"] if "pumps" in grid else grid["normalized"] * go
    curve = pump_sweep_curve(reference, OMEGA_2MHZ, pumps)
    for g, status, v in zip(curve.pumps.tolist(), curve.status.tolist(),
                            curve.variances.tolist()):
        if g < gl:
            assert (status, v) == ("below_laser", 1.0)
        elif g <= go:
            i = steady_state(reference, g).i_par
            assert status == "ok"
            assert v.hex() == orth_phase_variance_reduced(
                reference, i, OMEGA_2MHZ).hex()
        else:
            assert status == "above_orth" and math.isnan(v)
    assert curve.pumps.tolist() == pumps.tolist()
    if "pumps" in grid:
        assert set(curve.status.tolist()) == {"below_laser", "ok", "above_orth"}


def test_frequency_sweep_equals_scalar_reduced_form(reference, rng):
    top = orth_threshold_intensity(reference)
    omegas = np.concatenate([[0.0], np.geomspace(1e3, 1e10, 2000)])
    for i_par in (0.0, top, *rng.uniform(0.0, top, 5)):
        curve = frequency_sweep_curve(reference, i_par, omegas)
        assert [v.hex() for v in curve.variances.tolist()] == [
            orth_phase_variance_reduced(reference, i_par, w).hex()
            for w in omegas.tolist()]


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_curves_reject_bad_omegas(reference, bad):
    with pytest.raises(DomainError):
        frequency_sweep_curve(reference, 1e9, [0.0, 1.0, bad])
    with pytest.raises(DomainError):
        pump_sweep_curve(reference, bad, [0.5 * orth_threshold_pump(reference)])
    with pytest.raises(DomainError):
        orth_phase_variance_reduced(reference, 1e9, np.array([1.0, bad]))


def test_array_reduced_form_gates_the_intensity(reference):
    top = orth_threshold_intensity(reference)
    for bad in (-1.0, 1.01 * top, math.nan):
        with pytest.raises(DomainError):
            orth_phase_variance_reduced(reference, np.array([0.5 * top, bad]), 1e6)
    # Dust above the threshold intensity is clamped, as in the scalar form,
    # and a 0-d intensity gives a float, as a scalar one does.
    edge = top * (1.0 + 1e-13)
    v = orth_phase_variance_reduced(reference, np.array(edge), 1e6)
    assert type(v) is float
    assert v == orth_phase_variance_reduced(reference, edge, 1e6)
    assert v == orth_phase_variance_reduced(reference, top, 1e6)


def test_array_reduced_form_names_the_bad_intensity_as_the_float_call_does(reference):
    with pytest.raises(DomainError) as array_error:
        orth_phase_variance_reduced(reference, np.array([1.0, -1.0]), 1e6)
    with pytest.raises(DomainError) as float_error:
        orth_phase_variance_reduced(reference, -1.0, 1e6)
    assert str(array_error.value) == str(float_error.value)


def test_array_callers_resolve_the_reduced_form_at_call_time(reference, monkeypatch):
    # perfbench/selfcheck.py plants a wrong reduced form by replacing the
    # module attribute; the curves and the mc-verify comparison must
    # call whatever the attribute holds.
    calls = []

    def spy(params, i_par, omega):
        calls.append(params)
        return orth_phase_variance_reduced(params, i_par, omega)

    monkeypatch.setattr(spectra, "orth_phase_variance_reduced", spy)
    monkeypatch.setattr(montecarlo, "orth_phase_variance_reduced", spy)
    gorth = reference.gamma_orth
    frequency_sweep_curve(reference, 1e9, [0.0, gorth])
    pump_sweep_curve(reference, OMEGA_2MHZ,
                     np.array([0.5, 1.0]) * orth_threshold_pump(reference))
    est = PsdEstimate(freqs=gorth * np.array([0.0, 0.5, 1.0, 2.0]), psd=np.ones(4),
                      n_segments=100)
    compare_to_analytic(est, reference, 0.5 * orth_threshold_intensity(reference))
    assert calls == [reference] * 3
