import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from squeezer_sim import (
    InvalidParams,
    Regime,
    SqueezerSimError,
    SteadyState,
    Unreachable,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    reference_params,
    settle,
    sh_power,
    steady_state,
    steady_state_sweep,
    validate,
)
from squeezer_sim import model, steadystate
from squeezer_sim.sampling import sample_reachable_params, sample_regime_pumps
from squeezer_sim.steadystate import fixed_point_residual


def _mid_regime2_pump(params):
    lo = laser_threshold(params)
    hi = orth_threshold_pump(params)
    return math.sqrt(lo * hi)


def test_quadratic_sigma3_matches_ode_settling(moderate):
    g = _mid_regime2_pump(moderate)
    s3 = steady_state(moderate, g).sigma3
    settled = settle(moderate, g)
    assert settled.sigma3 == pytest.approx(s3, rel=1e-6)


def test_below_threshold_has_no_lasing_root(moderate):
    # C >= 0: the lasing-branch quadratic has no positive root.
    g = 0.1 * laser_threshold(moderate)
    C, _ = steadystate._lasing_root(moderate, g, math.sqrt)
    assert C >= 0.0


def test_zero_pump_gives_ground_state(moderate):
    ss = steady_state(moderate, 0.0)
    assert ss.regime is Regime.BelowLaser
    assert ss.sigma1 == 1.0
    assert ss.sigma2 == ss.sigma3 == 0.0
    assert ss.i_par == ss.i_orth == 0.0


def test_regime3_difference_clamping(moderate):
    target = moderate.gamma_orth / moderate.nl_coupling_mu
    for mult in (1.2, 2.0, 4.0):
        g = mult * orth_threshold_pump(moderate)
        ss = steady_state(moderate, g)
        assert ss.regime is Regime.OrthExcited
        assert ss.i_par - ss.i_orth == pytest.approx(target, rel=1e-9)


def test_sweep_transitions_and_ode_agreement(moderate):
    gl = laser_threshold(moderate)
    go = orth_threshold_pump(moderate)
    pumps = np.concatenate([
        np.linspace(0.2 * gl, 0.8 * gl, 4),
        np.geomspace(1.3 * gl, 0.8 * go, 12),
        go * np.array([1.3, 1.7, 2.2, 3.0]),
    ])
    regimes = [steady_state(moderate, g).regime for g in pumps]
    transitions = sum(1 for a, b in zip(regimes, regimes[1:]) if a is not b)
    assert transitions == 2
    for g in pumps[::4]:
        ss = steady_state(moderate, g)
        st = settle(moderate, g)
        ref, got = ss.state_vector(), st.state_vector()
        scale = np.maximum(np.abs(ref), 1e-9 * np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref) / scale) < 1e-6
        assert st.regime is ss.regime


def test_steady_state_region_boundaries(moderate):
    # Dark at the laser threshold itself, where the lasing intensity is
    # 0, and on the lasing branch at the orthogonal-mode threshold pump.
    gl = laser_threshold(moderate)
    go = orth_threshold_pump(moderate)
    for g, regime in ((0.0, Regime.BelowLaser), (gl, Regime.BelowLaser),
                      (0.5 * (gl + go), Regime.LaserOnly), (go, Regime.LaserOnly),
                      (2.0 * go, Regime.OrthExcited)):
        assert steady_state(moderate, g).regime is regime, g


def test_laser_threshold_gain_equals_loss(moderate):
    from squeezer_sim.steadystate import zero_field_populations

    g = laser_threshold(moderate)
    _, s2, s3 = zero_field_populations(moderate, g)
    gain = 0.5 * moderate.stim_rate_G * (s3 - s2)
    assert abs(gain - moderate.gamma_par) <= 1e-9 * moderate.gamma_par


def test_laser_threshold_increases_with_loss(moderate):
    d = moderate.as_dict()
    d["gamma_par_c"] *= 2.0
    d["gamma_par_l"] *= 2.0
    assert laser_threshold(validate(d)) > laser_threshold(moderate)


def test_laser_threshold_bracketed_by_ode(moderate):
    g = laser_threshold(moderate)
    below = settle(moderate, 0.99 * g)
    above = settle(moderate, 1.01 * g)
    assert below.regime is Regime.BelowLaser and below.i_par == 0.0
    assert above.regime is Regime.LaserOnly and above.i_par > 0.0


def test_laser_threshold_unreachable_for_weak_gain(moderate):
    d = moderate.as_dict()
    d["stim_rate_G"] = 1.9 * moderate.gamma_par  # sup gain just below loss
    with pytest.raises(Unreachable):
        laser_threshold(validate(d))


def test_orth_threshold_intensity_reference_value():
    assert orth_threshold_intensity(reference_params()) == pytest.approx(
        1.96875e10, rel=1e-12)


def test_orth_threshold_intensity_scales_inversely_with_mu():
    p = reference_params()
    d = p.as_dict()
    d["nl_coupling_mu"] *= 2.0
    assert orth_threshold_intensity(validate(d)) == pytest.approx(
        orth_threshold_intensity(p) / 2.0, rel=1e-15)


def test_orth_threshold_intensity_coupler_only():
    d = reference_params().as_dict()
    d["gamma_orth_l"] = 0.0
    assert orth_threshold_intensity(validate(d)) == pytest.approx(
        1.875e10, rel=1e-12)


def test_orth_threshold_pump_hits_target_intensity(moderate):
    g = orth_threshold_pump(moderate)
    ss = steady_state(moderate, g)
    assert ss.regime is Regime.LaserOnly
    assert ss.i_par == pytest.approx(orth_threshold_intensity(moderate),
                                     rel=1e-9)


def test_orth_threshold_pump_increases_with_orth_loss(moderate):
    # Scale gently: the target intensity gamma_orth/mu grows with the
    # loss, and too large a bump would exceed what the population flux
    # can feed at fixed k2 (correctly reported as Unreachable).
    d = moderate.as_dict()
    d["gamma_orth_c"] *= 1.1
    d["gamma_orth_l"] *= 1.1
    assert orth_threshold_pump(validate(d)) > orth_threshold_pump(moderate)


def test_orth_threshold_pump_finite_at_reference():
    g = orth_threshold_pump(reference_params())
    assert math.isfinite(g) and g > 0


def test_orth_threshold_unreachable_when_intensity_saturates(moderate):
    d = moderate.as_dict()
    d["decay_k2"] = 10.0  # population flux cannot feed the required intensity
    d["decay_k3"] = 0.1
    p = validate(d)
    with pytest.raises(Unreachable):
        orth_threshold_pump(p)


def test_family_sampler_draws_reachable_families_in_one_pass():
    # The bounds of sample_reachable_params' docstring hold on every
    # draw, and each family takes eight uniforms: no draw is retried.
    for seed in range(200):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            p = sample_reachable_params(rng)
            twin.uniform(size=8)
            assert rng.bit_generator.state == twin.bit_generator.state
            G, k2, k3 = p.stim_rate_G, p.decay_k2, p.decay_k3
            d = 2.0 * (p.gamma_par + p.gamma_orth) / G
            r = k3 / k2
            flux = G * d * orth_threshold_intensity(p)
            assert d <= 0.72
            assert G * (1.0 - r) / (2.0 * p.gamma_par) - 1.0 - r > 4.4
            assert k2 * (1.0 - d) - 2.0 * flux - k3 * (1.0 + d) > 0.0
            assert 0.5 * flux - 1.72 * k3 > 0.0
            assert orth_threshold_pump(p) / laser_threshold(p) > 220.0


def test_regime_pump_sampler_names_an_unknown_region(moderate, rng):
    with pytest.raises(ValueError, match="unknown region 'iv'"):
        sample_regime_pumps(rng, moderate, "iv")


def test_sh_power_dark_state_zero(moderate):
    assert sh_power(moderate, steady_state(moderate, 0.0)) == 0.0


def test_sh_power_plateau_in_regime3(moderate):
    plateau = moderate.gamma_orth ** 2 / moderate.nl_coupling_mu
    go = orth_threshold_pump(moderate)
    for mult in (1.3, 2.0, 3.5):
        ss = steady_state(moderate, mult * go)
        assert sh_power(moderate, ss) == pytest.approx(plateau, rel=1e-9)


def test_sh_power_continuous_at_orth_threshold(moderate):
    go = orth_threshold_pump(moderate)
    ss = steady_state(moderate, go)
    plateau = moderate.gamma_orth ** 2 / moderate.nl_coupling_mu
    assert sh_power(moderate, ss) == pytest.approx(plateau, rel=1e-8)


def test_gain_clamping_identity(moderate, rng):
    gl = laser_threshold(moderate)
    go = orth_threshold_pump(moderate)
    for g in np.exp(rng.uniform(np.log(1.01 * gl), np.log(0.99 * go), 20)):
        ss = steady_state(moderate, g)
        lhs = moderate.stim_rate_G * (ss.sigma3 - ss.sigma2)
        rhs = 2.0 * moderate.gamma_par + 2.0 * moderate.nl_coupling_mu * ss.i_par
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_sigma2_closed_form_relation(moderate, rng):
    gl = laser_threshold(moderate)
    go = orth_threshold_pump(moderate)
    for g in np.exp(rng.uniform(np.log(1.01 * gl), np.log(0.99 * go), 20)):
        ss = steady_state(moderate, g)
        lhs = ss.sigma2 * (moderate.decay_k2 + g)
        rhs = g * (1.0 - ss.sigma3)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fields_continuous_across_thresholds(moderate):
    i_star = orth_threshold_intensity(moderate)
    for g0 in (laser_threshold(moderate), orth_threshold_pump(moderate)):
        lo = steady_state(moderate, g0 * (1 - 1e-8))
        hi = steady_state(moderate, g0 * (1 + 1e-8))
        _assert_continuous(lo, hi, i_star)


def _assert_continuous(a, b, i_star):
    assert abs(a.sigma1 - b.sigma1) < 1e-6
    assert abs(a.sigma2 - b.sigma2) < 1e-6
    assert abs(a.sigma3 - b.sigma3) < 1e-6
    assert abs(a.i_par - b.i_par) / i_star < 1e-6
    assert abs(a.i_orth - b.i_orth) / i_star < 1e-6


def test_steady_state_resolves_exactly_at_thresholds(moderate, rng):
    families = [reference_params(), moderate]
    families += [sample_reachable_params(rng) for _ in range(200)]
    for p in families:
        gl, go = laser_threshold(p), orth_threshold_pump(p)
        i_star = orth_threshold_intensity(p)
        for edge, neighbour in ((gl, math.nextafter(gl, math.inf)),
                                (go, math.nextafter(go, 0.0))):
            _assert_continuous(steady_state(p, edge), steady_state(p, neighbour),
                               i_star)


def _scaled_residual(params, pump, ss):
    y = ss.state_vector()
    f = model.rhs(y, params, pump)
    scales = model.rate_scales_at(params, pump, *y.tolist())
    return np.max(np.abs(f) / np.array(scales))


def test_float_residual_equals_array_formula(reference, rng):
    # fixed_point_residual runs on Python floats; _scaled_residual is the
    # numpy reference, and the two must agree bitwise in every region.
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    cases = [(reference, g) for g in np.concatenate([
        np.linspace(0.0, 0.999 * gl, 20), np.geomspace(1.0001 * gl, 0.9999 * go, 40),
        np.geomspace(1.0001 * go, 1000.0 * go, 40)])]
    for _ in range(200):
        p = sample_reachable_params(rng)
        cases += [(p, sample_regime_pumps(rng, p, region)) for region in ("i", "ii", "iii")]
    seen = set()
    for p, g in cases:
        ss = steady_state(p, float(g))
        seen.add(ss.regime)
        got = fixed_point_residual(p, float(g), ss)
        assert got.hex() == float(_scaled_residual(p, float(g), ss)).hex()
    assert seen == set(Regime)


def test_residual_of_a_nan_component_is_nan(reference):
    # SteadyState admits both; i_orth = 1e300 overflows the orthogonal
    # rate to -inf/inf = NaN behind a finite first component.
    g = 2.0 * orth_threshold_pump(reference)
    for i_orth in (math.nan, 1e300):
        ss = dataclasses.replace(steady_state(reference, g), i_orth=i_orth)
        with np.errstate(invalid="ignore"):
            assert math.isnan(_scaled_residual(reference, g, ss))
        assert math.isnan(fixed_point_residual(reference, g, ss))


def test_closed_forms_are_fixed_points_at_reference(reference):
    gl = laser_threshold(reference)
    go = orth_threshold_pump(reference)
    pumps = np.concatenate([np.geomspace(1.0001 * gl, 0.9999 * go, 50),
                            np.geomspace(1.0001 * go, 1000.0 * go, 50)])
    for g in pumps:
        ss = steady_state(reference, g)
        assert ss.regime is (Regime.LaserOnly if g < go else Regime.OrthExcited)
        assert _scaled_residual(reference, g, ss) <= 1e-10


def test_population_sum_is_one(moderate, rng):
    go = orth_threshold_pump(moderate)
    for g in rng.uniform(0.0, 3.0 * go, 20):
        ss = steady_state(moderate, g)
        assert ss.sigma1 + ss.sigma2 + ss.sigma3 == pytest.approx(1.0, abs=1e-12)


def test_oracle_equivalence_random_sets(rng):
    # Small cross-check here; the full 50-point version lives in the
    # acceptance suite.
    for _ in range(3):
        p = sample_reachable_params(rng)
        for region in ("i", "ii", "iii"):
            g = sample_regime_pumps(rng, p, region)
            ss = steady_state(p, g)
            st = settle(p, g)
            ref, got = ss.state_vector(), st.state_vector()
            scale = np.maximum(np.abs(ref), 1e-9 * np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref) / scale) < 1e-5
            assert st.regime is ss.regime


# ---------------------------------------------------------------------------
# The batch entry point against the scalar one
# ---------------------------------------------------------------------------

def _scalar_rows(params, pumps):
    """(regime, a_par, a_orth, s1, s2, s3, sh_power, status) per pump,
    from `steady_state`, with NaN values where it raises."""
    rows = []
    for g in pumps.tolist():
        try:
            ss = steady_state(params, g)
        except SqueezerSimError as exc:
            rows.append(("", *[math.nan] * 6, f"error:{type(exc).__name__}"))
        else:
            rows.append((ss.regime.value, ss.a_par, ss.a_orth, ss.sigma1,
                         ss.sigma2, ss.sigma3, sh_power(params, ss), "ok"))
    return rows


def _bits(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row)
            for row in rows]


def _assert_sweep_is_scalar(params, pumps):
    """Every row of `steady_state_sweep` bitwise equal to `steady_state`."""
    sweep = steady_state_sweep(params, pumps)
    assert sweep.pumps.tolist() == np.asarray(pumps, float).tolist()
    got = zip(*(getattr(sweep, name).tolist() for name in (
        "regime", "a_par", "a_orth", "sigma1", "sigma2", "sigma3", "sh_power",
        "status")))
    assert _bits(got) == _bits(_scalar_rows(params, pumps))
    return sweep


@pytest.mark.parametrize("grid", ["default", "linear-2001", "log-2001"])
def test_sweep_rows_equal_scalar_steady_state(reference, grid):
    # The steady-sweep grids: the default, the benchmark's 2001-point
    # linear grid and its 1..1e19 log grid, deep into region iii.
    go = orth_threshold_pump(reference)
    pumps = {"default": np.linspace(0.0, 2.0 * go, 201),
             "linear-2001": np.linspace(0.0, 2.0 * go, 2001),
             "log-2001": np.geomspace(1.0, 1e19, 2001)}[grid]
    sweep = _assert_sweep_is_scalar(reference, pumps)
    assert set(sweep.regime.tolist()) == {"i", "ii", "iii"}


def test_sweep_rows_equal_scalar_at_the_thresholds(reference, moderate, rng):
    # The thresholds, their float neighbours and zero pump, where the
    # branches hand over.
    for p in [reference, moderate] + [sample_reachable_params(rng) for _ in range(20)]:
        edges = [0.0]
        for g0 in (laser_threshold(p), orth_threshold_pump(p)):
            edges += [math.nextafter(g0, 0.0), g0, math.nextafter(g0, math.inf)]
        _assert_sweep_is_scalar(p, np.array(edges))


def test_sweep_rows_equal_scalar_at_the_ends_of_the_float_range(reference, moderate,
                                                                rng):
    # Subnormal and near-overflow pumps: the forms under- and overflow in
    # numpy as in the scalar's floats, with no warning.  Across the whole
    # range on 40 sampled families too, where the scalar call raises no
    # ValueError, so no row breaks a SteadyState invariant.
    ends = np.array([5e-324, 1e-320, 1e-300, 1e300, 1e308, 1.7e308])
    wide = np.geomspace(5e-324, 1.7e308, 160)
    for p in (reference, moderate):
        _assert_sweep_is_scalar(p, ends)
    for _ in range(40):
        _assert_sweep_is_scalar(sample_reachable_params(rng), wide)


def test_sweep_reports_root_find_failures_on_the_scalar_rows(reference, monkeypatch):
    # A tolerance below the residual's rounding floor fails some region-iii
    # rows; both paths must fail the same ones.
    monkeypatch.setattr(steadystate, "_RESIDUAL_TOL", 1e-16)
    go = orth_threshold_pump(reference)
    sweep = _assert_sweep_is_scalar(reference, np.linspace(0.0, 4.0 * go, 401))
    status = sweep.status.tolist()
    assert "error:RootFindFailure" in status
    assert any(s == "ok" and r == "iii" for s, r in zip(status, sweep.regime.tolist()))
    assert np.isnan(sweep.a_par[sweep.status != "ok"]).all()


def test_sweep_reports_wrong_regime_on_the_scalar_rows(moderate, monkeypatch):
    # A g_orth of -1, below every pump, puts every pump in region iii, so the pumps
    # below the instability take the lasing-branch fallback, which raises
    # WrongRegime below the laser threshold.
    gl, go = laser_threshold(moderate), orth_threshold_pump(moderate)
    monkeypatch.setattr(steadystate, "regime_thresholds", lambda params: (0.0, -1.0))
    pumps = np.array([0.0, 0.5 * gl, 2.0 * gl, 0.5 * go, 2.0 * go])
    sweep = _assert_sweep_is_scalar(moderate, pumps)
    assert sweep.status.tolist() == ["error:WrongRegime"] * 2 + ["ok"] * 3
    assert sweep.regime.tolist() == ["", "", "ii", "ii", "iii"]


def test_sweep_keeps_the_state_invariants(moderate, monkeypatch):
    # The sweep checks no invariant of its own: every row it resolves has
    # the bits of `steady_state` at its pump (the `_assert_sweep_is_scalar`
    # tests here and in test_properties, on sampled families across the
    # float range and at the thresholds' float neighbours), which builds
    # a SteadyState and so raises where an invariant breaks.  A negative
    # slack makes every population bound fail.
    monkeypatch.setattr(steadystate, "_BOUND_SLACK", -0.5)
    with pytest.raises(ValueError, match="outside"):
        steady_state(moderate, 0.5 * laser_threshold(moderate))


_VALID_STATE = {"sigma1": 0.5, "sigma2": 0.2, "sigma3": 0.3,
                "i_par": 2.0, "i_orth": 0.0, "regime": Regime.LaserOnly}


@pytest.mark.parametrize("change, message", [
    ({"sigma1": 0.6}, "populations sum to"),
    ({"sigma1": 0.3, "sigma2": 1.1, "sigma3": -0.4}, r"sigma2=1\.1 outside"),
    ({"i_par": -1.0}, "intensities must be >= 0"),
    ({"regime": Regime.BelowLaser}, "below-laser state must have dark fields"),
    ({"i_par": 0.0}, "laser-only state needs"),
    ({"regime": Regime.OrthExcited}, "orth-excited state needs i_orth > 0"),
], ids=["sum", "bounds", "negative", "dark", "lasing", "orth"])
def test_steady_state_rejects_each_broken_invariant(change, message):
    # SteadyState is exported: whoever builds one gets each invariant
    # checked, as `steady_state` and `settle` do.
    SteadyState(**_VALID_STATE)
    with pytest.raises(ValueError, match=message):
        SteadyState(**{**_VALID_STATE, **change})


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_sweep_rejects_invalid_pumps(moderate, bad):
    with pytest.raises(InvalidParams):
        steady_state_sweep(moderate, [1.0, bad])


@pytest.mark.parametrize("pumps", [5.0, [[1.0, 2e18]]], ids=["0-d", "2-d"])
def test_sweep_rejects_a_grid_that_is_not_1d(moderate, pumps):
    # One row per pump: a scalar or a 2-D grid is refused by its shape.
    shape = np.shape(pumps)
    with pytest.raises(ValueError, match=f"1-D grid, got shape {re.escape(str(shape))}"):
        steady_state_sweep(moderate, pumps)


def _benchmark_grids(params):
    """The steady-sweep grids of the benchmark: 2001 points from 0 to
    2 g_orth, and 2001 log-spaced points from 1 to 1e19."""
    go = orth_threshold_pump(params)
    return {"linear": np.linspace(0.0, 2.0 * go, 2001),
            "log": np.geomspace(1.0, 1e19, 2001)}


@pytest.mark.parametrize("grid, residual_rows", [("linear", 1000), ("log", 103)])
def test_sweep_evaluates_each_form_on_its_own_rows(reference, monkeypatch, grid,
                                                   residual_rows):
    # Each closed form and the region-iii residual see the pumps of their
    # own branch and no other, once each.  Neither grid has a dust row or
    # a lasing row with zero intensity, so the branches are the regions.
    pumps = _benchmark_grids(reference)[grid]
    gl, go = laser_threshold(reference), orth_threshold_pump(reference)
    region = np.array([steady_state(reference, g).regime.value for g in pumps.tolist()])
    seen = {}

    def counted(name, fn):
        def wrapper(params, g, *args):
            seen.setdefault(name, []).extend(np.atleast_1d(g).tolist())
            return fn(params, g, *args)
        return wrapper

    for name in ("_dark_populations", "_lasing_root", "_lasing_populations",
                 "_orth_excited_values", "_scaled_rates"):
        monkeypatch.setattr(steadystate, name, counted(name, getattr(steadystate, name)))
    steady_state_sweep(reference, pumps)
    want = {"_dark_populations": pumps[region == "i"],
            "_lasing_root": pumps[(pumps >= gl) & (pumps <= go)],
            "_lasing_populations": pumps[region == "ii"],
            "_orth_excited_values": pumps[pumps > go],
            "_scaled_rates": pumps[region == "iii"]}
    assert len(want["_scaled_rates"]) == residual_rows
    for name, rows in want.items():
        assert sorted(seen[name]) == sorted(rows.tolist()), name


@pytest.mark.parametrize("grid", ["linear", "log"])
def test_sweep_memory_is_its_columns_and_one_branch(reference, grid):
    # tracemalloc sees every numpy buffer.  The sweep keeps six float64
    # columns, a "<U3" regime and a "<U2" status: 68 bytes a row, of which
    # the status (8) is made last.  It writes the dark and lasing branches
    # and drops their arrays before region iii's residual, its peak, which
    # holds the other 60 bytes a row and 22 arrays of that branch's rows:
    # the row indices, the pump, the state, i_par and i_orth, the four
    # rates, scales and quotients, and the one temporary |rate| of the
    # quotient being made.  While the dark and lasing branches are written
    # the region-iii indices and values (6) and the written branch's
    # arrays and temporaries (about ten) stay under 22 of the largest branch.
    # 8 KB more are for the Python objects.
    pumps = _benchmark_grids(reference)[grid]
    region = [steady_state(reference, g).regime.value for g in pumps.tolist()]
    branch = max(region.count(r) for r in ("i", "ii", "iii"))
    steady_state_sweep(reference, pumps)
    tracemalloc.start()
    try:
        sweep = steady_state_sweep(reference, pumps)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep.status.dtype == np.dtype("<U2")
    assert kept <= 68 * len(pumps) + 8192
    assert peak <= 60 * len(pumps) + 8 * 22 * branch + 8192


def test_rate_scales_on_arrays_equal_the_float_scales(reference, rng):
    # rate_scales_at on arrays is the float expression elementwise: same
    # bits, NaN kept and the floor applied per pump.
    n = 200
    pumps = 10.0 ** rng.uniform(-3, 19, n)
    y = [rng.uniform(0, 3, n), rng.uniform(0, 3, n), *rng.uniform(0, 1, (3, n))]
    y[0][:20] = 0.0  # floored scales
    y[1][20:30] = math.nan
    got = model.rate_scales_at(reference, pumps, *y)
    for k in range(n):
        want = model.rate_scales_at(reference, float(pumps[k]),
                                    *(float(v[k]) for v in y))
        assert [float(s[k]).hex() for s in got] == [w.hex() for w in want]
