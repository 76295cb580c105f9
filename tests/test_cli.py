import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import squeezer_sim
from squeezer_sim import cli, model, steadystate
from squeezer_sim.cli import main
from squeezer_sim.sampling import sample_reachable_params
from squeezer_sim.steadystate import (
    SteadySweep,
    orth_threshold_pump,
    steady_state,
    steady_state_sweep,
)

OMEGA_2MHZ = 4.0 * math.pi * 1e6

# SHA-256 of the default mc-verify CSV and stdout report at --seed 7,
# measured with numpy 2.4.6 on x86-64.  The run makes no BLAS call;
# another build of numpy's PCG64 normals, its FFT or the libm behind
# exp and expm1 may move the last digits.
MC_VERIFY_SEED7_CSV_SHA256 = (
    "a6bc3e25532f2676de73cef0b99c8f27de0d63184eed91b328041a14ec9209d4")
MC_VERIFY_SEED7_REPORT_SHA256 = (
    "7470d1408c7b24a5133ac08ff00f8a0edb81bb8f097d7ad60682fb7ee4f28563")

# SHA-256 of the default closed-form outputs, measured with numpy 2.4.6
# on the code from before `model.rate_equations` became the one copy of
# the rate equations; that change left all four byte-identical.  Another
# libm or numpy build may move the last digits.
DEFAULT_OUTPUT_SHA256 = {
    "steady-sweep": "361a7d90ae69d254ab2f2a0b1e6d3417d1581fcea930e606f387ecc0ecdfe588",
    "pump-sweep": "d44f424b7afbad15f04325e4cfd1fe2d20eee8be11009ac32d434ad19b3da1d2",
    "spectrum": "e4d258e9a37f53a889933d030f2ae4feda46f3da4fbeb7f010faf1662571d717",
    "thresholds": "41a9950ded224b3fa2dfce233aee30f57960810dd6c15ec0fd99020b57076eb1",
}


def _read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _write_cfg(path, mapping):
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    return str(path)


def test_thresholds_report_values(capsys):
    assert main(["thresholds"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["orth_threshold_intensity"]) == pytest.approx(
        1.96875e10, rel=1e-12)
    assert float(values["threshold_variance_db"]) == pytest.approx(-7.49, abs=0.01)
    assert float(values["laser_threshold"]) > 0
    assert float(values["orth_threshold_pump"]) > 0
    assert list(values) == ["laser_threshold", "orth_threshold_pump",
                            "orth_threshold_intensity", "threshold_variance",
                            "threshold_variance_db"]


def test_thresholds_unreachable_exit_code(tmp_path, capsys):
    # Each threshold's own reason reaches stderr, and the laser threshold
    # is asked first.  With k2 = 1e12 the laser threshold is reachable
    # (111.2); only the orthogonal one is not, and steady-sweep says that
    # it cannot build its default grid.
    laser = "small-signal gain cannot reach the parallel-mode loss"
    orth = "lasing intensity saturates below gamma_orth/mu"
    grid = "cannot build a default pump grid: orthogonal-mode threshold unreachable"
    out = tmp_path / "x.csv"
    for mapping, reasons in [({"stim_rate_G": 1.0}, (laser, laser, laser)),
                             ({"stim_rate_G": 1e3}, (laser, laser, laser)),
                             ({"decay_k2": 1e12}, (orth, grid, orth))]:
        cfg = _write_cfg(tmp_path / "c.cfg", mapping)
        for command, reason in zip(("thresholds", "steady-sweep", "pump-sweep"),
                                   reasons):
            argv = [command, "--config", cfg]
            assert main(argv if command == "thresholds" else
                        [*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: Unreachable: {reason}"), command
            assert not out.exists()


def test_thresholds_without_output_coupler(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", {"gamma_orth_c": 0.0})
    assert main(["thresholds", "--config", cfg]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert float(values["threshold_variance"]) == 1.0
    assert float(values["threshold_variance_db"]) == 0.0


def test_steady_sweep_regime_structure(tmp_path):
    out = tmp_path / "steady.csv"
    assert main(["steady-sweep", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["Gamma", "regime", "a_par", "a_orth",
                      "sigma1", "sigma2", "sigma3", "sh_power", "status"]
    regimes = [r[1] for r in rows]
    transitions = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    assert transitions == 2
    assert regimes[0] == "i" and regimes[-1] == "iii"
    second = next(i for i, r in enumerate(regimes) if r == "iii")
    assert all(float(rows[i][3]) == 0.0 for i in range(second))
    plateau = [float(r[7]) for r in rows if r[1] == "iii"]
    assert max(plateau) - min(plateau) <= 1e-9 * max(plateau)
    assert all(r[-1] == "ok" for r in rows)


def test_pump_sweep_endpoint_and_monotonicity(tmp_path):
    out = tmp_path / "ps.csv"
    assert main(["pump-sweep", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["Gamma", "Gamma_normalized", "variance", "variance_db"]
    db = [float(r[3]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(db, db[1:]))
    assert db[0] == pytest.approx(0.0, abs=1e-6)
    assert float(rows[-1][1]) == 1.0
    assert db[-1] == pytest.approx(-7.49, abs=0.1)


def test_spectrum_headline_bin(tmp_path):
    out = tmp_path / "sp.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {
        "omega_min": 0.0, "omega_max": 2.0 * OMEGA_2MHZ, "omega_steps": 3})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0 - 1.5e7 / 1.575e7, rel=1e-9)
    assert float(rows[1][0]) == pytest.approx(OMEGA_2MHZ, rel=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.1784, abs=1e-4)


def test_spectrum_high_frequency_tail(tmp_path):
    out = tmp_path / "sp.csv"
    gorth = 1.575e7
    cfg = _write_cfg(tmp_path / "c.cfg", {
        "omega_min": 0.0, "omega_max": 100.0 * gorth, "omega_steps": 11})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert abs(float(rows[-1][1]) - 1.0) < 1e-3


def test_spectrum_pump_selection_errors(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {"pump": 1.0})  # below laser threshold
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_spectrum_at_the_orth_threshold_pump(tmp_path):
    # The orthogonal-mode threshold pump is on the lasing branch.  On
    # the fifth family drawn from seed 1, region iii's closed form at
    # that pump leaves a rounding-sized i_orth > 0, which must not count.
    rng = np.random.default_rng(1)
    for _ in range(5):
        params = sample_reachable_params(rng)
    pump = orth_threshold_pump(params)
    cfg = _write_cfg(tmp_path / "c.cfg", {**params.as_dict(), "pump": pump})
    out = tmp_path / "x.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header = dict(line.split(" = ") for line in _read_csv(out)[0])
    assert float(header["i_par"]) == steady_state(params, pump).i_par


def test_pump_sweep_rejects_grid_past_instability(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {
        "pump_min": 1.0e18, "pump_max": 4.0e18, "pump_steps": 5})
    assert main(["pump-sweep", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_mc_verify_pass_and_negative_control(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["mc-verify", "--out", str(out), "--seed", "7"]) == 0
    report = capsys.readouterr().out
    assert "verdict = pass" in report
    _, header, rows = _read_csv(out)
    assert header == ["omega_rad_s", "psd", "analytic", "deviation_sigma"]
    assert len(rows) >= 30
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == MC_VERIFY_SEED7_CSV_SHA256)
    assert (hashlib.sha256(report.encode()).hexdigest()
            == MC_VERIFY_SEED7_REPORT_SHA256)
    assert main(["mc-verify", "--out", str(tmp_path / "neg.csv"), "--seed", "7",
                 "--negative-control"]) == 3


def test_mc_verify_negative_control_checks_the_positive_bins(tmp_path, capsys):
    # The control differs from the positive run in its analytic
    # reference only: the same omegas and the same bin counts.
    runs = []
    for extra in ([], ["--negative-control"]):
        out = tmp_path / f"mc{len(runs)}.csv"
        main(["mc-verify", "--out", str(out), "--seed", "7", *extra])
        report = dict(line.split(" = ")
                      for line in capsys.readouterr().out.splitlines())
        runs.append(([row[0] for row in _read_csv(out)[2]], report))
    (pos_omegas, pos), (neg_omegas, neg) = runs
    assert neg["negative_control"] == "true" and neg["verdict"] == "fail"
    assert neg_omegas == pos_omegas
    for key in ("threshold_bins", "qnl_calibration_bins"):
        assert neg[key] == pos[key]


def test_mc_verify_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["mc-verify", "--out", str(a), "--seed", "11"]) == 0
    assert main(["mc-verify", "--out", str(b), "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_verify_holds_one_series_and_its_buffers(tmp_path, capsys):
    # tracemalloc sees every numpy buffer.  The threshold leg's series
    # plus one row and two chunk buffers of its simulation, or the two
    # FFT blocks of its estimate, which writes its bins over the series,
    # peak at about 1.145 threshold series.  A bin matrix of its own
    # would add half a series, and so would the QNL leg's series had it
    # coexisted with the threshold leg's.  The default run (2048 segments
    # of 512 samples) is the smallest whose series passes 8 MB.  A tiny
    # run first imports numpy.fft outside the window.
    cfg = _write_cfg(tmp_path / "tiny.cfg", {"segments": 16})
    assert main(["mc-verify", "--config", cfg,
                 "--out", str(tmp_path / "tiny.csv")]) == 0
    out = tmp_path / "mc.csv"
    tracemalloc.start()
    try:
        assert main(["mc-verify", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    meta = dict(line.split(" = ") for line in _read_csv(out)[0])
    nbytes = 8 * int(float(meta["duration"]) / float(meta["dt"]))
    assert nbytes > 8_000_000
    assert peak <= 1.2 * nbytes


def test_mc_verify_coarse_dt_leaves_no_bins_in_band(tmp_path, capsys):
    # The exact update takes any dt, and the QNL leg no longer grows with
    # it; at dt = 1e-3 Nyquist lies far below 0.1*gamma_orth, so the
    # comparison has no bins: one error line and exit 2, no CSV.
    cfg = _write_cfg(tmp_path / "c.cfg", {"dt": 1e-3})
    assert main(["mc-verify", "--config", cfg, "--out",
                 str(tmp_path / "mc.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BandMismatch: no PSD bins inside the band")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "mc.csv").exists()


def test_mc_verify_oversize_duration_is_refused_before_allocating(tmp_path, capsys):
    # duration = 1e6 asks for 2e14 steps, petabytes of buffers: the
    # memory gate must refuse it with one error line before either leg
    # allocates.
    cfg = _write_cfg(tmp_path / "c.cfg", {"duration": 1e6})
    tracemalloc.start()
    try:
        rc = main(["mc-verify", "--config", cfg, "--out", str(tmp_path / "mc.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: a run of 196875000000512 steps")
    assert "physical memory" in err
    assert err.count("\n") == 1
    assert peak < 1_000_000
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("command, config, key", [
    ("steady-sweep", {}, "pump_steps"),
    ("steady-sweep", {"pump_min": 1, "pump_max": 1e19, "pump_log": "true"}, "pump_steps"),
    ("pump-sweep", {}, "pump_steps"),
    ("pump-sweep", {"pump_min": 0.0, "pump_max": 1e18}, "pump_steps"),
    ("spectrum", {}, "omega_steps"),
], ids=["steady-sweep", "steady-sweep-log", "pump-sweep-normalized",
        "pump-sweep-explicit", "spectrum"])
def test_oversize_grid_is_refused_before_allocating(tmp_path, capsys, command,
                                                    config, key):
    # 1e15 steps would need petabytes for the grid alone: the memory gate
    # must refuse it with one error line, naming the steps and the GiB,
    # before the grid is made.
    cfg = _write_cfg(tmp_path / "c.cfg", {**config, key: 10**15})
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        rc = main([command, "--config", cfg, "--out", str(out), "--plot"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: a grid of 1000000000000000 steps "
                          "needs about ")
    assert "GiB of physical memory" in err and key in err
    assert err.count("\n") == 1
    assert peak < 1_000_000
    assert not list(tmp_path.glob("x*"))


def test_mc_verify_seeds_draw_from_disjoint_streams(monkeypatch, tmp_path):
    # Each leg of each run must draw its own stream: the benchmark runs
    # --seed s and s + 1 back to back, and the QNL leg of one must not
    # redraw the threshold leg of the other.
    seeds = []

    def spy(params, i_par, seed, *args, **kwargs):
        seeds.append(seed)
        return simulate(params, i_par, seed, *args, **kwargs)

    simulate = cli.simulate_decoupled
    monkeypatch.setattr(cli, "simulate_decoupled", spy)
    cfg = _write_cfg(tmp_path / "c.cfg", {"segments": 16})
    for seed in ("7", "8"):
        assert main(["mc-verify", "--config", cfg, "--out", str(tmp_path / "mc.csv"),
                     "--seed", seed]) == 0
    firsts = {np.random.default_rng(seed).standard_normal(4).tobytes()
              for seed in seeds}
    assert len(seeds) == 4
    assert len(firsts) == 4


def _openblas_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy has no mode="dicts"
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE selects no kernel")
def test_mc_verify_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels from OPENBLAS_CORETYPE at load time, and
    # kernels sum in different orders; the seed-7 run must not care.
    outputs = []
    for core in ("Haswell", "Sandybridge"):
        csv = tmp_path / f"{core}.csv"
        proc = _run_child("-m", "squeezer_sim.cli", "mc-verify", "--out", str(csv),
                          "--seed", "7", env={"OPENBLAS_CORETYPE": core})
        assert proc.returncode == 0, proc.stderr
        outputs.append((csv.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("duration", ["1e300", "inf"])
def test_mc_verify_unbounded_run_length_is_a_domain_error(tmp_path, capsys, duration):
    # duration / dt overflows to inf, which has no step count: one error
    # line and exit 2 before anything is allocated, not a traceback.
    cfg = _write_cfg(tmp_path / "c.cfg", {"duration": duration})
    assert main(["mc-verify", "--config", cfg, "--out", str(tmp_path / "mc.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: DomainError: duration / dt = inf is not a finite step count\n"
    assert not (tmp_path / "mc.csv").exists()


def test_check_reference_config_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("route_equivalence", "oracle_equivalence", "jacobian_fd"):
        assert f"{name}: PASS" in out
    # The oracle runs on the configured rates, not on a substitute family.
    oracle = next(ln for ln in out.splitlines() if ln.startswith("oracle_equivalence"))
    assert "bundled" not in oracle


# SHA-256 of check's stdout on the reference config, measured with numpy
# 2.4.6 on x86-64 once every line could fail and the oracle settled at
# its default run length.  The oracle's error line depends on the libm
# behind exp and sqrt, so another build may move its digits.
CHECK_STDOUT_SHA256 = {
    "0": "b835c8aa1d8133dc0e00ceece34b15e435b5eb2bdf183019212447784bc19add",
    "13": "7b293838742733bde48d2107476b7d8c720193c9cbe833aaa5e38e7831981850",
}


@pytest.mark.parametrize("seed", sorted(CHECK_STDOUT_SHA256))
def test_check_stdout_is_pinned(capsys, seed):
    assert main(["check", "--seed", seed]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == CHECK_STDOUT_SHA256[seed]


def test_check_route_equivalence_fails_on_the_amplitude_rate(monkeypatch, capsys):
    # Negative control: give the orthogonal phase the amplitude rate
    # -gorth + mu a^2 and the input-output solve must part from the
    # closed form.
    true_drift = model.phase_drift

    def amplitude_rate(params, a, b, s2, s3):
        (d00, d01), (d10, _) = true_drift(params, a, b, s2, s3)
        return ((d00, d01),
                (d10, -params.gamma_orth + params.nl_coupling_mu * a * a))

    monkeypatch.setattr(model, "phase_drift", amplitude_rate)
    assert main(["check"]) == 2
    assert "route_equivalence: FAIL" in capsys.readouterr().out


def _fail_lines(out):
    return [ln for ln in out.splitlines() if ": FAIL" in ln]


@pytest.mark.parametrize("offset, failing", [
    (1e-6, ["fixed_point_residual"]),
    (1e-4, ["fixed_point_residual", "continuity_at_thresholds"]),
])
def test_check_fails_on_lasing_populations_off_in_intensity(monkeypatch, capsys,
                                                            offset, failing):
    # Negative control: lasing populations taken at an intensity `offset`
    # too high still sum to 1, but are not a fixed point of the rate
    # equations.  At 1e-4 they also jump by 2.9e-6 of their scale at the
    # orthogonal threshold, where region iii's exact populations take over.
    true_populations = steadystate._lasing_populations
    monkeypatch.setattr(steadystate, "_lasing_populations",
                        lambda params, g, i_par: true_populations(
                            params, g, i_par * (1.0 + offset)))
    assert main(["check"]) == 2
    lines = _fail_lines(capsys.readouterr().out)
    assert [ln.split(":")[0] for ln in lines] == failing
    assert re.fullmatch(r"fixed_point_residual: FAIL  \(max scaled residual "
                        r"\S+ \(tol 1e-10\)\)", lines[0])


def test_check_jacobian_fd_fails_on_one_j4_entry_off_by_1e_3(monkeypatch, capsys):
    # Negative control: dsigma1'/dsigma2 = k2 scaled by 1 + 1e-3 in the J4
    # that check differences against (and the oracle steps with, which
    # moves its path but not its equilibria).
    true_rate_equations = model.rate_equations

    def scaled_entry(params, pump):
        f, jac = true_rate_equations(params, pump)

        def bad(*y):
            J = [list(row) for row in jac(*y)]
            J[2][3] *= 1.0 + 1e-3
            return J
        return f, bad

    monkeypatch.setattr(model, "rate_equations", scaled_entry)
    assert main(["check"]) == 2
    [line] = _fail_lines(capsys.readouterr().out)
    assert line == "jacobian_fd: FAIL  (max relative element error 9.99e-04 (tol 1e-5))"


def test_check_rejects_invalid_params(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {"nl_coupling_mu": -1.0})
    assert main(["check", "--config", cfg]) == 1


def test_check_runs_with_odd_rate_ordering(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", {"decay_k2": 1.0e3, "decay_k3": 1.0e4})
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out  # no lasing window, reported rather than rejected


@pytest.mark.parametrize("key, value, flags", [
    ("seed", -1, ["mc-verify"]),
    ("seed", None, ["mc-verify", "--seed", "-1"]),
    ("seed", None, ["check", "--seed", "-1"]),
    ("segments", 4, ["mc-verify"]),
    ("dt", -1.0, ["mc-verify"]),
    ("duration", 0.0, ["mc-verify"]),
    ("omega", -1.0, ["thresholds"]),
    ("omega", -1.0, ["pump-sweep"]),
    ("omega_min", -5.0, ["spectrum"]),
    ("i_par", -1.0, ["spectrum"]),
    ("pump", -1.0, ["steady-sweep"]),
    ("pump_min", -1.0, ["pump-sweep"]),
    ("pump_max", -1.0, ["steady-sweep"]),
    ("pump_norm_min", -1.0, ["pump-sweep"]),
    ("pump_norm_max", math.inf, ["pump-sweep"]),
], ids=["seed-key", "seed-flag-mc-verify", "seed-flag-check", "segments", "dt",
        "duration", "omega-thresholds", "omega-pump-sweep", "omega_min", "i_par",
        "pump", "pump_min", "pump_max", "pump_norm_min", "pump_norm_max"])
def test_out_of_range_values_are_input_errors(tmp_path, capsys, key, value, flags):
    argv = [*flags, "--out", str(tmp_path / "x.csv")]
    if value is not None:
        argv += ["--config", _write_cfg(tmp_path / "c.cfg", {key: value})]
    assert main(argv) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"pump_log": "true"}, "pump_log"),
    ({"pump_log": "false", "pump_steps": 11}, "pump_log"),
    ({"pump_min": 0.0, "pump_max": 1e18, "pump_norm_min": 0.5}, "pump_norm_min"),
    ({"pump_max": 1e18, "pump_norm_max": 0.9}, "pump_norm_max"),
], ids=["log-on-normalized", "log-false-on-normalized", "norm_min-on-pumps",
        "norm_max-on-pumps"])
def test_pump_sweep_refuses_keys_of_the_other_grid(tmp_path, capsys, config, key):
    # The grid in use would drop the key from its run and its header.
    cfg = _write_cfg(tmp_path / "c.cfg", config)
    out = tmp_path / "x.csv"
    assert main(["pump-sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("spectrum", {"omega_min": 0, "omega_max": 5e-324, "omega_steps": 2},
     "variance_db: x values from 0.0 to 5e-324 underflow the tick step"),
    ("steady-sweep", {"pump_min": 0, "pump_max": 1.7e308, "pump_steps": 3},
     "a_par: x values from 0.0 to 1.7e+308 overflow the axis range"),
], ids=["tick-step-underflow", "axis-overflow"])
def test_plot_of_an_undrawable_range_is_an_input_error(tmp_path, capsys, command,
                                                       config, message):
    # The CSV is written before the plot and kept; the plot is refused
    # with one error line before its file is opened.
    cfg = _write_cfg(tmp_path / "c.cfg", config)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out), "--plot"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot plot {message}\n"
    assert out.exists() and not list(tmp_path.glob("*.svg"))


def test_pump_sweep_past_the_square_root_of_the_float_range_is_the_qnl(tmp_path,
                                                                       capsys):
    # omega^2 overflows to inf; every row is at variance 1, the QNL.
    cfg = _write_cfg(tmp_path / "c.cfg", {"omega": 1e308})
    out = tmp_path / "x.csv"
    assert main(["pump-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = _read_csv(out)
    variances = {row[header.index("variance")] for row in rows}
    assert variances == {"1.000000000000e+00"}


@pytest.mark.parametrize("argv, config, message", [
    (["spectrum"], {"gamma_orth_l": 0},
     "DomainError: every variance must be finite and > 0"),
    (["thresholds"], {"gamma_orth_l": 0, "omega": 0},
     "DomainError: variance must be > 0 for dB conversion, got 0.0"),
], ids=["spectrum-default-grid", "thresholds-at-dc"])
def test_perfect_squeezing_point_has_no_decibel_value(tmp_path, capsys, argv,
                                                      config, message):
    # With no orthogonal loss the variance at omega = 0 and the
    # instability intensity is exactly 0, which has no dB value.
    cfg = _write_cfg(tmp_path / "c.cfg", config)
    out = tmp_path / "x.csv"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_perfect_squeezing_spectrum_from_one_rad_per_second(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {"gamma_orth_l": 0, "omega_min": 1})
    out = tmp_path / "x.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert rows[0] == ["1.000000000000e+00", "1.110223024625e-15",
                       "-1.495458977019e+02"]


def test_i_par_past_threshold_is_a_domain_error(tmp_path, capsys):
    # In range as an input, but past the orthogonal threshold intensity,
    # where the spectrum's formula no longer applies.
    cfg = _write_cfg(tmp_path / "c.cfg", {"i_par": 1e30})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["thresholds", "--seed", "3"],
    ["spectrum", "--seed", "3"],
    ["check", "--plot"],
    ["mc-verify", "--plot"],
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_subcommand_rejects_flag_it_does_not_read(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1


def test_parser_is_built_once_and_finds_handlers_when_called(tmp_path, monkeypatch):
    # The cached parser holds handler names, so a handler replaced after
    # it was built (a monkeypatch, or a tracer's wrapper) is the one run.
    out = str(tmp_path / "x.csv")
    assert main(["spectrum", "--out", out]) == 0
    parser = cli._build_parser()
    calls = []

    def spy(cfg, out, plot):
        calls.append((out, plot))
        return 0

    monkeypatch.setattr(cli, "cmd_spectrum", spy)
    assert main(["spectrum", "--out", out, "--plot"]) == 0
    assert calls == [(out, True)]
    assert cli._build_parser() is parser


def test_unknown_config_key_is_hard_error(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {"nl_coupling_moo": 1.0})
    assert main(["thresholds", "--config", cfg]) == 1


def test_config_parse_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("stim_rate_G 12\n")
    assert main(["thresholds", "--config", str(p)]) == 1
    p.write_text("pump_steps = 2.5\n")
    assert main(["thresholds", "--config", str(p)]) == 1


_REPEATS = ("give a grid whose points do not strictly increase; widen the "
            "range or use fewer steps")


@pytest.mark.parametrize("argv, config, message", [
    (["thresholds"], {"pump_log": "maybe"},
     "config errors: line 1: cannot parse 'maybe' as bool"),
    (["steady-sweep"], {"pump_min": 1e18, "pump_max": 1e18},
     "pump grid needs min < max and steps >= 2"),
    (["spectrum"], {"omega_min": 0.0, "omega_log": "true"},
     "omega_log requires omega_min > 0"),
    (["pump-sweep"], {"pump_norm_min": 1.0, "pump_norm_max": 0.5},
     "normalized pump grid needs min < max and steps >= 2"),
    # A range too narrow for its step count repeats a point once rounded.
    (["spectrum"], {"omega_min": 0, "omega_max": 5e-324, "omega_steps": 3},
     f"omega_min, omega_max, omega_steps {_REPEATS}"),
    (["spectrum"], {"omega_min": 1, "omega_max": 1.0000000000000004,
                    "omega_steps": 5, "omega_log": "true"},
     f"omega_min, omega_max, omega_steps {_REPEATS}"),
    (["steady-sweep"], {"pump_min": 0, "pump_max": 5e-324, "pump_steps": 3},
     f"pump_min, pump_max, pump_steps {_REPEATS}"),
    (["pump-sweep"], {"pump_norm_min": 0, "pump_norm_max": 5e-324, "pump_steps": 3},
     f"pump_norm_min, pump_norm_max, pump_steps {_REPEATS}"),
], ids=["bad-bool", "grid-min-equals-max", "log-grid-min-zero", "normalized-grid",
        "repeated-omega", "repeated-log-omega", "repeated-pump",
        "repeated-normalized-pump"])
def test_config_and_grid_errors_are_one_input_error_line(tmp_path, capsys, argv,
                                                         config, message):
    cfg = _write_cfg(tmp_path / "c.cfg", config)
    out = tmp_path / "x.csv"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["thresholds", "check"])
def test_report_file_is_the_stdout_report(tmp_path, capsys, command):
    out = tmp_path / "report.txt"
    assert main([command, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert out.read_bytes() == captured.out.encode()


def test_check_reports_a_raising_helper_as_its_fail_line(monkeypatch, capsys):
    # A typed error inside one invariant fails that line, with the
    # error's type and message, and the others still run.
    def broken(params, thresholds):
        raise squeezer_sim.RootFindFailure("no root")

    monkeypatch.setattr(cli, "_check_continuity", broken)
    assert main(["check"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 5
    assert [ln for ln in lines if "FAIL" in ln] == [
        "continuity_at_thresholds: FAIL  (RootFindFailure: no root)"]


def test_check_oracle_fails_on_a_regime_mismatch(monkeypatch, capsys, reference):
    # An oracle that settles every pump dark agrees in region i and
    # parts from steady_state at the region-ii pump.
    monkeypatch.setattr(cli, "settle",
                        lambda params, pump: steady_state(params, 0.0))
    assert main(["check"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    oracle = next(ln for ln in captured.out.splitlines()
                  if ln.startswith("oracle_equivalence"))
    m = re.fullmatch(r"oracle_equivalence: FAIL  \(regime mismatch at pump (\S+)\)",
                     oracle)
    assert m and steady_state(reference, float(m[1])).regime.value == "ii"


def test_missing_config_file(tmp_path):
    assert main(["thresholds", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_unreadable_config_is_an_input_error(tmp_path, capsys):
    # A directory or a file that is not UTF-8 exits 1 with one error line.
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"stim_rate_G = 12 # \xe9\n")
    for cfg in (tmp_path, bad):
        assert main(["thresholds", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, config", [
    (["steady-sweep"], {"pump_min": 0.0, "pump_max": 2.5e18, "pump_steps": 40}),
    (["pump-sweep"], {}),
    (["pump-sweep"], {"pump_min": 1e17, "pump_max": 1e18, "pump_steps": 5,
                      "pump_log": "true"}),
    (["spectrum"], {"omega_min": 1e5, "omega_max": 1e9, "omega_steps": 7,
                    "omega_log": "true"}),
    (["mc-verify", "--negative-control"], {"segments": 16}),
], ids=["steady-sweep", "pump-sweep-normalized", "pump-sweep-log-pumps",
        "spectrum-log-omegas", "mc-verify-negative-control"])
def test_csv_header_reproduces_file(tmp_path, capsys, argv, config):
    out1 = tmp_path / "s1.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", config)
    rc = main([*argv, "--config", cfg, "--out", str(out1)])
    assert rc in (0, 3)
    comments, _, _ = _read_csv(out1)
    cfg2 = tmp_path / "from_header.cfg"
    cfg2.write_text("\n".join(comments) + "\n")
    out2 = tmp_path / "s2.csv"
    assert main([*argv, "--config", str(cfg2), "--out", str(out2)]) == rc
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", sorted(DEFAULT_OUTPUT_SHA256))
def test_default_outputs_are_pinned(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    if command == "thresholds":
        assert main([command]) == 0
        data = capsys.readouterr().out.encode()
    else:
        assert main([command, "--out", str(out)]) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEFAULT_OUTPUT_SHA256[command]


def test_log_grid_steady_sweep_is_pinned(tmp_path):
    # The benchmark's 1..1e19 log grid reaches far past the default grid's
    # 2x orthogonal threshold, deep into region iii.
    out = tmp_path / "x.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {"pump_min": 1.0, "pump_max": 1e19,
                                          "pump_steps": 2001, "pump_log": "true"})
    assert main(["steady-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    regimes = [r[1] for r in rows]
    assert [regimes.count(r) for r in ("i", "ii", "iii")] == [216, 1682, 103]
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "39dab9fb1ff239a4bf2b025d1861a1f26beb961c94899b46718df88b76d2aca1")


# SHA-256 of the pump-sweep and spectrum CSVs on the benchmark's
# 2001-point grids, measured with numpy 2.4.6 on the code from before
# the sweeps wrote their CSVs by column; the steady-sweep digest (the
# default linear grid at 2001 steps) on the code from before the CSV body
# was rendered in numpy.
GRID_2001_SHA256 = {
    ("steady-sweep", "pump_steps"):
        "77720b1d47fc6f5a698472e8fdfdd872ac6a13e2593e4f3ca76562496b24a752",
    ("pump-sweep", "pump_steps"):
        "0f9d01f2aee5aa127cec7b31b5532444ac650f2301aa7a446c2b8fcccba38c40",
    ("spectrum", "omega_steps"):
        "5e8bf8e928e85b6c69305ff8255f367bd1d0ea195616bae8e964e088bf30618b",
}


@pytest.mark.parametrize("command, key", sorted(GRID_2001_SHA256))
def test_2001_point_grids_are_pinned(tmp_path, command, key):
    out = tmp_path / "x.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {key: 2001})
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert len(_read_csv(out)[2]) == 2001
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == GRID_2001_SHA256[command, key])


def test_explicit_log_grid_pump_sweep_is_pinned(tmp_path):
    # The explicit pump grid, whose Gamma_normalized column is the grid
    # over the orthogonal threshold pump, and its --plot against that
    # column.  Measured with numpy 2.4.6 on the code from before the CLI
    # normalized the grid itself.
    out = tmp_path / "x.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {"pump_min": 1e17, "pump_max": 1e18,
                                          "pump_steps": 2001, "pump_log": "true"})
    assert main(["pump-sweep", "--config", cfg, "--out", str(out), "--plot"]) == 0
    assert len(_read_csv(out)[2]) == 2001
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "8a77febb8ef12878335ebc13d4a1b4757d9d3130516202c237bac2b6ebfb90f1")
    svg = (tmp_path / "x.variance_db.svg").read_bytes()
    assert (hashlib.sha256(svg).hexdigest()
            == "28bfd3bcf1d4d54b3542b0115e82c6a2052b7d5e672f65650a17dfe6891f74ee")


def test_log_spaced_grid(tmp_path):
    out = tmp_path / "sp.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {
        "omega_min": 1e5, "omega_max": 1e9, "omega_steps": 5,
        "omega_log": "true"})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    oms = [float(r[0]) for r in rows]
    ratios = [b / a for a, b in zip(oms, oms[1:])]
    assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)


def test_plot_emission(tmp_path):
    out = tmp_path / "ps.csv"
    assert main(["pump-sweep", "--out", str(out), "--plot"]) == 0
    svg = tmp_path / "ps.variance_db.svg"
    assert svg.exists()
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


# SHA-256 of the default-config `--plot` SVGs, measured with numpy 2.4.6
# on the code from before `svg` mapped the points with numpy; that change
# left all five byte-identical.
DEFAULT_SVG_SHA256 = {
    ("steady-sweep", "a_par"): "dec22eac9b2916156459562d72862806d71a52d1d187e6068d50e52bd18d26dc",
    ("steady-sweep", "a_orth"): "92cc47a7820774b965da3ff53916d84da51e4e8af970c2fd7a9fb6efbdddbf04",
    ("steady-sweep", "sh_power"): "8434bbb8b89ca12c862c23853c5b8c680af52a0dd2ee46e3efa60d50f2274da7",
    ("pump-sweep", "variance_db"): "06001b5c190525887530c1da2f238a4c245b517790ee4b72696ee3a94602420a",
    ("spectrum", "variance_db"): "48b27fdf1e6235b1082097b36012fc56b69c5c4f2de801ced6ba73328a4629e2",
}


@pytest.mark.parametrize("command", ["steady-sweep", "pump-sweep", "spectrum"])
def test_default_plots_are_pinned(tmp_path, command):
    assert main([command, "--out", str(tmp_path / "x.csv"), "--plot"]) == 0
    for (cmd, curve), digest in DEFAULT_SVG_SHA256.items():
        if cmd == command:
            data = (tmp_path / f"x.{curve}.svg").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, curve


# SHA-256 of the benchmark-sized `steady-sweep --plot` SVGs (pump_steps =
# 2001, on the default linear grid and on a log grid from 1 to 1e19),
# measured with numpy 2.4.6 on the code from before `svg` rendered the
# polyline in numpy.
GRID_2001_SVG_SHA256 = {
    ("lin", "a_par"): "d598ee617be9ea52881caedfdc0dd5c752ada1a5635f2b52946137e73ad7e81a",
    ("lin", "a_orth"): "cf10abe8e136698e6960659c07087452b706746d3e63bf9943331d8d17fddad5",
    ("lin", "sh_power"): "091f94a7f2f4cdb5c230e1326dcee1a5bf1a95921efa9b84d1a3267487bddaaa",
    ("log", "a_par"): "c2d3e975021899a79900df1ffa74b3978ea7109058b6947811ac9b40ab8f933a",
    ("log", "a_orth"): "7766f0e4dd2ce608b8e2346aacd6b47da05264af211b0e77e32445f48d4a2e6c",
    ("log", "sh_power"): "aa2bd38407b17dc48ec1d36a1e5bdd9334308dd53b0896c6bc6691c6e42b253f",
}
GRID_2001_CONFIGS = {
    "lin": {"pump_steps": 2001},
    "log": {"pump_min": 1, "pump_max": 1e19, "pump_steps": 2001, "pump_log": "true"},
}


@pytest.mark.parametrize("grid", sorted(GRID_2001_CONFIGS))
def test_2001_point_steady_sweep_plots_are_pinned(tmp_path, grid):
    cfg = _write_cfg(tmp_path / "c.cfg", GRID_2001_CONFIGS[grid])
    assert main(["steady-sweep", "--config", cfg,
                 "--out", str(tmp_path / "x.csv"), "--plot"]) == 0
    for (g, curve), digest in GRID_2001_SVG_SHA256.items():
        if g == grid:
            data = (tmp_path / f"x.{curve}.svg").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, curve


def test_steady_sweep_with_no_row_resolved_plots_nothing(tmp_path, monkeypatch,
                                                         capsys):
    # Every row unresolved leaves every curve NaN: no axis range, so no
    # plot, and the sweep fails as a numerical failure with its count.
    def unresolved(params, pumps):
        sweep = steady_state_sweep(params, pumps)
        nan = np.full(len(sweep.pumps), np.nan)
        return SteadySweep(sweep.pumps, np.full(len(nan), ""), nan, nan, nan,
                           nan, nan, nan, np.full(len(nan), "error:WrongRegime"))

    monkeypatch.setattr(cli, "steady_state_sweep", unresolved)
    out = tmp_path / "x.csv"
    assert main(["steady-sweep", "--out", str(out), "--plot"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "201 of 201 rows failed to resolve\n"
    assert len(_read_csv(out)[2]) == 201
    assert not list(tmp_path.glob("*.svg"))


def _run_child(*args, env=None):
    # The child imports the same package as this process, installed or not.
    src = str(Path(squeezer_sim.__file__).parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)


def test_console_entry_point_runs():
    proc = _run_child("-m", "squeezer_sim.cli", "thresholds")
    assert proc.returncode == 0
    assert "orth_threshold_intensity" in proc.stdout


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: neither importing the package
    # nor a whole mc-verify run may load any part of scipy.
    cfg = _write_cfg(tmp_path / "c.cfg", {"segments": 16})
    code = ("import sys; from squeezer_sim import cli; "
            f"code = cli.main(['mc-verify', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'mc.csv')!r}]); "
            "print(code, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_import_and_steady_sweep_load_no_fractions_or_decimal(tmp_path):
    # csvio's power-of-ten table and the ASCII tables of csvio and svg
    # come from Python ints and numpy, on first use.  A table of Fractions
    # or Decimals, or one built at import, would add to every process's
    # start-up, and so to every benchmark workload's setup time.
    loaded = ("sorted(m for m in sys.modules "
              "if m in ('fractions', 'decimal', '_decimal', '_pydecimal'))")
    built = ("[f.cache_info().currsize for f in (csvio._powers_of_ten, "
             "csvio._ascii_tables, svg._ascii_tables)]")
    code = (f"import sys, squeezer_sim; print({loaded}); "
            "from squeezer_sim import cli, csvio, svg; "
            f"print({built}); "
            f"code = cli.main(['steady-sweep', '--out', {str(tmp_path / 's.csv')!r}, "
            "'--plot']); "
            f"print(code, {loaded}, {built})")
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[]", "[0, 0, 0]", "0 [] [1, 1, 1]"]
    assert (tmp_path / "s.sh_power.svg").exists()


def test_unwritable_output_rejected(tmp_path):
    target = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert main(["steady-sweep", "--out", target]) == 1


def test_directory_output_rejected(tmp_path, capsys):
    for command in ("thresholds", "steady-sweep"):
        assert main([command, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: output path not writable")
