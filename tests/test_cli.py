import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezer_sim
from squeezer_sim.cli import main

OMEGA_2MHZ = 4.0 * math.pi * 1e6

# SHA-256 of the default mc-verify CSV and stdout report at --seed 7,
# measured with numpy 2.4.6 and scipy 1.17.1.  Another build of numpy's
# Philox stream, scipy's lfilter or its FFT may move the last digits.
MC_VERIFY_SEED7_CSV_SHA256 = (
    "c376a69f257f9246b63dd77ff80f9ef7746725844cbfb26cb525d45e2b00868f")
MC_VERIFY_SEED7_REPORT_SHA256 = (
    "4b8dfef356b5a34395a9d67205d4ecb70d909ff5d5091dbb8bfc8ba877105cf1")


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
    cfg = _write_cfg(tmp_path / "c.cfg", {"stim_rate_G": 1.0})
    assert main(["thresholds", "--config", cfg]) == 2


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


def test_mc_verify_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["mc-verify", "--out", str(a), "--seed", "11"]) == 0
    assert main(["mc-verify", "--out", str(b), "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_reference_config_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("route_equivalence", "clamping_identities",
                 "oracle_equivalence", "jacobian_fd"):
        assert f"{name}: PASS" in out
    # The oracle runs on the configured rates, not on a substitute family.
    oracle = next(ln for ln in out.splitlines() if ln.startswith("oracle_equivalence"))
    assert "bundled" not in oracle


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
], ids=["seed-key", "seed-flag-mc-verify", "seed-flag-check", "segments", "dt",
        "duration", "omega-thresholds", "omega-pump-sweep", "omega_min", "i_par"])
def test_out_of_range_values_are_input_errors(tmp_path, capsys, key, value, flags):
    argv = [*flags, "--out", str(tmp_path / "x.csv")]
    if value is not None:
        argv += ["--config", _write_cfg(tmp_path / "c.cfg", {key: value})]
    assert main(argv) == 1
    assert key in capsys.readouterr().err


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


def test_unknown_config_key_is_hard_error(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", {"nl_coupling_moo": 1.0})
    assert main(["thresholds", "--config", cfg]) == 1


def test_config_parse_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("stim_rate_G 12\n")
    assert main(["thresholds", "--config", str(p)]) == 1
    p.write_text("pump_steps = 2.5\n")
    assert main(["thresholds", "--config", str(p)]) == 1


def test_missing_config_file(tmp_path):
    assert main(["thresholds", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_csv_header_reproduces_file(tmp_path):
    out1 = tmp_path / "s1.csv"
    cfg = _write_cfg(tmp_path / "c.cfg", {
        "pump_min": 0.0, "pump_max": 2.5e18, "pump_steps": 40})
    assert main(["steady-sweep", "--config", cfg, "--out", str(out1)]) == 0
    comments, _, _ = _read_csv(out1)
    cfg2 = tmp_path / "from_header.cfg"
    cfg2.write_text("\n".join(comments) + "\n")
    out2 = tmp_path / "s2.csv"
    assert main(["steady-sweep", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def _run_child(*args):
    # The child imports the same package as this process, installed or not.
    src = str(Path(squeezer_sim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)


def test_console_entry_point_runs():
    proc = _run_child("-m", "squeezer_sim.cli", "thresholds")
    assert proc.returncode == 0
    assert "orth_threshold_intensity" in proc.stdout


def test_import_loads_no_scipy():
    # Importing scipy.signal costs over a second and about 50 MB of RSS,
    # so only simulate_decoupled and estimate_psd import it, when called.
    proc = _run_child("-c", "import sys, squeezer_sim; print(sorted(m for m in "
                      "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_unwritable_output_rejected(tmp_path):
    target = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert main(["steady-sweep", "--out", target]) == 1
