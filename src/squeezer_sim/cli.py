"""Command-line front end.

Subcommands: thresholds, steady-sweep, pump-sweep, spectrum, mc-verify,
check.  Configuration is a flat `key = value` text file with `#`
comments; grids are `<name>_min`, `<name>_max`, `<name>_steps` plus an
optional `<name>_log = true` for log spacing.  Unknown keys are a hard
error.  Exit codes: 0 success, 1 input/validation error, 2
numerical/solver failure, 3 statistical verification failure.

Every CSV written here embeds its resolved configuration as `# key =
value` header lines; stripping the `# ` prefix yields a config file
that reproduces the CSV byte for byte (given identical seeds).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import model
from .csvio import format_exact, snapshot_lines, write_csv
from .dynamics import settle
from .errors import (InvalidParams, SqueezerSimError, Unreachable, WrongRegime,
                     check_fits_in_memory)
from .montecarlo import compare_to_analytic, estimate_psd, run_length, simulate_decoupled
from .montecarlo import _default_band
from .params import ModelParams, reference_params, validate
from .sampling import sample_regime_pumps
from .spectra import (
    frequency_sweep_curve,
    orth_phase_variance_reduced,
    output_phase_variances,
    pump_sweep_curve,
    threshold_variance,
    to_decibel,
)
from .steadystate import (
    Regime,
    fixed_point_residual,
    laser_threshold,
    orth_threshold_intensity,
    orth_threshold_pump,
    regime_thresholds,
    steady_state,
    steady_state_sweep,
)
from .svg import line_plot_svg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_STATISTICAL = 3

_MODEL_KEYS = ("stim_rate_G", "nl_coupling_mu", "decay_k2", "decay_k3",
               "gamma_par_c", "gamma_par_l", "gamma_orth_c", "gamma_orth_l")

_SCHEMA = {
    **{k: float for k in _MODEL_KEYS},
    "pump": float,
    "pump_min": float, "pump_max": float, "pump_steps": int, "pump_log": bool,
    "pump_norm_min": float, "pump_norm_max": float,
    "omega": float,
    "omega_min": float, "omega_max": float, "omega_steps": int, "omega_log": bool,
    "i_par": float,
    "seed": int, "dt": float, "duration": float, "segments": int,
}

# Range rules, checked once the config and the --seed flag are merged, so
# a bad value is reported by its key instead of surfacing mid-run.
_FINITE_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "segments": (lambda v: v >= 8, ">= 8"),
    "dt": (lambda v: v > 0, "> 0"),
    "duration": (lambda v: v > 0, "> 0"),
    **{k: _FINITE_NONNEGATIVE for k in (
        "pump", "pump_min", "pump_max", "pump_norm_min", "pump_norm_max",
        "omega", "omega_min", "omega_max", "i_par")},
}


class ConfigError(SqueezerSimError):
    pass


def _parse_config_text(text: str) -> dict:
    values = {}
    errors = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value'")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            errors.append(f"line {ln}: unknown key '{key}'")
            continue
        typ = _SCHEMA[key]
        try:
            if typ is bool:
                if val.lower() in ("true", "1", "yes"):
                    values[key] = True
                elif val.lower() in ("false", "0", "no"):
                    values[key] = False
                else:
                    raise ValueError(val)
            else:
                values[key] = typ(val)
        except ValueError:
            errors.append(f"line {ln}: cannot parse '{val}' as {typ.__name__}")
    if errors:
        raise ConfigError("config errors: " + "; ".join(errors))
    return values


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return _parse_config_text(text)


def _check_ranges(cfg: dict):
    bad = [f"{key} must be {rule}, got {cfg[key]!r}"
           for key, (ok, rule) in _RANGES.items() if key in cfg and not ok(cfg[key])]
    if bad:
        raise ConfigError("out of range: " + "; ".join(bad))


def _model_params(cfg: dict) -> ModelParams:
    base = reference_params().as_dict()
    base.update({k: cfg[k] for k in _MODEL_KEYS if k in cfg})
    return validate(base)


# Peak bytes a grid subcommand holds per grid row.  A 2001-point
# `steady-sweep --plot` measures about 352 under tracemalloc (pump-sweep
# --plot 391, spectrum --plot 302), most of it in the CSV and SVG
# writers.  The factor is about 1.45 times the steady-sweep peak,
# headroom for numpy's temporaries and for grids of other sizes.
_GRID_BYTES_PER_ROW = 512


def _check_grid_fits(key: str, steps: int):
    """DomainError, before anything is allocated, for a grid of `steps`
    rows whose subcommand would not fit in physical memory."""
    check_fits_in_memory(_GRID_BYTES_PER_ROW * steps, f"a grid of {steps} steps",
                         f"lower {key}")


def _check_increasing(grid: np.ndarray, keys: str) -> np.ndarray:
    """ConfigError unless the grid's points strictly increase; a range
    too narrow for its step count repeats a point when it rounds."""
    if np.any(grid[1:] <= grid[:-1]):
        raise ConfigError(f"{keys} give a grid whose points do not strictly "
                          "increase; widen the range or use fewer steps")
    return grid


def _grid(cfg: dict, name: str, default_min: float, default_max: float,
          default_steps: int) -> tuple[np.ndarray, dict]:
    """The `name` grid and its resolved `<name>_*` keys for the header."""
    lo = cfg.get(f"{name}_min", default_min)
    hi = cfg.get(f"{name}_max", default_max)
    steps = cfg.get(f"{name}_steps", default_steps)
    log = bool(cfg.get(f"{name}_log", False))
    if steps < 2 or not (hi > lo):
        raise ConfigError(f"{name} grid needs min < max and steps >= 2")
    if log and lo <= 0:
        raise ConfigError(f"{name}_log requires {name}_min > 0")
    _check_grid_fits(f"{name}_steps", steps)
    grid = _check_increasing((np.geomspace if log else np.linspace)(lo, hi, steps),
                             f"{name}_min, {name}_max, {name}_steps")
    return grid, {f"{name}_min": float(grid[0]), f"{name}_max": float(grid[-1]),
                  f"{name}_steps": steps, f"{name}_log": log}


def _check_out_writable(path: str):
    parent = Path(path).resolve().parent
    if (not path or Path(path).is_dir() or not parent.is_dir()
            or not os.access(parent, os.W_OK)):
        raise ConfigError(f"output path not writable: {path}")


def _emit_report(text: str, out: str | None):
    print(text, end="")
    if out:
        Path(out).write_text(text, encoding="utf-8")


def _plot(out: str, curve: str, x, y, **labels):
    """Write the curve next to the CSV as <out stem>.<curve>.svg.

    An axis range the plot cannot draw is an input error (exit 1); the
    CSV is already written and is kept.
    """
    path = str(Path(out).with_suffix("")) + f".{curve}.svg"
    try:
        line_plot_svg(path, x, y, **labels)
    except ValueError as exc:
        raise ConfigError(f"cannot plot {curve}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_thresholds(cfg: dict, out: str | None) -> int:
    params = _model_params(cfg)
    omega = cfg.get("omega", 4.0 * math.pi * 1e6)
    g_laser = laser_threshold(params)  # each raises Unreachable with its reason
    g_orth = orth_threshold_pump(params)
    v = threshold_variance(params, omega)
    lines = [
        f"laser_threshold = {format_exact(g_laser)}",
        f"orth_threshold_pump = {format_exact(g_orth)}",
        f"orth_threshold_intensity = {format_exact(orth_threshold_intensity(params))}",
        f"threshold_variance = {format_exact(v)}",
        f"threshold_variance_db = {format_exact(to_decibel(v))}",
    ]
    _emit_report("\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_steady_sweep(cfg: dict, out: str, plot: bool) -> int:
    params = _model_params(cfg)
    thresholds = regime_thresholds(params)
    if "pump_max" not in cfg and not math.isfinite(thresholds[1]):
        laser_threshold(params)  # raises Unreachable with its own reason
        raise Unreachable("cannot build a default pump grid: orthogonal-mode "
                          "threshold unreachable; give pump_min/max/steps")
    pumps, grid_keys = _grid(cfg, "pump", 0.0, 2.0 * thresholds[1], 201)
    snapshot = {**params.as_dict(), **grid_keys}
    sweep = steady_state_sweep(params, pumps)
    columns = ["Gamma", "regime", "a_par", "a_orth",
               "sigma1", "sigma2", "sigma3", "sh_power", "status"]
    write_csv(out, columns, [sweep.pumps, *(getattr(sweep, c) for c in columns[1:])],
              comments=snapshot_lines(snapshot))
    if plot:
        for name in ("a_par", "a_orth", "sh_power"):
            values = getattr(sweep, name)
            if np.isfinite(values).any():  # else no row resolved: no plot
                _plot(out, name, sweep.pumps, values,
                      title=name, xlabel="pump rate (1/s)", ylabel=name)
    bad = int(np.count_nonzero(sweep.status != "ok"))
    if bad:
        print(f"{bad} of {len(pumps)} rows failed to resolve", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_pump_sweep(cfg: dict, out: str, plot: bool) -> int:
    # The header records the grid keys the user gave: an explicit pump
    # grid, or the default grid normalized to the oscillation threshold.
    # A key of the other grid would be dropped unused, so it is an error.
    explicit = "pump_min" in cfg or "pump_max" in cfg
    stray = [k for k in (("pump_norm_min", "pump_norm_max") if explicit
                         else ("pump_log",)) if k in cfg]
    if stray:
        grid = "pump_min/pump_max" if explicit else "linear normalized"
        raise ConfigError(f"{', '.join(stray)} does not apply to the {grid} pump grid")
    params = _model_params(cfg)
    omega = cfg.get("omega", 4.0 * math.pi * 1e6)
    if explicit:
        pumps, grid_keys = _grid(cfg, "pump", 0.0, 0.0, 101)
        sweep = pump_sweep_curve(params, omega, pumps=pumps)
        normalized = sweep.pumps / orth_threshold_pump(params)
    else:
        lo = cfg.get("pump_norm_min", 0.0)
        hi = cfg.get("pump_norm_max", 1.0)
        steps = cfg.get("pump_steps", 101)
        if steps < 2 or not (hi > lo):
            raise ConfigError("normalized pump grid needs min < max and "
                              "steps >= 2")
        _check_grid_fits("pump_steps", steps)
        normalized = _check_increasing(np.linspace(lo, hi, steps),
                                       "pump_norm_min, pump_norm_max, pump_steps")
        laser_threshold(params)  # raises Unreachable with its own reason
        sweep = pump_sweep_curve(params, omega,
                                 normalized * orth_threshold_pump(params))
        grid_keys = {"pump_norm_min": float(normalized[0]),
                     "pump_norm_max": float(normalized[-1]),
                     "pump_steps": len(normalized)}
    above = int(np.count_nonzero(sweep.status == "above_orth"))
    if above:
        raise WrongRegime(f"{above} grid points lie above the oscillation "
                          "threshold; restrict the grid to the lasing-only "
                          "region")
    snapshot = {**params.as_dict(), "omega": float(omega), **grid_keys}
    db = to_decibel(sweep.variances)
    write_csv(out, ["Gamma", "Gamma_normalized", "variance", "variance_db"],
              [sweep.pumps, normalized, sweep.variances, db],
              comments=snapshot_lines(snapshot))
    if plot:
        _plot(out, "variance_db", normalized, db,
              title="phase-quadrature noise vs pump",
              xlabel="pump / oscillation-threshold pump", ylabel="variance (dB)")
    return EXIT_OK


def cmd_spectrum(cfg: dict, out: str, plot: bool) -> int:
    params = _model_params(cfg)
    omegas, grid_keys = _grid(cfg, "omega", 0.0, 10.0 * params.gamma_orth, 501)
    if "i_par" in cfg:
        i_par = cfg["i_par"]
    elif "pump" in cfg:
        ss = steady_state(params, cfg["pump"])
        if ss.regime is not Regime.LaserOnly:
            raise WrongRegime(
                f"pump {cfg['pump']!r} is not in the lasing-only region")
        i_par = ss.i_par
    else:
        i_par = orth_threshold_intensity(params)
    curve = frequency_sweep_curve(params, i_par, omegas)
    snapshot = {**params.as_dict(), "i_par": float(i_par), **grid_keys}
    db = to_decibel(curve.variances)
    write_csv(out, ["omega_rad_s", "variance", "variance_db"],
              [curve.omegas, curve.variances, db], comments=snapshot_lines(snapshot))
    if plot:
        _plot(out, "variance_db", curve.omegas, db,
              title="phase-quadrature spectrum",
              xlabel="analysis frequency (rad/s)", ylabel="variance (dB)")
    return EXIT_OK


def _mc_leg(params, i_par, seed, dt, duration, segments, analytic_params):
    """Simulate, estimate and compare one mc-verify run at i_par.

    The comparison goes over the default band of the simulated `params`,
    so a perturbed analytic reference is checked on the same bins.  Only
    the estimate and the comparison outlive the call, so the series of
    one run is freed before the next run allocates its own.
    """
    run = simulate_decoupled(params, i_par, seed, dt, duration, segments)
    est = estimate_psd(run)
    return est, compare_to_analytic(est, analytic_params, i_par,
                                    band=_default_band(params))


def cmd_mc_verify(cfg: dict, out: str, negative_control: bool) -> int:
    params = _model_params(cfg)
    i_star = orth_threshold_intensity(params)
    seed = cfg.get("seed", 7)
    # Enough averaging that a 20% miscalibration of gamma_orth_c stands
    # out at > 4 per-bin standard errors while the true model keeps
    # comfortable margin below.
    segments = cfg.get("segments", 2048)
    lam = 2.0 * params.gamma_orth  # relaxation rate at threshold
    dt = cfg.get("dt", 0.16 / lam)
    duration = cfg.get("duration", segments * 512 * dt)

    analytic_params = params
    if negative_control:
        d = params.as_dict()
        d["gamma_orth_c"] *= 1.2
        analytic_params = validate(d)

    # The QNL leg relaxes at gamma_orth, half the threshold rate, so at
    # the same lam*dt and duration it has the same segments and bins
    # from half the samples.  Both legs are sized before either
    # allocates, and each draws from its own child of the seed.
    qnl_dt = dt * lam / params.gamma_orth
    run_length(params, i_star, dt, duration, segments)
    run_length(params, 0.0, qnl_dt, duration, segments)
    thr_seed, qnl_seed = np.random.SeedSequence(seed).spawn(2)
    est_thr, res_thr = _mc_leg(params, i_star, thr_seed, dt, duration,
                               segments, analytic_params)
    _, res_qnl = _mc_leg(params, 0.0, qnl_seed, qnl_dt, duration, segments,
                         analytic_params)

    snapshot = {**params.as_dict(), "seed": int(seed), "dt": float(dt),
                "duration": float(duration), "segments": int(segments),
                "i_par": float(i_star)}
    comments = snapshot_lines(snapshot)
    if negative_control:
        # Commented out once more, so that the stripped header stays a
        # config file; --negative-control on the rerun writes it again.
        comments.append("# negative_control_gamma_orth_c = "
                        + format_exact(analytic_params.gamma_orth_c))
    write_csv(out, ["omega_rad_s", "psd", "analytic", "deviation_sigma"],
              [res_thr[k] for k in ("omegas", "psd", "analytic", "deviations")],
              comments=comments)

    ok = res_thr["pass"] and res_qnl["pass"]
    lines = [
        f"qnl_calibration_max_sigma = {format_exact(res_qnl['max_sigma_deviation'])}",
        f"qnl_calibration_bins = {res_qnl['n_bins']}",
        f"threshold_max_sigma = {format_exact(res_thr['max_sigma_deviation'])}",
        f"threshold_bins = {res_thr['n_bins']}",
        f"welch_segments = {est_thr.n_segments}",
        f"rel_std_err = {format_exact(est_thr.rel_std_err)}",
        f"negative_control = {format_exact(bool(negative_control))}",
        f"verdict = {'pass' if ok else 'fail'}",
    ]
    _emit_report("\n".join(lines) + "\n", None)
    return EXIT_OK if ok else EXIT_STATISTICAL


# ---------------------------------------------------------------------------
# check: cross-module invariant suite
# ---------------------------------------------------------------------------

def _regime2_pumps(params, thresholds, n, rng) -> np.ndarray:
    lo, hi = 1.000001 * thresholds[0], 0.999999 * thresholds[1]
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def _check_route_equivalence(params, pumps):
    # The input-output solve on the model's orthogonal phase rate against
    # the closed form; in region ii a_orth = 0, so the modes decouple.
    omegas = (0.0, 0.3 * params.gamma_orth, 3.0 * params.gamma_orth)
    io, i_par = [], []
    for g in pumps:
        ss = steady_state(params, g)
        a, b = ss.a_par, ss.a_orth
        drift = [[model.phase_drift(params, a, b, ss.sigma2, ss.sigma3)[1][1]]]
        io.append([output_phase_variances(params, drift, a, b, (1,), w)[0]
                   for w in omegas])
        i_par.append(ss.i_par)
    red = orth_phase_variance_reduced(params, np.array(i_par)[:, None], omegas)
    worst = float(np.max(np.abs(np.array(io) - red) / red))
    return worst <= 1e-12, f"max relative split {worst:.2e} (tol 1e-12)"


def _check_fixed_point(params, pumps):
    # The closed forms derive the populations from i_par; this asks the
    # rate equations themselves, at the configured rates.
    worst = max(fixed_point_residual(params, g, steady_state(params, g))
                for g in pumps)
    return worst <= 1e-10, f"max scaled residual {worst:.2e} (tol 1e-10)"


def _check_continuity(params, thresholds):
    worst = 0.0
    i_star = orth_threshold_intensity(params)
    for g0 in thresholds:
        lo = steady_state(params, g0 * (1.0 - 1e-8))
        hi = steady_state(params, g0 * (1.0 + 1e-8))
        for a, b, scale in (
                (lo.sigma1, hi.sigma1, 1.0), (lo.sigma2, hi.sigma2, 1.0),
                (lo.sigma3, hi.sigma3, 1.0),
                (lo.i_par, hi.i_par, i_star), (lo.i_orth, hi.i_orth, i_star)):
            worst = max(worst, abs(a - b) / scale)
    return worst <= 1e-6, f"max jump {worst:.2e} relative to scale (tol 1e-6)"


def _check_jacobian_fd(params, rng):
    # Differences the rates over the four coordinates the oracle carries
    # against the J4 it steps with.
    pump = float(10.0 ** rng.uniform(-1, 1) * params.decay_k3)
    f, jac = model.rate_equations(params, pump)
    worst = 0.0
    for _ in range(100):
        y = np.concatenate([rng.uniform(0, 3, size=2), rng.uniform(0, 1, size=3)])
        J = np.array(jac(*y.tolist()))
        scales = np.array(model.rate_scales_at(params, pump, *y.tolist()))
        for j in range(4):
            h = 1e-6 * max(1.0, abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            if j >= 2:  # sigma3 = 1 - sigma1 - sigma2 moves the other way
                yp[4] -= h
                ym[4] += h
            col = (np.array(f(*yp.tolist())) - np.array(f(*ym.tolist()))) / (2 * h)
            # Differencing cannot resolve elements below its own rounding
            # noise, ~eps * equation magnitude / h; elements under that
            # floor are unverifiable rather than wrong.
            fd_noise = 1e-10 * scales / h
            denom = np.maximum(np.abs(J[:, j]), fd_noise)
            worst = max(worst, float(np.max(np.abs(col - J[:, j]) / denom)))
    return worst <= 1e-5, f"max relative element error {worst:.2e} (tol 1e-5)"


def _check_oracle(params, rng):
    worst = 0.0
    for region in ("i", "ii", "iii"):
        g = sample_regime_pumps(rng, params, region)
        ss = steady_state(params, g)
        st = settle(params, g)
        ref, got = ss.state_vector(), st.state_vector()
        scale = np.maximum(np.abs(ref), 1e-9 * float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
        if st.regime is not ss.regime:
            return False, f"regime mismatch at pump {g!r}"
    return worst <= 1e-5, f"max componentwise error {worst:.2e} (tol 1e-5)"


def cmd_check(cfg: dict, out: str | None) -> int:
    params = _model_params(cfg)
    rng = np.random.default_rng(cfg.get("seed", 0))
    thresholds = regime_thresholds(params)
    has_window = math.isfinite(thresholds[0]) and math.isfinite(thresholds[1])

    checks = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
            checks.append((name, "PASS" if ok else "FAIL", detail))
        except SqueezerSimError as exc:
            checks.append((name, "FAIL", f"{type(exc).__name__}: {exc}"))

    if has_window:
        regime2 = _regime2_pumps(params, thresholds, 140, rng)
        regime3 = [m * thresholds[1] for m in (1.2, 2.0, 3.5)]
        run("route_equivalence", _check_route_equivalence, params, regime2[:100])
        run("fixed_point_residual", _check_fixed_point, params, [*regime2, *regime3])
        run("continuity_at_thresholds", _check_continuity, params, thresholds)
        run("oracle_equivalence", _check_oracle, params, rng)
    else:
        for name in ("route_equivalence", "fixed_point_residual",
                     "continuity_at_thresholds", "oracle_equivalence"):
            checks.append((name, "SKIP", "no lasing window for these "
                                         "parameters"))
    run("jacobian_fd", _check_jacobian_fd, params, rng)

    lines = [f"{name}: {status}  ({detail})" for name, status, detail in checks]
    _emit_report("\n".join(lines) + "\n", out)
    return EXIT_NUMERICAL if any(s == "FAIL" for _, s, _ in checks) else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="squeezer-sim",
                     description="Intracavity type-II doubler noise simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    plot = ("--plot", {"action": "store_true",
                       "help": "emit SVG plots next to the CSV"})
    seed = ("--seed", {"type": int, "default": None,
                       "help": "override the config seed"})
    negative = ("--negative-control", {
        "action": "store_true",
        "help": "perturb gamma_orth_c by +20%% in the analytic reference "
                "(must fail)"})
    # Each subcommand, its handler's name, the default --out (the CSV
    # writers write <command>.csv) and the flags it reads besides
    # --config/--out.  The parser is built once, so it holds names:
    # `main` looks each handler up when it runs, and a wrapped or
    # replaced handler is the one called.
    for name, handler, default_out, flags in (
            ("thresholds", "cmd_thresholds", None, ()),
            ("steady-sweep", "cmd_steady_sweep", "steady_sweep.csv", (plot,)),
            ("pump-sweep", "cmd_pump_sweep", "pump_sweep.csv", (plot,)),
            ("spectrum", "cmd_spectrum", "spectrum.csv", (plot,)),
            ("mc-verify", "cmd_mc_verify", "mc_verify.csv", (seed, negative)),
            ("check", "cmd_check", None, (seed,))):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value file")
        p.add_argument("--out", default=default_out, help="output path")
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        del args["command"]
        handler = globals()[args.pop("handler")]
        cfg = load_config(args.pop("config"))
        seed = args.pop("seed", None)
        if seed is not None:
            cfg["seed"] = seed
        _check_ranges(cfg)
        if args["out"] is not None:
            _check_out_writable(args["out"])
        return handler(cfg, **args)
    except (ConfigError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SqueezerSimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
