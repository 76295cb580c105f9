"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py          # about three minutes

1. A planted wrong answer counts as a failed op, not as a crash: each
   workload's checks are fed an answer computed with gamma_orth_c x 1.2
   (the perturbation `mc-verify --negative-control` applies) or a moved
   pump, and must count it.
2. Every metric in BENCHMARK.json is emitted with its unit by a short
   run of every workload, with --trace 0 (end to end) and --trace 1
   (per layer).
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero and prints no result.

Exits 1 on the first failed self-check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    print(f"SELF-CHECK FAILED: {msg}")
    sys.exit(1)


@contextmanager
def patched(namespace, attr, value):
    original = getattr(namespace, attr)
    setattr(namespace, attr, value)
    try:
        yield
    finally:
        setattr(namespace, attr, original)


def _skewed(params):
    """The parameter set with gamma_orth_c x 1.2, as the negative control uses."""
    d = params.as_dict()
    d["gamma_orth_c"] *= 1.2
    return type(params)(**d)


def planted_answers(tmp: Path):
    sq = run._import_package()
    import numpy as np
    import squeezer_sim.cli
    import squeezer_sim.montecarlo
    import squeezer_sim.spectra
    import workloads

    orig_tv = sq.spectra.threshold_variance
    orig_red = sq.spectra.orth_phase_variance_reduced

    def expect(op, planted, what):
        if op.failed == 0 and planted:
            fail(f"{what}: planted wrong answer was not counted")
        if op.failed and not planted:
            fail(f"{what}: correct answer counted as failed: {dict(op.reasons)}")
        print(f"ok  {what}: {'planted' if planted else 'clean'} -> failed {op.failed}")

    # point-query: threshold_variance answered on the skewed set.
    wl = workloads.PointQuery(1, tmp)
    rng = np.random.default_rng(0)
    op = wl._query("threshold_variance", sq.reference_params(), rng)
    expect(op(), False, "point-query threshold_variance")
    with patched(sq, "threshold_variance", lambda p, w: orig_tv(_skewed(p), w)):
        op = wl._query("threshold_variance", sq.reference_params(), rng)
        expect(op(), True, "point-query threshold_variance")

    # sweep: the thresholds report and the spectrum rows.
    wl = workloads.Sweep(1, tmp)
    expect(wl._thresholds(), False, "sweep thresholds report")
    with patched(sq.cli, "threshold_variance", lambda p, w: orig_tv(_skewed(p), w)):
        expect(wl._thresholds(), True, "sweep thresholds report")
    with patched(sq.spectra, "orth_phase_variance_reduced",
                 lambda p, i, w: orig_red(_skewed(p), i, w)):
        expect(wl._spectrum(), True, "sweep spectrum rows")

    # oracle-settle: settle answers at a pump 20% too high.
    wl = workloads.OracleSettle(1, tmp)
    g = 0.9 * workloads.refs.laser_threshold(workloads.refs.MODERATE)
    with patched(sq, "settle", lambda p, pump: sq.steady_state(p, pump)):
        expect(wl._settle(wl.moderate, g), False, "oracle-settle settle")
    with patched(sq, "settle", lambda p, pump: sq.steady_state(p, 1.2 * pump)):
        expect(wl._settle(wl.moderate, g), True, "oracle-settle settle")

    # mc-verify: a normal run whose analytic reference uses the skewed set.
    wl = workloads.McVerify(1, tmp)
    with patched(sq.montecarlo, "orth_phase_variance_reduced",
                 lambda p, i, w: orig_red(_skewed(p), i, w)):
        expect(wl._run(1, False), True, "mc-verify analytic reference")


def metrics_emitted():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for name in run.WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{name} --trace {trace}: metrics {got} != {want}")
            print(f"ok  {name} --trace {trace}: {len(got)} metrics with units")


def bare_directory(tmp: Path):
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    tmp = run.TMP / "selfcheck"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        planted_answers(tmp)
        bare_directory(tmp)
        metrics_emitted()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.TMP.rmdir()  # only if no benchmark run is using it
        except OSError:
            pass
    print("all self-checks passed")


if __name__ == "__main__":
    main()
