"""squeezer-sim benchmark: one workload per run, checked and timed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root (or any copy holding `src/`).  The package
is imported from `src/` next to this directory, never from an installed
copy; without it the run exits 2 and prints no result.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run (see perfbench/README.md for both lists and the
layer map).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
human-readable summary and the run environment.  `--workload all` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("sweep", "point-query", "mc-verify", "oracle-settle")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _hold_steady() -> tuple[int, int]:
    """Pin this process, and the processes it starts, to one CPU and cap
    BLAS/OpenMP pools at one thread.  Returns (CPUs available, CPU used).

    The cli worker pool is bound by the interpreter lock, so it loses
    little on one CPU; in exchange the calibration kernel (clock.py)
    runs on the very CPU whose speed it corrects for.
    """
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(cpus), cpu


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_package():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import squeezer_sim

    if Path(squeezer_sim.__file__).resolve().parent != (SRC / "squeezer_sim").resolve():
        raise SystemExit(f"squeezer_sim imported from {squeezer_sim.__file__}, not {SRC}")
    return squeezer_sim


def _environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": None,
        "caches": {},
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "SQUEEZER_SIM_THREADS": os.environ.get("SQUEEZER_SIM_THREADS", "default"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return env


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(calibrated, raw) seconds from launching a fresh interpreter until
    the workload is ready, once per repeat."""
    import clock

    cal, raw = [], []
    clock.kernel()  # the first run is slow (cold caches); discard it
    before = clock.quiet_kernel()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"setup probe for {workload} failed")
        after = clock.quiet_kernel()
        raw.append(elapsed)
        cal.append(elapsed * clock.NOMINAL_S / (0.5 * (before + after)))
        before = after
    return cal, raw


def _import_seconds(module: str) -> float:
    """Cumulative import time of `module` in a fresh interpreter (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import squeezer_sim"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    return 0.0


def _passes(wl, seconds: float):
    """The workload's once-per-window ops, then passes until the next
    one would overrun `seconds`.

    Returns (once ops, passes) with each op's time calibrated (clock.py);
    the raw time is kept as op.raw.
    """
    import clock

    timer = clock.Clock()
    t0 = time.perf_counter()
    once = wl.run_once(timer)
    passes, durations = [], []
    while True:
        p0 = time.perf_counter()
        passes.append(wl.run_pass(timer))
        durations.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        if len(passes) >= wl.min_passes and elapsed + statistics.median(durations) > seconds:
            break
    timer.close()
    for op in once + [op for p in passes for op in p]:
        op.raw = op.seconds
        op.seconds *= timer.factor(op.segment)
    return once, passes


def _pass_seconds(passes, attr="seconds"):
    """Time of one pass, each operation taken as its median over the
    passes, so a burst of host slowness that hits one operation of one
    pass does not move it.  Every pass runs the same operations."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes)
               for i in range(len(passes[0])))


def _percentile_ms(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def _end_to_end(wl, once, passes, setup, setup_raw):
    ops = once + [op for p in passes for op in p]
    name, unit, scale = wl.throughput
    latencies = [op.seconds for op in ops]
    wall = _pass_seconds(passes)
    items = statistics.median(sum(op.items for op in p) for p in passes)
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary = [
        f"setup_s = {m['setup_s'][0]:.4f} s (median of {len(setup)} fresh interpreters; "
        f"raw {statistics.median(setup_raw):.4f} s)",
        f"wall_s = {wall:.4f} s (per-operation medians over {len(passes)} passes; "
        f"raw {_pass_seconds(passes, 'raw'):.4f} s)",
        f"op_p50_ms = {m['op_p50_ms'][0]:.4f} ms (n = {len(ops)} ops; raw "
        f"{statistics.median(op.raw for op in ops) * 1e3:.4f} ms)",
    ]
    if len(ops) >= 100:
        summary.append(f"op_p90_ms = {_percentile_ms(latencies, 90):.4f} ms "
                       f"(n = {len(ops)}, {len(ops) // 10} beyond)")
    summary += [
        f"{name} = {m['items_per_s'][0] * scale:.6g} {unit}",
        f"peak_rss_mb = {m['peak_rss_mb'][0]:.1f} MB",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, summary


def _per_layer(tracer, traced, plain):
    import layertrace

    m = tracer.metrics(len(traced))
    m["model.rhs_us"] = layertrace.rhs_call_us()
    m["montecarlo.import_s"] = _import_seconds("squeezer_sim.montecarlo")
    wall = [_pass_seconds(group) for group in (traced, plain)]
    m["trace.overhead_s"] = wall[0] - wall[1]
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {u["name"]: {"value": float(m[u["name"]]), "unit": u["unit"]} for u in units}


def run_one(args) -> int:
    nproc, cpu = _hold_steady()
    sq = _import_package()
    if not (args.trace or args.setup_probe):
        setup, setup_raw = _measure_setup(args.workload, args.seed)
    import workloads

    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        wl.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = _environment(nproc, cpu)
        if args.trace:
            import layertrace

            once, plain = _passes(wl, args.seconds / 2)
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                traced_once, traced = _passes(wl, args.seconds / 2)
            finally:
                tracer.uninstall()
            once += traced_once
            passes = plain + traced
            metrics = _per_layer(tracer, traced, plain)
            summary = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        else:
            once, passes = _passes(wl, args.seconds)
            metrics, summary = _end_to_end(wl, once, passes, setup, setup_raw)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    ops = once + [op for p in passes for op in p]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    reasons = {}
    for op in ops:
        for k, v in op.reasons.items():
            reasons[k] = reasons.get(k, 0) + v
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"package {sq.__file__}")
    for line in summary:
        print(f"  {line}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for k, v in sorted(reasons.items()):
        print(f"    failed {k}: {v}")
    print(f"  reruns_identical = {wl.mismatches == 0}")
    print(json.dumps({"correct": wl.mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "squeezer_sim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/squeezer_sim", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
