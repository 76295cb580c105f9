"""The four benchmark workloads.

Each workload is a fixed list of timed operations (one pass), generated
from the benchmark seed and run closed loop by a single caller.  The
runner repeats passes until its time is up.  Only the calls into the
package are timed; generating inputs and checking outputs is not.

Every result is checked against `refs`, which shares no code with the
package.  An operation fails when it raises, exits with a code other
than the expected one, or gives an answer its check rejects; failures
are counted, never raised.  Every pass of a run repeats the same
operations.  Outputs are hashed, and every later run of an operation
must reproduce its first run's bytes; each operation counts once toward
`attempted` and `failed`, so both depend on the seed and not on how many
passes fit in the time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import squeezer_sim as sq
import squeezer_sim.cli
import squeezer_sim.sampling

import refs

REGIONS = ("i", "ii", "iii")
NO_FAILURES = Counter()  # shared by every checked rerun; never mutated


@dataclass(slots=True)
class Op:
    """One timed call and its checked outcome."""

    kind: str
    seconds: float
    items: int  # units of work the throughput metric counts
    attempted: int  # results checked (rows, queries, runs, settles)
    reasons: Counter  # why each failure failed
    digest: str  # hash of every output, compared across passes
    segment: int = 0  # calibration segment the call ran in (clock.Clock)
    raw: float = 0.0  # uncalibrated seconds, once `seconds` is calibrated

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


def _timed(fn, *args):
    """(seconds, result); an exception is returned, not raised.

    The caller counts it as a failed op.  Errors outside the package's
    own hierarchy are unexpected, so their traceback goes to stderr.
    """
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        seconds = time.perf_counter() - t0
        if not isinstance(exc, sq.SqueezerSimError):
            traceback.print_exc(file=sys.__stderr__)
        return seconds, exc
    return time.perf_counter() - t0, out


def _cli(argv):
    """cli.main in process, stdout/stderr captured in memory.

    An exception escaping main is reported as the exit code
    "raised:<type>", which no check expects.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        seconds, rc = _timed(sq.cli.main, argv)
    if isinstance(rc, Exception):
        rc = f"raised:{type(rc).__name__}"
    return seconds, rc, out.getvalue(), err.getvalue()


def _cli_op(kind, argv, outputs, check) -> Op:
    """One timed CLI call, then check(rc, stdout) -> (items, attempted, reasons).

    The outputs are deleted first, so a file left by an earlier pass is
    never checked; a missing or malformed output is one failure.
    """
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    sec, rc, out, _ = _cli(argv)
    try:
        items, attempted, reasons = check(rc, out)
        digest = _digest(rc, out, *(Path(p).read_bytes() for p in outputs))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Op(kind, sec, 0, 1, Counter({f"malformed-output:{type(exc).__name__}": 1}),
                  _digest(rc, out, type(exc).__name__))
    return Op(kind, sec, items, attempted, reasons, digest)


def _failures(**checks) -> Counter:
    """Counter of the names whose check failed (value: count or bool)."""
    return Counter({k: int(v) for k, v in checks.items() if v})


def _one_failure(**checks) -> Counter:
    """At most one failure, named after every check that failed."""
    failing = sorted(k for k, v in checks.items() if v)
    return Counter({"+".join(failing): 1}) if failing else Counter()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path):
    """(header comments as dict, column names, rows as lists of str)."""
    meta, rows, cols = {}, [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, cols, rows


def _report(text):
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _state_ok(got_regime, got, p, pump, thr):
    """Regime and componentwise state (1e-5) against refs."""
    reg, ref = refs.steady_state(p, pump, thr)
    if got_regime != reg and not refs.near_threshold(p, pump, thr):
        return False
    return refs.state_error(got, ref) <= 1e-5


class Workload:
    name = ""
    min_passes = 1
    # (metric name, unit, scale) of the throughput line in the summary
    throughput = ("items_per_s", "1/s", 1.0)

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.first = {}  # (key, op index) -> output digest of the first run
        self.mismatches = 0  # reruns whose outputs differ from the first run
        self._pass = None  # the pass's ops, made on first use

    def warm_up(self):
        """One small call of each kind, so lazy work is done before timing."""
        raise NotImplementedError

    def ops(self):
        """Callables for one pass; each makes one timed call and checks it."""
        raise NotImplementedError

    def once(self):
        """Callables run once per measuring window, outside the passes."""
        return []

    def run_pass(self, clock) -> list[Op]:
        if self._pass is None:
            self._pass = self.ops()
        return self._run_ops(self._pass, clock, "pass")

    def run_once(self, clock) -> list[Op]:
        return self._run_ops(self.once(), clock, "once")

    def _run_ops(self, ops, clock, key) -> list[Op]:
        """Run and check `ops`.  A rerun that reproduces its operation's
        first output was checked with it and counts nothing more; one
        that differs counts as a failure of its own."""
        out = []
        for idx, op in enumerate(ops):
            res = op()
            res.segment = clock.segment
            clock.tick()
            first = self.first.get((key, idx))
            if first is None:
                self.first[(key, idx)] = res.digest
            elif first == res.digest:
                # a checked rerun keeps only its timing, so the run's own
                # memory (which peak_rss_mb sees) grows little with passes
                res.attempted, res.reasons, res.digest = 0, NO_FAILURES, first
            else:
                self.mismatches += 1
                res.attempted += 1
                res.reasons["rerun-differs"] += 1
            out.append(res)
        return out


# ---------------------------------------------------------------------------
# sweep: the figure sweeps through cli.main on the reference config
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Closed-form batch path: five subcommands on dense grids.

    The reference config is fixed; the seed sets the order of the
    subcommands within each pass.  Rows are the checked items: each
    resolved row must match refs, and a row the CLI could not resolve
    is a failure.
    """

    name = "sweep"
    min_passes = 2
    throughput = ("points_per_s", "1/s", 1.0)

    CONFIGS = {
        "lin": "pump_steps = 2001\n",
        "log": "pump_min = 1\npump_max = 1e19\npump_steps = 2001\npump_log = true\n",
        "pump": "pump_steps = 2001\n",
        "spec": "omega_steps = 2001\n",
        "tiny": "pump_steps = 3\nomega_steps = 3\n",
    }

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        for name, text in self.CONFIGS.items():
            (tmp / f"{name}.cfg").write_text(text, encoding="utf-8")
        self.p = sq.reference_params().as_dict()
        self.thr = refs.thresholds(self.p)
        self.order = np.random.default_rng(seed).permutation(5)

    def _path(self, name):
        return str(self.tmp / name)

    def warm_up(self):
        cfg = self._path("tiny.cfg")
        for cmd in ("steady-sweep", "pump-sweep", "spectrum"):
            _cli([cmd, "--config", cfg, "--out", self._path("warm.csv"), "--plot"])
        _cli(["thresholds"])

    def ops(self):
        table = [self._thresholds,
                 lambda: self._steady("lin", plot=True),
                 lambda: self._steady("log", plot=False),
                 self._pump_sweep,
                 self._spectrum]
        return [table[i] for i in self.order]

    def _thresholds(self):
        path = self._path("thresholds.txt")

        def check(rc, out):
            r = _report(out)
            right = (
                _rel(float(r["laser_threshold"]), self.thr[0]) <= 1e-9
                and _rel(float(r["orth_threshold_pump"]), self.thr[1]) <= 1e-9
                and _rel(float(r["orth_threshold_intensity"]),
                         refs.THRESHOLD_INTENSITY) <= 1e-12
                and _rel(float(r["threshold_variance"]),
                         refs.threshold_variance(self.p, refs.HEADLINE_OMEGA)) <= 1e-12
                and abs(float(r["threshold_variance_db"]) - refs.HEADLINE_DB) < 0.005)
            return 0, 1, _one_failure(**{"exit-code": rc != 0, "wrong-report": not right})

        return _cli_op("thresholds", ["thresholds", "--out", path], [path], check)

    def _steady(self, grid, plot):
        csv = self._path(f"steady_{grid}.csv")
        svgs = [self._path(f"steady_{grid}.{c}.svg")
                for c in ("a_par", "a_orth", "sh_power")] if plot else []
        argv = ["steady-sweep", "--config", self._path(f"{grid}.cfg"), "--out", csv]

        def check(rc, out):
            _, _, rows = _read_csv(csv)
            reasons = Counter()
            labels, plateau, flat = [], refs.sh_plateau(self.p), True
            for row in rows:
                g = float(row[0])
                if row[-1] != "ok":
                    reasons[row[-1]] += 1
                elif not _state_ok(row[1], [float(v) for v in row[2:7]],
                                   self.p, g, self.thr):
                    reasons["wrong-state"] += 1
                else:
                    labels.append(row[1])
                    if row[1] == "iii":
                        flat &= _rel(float(row[7]), plateau) <= 1e-9
            unresolved = sum(v for k, v in reasons.items() if k != "wrong-state")
            resolved = len(rows) - sum(reasons.values())
            reasons += _failures(**{
                "transitions": sum(a != b for a, b in zip(labels, labels[1:])) != 2,
                "sh-plateau": not flat,
                "plot": sum(not Path(s).read_text().startswith("<svg") for s in svgs),
                "exit-code": rc != (2 if unresolved else 0),
            })
            return resolved, len(rows) + 3 + len(svgs), reasons

        return _cli_op(f"steady-sweep-{grid}", argv + (["--plot"] if plot else []),
                       [csv] + svgs, check)

    def _pump_sweep(self):
        csv = self._path("pump_sweep.csv")
        top = refs.threshold_intensity(self.p)

        def check(rc, out):
            meta, _, rows = _read_csv(csv)
            omega = float(meta["omega"])
            wrong = 0
            for row in rows:
                g, v, db = float(row[0]), float(row[2]), float(row[3])
                i = min(refs.lasing_intensity(self.p, g), top) if g >= self.thr[0] else 0.0
                ref = refs.reduced_variance(self.p, i, omega)
                wrong += abs(v - ref) > 1e-12 or abs(db - 10.0 * math.log10(ref)) > 1e-9
            return (len(rows) - wrong, len(rows) + 1,
                    _failures(**{"wrong-variance": wrong, "exit-code": rc != 0}))

        return _cli_op("pump-sweep", ["pump-sweep", "--config", self._path("pump.cfg"),
                                      "--out", csv], [csv], check)

    def _spectrum(self):
        csv = self._path("spectrum.csv")

        def check(rc, out):
            meta, _, rows = _read_csv(csv)
            i_par = float(meta["i_par"])
            if _rel(i_par, refs.THRESHOLD_INTENSITY) > 1e-12:
                wrong = len(rows)
            else:
                wrong = sum(_rel(float(v), refs.reduced_variance(self.p, i_par, float(w)))
                            > 1e-12 for w, v, _db in rows)
            return (len(rows) - wrong, len(rows) + 1,
                    _failures(**{"wrong-variance": wrong, "exit-code": rc != 0}))

        return _cli_op("spectrum", ["spectrum", "--config", self._path("spec.cfg"),
                                    "--out", csv], [csv], check)


# ---------------------------------------------------------------------------
# point-query: scalar library calls, one point at a time
# ---------------------------------------------------------------------------

class PointQuery(Workload):
    """2000 scalar calls per pass: 1000 on the reference set, whose
    threshold solves repeat, and 1000 on distinct sampled families,
    which share nothing within a pass.  Pumps, frequencies and families
    are drawn once from the seed, and every pass repeats them; pumps are
    log-uniform inside the region each call needs.  With 1000 families a
    pass, a cache of fewer entries cannot serve the fresh half from one
    pass to the next.
    """

    name = "point-query"
    throughput = ("queries_per_s", "1/s", 1.0)
    KINDS = ("steady_state", "orth_phase_variance", "phase_pair", "threshold_variance")
    PER_HALF = 1000

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.ref_params = sq.reference_params()

    def warm_up(self):
        p = self.ref_params
        g_laser, g_orth = refs.thresholds(p.as_dict())
        sq.steady_state(p, 2.0 * g_laser)
        sq.orth_phase_variance(p, 2.0 * g_laser, p.gamma_orth)
        sq.regime3_phase_pair_spectrum(p, 2.0 * g_orth, p.gamma_orth)
        sq.threshold_variance(p, p.gamma_orth)

    @staticmethod
    def _pump(rng, thr, reg):
        g_laser, g_orth = thr
        lo, hi = {"i": (0.01 * g_laser, 0.999 * g_laser),
                  "ii": (1.0001 * g_laser, 0.9999 * g_orth),
                  "iii": (1.0001 * g_orth, 100.0 * g_orth)}[reg]
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    def ops(self):
        rng = np.random.default_rng(self.seed)
        out = []
        for fresh in (False, True):
            for j in range(self.PER_HALF):
                params = (sq.sampling.sample_reachable_params(rng) if fresh
                          else self.ref_params)
                out.append(self._query(self.KINDS[j % len(self.KINDS)], params, rng))
        return out

    def _query(self, kind, params, rng):
        p = params.as_dict()
        thr = refs.thresholds(p)
        omega = float(params.gamma_orth * 10.0 ** rng.uniform(-2, 2))
        if kind == "steady_state":
            g = self._pump(rng, thr, REGIONS[int(rng.integers(3))])
            call = (sq.steady_state, params, g)

            def check(ss):
                return _state_ok(ss.regime.value, ss.state_vector(), p, g, thr)

            def fields(ss):
                return (ss.regime.value, *ss.state_vector().tolist())
        elif kind == "orth_phase_variance":
            g = self._pump(rng, thr, "ii")
            call = (sq.orth_phase_variance, params, g, omega)

            def check(v):
                i = refs.lasing_intensity(p, g)
                return _rel(v, refs.reduced_variance(p, i, omega)) <= 1e-12

            def fields(v):
                return (v,)
        elif kind == "phase_pair":
            g = self._pump(rng, thr, "iii")
            call = (sq.regime3_phase_pair_spectrum, params, g, omega)

            def check(res):
                v_orth, v_par = refs.phase_pair_variances(p, g, omega)
                return _rel(res.v_orth, v_orth) <= 1e-9 and _rel(res.v_par, v_par) <= 1e-9

            def fields(res):
                return (res.v_orth, res.v_par)
        else:
            call = (sq.threshold_variance, params, omega)

            def check(v):
                return _rel(v, refs.threshold_variance(p, omega)) <= 1e-12

            def fields(v):
                return (v,)

        def op():
            sec, res = _timed(*call)
            if isinstance(res, Exception):
                reasons = Counter({f"{kind}:{type(res).__name__}": 1})
                digest = _digest(type(res).__name__, res)
            else:
                reasons = _failures(**{f"{kind}:wrong": not check(res)})
                digest = _digest(*fields(res))
            return Op(kind, sec, 1, 1, reasons, digest)
        return op


# ---------------------------------------------------------------------------
# mc-verify: the stochastic check through cli.main
# ---------------------------------------------------------------------------

class McVerify(Workload):
    """mc-verify on the reference config at seeds s and s+1, plus one
    negative control at seed s that must exit 3.  The throughput counts
    the samples of the threshold run, as each CSV header states them.
    """

    name = "mc-verify"
    min_passes = 2
    throughput = ("msamples_per_s", "Msample/s", 1e-6)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.p = sq.reference_params().as_dict()
        (tmp / "tiny_mc.cfg").write_text("segments = 16\n", encoding="utf-8")

    def warm_up(self):
        _cli(["mc-verify", "--config", str(self.tmp / "tiny_mc.cfg"),
              "--out", str(self.tmp / "warm_mc.csv"), "--seed", str(self.seed)])

    def ops(self):
        s = self.seed
        return [lambda: self._run(s, False), lambda: self._run(s + 1, False),
                lambda: self._run(s, True)]

    def _run(self, seed, negative):
        csv = str(self.tmp / f"mc_{seed}_{int(negative)}.csv")
        argv = ["mc-verify", "--out", csv, "--seed", str(seed)]
        analytic_p = dict(self.p)
        if negative:
            analytic_p["gamma_orth_c"] *= 1.2
        i_par = min(refs.threshold_intensity(self.p), refs.threshold_intensity(analytic_p))

        def check(rc, out):
            meta, _, rows = _read_csv(csv)
            report = _report(out)
            rel_err = float(report["rel_std_err"])
            wrong, worst = 0, 0.0
            for row in rows:
                w, psd, analytic, dev = map(float, row)
                ref = refs.reduced_variance(analytic_p, i_par, w)
                wrong += not (_rel(analytic, ref) <= 1e-12
                              and _rel(dev, abs(psd - ref) / (ref * rel_err)) <= 1e-9)
                worst = max(worst, dev)
            want = (3, "fail") if negative else (0, "pass")
            reasons = _one_failure(**{
                "wrong-bins": wrong > 0,
                "exit-code": rc != want[0],
                "verdict": report["verdict"] != want[1] or (worst > 4.0) != negative,
            })
            return int(float(meta["duration"]) / float(meta["dt"])), 1, reasons

        kind = "mc-verify-negative" if negative else "mc-verify"
        return _cli_op(kind, argv + (["--negative-control"] if negative else []),
                       [csv], check)


# ---------------------------------------------------------------------------
# oracle-settle: the explicit RK45 oracle against the closed forms
# ---------------------------------------------------------------------------

class OracleSettle(Workload):
    """settle against steady_state at one seeded point per region on a
    sampled family and at 0.9x and 1.1x the laser threshold of the
    `moderate` set; plus one `check` on the reference config per
    measuring window, which keeps the passes short enough to repeat.

    The family and its pumps are redrawn until each point's stiffness
    ratio (refs.stiffness_ratio) lies in a fixed band, so every seed asks
    the oracle for about the same work: the explicit settling cost in
    regions i and iii follows that ratio to about +-10%, while across
    unfiltered draws it varies five-fold.
    """

    name = "oracle-settle"
    throughput = ("settles_per_s", "1/s", 1.0)
    BAND = {"i": (500.0, 800.0), "ii": (150.0, 400.0), "iii": (3000.0, 3600.0)}
    # `check` draws its own oracle family from its seed, and its cost
    # swings six-fold between seeds (0.28M to 1.83M rhs evaluations over
    # seeds 0-21), so it runs at one fixed seed: 13, the cheapest of
    # those at which it meets the known route-equivalence failure.
    CHECK_SEED = "13"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.moderate = sq.ModelParams(**refs.MODERATE)

    def warm_up(self):
        p = self.moderate
        g = 0.5 * refs.laser_threshold(refs.MODERATE)
        with contextlib.suppress(sq.NoConvergence):
            sq.settle(p, g, t_max=1.0)
        sq.steady_state(p, g)

    def _family_points(self):
        """(family, pump) per region, each pump's stiffness inside BAND."""
        rng = np.random.default_rng(self.seed)

        def in_band(fam, pump, reg):
            lo, hi = self.BAND[reg]
            return lo <= refs.stiffness_ratio(fam.as_dict(), pump) <= hi

        while True:
            fam = sq.sampling.sample_reachable_params(rng)
            pumps = {}
            for reg in ("iii", "i", "ii"):  # the rarest band first
                for _ in range(1 if reg == "iii" else 20):
                    g = sq.sampling.sample_regime_pumps(rng, fam, reg)
                    if in_band(fam, g, reg):
                        pumps[reg] = g
                        break
                else:
                    break
            if len(pumps) == 3:
                return [(fam, pumps[reg]) for reg in REGIONS]

    def ops(self):
        g_laser = refs.laser_threshold(refs.MODERATE)
        points = [(self.moderate, 0.9 * g_laser), (self.moderate, 1.1 * g_laser)]
        points += self._family_points()
        return [(lambda p=p, g=g: self._settle(p, g)) for p, g in points]

    def once(self):
        return [self._check]

    def _settle(self, params, pump):
        sec, st = _timed(sq.settle, params, pump)
        if isinstance(st, Exception):
            return Op("settle", sec, 1, 1, Counter({f"settle:{type(st).__name__}": 1}),
                      _digest(type(st).__name__, st))
        p = params.as_dict()
        reg, ref = refs.steady_state(p, pump)
        ss = sq.steady_state(params, pump)
        got, closed = st.state_vector().tolist(), ss.state_vector().tolist()
        reasons = _one_failure(**{
            "regime": st.regime is not ss.regime or ss.regime.value != reg,
            "settle-vs-closed-form": refs.state_error(got, closed) > 1e-5,
            "closed-form-vs-refs": refs.state_error(closed, ref) > 1e-5,
        })
        return Op("settle", sec, 1, 1, reasons, _digest(*got, *closed))

    def _check(self):
        sec, rc, out, _ = _cli(["check", "--seed", self.CHECK_SEED])
        failing = {f"check:{ln.split(':', 1)[0]}": True for ln in out.splitlines()
                   if ln.split(":", 1)[1:] and not ln.split(":", 1)[1].strip().startswith("PASS")}
        reasons = _one_failure(**failing, **{"check:exit-code": rc != 0 and not failing})
        return Op("check", sec, 0, 1, reasons, _digest(rc, out))


WORKLOADS = {w.name: w for w in (Sweep, PointQuery, McVerify, OracleSettle)}
