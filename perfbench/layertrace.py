"""Per-layer tracing, installed from outside the package.

`Tracer.install` replaces the public functions of each squeezer_sim
module with wrappers.  Every module namespace that holds a reference to
a function gets the wrapper (cli and spectra import steady_state by
name, dynamics imports rk45 by name, and steadystate imports settle
lazily, which reads the dynamics attribute at call time).

A span wrapper records (name, start, end, parent span, tag) in memory;
the spans are reduced to per-layer metrics when the run ends.  Self time
is a span's duration minus the union of its children's intervals, so
children running concurrently on the cli worker pool are not counted
twice.  model.rhs and model.jacobian get counting wrappers only: an
oracle settle calls rhs hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

# module -> public functions that get a span; the layer is the module,
# except that _rk45 is reported with dynamics.
SPANNED = {
    "cli": ("main", "cmd_thresholds", "cmd_steady_sweep", "cmd_pump_sweep",
            "cmd_spectrum", "cmd_mc_verify", "cmd_check", "_parallel_map"),
    "steadystate": ("steady_state", "regime_thresholds", "laser_threshold",
                    "orth_threshold_pump", "classify_regime"),
    "spectra": ("orth_phase_variance", "orth_phase_variance_reduced",
                "threshold_variance", "regime3_phase_pair_spectrum",
                "frequency_sweep_curve", "pump_sweep_curve"),
    "dynamics": ("settle", "integrate", "stability"),
    "_rk45": ("rk45",),
    "montecarlo": ("simulate_decoupled", "estimate_psd", "compare_to_analytic"),
    "csvio": ("write_csv",),
    "svg": ("line_plot_svg",),
    "sampling": ("sample_reachable_params", "sample_regime_pumps", "integration_cost"),
    "params": ("validate",),
}
COUNTED = {"model": ("rhs", "jacobian")}
LAYER_OF = {"_rk45": "dynamics"}
# Spans inside which model.rhs calls count as ODE-oracle work.
ORACLE = {"dynamics.settle", "dynamics.integrate", "_rk45.rk45"}
POINT = ("spectra.orth_phase_variance", "spectra.orth_phase_variance_reduced",
         "spectra.threshold_variance", "spectra.regime3_phase_pair_spectrum")
CURVE = ("spectra.frequency_sweep_curve", "spectra.pump_sweep_curve")
THRESHOLD = ("steadystate.laser_threshold", "steadystate.orth_threshold_pump")
SUBCOMMANDS = ("thresholds", "steady_sweep", "pump_sweep", "spectrum",
               "mc_verify", "check")
LAYERS = ("cli", "steadystate", "spectra", "dynamics", "montecarlo", "csvio",
          "svg", "sampling", "params")


def _file_size(args, result):
    return Path(args[0]).stat().st_size


# Per-span detail a metric needs, taken from the arguments or the result.
TAGS = {
    "steadystate.steady_state": lambda args, result: result.regime.value,
    "csvio.write_csv": _file_size,
    "montecarlo.simulate_decoupled": lambda args, result: len(result.series_out),
    "montecarlo.estimate_psd": lambda args, result: len(args[0].series_out),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.tag = name, start, 0, parent, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {f"model.{fn}{where}": 0 for fn in COUNTED["model"]
                       for where in ("", "_oracle")}
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_ident = threading.main_thread().ident
        self._oracle_depth = 0
        self._patches = []  # (namespace, attribute, original)

    # -- span bookkeeping --------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn):
        tracer = self
        oracle = name in ORACLE
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span hangs off the main thread's
            # open span (cli._parallel_map).
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(name, time.perf_counter_ns(), parent)
            tracer.spans.append(span)
            stack.append(span)
            tracer._oracle_depth += oracle
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.tag = "error"
                raise
            else:
                if tag is not None:
                    span.tag = tag(args, result)
                return result
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                tracer._oracle_depth -= oracle

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self
        oracle_key = name + "_oracle"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tracer._oracle_depth:
                counts[oracle_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "squeezer_sim" or n.startswith("squeezer_sim.")]
        plan = [(mod, fn, True) for mod, fns in SPANNED.items() for fn in fns]
        plan += [(mod, fn, False) for mod, fns in COUNTED.items() for fn in fns]
        for mod, attr, spanned in plan:
            home = sys.modules.get(f"squeezer_sim.{mod}")
            original = getattr(home, attr, None)
            if original is None:  # removed by a later change: the metric reads 0
                continue
            name = f"{mod}.{attr}"
            wrapper = (self._span_wrapper if spanned else self._count_wrapper)(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """id(span) -> self time in ns."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered, cur_lo, cur_hi = 0, None, None
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[id(s)] = (s.end - s.start) - covered
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as totals per pass unless named per call."""
        own = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(*names):
            return [s for n in names for s in by_name.get(n, ())]

        def total_ms(*names):
            return sum(s.end - s.start for s in spans(*names)) / 1e6 / passes

        def self_ms(*names):
            return sum(own[id(s)] for s in spans(*names)) / 1e6 / passes

        def calls(*names):
            return len(spans(*names)) / passes

        def mean_us(group):
            return statistics.fmean([s.end - s.start for s in group]) / 1e3 if group else 0.0

        m = {}
        m["steadystate.threshold_calls"] = calls(*THRESHOLD)
        m["steadystate.threshold_ms"] = self_ms(*THRESHOLD, "steadystate.regime_thresholds")
        states = spans("steadystate.steady_state")
        m["steadystate.steady_state_calls"] = len(states) / passes
        for reg in ("i", "ii", "iii"):
            m[f"steadystate.steady_state_us.{reg}"] = mean_us(
                [s for s in states if s.tag == reg])
        m["steadystate.settle_fallbacks"] = sum(
            1 for s in spans("dynamics.settle")
            if s.parent is not None and s.parent.name == "steadystate.steady_state") / passes
        m["spectra.point_calls"] = calls(*POINT)
        m["spectra.point_us"] = mean_us(spans(*POINT))
        m["spectra.curve_ms"] = total_ms(*CURVE)
        for sub in SUBCOMMANDS:
            cmd = spans(f"cli.cmd_{sub}")
            ns = 0
            for c in cmd:
                ns += own[id(c)]
                if c.parent is not None and c.parent.name == "cli.main":
                    ns += own[id(c.parent)]
            ns += sum(own[id(s)] for s in spans("cli._parallel_map")
                      if s.parent is not None and s.parent.name == f"cli.cmd_{sub}")
            m[f"cli.{sub}_ms"] = ns / 1e6 / passes
        m["csvio.write_ms"] = total_ms("csvio.write_csv")
        m["csvio.bytes"] = sum(s.tag or 0 for s in spans("csvio.write_csv")) / passes
        m["svg.plot_ms"] = total_ms("svg.line_plot_svg")
        m["model.rhs_calls"] = self.counts["model.rhs"] / passes
        m["model.rhs_calls_oracle"] = self.counts["model.rhs_oracle"] / passes
        m["model.jacobian_calls"] = self.counts["model.jacobian"] / passes
        settles = spans("dynamics.settle")
        m["dynamics.settle_calls"] = len(settles) / passes
        m["dynamics.settle_ms"] = total_ms("dynamics.settle")
        m["dynamics.settle_max_ms"] = max((s.end - s.start for s in settles), default=0) / 1e6
        m["dynamics.rhs_per_settle"] = (self.counts["model.rhs_oracle"] / len(settles)
                                        if settles else 0.0)
        m["sampling.sample_ms"] = total_ms("sampling.sample_reachable_params",
                                           "sampling.sample_regime_pumps")
        sims, welch = spans("montecarlo.simulate_decoupled"), spans("montecarlo.estimate_psd")
        n_sim = sum(s.tag or 0 for s in sims)
        n_welch = sum(s.tag or 0 for s in welch)
        m["montecarlo.simulate_s_per_msample"] = (
            sum(s.end - s.start for s in sims) / 1e9 / (n_sim / 1e6) if n_sim else 0.0)
        m["montecarlo.welch_s_per_msample"] = (
            sum(s.end - s.start for s in welch) / 1e9 / (n_welch / 1e6) if n_welch else 0.0)
        m["montecarlo.compare_ms"] = total_ms("montecarlo.compare_to_analytic")
        m["montecarlo.samples"] = n_sim / passes
        for layer in LAYERS:
            names = [f"{mod}.{fn}" for mod, fns in SPANNED.items()
                     if LAYER_OF.get(mod, mod) == layer for fn in fns]
            m[f"{layer}.self_ms"] = self_ms(*names)
        m["trace.spans"] = len(self.spans) / passes
        return m


def rhs_call_us(repeats: int = 5, calls: int = 20000) -> float:
    """Median per-call cost of an untraced model.rhs, in microseconds."""
    import squeezer_sim as sq
    from squeezer_sim import model

    p = sq.reference_params()
    y = np.array([1.0e5, 1.0e3, 0.3, 0.3, 0.4])
    pump = 2.0e18
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            model.rhs(y, p, pump)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)
