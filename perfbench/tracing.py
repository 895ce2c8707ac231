"""Span tracing around the public functions of each ``sc_rateless`` layer.

The wrappers live here, outside the package: ``install`` replaces each
traced function (and every alias of it that another package module imported
by name) with a wrapper that records one span per call.  Spans stay in
memory as ``[name, start, end, parent, attrs]`` lists and are written out
once, after the run.  ``attrs`` holds the work counters read off the return
value, so every counter is measured where the work happens.

``layer_metrics`` turns a span list into the per-layer metrics; a layer's
self time is the duration of its spans minus the part their child spans
cover.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

LAYERS = ("cli", "density", "stability", "codec", "gf2")

# (module, attribute path) of every traced function, with the function that
# reads its work counters off (args, kwargs, result).
TRACED = {
    ("density", "de_run"): lambda a, k, r: {
        "steps": r.state.iteration, "cap": int(r.hit_iteration_cap)},
    ("density", "overhead_threshold"): None,
    ("density", "threshold_sweep"): None,
    ("stability", "threshold_lower_bounds"): None,
    ("stability", "spectral_radius"): None,
    ("stability", "BandMatrix.matvec"): None,
    ("codec", "monte_carlo"): lambda a, k, r: {
        "trials": sum(row.trials + row.trial_errors for row in r),
        "errors": sum(row.trial_errors for row in r)},
    ("codec", "sample_precode"): None,
    ("codec", "channel_stream"): None,
    ("codec", "encode"): None,
    ("codec", "peel"): lambda a, k, r: {
        "rounds": r.peeling_rounds, "decoded": int(r.residual_bit_erasure == 0.0)},
    ("gf2", "rref"): lambda a, k, r: {
        "cols": int(a[1] if len(a) > 1 else k["ncols"]), "rank": len(r[1])},
    ("gf2", "dot_rows"): None,
    ("gf2", "rows_from_support"): None,
    ("gf2", "pack_vector"): None,
    ("cli", "main"): None,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, func, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[4] = {"raised": 1}
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` that the package still has.

        A name or module the package no longer defines is noted in
        ``missing``; ``missing_calls`` turns it into a failure.
        """
        importlib.import_module("sc_rateless.cli")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "sc_rateless"]
        for (module_name, path), counters in TRACED.items():
            try:
                owner = importlib.import_module(f"sc_rateless.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original, counters)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            # Aliases made by "from .module import name" in other modules.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _tail(values: list[float]) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it (nearest rank); the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (0.99, 0.95, 0.90, 0.75, 0.50):
        if n * (1.0 - q) >= 10:
            return ordered[math.ceil(q * n) - 1]
    return ordered[-1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    attrs: dict[str, list[dict]] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    fn_self: dict[str, float] = {}
    for (name, start, end, _, attr), inner in zip(spans, child_time):
        durations.setdefault(name, []).append(end - start)
        attrs.setdefault(name, []).append(attr or {})
        own = (end - start) - inner
        self_time[name.split(".")[0]] += own
        fn_self[name] = fn_self.get(name, 0.0) + own

    def total(name):
        return sum(durations.get(name, ()))

    def count(name):
        return len(durations.get(name, ()))

    def summed(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, ()))

    def p50(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    def tail(name):
        return _tail(durations[name]) if name in durations else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    de_steps = summed("density.de_run", "steps")
    peel_rounds = summed("codec.peel", "rounds")
    threshold = durations.get("density.overhead_threshold", [0.0])
    return {
        "density.probes": count("density.de_run"),
        "density.de_steps": de_steps,
        "density.cap_hits": summed("density.de_run", "cap"),
        "density.de_run_s": total("density.de_run"),
        "density.step_us": ratio(total("density.de_run") * 1e6, de_steps),
        "density.threshold_p50_s": statistics.median(threshold),
        "density.threshold_max_s": max(threshold),
        "density.self_s": self_time["density"],
        "stability.calls": count("stability.threshold_lower_bounds"),
        "stability.bounds_s": total("stability.threshold_lower_bounds"),
        "stability.spectral_radius_s": total("stability.spectral_radius"),
        "stability.matvecs": count("stability.matvec"),
        "stability.self_s": self_time["stability"],
        "codec.trials": summed("codec.monte_carlo", "trials"),
        "codec.trial_errors": summed("codec.monte_carlo", "errors"),
        "codec.decoded_ratio": ratio(summed("codec.peel", "decoded"), count("codec.peel")),
        "codec.sample_s": total("codec.sample_precode"),
        "codec.sample_p50_ms": p50("codec.sample_precode") * 1e3,
        "codec.sample_tail_ms": tail("codec.sample_precode") * 1e3,
        "codec.stream_s": total("codec.channel_stream"),
        "codec.peel_s": total("codec.peel"),
        "codec.peel_p50_ms": p50("codec.peel") * 1e3,
        "codec.peel_tail_ms": tail("codec.peel") * 1e3,
        "codec.peel_rounds": peel_rounds,
        "codec.peel_round_us": ratio(total("codec.peel") * 1e6, peel_rounds),
        "codec.encode_s": total("codec.encode"),
        "codec.mc_self_s": fn_self.get("codec.monte_carlo", 0.0),
        "codec.self_s": self_time["codec"],
        "gf2.rref_calls": count("gf2.rref"),
        "gf2.rref_cols": summed("gf2.rref", "cols"),
        "gf2.rref_rank": summed("gf2.rref", "rank"),
        "gf2.rref_s": total("gf2.rref"),
        "gf2.rref_p50_ms": p50("gf2.rref") * 1e3,
        "gf2.dot_rows_s": total("gf2.dot_rows"),
        "gf2.self_s": self_time["gf2"],
        "cli.self_s": self_time["cli"],
    }


def missing_calls(spans: list[list], missing: list[str], expected) -> list[str]:
    """One failure per traced function the package no longer has, and per
    function in ``expected`` that recorded no span: their metrics would
    otherwise read as zero work."""
    called = {span[0] for span in spans}
    return ([f"trace: {name} not found in the package" for name in missing]
            + [f"trace: {name} recorded no calls" for name in expected
               if name not in called])
