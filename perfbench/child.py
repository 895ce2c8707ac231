"""One measured CLI call, in a fresh interpreter.

    python3 perfbench/child.py REPORT T0 MODE [CLI ARGS...]

``T0`` is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so ``setup_s`` covers
interpreter start, the package import and the CLI import.  ``MODE`` is
``setup`` (stop there), ``plain`` (run ``sc_rateless.cli.main`` on the
arguments) or ``traced`` (the same, with span tracing installed).  The
report is one JSON document written to ``REPORT``.

Times are reported at a fixed machine speed.  On a shared host the speed of
this process's CPU swings by up to 1.7x within a minute, in wall and CPU
time alike, and longer runs do not average that out.  So a probe, a fixed Python
loop plus a fixed run of small numpy operations (the two kinds of work the
package does), runs every ``PROBE_EVERY_S`` from a timer signal for the
whole measured interval, and each time is reported as

    (elapsed - probe time) * PROBE_NOMINAL_S / mean probe time,

the time the same work takes where one probe takes ``PROBE_NOMINAL_S``.
The probe slows largely in step with the program, so this cuts the
run-to-run spread of ``run_s`` several-fold.  The probe imports numpy first,
inside the set-up interval; the package imports it anyway.  The raw wall
time and the slowdown are reported alongside.
"""
import gc
import json
import resource
import signal
import sys
import time

PROBE_EVERY_S = 0.01
PROBE_LOOPS = 500
PROBE_NOMINAL_S = 1e-4


class Probe:
    """Samples the machine's speed with a fixed loop on a timer signal."""

    def __init__(self):
        import numpy

        self.samples: list[float] = []
        self.vector = numpy.arange(256, dtype=numpy.float64)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        for i in range(PROBE_LOOPS // 20):
            self.vector * 1.0001 + i
        self.samples.append(time.perf_counter() - start)
        if gc_was_enabled:
            gc.enable()

    def start(self) -> float:
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return time.perf_counter()

    def stop(self, start: float) -> dict[str, float]:
        """Time since ``start`` at nominal speed, its wall time and the
        slowdown; one more sample makes sure there is one."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - start
        probed = sum(self.samples)
        self._sample()
        slowdown = sum(self.samples) / len(self.samples) / PROBE_NOMINAL_S
        return {"s": (elapsed - probed) / slowdown, "wall_s": elapsed, "slowdown": slowdown}


def main() -> None:
    report_path, t0, mode, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    probe = Probe()
    probe.start()
    from sc_rateless import cli

    report = {"setup_s": probe.stop(t0)["s"]}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = probe.start()
        report["exit_code"] = cli.main(argv)
        run = probe.stop(start)
        report.update(run_s=run["s"], wall_s=run["wall_s"], slowdown=run["slowdown"])
        if tracer is not None:
            report["spans"] = tracer.spans
            report["missing"] = tracer.missing
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
