"""Benchmark of the sc-rateless CLI, end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Every CLI call runs ``sc_rateless.cli.main`` in a fresh
interpreter (``perfbench/child.py``) with one worker.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Set-up
time is the median of several fresh interpreters that import the CLI and
stop; then CLI calls repeat while the next one fits into ``--seconds``
(there is always at least one), and time and memory are their medians.
Times are at a fixed machine speed, measured by a probe (see ``child.py``).

``--trace 1`` makes one untraced and one traced call and reports the
per-layer metrics of ``BENCHMARK.json``, computed from the traced call's
spans (see ``tracing.py``), with the untraced call's wall time and machine
slowdown; ``trace.overhead_s`` is the difference of the two calls' times.

Every call's output file is checked (``check.py``): its header against the
one recorded in ``reference.json``, DE thresholds against the recorded
values, Monte Carlo rows for trial errors and internal consistency and, at a
recorded seed, cell by cell.  A fixed subset of trials is then rebuilt; its
decoded bits are compared with the transmitted codeword and its outcome with
the output row.  In a traced run, a traced function the package no longer
has, or one the workload must call that recorded no span, is a failure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 7
DEADLINE_S = 170.0

_MC_CALLS = ("cli.main", "codec.monte_carlo", "codec.sample_precode",
             "codec.channel_stream", "codec.peel")

# Each workload's CLI arguments and the traced functions whose metrics it
# reports, so each of them must record spans.
WORKLOADS = {
    "de-wave": {
        "argv": ["sweep", "--dg", "3", "--L-grid", "8,16,24"],
        "calls": ("cli.main", "density.threshold_sweep", "density.overhead_threshold",
                  "density.de_run", "stability.threshold_lower_bounds",
                  "stability.spectral_radius", "stability.matvec"),
    },
    "mc-peel": {
        "argv": ["simulate", "--dg", "3", "--L", "16", "--M", "2001", "--trials", "40",
                 "--alpha-grid", "0.19,0.25,0.31", "--zero-codeword"],
        "calls": _MC_CALLS,
    },
    "mc-encode": {
        "argv": ["simulate", "--dg", "3", "--L", "16", "--M", "300", "--trials", "15",
                 "--alpha-grid", "0.4,0.6,0.8"],
        "calls": _MC_CALLS + ("codec.encode", "gf2.rref", "gf2.dot_rows"),
    },
}


def cli_argv(name: str, seed: int) -> list[str]:
    """The workload's CLI arguments; the Monte Carlo ones take the seed."""
    argv = list(WORKLOADS[name]["argv"])
    if argv[0] == "simulate":
        argv += ["--seed", str(seed)]
    return argv


class Run:
    """Spawns the measured interpreters of one benchmark run and keeps its
    tally of attempted and failed operations."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.argv = cli_argv(name, seed)
        self.workdir = workdir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.reference = json.loads((HERE / "reference.json").read_text())[name]
        self.attempted = 0
        self.failures: list[str] = []
        self.first_output = None
        self.rows: list[dict[str, str]] | None = None
        self.spawned = 0

    def spawn(self, mode: str, argv=()) -> dict | None:
        """One fresh interpreter; None (and a failure) if it did not report."""
        self.spawned += 1
        report_path = self.workdir / f"report-{self.spawned}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        command = [sys.executable, str(HERE / "child.py"), str(report_path)]
        try:
            t0 = time.perf_counter()
            subprocess.run(command + [repr(t0), mode, *argv], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True,
                           timeout=max(1.0, self.deadline - t0))
            return json.loads(report_path.read_text())
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            self.failures.append(f"{mode} interpreter failed: {exc}")
            return None

    def call(self, traced: bool = False) -> dict | None:
        """One CLI call whose output file is then checked."""
        out = self.workdir / "out.csv"
        if out.exists():
            out.unlink()
        report = self.spawn("traced" if traced else "plain", self.argv + ["--out", str(out)])
        if report is None or report["exit_code"] != 0 or not out.exists():
            self.attempted += 1
            self.failures.append(f"CLI call failed: {report and report['exit_code']}")
            return None
        text = out.read_text(encoding="utf-8")
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            self.failures.append("output differs from the run's first call")
        self._check_output(text)
        return report

    def _check_output(self, text: str) -> None:
        spec, self.rows = check.parse_csv(text)
        if self.argv[0] == "sweep":
            attempted, failures = check.check_sweep(spec, self.rows, self.reference)
        else:
            attempted, failures = check.check_simulate(
                spec, self.rows, self.reference, self.seed)
        self.attempted += attempted
        self.failures += failures

    def recheck_trials(self) -> None:
        """Rebuild a fixed subset of the workload's Monte Carlo trials at the
        run's seed and check them against the last output."""
        if self.argv[0] != "simulate" or self.rows is None:
            return
        sys.path.insert(0, str(ROOT / "src"))
        attempted, failures = check.recheck(self.reference["header"], self.rows, self.seed)
        self.attempted += attempted
        self.failures += failures

    def tally(self) -> tuple[int, int]:
        """(attempted, failed); a failure outside any counted operation,
        such as a header mismatch, counts as one more attempt."""
        failed = len(self.failures)
        return max(self.attempted, failed, 1), failed

    def ops_per_call(self) -> int:
        if self.argv[0] == "sweep":
            return len(self.reference["rows"])
        header = self.reference["header"]
        return len(check.header_alphas(header)) * int(header["trials"])


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    setups = [r["setup_s"] for r in (run.spawn("setup") for _ in range(SETUP_SPAWNS)) if r]
    calls = []
    start = time.perf_counter()
    while not calls or (time.perf_counter() - start
                        + statistics.median(c["wall_s"] for c in calls) <= seconds):
        report = run.call()
        if report is None:
            break
        calls.append(report)
    run.recheck_trials()
    if not calls or not setups:
        return {}
    run_s = statistics.median(c["run_s"] for c in calls)
    attempted, failed = run.tally()
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "ops_per_s": run.ops_per_call() / run_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(run: Run) -> dict[str, float]:
    plain = run.call()
    traced = run.call(traced=True)
    run.recheck_trials()
    if plain is None or traced is None:
        return {}
    run.failures += tracing.missing_calls(
        traced["spans"], traced["missing"], WORKLOADS[run.name]["calls"])
    metrics = tracing.layer_metrics(traced["spans"])
    metrics["trace.run_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics["probe.wall_run_s"] = plain["wall_s"]
    metrics["probe.slowdown"] = plain["slowdown"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sc_rateless" / "cli.py").is_file() or not bench_path.is_file():
        print(f"error: no sc_rateless source tree under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = Run(args.workload, args.seed, Path(workdir))
        values = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    for line in run.failures:
        print(f"check failed: {line}", file=sys.stderr)
    if not values:
        print("error: no measurement completed", file=sys.stderr)
        return 3
    attempted, failed = run.tally()
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
