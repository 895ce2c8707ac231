"""Record the benchmark's reference outputs and its baseline.

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline [--out FILE]
    python3 perfbench/record.py compare FIRST SECOND

``reference`` runs each workload's CLI command once per seed in ``SEEDS``
and writes ``perfbench/reference.json``: each workload's output header
(without its version and seed), the DE sweep rows (deterministic) and the
Monte Carlo rows at every seed.  Run it on the commit whose outputs are the
reference.

``baseline`` runs ``run.py`` once per workload and seed in ``SEEDS`` with
tracing off,
and twice with tracing on at the first seed, then writes machine info, the
workload commands, the layer map, the median and quartiles of every
end-to-end metric and the traced layer numbers.  It prints each metric's
spread (interquartile range over median) against its bound, and exits 1 if
a deterministic counter differs between the two traced runs.

``compare`` checks two baseline files of the same code against the bounds
of ``BENCHMARK.json``: every end-to-end spread except ``setup_s`` within
its bound, every median of SECOND no worse than FIRST's by more than the
bound, and identical deterministic counters.  Exits 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import check
from run import HERE, ROOT, WORKLOADS, cli_argv

# The seeds whose Monte Carlo rows reference.json records and the baseline
# runs use.
SEEDS = range(1, 11)

# Counters that must repeat exactly for the same code, workload and seed.
DETERMINISTIC = ("density.probes", "density.de_steps", "density.cap_hits",
                 "codec.peel_rounds", "codec.trials", "gf2.rref_cols", "gf2.rref_rank")

# Which end-to-end metric each layer should move, on which workload; "none"
# is the prediction that it does not move there.
LAYER_MAP = {
    "density": {"moves": "run_s via density.de_steps x density.step_us",
                "de-wave": "yes (>99% of run_s)", "mc-peel": "none", "mc-encode": "none"},
    "stability": {"moves": "run_s", "de-wave": "share <0.1%, predicted none",
                  "mc-peel": "none", "mc-encode": "none"},
    "codec": {"moves": "ops_per_s (trials per second)", "de-wave": "none",
              "mc-peel": "yes (~99%: peel ~55%, sample ~43%)",
              "mc-encode": "slightly (peel + sample ~6%)"},
    "gf2": {"moves": "ops_per_s (trials per second)", "de-wave": "none",
            "mc-peel": "none", "mc-encode": "yes (rref ~79%)"},
    "cli": {"moves": "run_s (parse, render, write)", "de-wave": "none",
            "mc-peel": "none", "mc-encode": "none"},
}


def cli_output(argv: list[str]) -> tuple[dict[str, str], list[dict[str, str]]]:
    out = HERE / ".record-out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        subprocess.run([sys.executable, "-m", "sc_rateless.cli", *argv, "--out", str(out)],
                       cwd=ROOT, env=env, check=True)
        spec, rows = check.parse_csv(out.read_text(encoding="utf-8"))
        return check.recorded_header(spec), rows
    finally:
        out.unlink(missing_ok=True)


def record_reference() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        if workload["argv"][0] == "sweep":
            header, rows = cli_output(cli_argv(name, 0))
            reference[name] = {"header": header, "rows": rows}
        else:
            outputs = {str(s): cli_output(cli_argv(name, s)) for s in SEEDS}
            headers = {json.dumps(header) for header, _ in outputs.values()}
            if len(headers) != 1:
                raise RuntimeError(f"{name}: header differs between seeds: {headers}")
            reference[name] = {"header": json.loads(headers.pop()),
                               "seeds": {s: rows for s, (_, rows) in outputs.items()}}
        print(f"{name}: recorded", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def bench_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    print(f"{name} seed={seed} trace={trace}: {json.dumps(result)}", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def machine_info() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def record_baseline(out: Path) -> int:
    seeds = list(SEEDS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"machine": machine_info(), "run_seconds": seconds, "seeds": seeds,
           "layer_map": LAYER_MAP, "workloads": {}}
    status = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = [bench_run(name, seed, seconds, 0) for seed in seeds]
        traced = [bench_run(name, seeds[0], seconds, 1) for _ in range(2)]
        entry = {
            "command": ["sc-rateless", *cli_argv(name, seeds[0])],
            "why": workload["why"],
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": {},
            "traced": {key: m["value"] for key, m in traced[0]["metrics"].items()},
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = quartiles(values)
            entry["end_to_end"][metric["name"]] = stats
            print(f"{name:10s} {metric['name']:12s} median={stats['median']:.6g} "
                  f"spread={stats['spread']:.4f} bound={bounds[metric['name']]}",
                  file=sys.stderr)
        for key in DETERMINISTIC:
            a, b = (t["metrics"][key]["value"] for t in traced)
            if a != b:
                print(f"{name}: {key} differs between traced runs: {a} vs {b}",
                      file=sys.stderr)
                status = 1
        doc["workloads"][name] = entry
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return status


def compare(first: Path, second: Path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = [json.loads(path.read_text())["workloads"] for path in (first, second)]
    status = 0
    for name in docs[0]:
        a, b = docs[0][name], docs[1][name]
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            m1, m2 = a["end_to_end"][key]["median"], b["end_to_end"][key]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [d["end_to_end"][key]["spread"] for d in (a, b)]
            ok = worse <= bound and (key == "setup_s" or max(spreads) <= bound)
            status |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:10s} {key:12s} worse={worse:+.4f} "
                  f"spreads={spreads[0]:.4f},{spreads[1]:.4f} bound={bound}")
        for key in DETERMINISTIC:
            ok = a["traced"][key] == b["traced"][key]
            status |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:10s} {key} "
                  f"{a['traced'][key]} vs {b['traced'][key]}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("reference", "baseline", "compare"))
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    if args.what == "reference":
        record_reference()
        return 0
    if args.what == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two baseline files")
        return compare(*args.files)
    return record_baseline(args.out)


if __name__ == "__main__":
    sys.exit(main())
