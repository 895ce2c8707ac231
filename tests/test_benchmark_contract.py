"""The package surface the benchmark reads.

``perfbench/tracing.py`` wraps the functions named in its ``TRACED`` table
and reads work counters off their return values; ``perfbench/check.py``
rebuilds Monte Carlo trials through the public codec functions and compares
output rows with ``perfbench/reference.json``.  All are loaded here by path
(tracing without ``install()``), so a refactor that renames a traced
function, a field a counter reads, a codec signature the checker calls or a
recorded column fails in the unit suite instead of in the benchmark.
"""
import csv
import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import sc_rateless.density as density
import sc_rateless.stability as stability
from sc_rateless import (
    DEConfig,
    EnsembleParams,
    MonteCarloRow,
    SweepRow,
    channel_stream,
    de_run,
    encode,
    gf2,
    monte_carlo,
    peel,
    sample_precode,
    threshold_sweep,
)
from sc_rateless.cli import main, render_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_perfbench("tracing").TRACED
SMALL = EnsembleParams(dl=2, dr=3, dg=3, L=4, w=2, epsilon=0.5)


@pytest.mark.parametrize("module_name, path", sorted(TRACED), ids=str)
def test_traced_function_resolves(module_name, path):
    owner = importlib.import_module(f"sc_rateless.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_de_run_counters():
    params = EnsembleParams(dl=2, dr=3, dg=3, L=8, w=2, epsilon=0.5)
    run = de_run(params, 2.0, DEConfig(max_iterations=5))
    counters = TRACED[("density", "de_run")]((params, 2.0), {}, run)
    assert counters == {"steps": 5, "cap": 1}


def test_peel_counters():
    graph = sample_precode(SMALL, 6, seed=3)
    codeword = np.zeros(graph.num_bits, dtype=np.uint8)
    stream = channel_stream(graph, codeword, 40, 0.5, seed=4)
    result = peel(graph, stream)
    counters = TRACED[("codec", "peel")]((graph, stream), {}, result)
    assert counters == {
        "rounds": result.peeling_rounds,
        "decoded": int(result.residual_bit_erasure == 0.0),
    }
    assert result.peeling_rounds > 0


def test_monte_carlo_counters():
    rows = monte_carlo(SMALL, 6, [0.3, 0.6], trials=2, seed=1, zero_codeword=True)
    counters = TRACED[("codec", "monte_carlo")]((SMALL, 6, [0.3, 0.6], 2, 1), {}, rows)
    assert counters == {"trials": 4, "errors": 0}


def test_rref_counters():
    rows, lows = gf2.rows_from_support([0, 2, 4, 6], [0, 2, 1, 2, 0, 1], 3)
    result = gf2.rref(rows, 3, lows)
    counters = TRACED[("gf2", "rref")]
    assert counters((rows, 3, lows), {}, result) == {"cols": 3, "rank": 2}
    assert counters((rows,), {"ncols": 3, "lows": lows}, result) == {"cols": 3, "rank": 2}


def test_encode_calls_rref_and_dot_rows_through_gf2(monkeypatch):
    # The mc-encode workload fails unless both record spans; the tracer
    # wraps them as attributes of the gf2 module, as the shims here do.
    k = sample_precode(SMALL, 6, seed=5).realized_dimension()
    calls = {"rref": 0, "dot_rows": 0}
    for name in calls:
        real = getattr(gf2, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gf2, name, counting)
    graph = sample_precode(SMALL, 6, seed=5)
    info = np.ones(k, dtype=np.uint8)
    first = encode(graph, info)
    assert calls == {"rref": 1, "dot_rows": 1}
    np.testing.assert_array_equal(encode(graph, info), first)
    assert calls == {"rref": 1, "dot_rows": 2}


@pytest.mark.parametrize("command", ["sweep", "threshold"])
def test_threshold_rows_call_bounds_and_bisection_through_modules(monkeypatch, tmp_path,
                                                                 command):
    # The de-wave workload fails unless both record spans; the tracer wraps
    # them as attributes of their modules, as the shims here do.
    calls = []
    for module, name in ((stability, "threshold_lower_bounds"),
                         (density, "overhead_threshold")):
        real = getattr(module, name)

        def counting(params, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, params.L))
            return _real(params, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    if command == "sweep":
        threshold_sweep(SMALL, [8, 4], DEConfig(bisection_tol=0.01))
        grid = [4, 8]
    else:
        argv = ["threshold", "--dg", "3", "--L", "4", "--bisect-tol", "0.01"]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        grid = [4]
    assert calls == [(name, L) for L in grid
                     for name in ("threshold_lower_bounds", "overhead_threshold")]


@pytest.mark.parametrize("zero_codeword", [False, True])
def test_check_rebuilds_trials(zero_codeword):
    check = load_perfbench("check")
    for alpha_index, alpha in enumerate((0.3, 0.6)):
        for trial in (0, 1):
            graph, codeword, result, _, _ = check.rebuild_trial(
                SMALL, 12, alpha, 1, alpha_index, trial, zero_codeword)
            assert check.trial_failures(graph, codeword, result) == []


def test_recorded_columns_are_row_fields():
    # perfbench/check.py compares each output row with the recorded one,
    # column by column, so a renamed field would fail only in the benchmark.
    # Only a subset is required: fields added later still pass.
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    sweep_columns = {"dr"} | {f.name for f in dataclasses.fields(SweepRow)}
    assert reference["de-wave"]["rows"]
    for row in reference["de-wave"]["rows"]:
        assert set(row) <= sweep_columns
    mc_columns = {f.name for f in dataclasses.fields(MonteCarloRow)}
    for workload in ("mc-peel", "mc-encode"):
        rows = [row for seed_rows in reference[workload]["seeds"].values() for row in seed_rows]
        assert rows
        for row in rows:
            assert set(row) <= mc_columns, workload


def test_check_parses_rendered_rows_as_the_csv_module_does():
    # perfbench/check.py splits rows on bare commas; a cell the CLI has to
    # quote would split there and fail only in the benchmark.
    check = load_perfbench("check")
    sweep_row = {"dr": 3, **dataclasses.asdict(SweepRow(
        L=8, alpha_star=0.370208740234375, beta_star=1.979190402560764,
        lower_bound_alpha=0.0, lower_bound_beta=1.4444444444444446, iterations=4509))}
    nan = float("nan")
    mc_row = dataclasses.asdict(MonteCarloRow(
        alpha=0.4, n_symbols=nan, dimension=nan, success_rate=nan, wilson_low=nan,
        wilson_high=nan, mean_residual=nan, trials=0, trial_errors=2))
    for row in (sweep_row, mc_row):
        text = render_csv({"command": "test", "seed": 1}, [row])
        spec, rows = check.parse_csv(text)
        assert spec == {"command": "test", "seed": "1"}
        lines = [line for line in text.splitlines() if not line.startswith("# ")]
        assert rows == list(csv.DictReader(lines))
        assert list(rows[0]) == list(row)
