"""Check that the correctness checks catch a wrong result.

    python3 perfbench/selfcheck.py

Feeds the checks that ``run.py`` applies the recorded reference outputs and
rebuilt trials, first as they are and then deliberately perturbed: an alpha*
shifted by twice the bisection tolerance, a header that loosens that
tolerance, a threshold pushed below its lower bound, Monte Carlo cells
changed, a trial error, a row that disagrees with its rebuilt trials, one
resolved bit flipped, and a traced run that lost a function.  The
unperturbed inputs must pass and every perturbed one must fail.  Exits 1 if
any case comes out otherwise.  Takes a few seconds.
"""
from __future__ import annotations

import copy
import json
import sys

import check
import tracing
from run import HERE, ROOT, WORKLOADS

TOL = check.BISECTION_TOL


def cases():
    reference = json.loads((HERE / "reference.json").read_text())
    sweep = reference["de-wave"]

    def sweep_case(edit_row, edit_header=lambda header: None):
        rows, header = copy.deepcopy(sweep["rows"]), dict(sweep["header"])
        edit_row(rows[-1])
        edit_header(header)
        return bool(check.check_sweep(header, rows, sweep)[1])

    def shift(delta):
        return lambda row: row.update(alpha_star=repr(float(row["alpha_star"]) + delta))

    yield "sweep as recorded", False, sweep_case(lambda row: None)
    yield "alpha* + 2 tol", True, sweep_case(shift(2 * TOL))
    yield "alpha* - 2 tol", True, sweep_case(shift(-2 * TOL))
    yield "header bisection_tol loosened to 1e-2", True, sweep_case(
        shift(5e-3), lambda header: header.update(bisection_tol="0.01"))
    yield "alpha* below bound", True, sweep_case(
        lambda row: row.update(lower_bound_alpha=repr(float(row["alpha_star"]) + 1e-6)))
    yield "row error", True, sweep_case(lambda row: row.update(error="boom"))

    peel_ref = reference["mc-peel"]
    seed, recorded = next(iter(peel_ref["seeds"].items()))
    trials = int(peel_ref["header"]["trials"])

    def mc_case(edit_row, edit_header=lambda header: None, run_seed=seed):
        rows, header = copy.deepcopy(recorded), dict(peel_ref["header"], seed=seed)
        edit_row(rows[1])
        edit_header(header)
        return bool(check.check_simulate(header, rows, peel_ref, int(run_seed))[1])

    yield f"mc rows as recorded (seed {seed})", False, mc_case(lambda row: None)
    yield "mc mean residual off in the last digits", True, mc_case(
        lambda row: row.update(mean_residual=repr(float(row["mean_residual"]) * (1 + 1e-12))))
    yield "mc trial error", True, mc_case(
        lambda row: row.update(trials=str(trials - 1), trial_errors="1"))
    yield "mc header without --zero-codeword", True, mc_case(
        lambda row: None, lambda header: header.update(zero_codeword="false"))
    yield "mc header with another seed", True, mc_case(
        lambda row: None, lambda header: header.update(seed="2"))

    # At a seed with no recorded rows only the consistency checks apply.
    def unrecorded(edit_row):
        return mc_case(edit_row, lambda header: header.update(seed="99"), run_seed="99")

    yield "mc rows at an unrecorded seed", False, unrecorded(lambda row: None)
    yield "mc success count not whole", True, unrecorded(
        lambda row: row.update(success_rate=repr(float(row["success_rate"]) + 0.01)))
    yield "mc mean residual 0 with failed trials", True, unrecorded(
        lambda row: row.update(mean_residual="0.0"))

    sys.path.insert(0, str(ROOT / "src"))
    for name in ("mc-peel", "mc-encode"):
        ref = reference[name]
        rows = ref["seeds"]["1"]

        def recheck_case(edit_row):
            edited = copy.deepcopy(rows)
            for row in edited:
                edit_row(row)
            return bool(check.recheck(ref["header"], edited, 1)[1])

        yield f"{name} trials rebuilt against the recorded rows", False, recheck_case(
            lambda row: None)
        yield f"{name} rows all decoded", True, recheck_case(
            lambda row: row.update(success_rate="1.0", mean_residual="0.0"))
        yield f"{name} rows none decoded", True, recheck_case(
            lambda row: row.update(success_rate="0.0"))
    yield "mc-peel row with another n", True, bool(check.recheck(
        reference["mc-peel"]["header"],
        [dict(row, n_symbols=repr(float(row["n_symbols"]) + 1))
         for row in reference["mc-peel"]["seeds"]["1"]], 1)[1])

    from sc_rateless import EnsembleParams

    params = EnsembleParams(dl=2, dr=3, dg=3, L=16, w=2, epsilon=0.5)
    graph, codeword, result, _, _ = check.rebuild_trial(params, 300, 0.6, 1, 1, 0, False)
    yield "rebuilt trial", False, bool(check.trial_failures(graph, codeword, result))
    resolved = (result.assignment >= 0).nonzero()[0]
    result.assignment[resolved[len(resolved) // 2]] ^= 1
    yield "one resolved bit flipped", True, bool(check.trial_failures(graph, codeword, result))
    codeword = codeword.copy()
    codeword[resolved[0]] ^= 1
    yield "codeword breaks a check", True, any(
        "precode checks" in line for line in check.trial_failures(graph, codeword, result))

    expected = WORKLOADS["de-wave"]["calls"]
    spans = [[name, 0.0, 1.0, -1, None] for name in expected]
    yield "trace with every expected call", False, bool(
        tracing.missing_calls(spans, [], expected))
    yield "trace without density.de_run spans", True, bool(tracing.missing_calls(
        [span for span in spans if span[0] != "density.de_run"], [], expected))
    yield "trace with a function gone from the package", True, bool(
        tracing.missing_calls(spans, ["codec.peel"], expected))


def main() -> int:
    status = 0
    for name, should_flag, flagged in cases():
        ok = flagged == should_flag
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {'flagged' if flagged else 'passed'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
