"""Correctness checks on the CLI's output files and on rebuilt trials.

Each check returns ``(attempted, failures)``: the number of operations it
covered (thresholds, decoding trials or rechecked trials) and one line per
failed operation.  Every failure counts against the run.

The tolerances and settings come from the benchmark (this file and the
header recorded with ``reference.json``), never from the output under check.
"""
from __future__ import annotations

# DEConfig.bisection_tol of the commit that recorded reference.json: every
# alpha* must lie within it of the recorded value.
BISECTION_TOL = 1e-4
# Header fields that may differ from the recorded header.
FREE_HEADER_FIELDS = ("version", "seed")


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header fields and data rows of a CLI CSV document, as strings."""
    spec: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    columns = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            spec[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return spec, rows


def recorded_header(spec: dict[str, str]) -> dict[str, str]:
    """The header fields a later output must repeat exactly."""
    return {key: value for key, value in spec.items() if key not in FREE_HEADER_FIELDS}


def header_failures(spec: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Every recorded header field (ensemble, DE settings, Monte Carlo
    settings) must be unchanged in the output."""
    return [f"header {key}={spec.get(key)!r}, recorded {value!r}"
            for key, value in reference.items() if spec.get(key) != value]


def check_sweep(spec, rows, reference) -> tuple[int, list[str]]:
    """One operation per reference row: it must be present, carry no error,
    sit above its lower bound and within ``BISECTION_TOL`` of the reference
    alpha*.  The header must repeat the recorded DE settings."""
    by_L = {row.get("L"): row for row in rows}
    failures = header_failures(spec, reference["header"])
    for ref in reference["rows"]:
        row = by_L.get(ref["L"])
        if row is None:
            failures.append(f"L={ref['L']}: row missing")
            continue
        try:
            alpha, bound = float(row["alpha_star"]), float(row["lower_bound_alpha"])
        except (KeyError, ValueError):
            failures.append(f"L={ref['L']}: unreadable row {row}")
            continue
        if row.get("error"):
            failures.append(f"L={ref['L']}: error {row['error']!r}")
        elif not alpha >= bound:
            failures.append(f"L={ref['L']}: alpha*={alpha!r} below lower bound {bound!r}")
        elif not abs(alpha - float(ref["alpha_star"])) <= BISECTION_TOL:
            failures.append(
                f"L={ref['L']}: alpha*={alpha!r} is more than {BISECTION_TOL:g} from "
                f"the reference {ref['alpha_star']}")
    if len(rows) != len(reference["rows"]):
        failures.append(f"{len(rows)} rows, expected {len(reference['rows'])}")
    return len(reference["rows"]), failures


def header_alphas(header: dict[str, str]) -> list[float]:
    return [float(a) for a in header["alpha_grid"].split(",")]


def check_simulate(spec, rows, reference, seed: int) -> tuple[int, list[str]]:
    """One operation per decoding trial.  The header must repeat the recorded
    settings and the run's seed.  Each row must cover its alpha with every
    trial and no trial error, count a whole number of successes, hold its
    success rate inside its Wilson interval and a mean residual of 0 exactly
    when every trial decoded; at a recorded seed its cells must match the
    recorded ones exactly."""
    header = reference["header"]
    alphas, trials = header_alphas(header), int(header["trials"])
    recorded = reference["seeds"].get(str(seed))
    failures = header_failures(spec, header)
    if spec.get("seed") != str(seed):
        failures.append(f"header seed={spec.get('seed')!r}, run seed {seed}")
    for i, alpha in enumerate(alphas):
        row = rows[i] if i < len(rows) else None
        tag = f"alpha={alpha!r}"
        if row is None:
            failures.extend([f"{tag}: row missing"] * trials)
            continue
        try:
            got_alpha = float(row["alpha"])
            rate = float(row["success_rate"])
            lo, hi = float(row["wilson_low"]), float(row["wilson_high"])
            residual = float(row["mean_residual"])
            done, errors = int(row["trials"]), int(row["trial_errors"])
        except (KeyError, ValueError):
            failures.extend([f"{tag}: unreadable row {row}"] * trials)
            continue
        successes = rate * trials
        if (got_alpha != alpha or not 0.0 <= lo <= rate <= hi <= 1.0
                or abs(successes - round(successes)) > 1e-9
                or not 0.0 <= residual <= 1.0 or (residual == 0.0) != (rate == 1.0)):
            failures.extend([f"{tag}: inconsistent row {row}"] * trials)
        elif done + errors != trials or errors:
            failures.extend([f"{tag}: {errors} trial errors, {done} trials"]
                            * max(errors, trials - done, 1))
        elif recorded is not None:
            ref = recorded[i]
            diff = {key: (row.get(key), value) for key, value in ref.items()
                    if row.get(key) != value}
            if diff:
                failures.extend([f"{tag}: differs from the reference: {diff}"] * trials)
    if len(rows) != len(alphas):
        failures.append(f"{len(rows)} rows, expected {len(alphas)}")
    return len(alphas) * trials, failures


def rebuild_trial(params, M: int, alpha: float, seed: int, alpha_index: int,
                  trial: int, zero_codeword: bool):
    """Re-run one Monte Carlo trial through the public codec functions, with
    the same per-trial seeds ``SeedSequence([seed, alpha_index, trial])``."""
    import numpy as np

    from sc_rateless import channel_stream, encode, peel, sample_precode

    graph_seed, info_seed, stream_seed = np.random.SeedSequence(
        [seed, alpha_index, trial]).spawn(3)
    graph = sample_precode(params, M, graph_seed)
    if zero_codeword:
        k = graph.design_dimension()
        codeword = np.zeros(graph.num_bits, dtype=np.uint8)
    else:
        k = graph.realized_dimension()
        info = np.random.default_rng(info_seed).integers(0, 2, size=k, dtype=np.uint8)
        codeword = encode(graph, info)
    n = max(1, round((1.0 + alpha) * k / (1.0 - params.epsilon)))
    stream = channel_stream(graph, codeword, n, params.epsilon, stream_seed)
    return graph, codeword, peel(graph, stream), n, k


def trial_failures(graph, codeword, result) -> list[str]:
    """A rebuilt trial is correct when the codeword satisfies every precode
    check and every bit the peeler resolved equals the transmitted bit."""
    failures = []
    weight = graph.syndrome_weight(codeword)
    if weight:
        failures.append(f"codeword violates {weight} precode checks")
    resolved = result.assignment >= 0
    wrong = int((result.assignment[resolved] != codeword[resolved]).sum())
    if wrong:
        failures.append(f"{wrong} of {int(resolved.sum())} resolved bits are wrong")
    return failures


def row_failures(row, result, n: int, k: int, zero_codeword: bool) -> list[str]:
    """A rebuilt trial must agree with the CLI's row for its alpha: a decoded
    trial means a success rate above 0, an undecoded one a success rate below
    1 and a positive mean residual.  With the zero codeword every trial has
    the design dimension, so the row's n and k must equal the rebuilt ones."""
    try:
        rate, residual = float(row["success_rate"]), float(row["mean_residual"])
        n_row, k_row = float(row["n_symbols"]), float(row["dimension"])
    except (KeyError, TypeError, ValueError):
        return [f"no readable row {row}"]
    failures = []
    if result.residual_bit_erasure == 0.0 and not rate > 0.0:
        failures.append(f"trial decoded but the row's success rate is {rate!r}")
    if result.residual_bit_erasure > 0.0 and not (rate < 1.0 and residual > 0.0):
        failures.append(f"trial failed but the row has success rate {rate!r}, "
                        f"mean residual {residual!r}")
    if zero_codeword and (n_row, k_row) != (n, k):
        failures.append(f"row has n={n_row!r}, k={k_row!r}; rebuilt n={n}, k={k}")
    return failures


def recheck(header: dict[str, str], rows, seed: int) -> tuple[int, list[str]]:
    """Rebuild the first and last trial at every alpha of the recorded
    workload header at the run's seed, check them and compare them with the
    output rows."""
    from sc_rateless import EnsembleParams

    params = EnsembleParams(dl=int(header["dl"]), dr=int(header["dr"]),
                            dg=int(header["dg"]), L=int(header["L"]), w=int(header["w"]),
                            epsilon=float(header["eps"]))
    M, trials = int(header["M"]), int(header["trials"])
    zero_codeword = header["zero_codeword"] == "true"
    failures = []
    attempted = 0
    for ai, alpha in enumerate(header_alphas(header)):
        row = rows[ai] if ai < len(rows) else None
        for trial in sorted({0, trials - 1}):
            attempted += 1
            tag = f"recheck alpha={alpha!r} trial={trial}"
            try:
                graph, codeword, result, n, k = rebuild_trial(
                    params, M, alpha, seed, ai, trial, zero_codeword)
            except Exception as exc:  # any failure to rebuild is a failed recheck
                failures.append(f"{tag}: {type(exc).__name__}: {exc}")
                continue
            lines = (trial_failures(graph, codeword, result)
                     + row_failures(row, result, n, k, zero_codeword))
            failures.extend(f"{tag}: {line}" for line in lines)
    return attempted, failures
