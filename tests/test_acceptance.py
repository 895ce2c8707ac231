"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The DE sweeps here use a raised iteration cap (the configurable knob of
DEConfig): near capacity at L = 512 the decoding wave legitimately needs a
few hundred thousand iterations, and the default cap would bias thresholds
upward by more than the tolerances checked below.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math
import random as pyrandom

import numpy as np
import pytest

from reference import band_matrix_loops, combined_factors, peel_sequential, poisson_pmf
from sc_rateless import (
    DEConfig,
    EnsembleParams,
    beta_from_alpha,
    build_jacobian,
    capacity_condition,
    channel_stream,
    de_run,
    de_step,
    dg1_overhead_bound,
    monte_carlo,
    norm_upper_bound,
    overhead_threshold,
    peel,
    rayleigh_lower_bound,
    sample_precode,
    spectral_radius,
    threshold_sweep,
)

L_GRID = [4, 8, 16, 32, 64, 128, 256, 512]
SWEEP_CONFIG = DEConfig(max_iterations=450_000)


def conclude(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{name}]: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def params(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


@pytest.fixture(scope="session")
def sweep_dg2():
    return threshold_sweep(params(dg=2, L=512), L_GRID, SWEEP_CONFIG)


@pytest.fixture(scope="session")
def sweep_dg3():
    return threshold_sweep(params(dg=3, L=512), L_GRID, SWEEP_CONFIG)


@pytest.fixture(scope="session")
def de_threshold_L16():
    return overhead_threshold(params(dg=3, L=16))


def test_criterion_1_dg2_asymptotes(sweep_dg2):
    rows = {r.L: r for r in sweep_dg2}
    assert all(r.error is None for r in sweep_dg2)
    tail = rows[512]
    alphas = [rows[L].alpha_star for L in L_GRID if L >= 8]
    monotone = all(
        later <= earlier + 2 * SWEEP_CONFIG.bisection_tol
        for earlier, later in zip(alphas, alphas[1:])
    )
    ok = (
        monotone
        and abs(tail.alpha_star - 0.03972) <= 0.01
        and abs(tail.beta_star - 1.38629) <= 0.02
    )
    conclude(
        1, "dg=2 threshold convergence", ok,
        f"alpha*_512={tail.alpha_star:.5f} (target 0.03972 +- 0.01), "
        f"beta*_512={tail.beta_star:.5f} (target 1.38629 +- 0.02), "
        f"monotone beyond L=8: {monotone}",
    )


def test_criterion_2_dg3_asymptotes(sweep_dg3):
    rows = {r.L: r for r in sweep_dg3}
    assert all(r.error is None for r in sweep_dg3)
    tail = rows[512]
    ok = tail.alpha_star <= 0.02 and abs(tail.beta_star - 2.0) <= 0.05
    conclude(
        2, "dg=3 threshold convergence", ok,
        f"alpha*_512={tail.alpha_star:.5f} (<= 0.02), "
        f"beta*_512={tail.beta_star:.5f} (target 2 +- 0.05)",
    )


def test_criterion_3_bound_domination(sweep_dg2, sweep_dg3):
    dominated = all(
        r.alpha_star >= r.lower_bound_alpha - 1e-12
        and r.beta_star >= r.lower_bound_beta - 1e-12
        for r in sweep_dg2 + sweep_dg3
    )
    gaps = [
        r.alpha_star - r.lower_bound_alpha
        for r in sweep_dg2 + sweep_dg3
        if r.L == 512
    ]
    ok = dominated and all(g < 0.01 for g in gaps)
    conclude(
        3, "threshold >= lower bound", ok,
        f"dominated on all rows: {dominated}, alpha gaps at L=512: "
        + ", ".join(f"{g:.5f}" for g in gaps) + " (each < 0.01)",
    )


def test_criterion_4_capacity_condition_boundary():
    good = all(capacity_condition(dr, 3) for dr in range(3, 15))
    bad = not any(capacity_condition(dr, 3) for dr in (15, 20, 30))
    conclude(
        4, "capacity condition boundary", good and bad,
        f"true for 3<=dr<=14: {good}, false for dr in {{15,20,30}}: {bad}",
    )


def test_criterion_5_dr_grid_ordering():
    config = DEConfig(max_iterations=200_000)
    results = {}
    for dr in (3, 4, 14, 15, 20, 30):
        p = params(dr=dr, dg=3, L=128)
        results[dr] = overhead_threshold(p, config).alpha_star
    best = min(results, key=results.get)
    conclude(
        5, "fastest approach at dr=14", best == 14,
        "alpha*_128 by dr: "
        + ", ".join(f"{dr}:{a:.5f}" for dr, a in sorted(results.items())),
    )


def test_criterion_6_spectral_sandwich():
    betas = (0.3, 1.0, 2.5)
    sandwich_ok = True
    oracle_ok = True
    for L in range(1, 51):
        for w in range(1, 6):
            p = params(dg=2, L=L, w=w)
            for beta in betas:
                m = build_jacobian(p, beta)
                rho = spectral_radius(m, tol=1e-12, max_iter=1_000_000)
                lower = rayleigh_lower_bound(p, beta)
                upper = norm_upper_bound(p, beta)
                sandwich_ok &= lower <= rho + 1e-10 and rho <= upper + 1e-10
                if L <= 8:
                    c = (p.dr - 1) * math.exp(-beta * (1 - p.epsilon))
                    oracle = np.linalg.eigvalsh(band_matrix_loops(L, w, c))
                    dense = float(np.max(np.abs(oracle)))
                    oracle_ok &= abs(rho - dense) <= 1e-8
    p = params(dg=2, L=1000, w=2)
    lower = rayleigh_lower_bound(p, 1.0)
    upper = norm_upper_bound(p, 1.0)
    gap = (upper - lower) / upper
    ok = sandwich_ok and oracle_ok and gap < 1e-3
    conclude(
        6, "spectral sandwich", ok,
        f"sandwich holds on 50x5x3 grid: {sandwich_ok}, dense-oracle match "
        f"(L<=8, 1e-8): {oracle_ok}, relative bound gap at L=1000: {gap:.2e}",
    )


def test_criterion_7_poisson_degree_law():
    # M = 9999: the closest section size to 1e4 that satisfies dr | M*dl.
    p = params(dg=3, L=16)
    M = 9999
    alpha = 0.1
    graph = sample_precode(p, M, seed=2024)
    k = graph.design_dimension()
    n = round((1 + alpha) * k / (1 - p.epsilon))
    stream = channel_stream(
        graph, np.zeros(graph.num_bits, dtype=np.uint8), n, p.epsilon, seed=77
    )
    refs = stream.bit_ids[stream.bit_ids >= 0]
    counts = np.bincount(refs, minlength=graph.num_bits)
    histogram = np.bincount(counts) / graph.num_bits
    beta = beta_from_alpha(p, alpha)
    # Beyond the histogram the empirical law is 0, so the Poisson mass left
    # there enters the TV distance whole.
    pmf = np.array(poisson_pmf(beta, len(histogram) - 1))
    tv = 0.5 * (np.abs(histogram - pmf).sum() + max(0.0, 1.0 - pmf.sum()))
    conclude(
        7, "Poisson channel-degree law", tv <= 0.01,
        f"TV distance {tv:.4f} <= 0.01 at M={M}, beta={beta:.4f}",
    )


def test_criterion_8_de_simulation_agreement(de_threshold_L16):
    # M = 2001: the closest section size to 2000 that satisfies dr | M*dl.
    # The threshold estimator is the overhead at which the mean residual
    # bit-erasure crosses 50%: the DE threshold is defined through the mean
    # bit-erasure P_b, and the finite-M block-decode ("every bit resolved")
    # curve is known to sit right of it by a ~1/sqrt(M) shift plus a ceiling
    # from O(1)-size degree-2 cycle cores, neither of which DE models.  The
    # block crossing is printed alongside for reference.
    alpha_star = de_threshold_L16.alpha_star
    p = params(dg=3, L=16)
    offsets = np.array([-0.06, -0.03, 0.0, 0.02, 0.04, 0.06, 0.08])
    grid = [round(alpha_star + d, 6) for d in offsets]
    rows = monte_carlo(p, 2001, grid, trials=200, seed=1234, zero_codeword=True)

    def crossing(ys, level, decreasing):
        xs = [r.alpha for r in rows]
        for i in range(len(xs) - 1):
            a, b = ys[i], ys[i + 1]
            if decreasing and a >= level > b:
                return xs[i] + (a - level) / (a - b) * (xs[i + 1] - xs[i])
            if not decreasing and a < level <= b:
                return xs[i] + (level - a) / (b - a) * (xs[i + 1] - xs[i])
        return math.nan

    bit_cross = crossing([r.mean_residual for r in rows], 0.5, decreasing=True)
    block_cross = crossing([r.success_rate for r in rows], 0.5, decreasing=False)
    ok = not math.isnan(bit_cross) and abs(bit_cross - alpha_star) <= 0.05
    conclude(
        8, "DE vs simulation", ok,
        f"DE alpha*_16={alpha_star:.5f}, bit-erasure 50% crossing at "
        f"{bit_cross:.5f} (|diff|={abs(bit_cross - alpha_star):.5f} <= 0.05); "
        f"block-decode 50% crossing at {block_cross:.5f} for reference",
    )


def test_criterion_9_dg1_exclusion():
    failures_ok = True
    details = []
    for dl, dr in ((2, 3), (2, 4)):
        bound = dg1_overhead_bound(dl, dr)
        p = params(dl=dl, dr=dr, dg=1, L=64)
        run = de_run(p, beta_from_alpha(p, bound - 0.05))
        residual = run.state.p.mean()
        failures_ok &= (not run.converged_to_zero) and residual > 0.01
        details.append(f"({dl},{dr}): bound {bound:.4f}, residual P_b {residual:.3f}")
    # elementwise reduction to the precode recursion over BEC(gf(eps))
    from reference import precode_de_step_loops

    rng = np.random.default_rng(99)
    reduction_ok = True
    for _ in range(20):
        p = params(dg=1, L=int(rng.integers(2, 20)), w=int(rng.integers(1, 4)))
        beta = float(rng.uniform(0.2, 3.0))
        p_in, s_in = rng.uniform(0, 1, p.L), rng.uniform(0, 1, p.L)
        channel = math.exp(-beta * (1.0 - p.epsilon))
        want = precode_de_step_loops(p.dl, p.dr, p.w, p.L, channel, p_in)
        got_p, _ = de_step(p, beta, p_in, s_in)
        reduction_ok &= bool(np.all(np.abs(got_p - want) <= 1e-14))
    ok = failures_ok and reduction_ok
    conclude(
        9, "dg=1 exclusion", ok,
        "; ".join(details) + f"; precode-DE reduction to 1e-14: {reduction_ok}",
    )


def test_criterion_10_invariant_suites():
    p = params(dg=3, L=16)
    beta = beta_from_alpha(p, 0.25)

    # monotone in iteration count at every step of the run, replayed with
    # de_step up to the run's final state
    run = de_run(p, beta)
    pv, sv, pb = np.ones(p.L), np.ones(p.L), 1.0
    monotone_iters = True
    for _ in range(run.state.iteration):
        pv, sv = de_step(p, beta, pv, sv)
        pb_next = float(pv.mean())
        monotone_iters &= pb_next <= pb + 1e-12
        pb = pb_next
    replayed = (pv.tobytes(), sv.tobytes()) == (run.state.p.tobytes(), run.state.s.tobytes())

    # monotone in beta, elementwise
    monotone_beta = True
    for iters in (5, 50):
        prev = None
        for b in np.linspace(0.5, 3.0, 5):
            pv, sv = np.ones(p.L), np.ones(p.L)
            for _ in range(iters):
                pv, sv = de_step(p, float(b), pv, sv)
            if prev is not None:
                monotone_beta &= bool(np.all(pv <= prev + 1e-12))
            prev = pv

    # spatial symmetry
    pv, sv = np.ones(p.L), np.ones(p.L)
    symmetric = True
    for _ in range(40):
        pv, sv = de_step(p, beta, pv, sv)
        symmetric &= bool(np.all(np.abs(pv - pv[::-1]) <= 1e-12))

    # absorbing zero
    nxt_p, nxt_s = de_step(p, beta, np.zeros(p.L), np.zeros(p.L))
    absorbing = bool(np.all(nxt_p == 0.0) and np.all(nxt_s == 0.0))

    # peeling confluence on seeded toy instances
    confluent = True
    toy = params(dg=3, L=4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        graph = sample_precode(toy, 6, seed=rng.integers(2 ** 32))
        n = max(1, round(1.2 * graph.design_dimension() / 0.5))
        stream = channel_stream(
            graph, np.zeros(graph.num_bits, dtype=np.uint8), n, 0.5,
            seed=rng.integers(2 ** 32),
        )
        got = peel(graph, stream)
        resolved = {
            int(b): int(v) for b, v in enumerate(got.assignment) if v >= 0
        }
        factors = combined_factors(graph, stream)
        confluent &= resolved == peel_sequential(graph.num_bits, factors)
        confluent &= resolved == peel_sequential(
            graph.num_bits, factors, order="random", rng=pyrandom.Random(seed)
        )

    # seed determinism of a full trial
    first = monte_carlo(toy, 6, [0.4], trials=3, seed=5, zero_codeword=True)
    second = monte_carlo(toy, 6, [0.4], trials=3, seed=5, zero_codeword=True)
    deterministic = first == second

    checks = {
        "P_b monotone in iteration": monotone_iters,
        "replay reaches de_run's state": replayed,
        "p monotone in beta": monotone_beta,
        "spatially symmetric": symmetric,
        "zero state absorbing": absorbing,
        "peeling confluent": confluent,
        "seed deterministic": deterministic,
    }
    conclude(
        10, "invariant suites", all(checks.values()),
        ", ".join(f"{name}: {ok}" for name, ok in checks.items()),
    )
