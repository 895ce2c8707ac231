import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sc_rateless.codec as codec
from sc_rateless import (
    ConditioningFailed,
    EnsembleParams,
    InvalidM,
    NonPositiveRate,
    monte_carlo,
)


def params(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


SMALL = params(L=8)


def pava(y):
    """Pool-adjacent-violators fit (nondecreasing)."""
    blocks = [[v, 1] for v in y]
    i = 0
    while i + 1 < len(blocks):
        if blocks[i][0] > blocks[i + 1][0] + 1e-15:
            total = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            count = blocks[i][1] + blocks[i + 1][1]
            blocks[i:i + 2] = [[total / count, count]]
            i = max(i - 1, 0)
        else:
            i += 1
    out = []
    for value, count in blocks:
        out.extend([value] * count)
    return np.array(out)


class TestMonteCarlo:
    def test_rows_sorted_and_reproducible(self):
        grid = [0.4, 0.1, 0.25]
        a = monte_carlo(SMALL, 12, grid, trials=5, seed=3, zero_codeword=True)
        b = monte_carlo(SMALL, 12, grid, trials=5, seed=3, zero_codeword=True)
        assert [r.alpha for r in a] == sorted(grid)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_different_seed_differs(self):
        a = monte_carlo(SMALL, 12, [0.25], trials=20, seed=3, zero_codeword=True)
        b = monte_carlo(SMALL, 12, [0.25], trials=20, seed=4, zero_codeword=True)
        assert a[0].mean_residual != b[0].mean_residual

    def test_workers_match_serial(self):
        grid = [0.15, 0.3]
        serial = monte_carlo(SMALL, 12, grid, trials=8, seed=5, zero_codeword=True)
        parallel = monte_carlo(
            SMALL, 12, grid, trials=8, seed=5, zero_codeword=True, workers=2
        )
        assert serial == parallel

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # pool_map imports the pool only to start one, so a serial run never
        # loads it.
        code = "import sys, sc_rateless.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(codec.__file__).resolve().parent.parent)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "False\n"

    def test_success_monotone_in_alpha(self):
        # more received symbols cannot hurt on average; allow 2 sigma of
        # binomial noise around the isotonic fit
        trials = 60
        rows = monte_carlo(
            params(), 150, [0.1, 0.2, 0.3, 0.45, 0.6], trials=trials,
            seed=8, zero_codeword=True,
        )
        rates = np.array([r.success_rate for r in rows])
        fit = pava(rates)
        sigma = np.sqrt(np.maximum(fit * (1 - fit), 0.25 / trials) / trials)
        assert np.all(np.abs(rates - fit) <= 2 * sigma + 1e-12)

    def test_encoder_mode_runs_and_reports_realized_dimension(self):
        rows = monte_carlo(SMALL, 12, [0.8], trials=6, seed=9)
        row = rows[0]
        assert row.trials == 6
        assert row.trial_errors == 0
        assert row.dimension >= SMALL.L * 12 - 100  # realized dimension, not nan
        assert 0.0 <= row.mean_residual <= 1.0

    def test_zero_codeword_uses_design_dimension(self):
        rows = monte_carlo(SMALL, 12, [0.8], trials=4, seed=10, zero_codeword=True)
        from sc_rateless import design_rate

        assert rows[0].dimension == round(design_rate(SMALL) * SMALL.L * 12)

    def test_dg1_is_simulated_like_any_dg(self):
        rows = monte_carlo(params(dg=1, L=4), 6, [0.5], trials=2, seed=0, zero_codeword=True)
        assert rows[0].trials == 2

    def test_zero_trials_rejected_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            monte_carlo(SMALL, 12, [0.3], trials=0, seed=0)
        assert ran == []

    @pytest.mark.parametrize("zero_codeword", [False, True], ids=["encoder", "zero-codeword"])
    @pytest.mark.parametrize("L, message", [
        (2, "design rate -0.111111 <= 0 for dl=2, dr=3, w=3, L=2"),
        (1, "design rate -0.555556 <= 0 for dl=2, dr=3, w=3, L=1"),
    ], ids=["L2", "L1"])
    def test_nonpositive_design_rate_rejected_before_any_trial(
        self, monkeypatch, zero_codeword, L, message
    ):
        # Both codeword paths refuse the ensemble alike, before the full
        # encoder could take a dimension from the graphs' rank deficiency.
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        with pytest.raises(NonPositiveRate, match=re.escape(message)):
            monte_carlo(params(w=3, L=L), 30, [0.5], trials=3, seed=0,
                        zero_codeword=zero_codeword)
        assert ran == []

    def test_invalid_M_rejected_upfront(self):
        with pytest.raises(InvalidM):
            monte_carlo(params(), 7, [0.5], trials=1, seed=0)

    def test_invalid_M_raised_from_workers(self):
        # With a pool the sampler's check runs in the workers; the pickled
        # InvalidM reaches the caller with its message.
        with pytest.raises(InvalidM, match=r"M\*dl = 14 must be divisible by dr = 3"):
            monte_carlo(params(), 7, [0.5], trials=3, seed=0, workers=2)

    def test_trial_failures_recorded(self, monkeypatch):
        original = codec.sample_precode

        def flaky(params, M, seed):
            if seed.entropy[2] == 1:  # trial index
                raise ConditioningFailed("no conditioned matching")
            return original(params, M, seed)

        monkeypatch.setattr(codec, "sample_precode", flaky)
        rows = monte_carlo(SMALL, 12, [0.3], trials=4, seed=11, zero_codeword=True)
        assert rows[0].trial_errors == 1
        assert rows[0].trials == 3

    @pytest.mark.parametrize("alpha", [-1.0, -3.0, math.nan, math.inf])
    def test_bad_alpha_rejected_upfront(self, alpha):
        # Without the up-front check these fail later, inside the trials,
        # with other messages.
        with pytest.raises(ValueError, match="alpha must be finite and > -1"):
            monte_carlo(SMALL, 12, [0.3, alpha], trials=2, seed=0, zero_codeword=True)

    @pytest.mark.parametrize("grid, message", [
        ([0.3, 0.6, 0.3], "alpha_grid repeats alpha = 0.3"),
        ([], "alpha_grid must be nonempty"),
    ])
    def test_repeated_or_empty_alpha_grid_rejected_before_any_trial(
        self, monkeypatch, grid, message
    ):
        ran = []
        monkeypatch.setattr(codec, "_run_trial", ran.append)
        with pytest.raises(ValueError, match=message):
            monte_carlo(SMALL, 12, grid, trials=2, seed=0, zero_codeword=True)
        assert ran == []

    def test_all_failed_row(self):
        # At M = 3 and seed 7 neither trial's matching can be conditioned.
        rows = monte_carlo(
            params(L=4), 3, [0.4], trials=2, seed=7, zero_codeword=True
        )
        assert len(rows) == 1
        row = rows[0]
        assert (row.alpha, row.trials, row.trial_errors) == (0.4, 0, 2)
        stats = (row.n_symbols, row.dimension, row.success_rate, row.wilson_low,
                 row.wilson_high, row.mean_residual)
        assert all(math.isnan(v) for v in stats)

    def test_row_carries_wilson_interval(self):
        for row in monte_carlo(SMALL, 12, [0.1, 0.6], trials=6, seed=2, zero_codeword=True):
            assert (row.wilson_low, row.wilson_high) == codec._wilson(
                row.success_rate, row.trials)
            assert row.wilson_low <= row.success_rate <= row.wilson_high

    @pytest.mark.parametrize("alpha", [1e308, 1e307])
    def test_overflowing_symbol_count_rejected_before_any_trial(self, monkeypatch, alpha):
        # (1 + alpha) * L * M / (1 - eps) is infinite for both, so no trial
        # could round its symbol count to an integer.
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r} overflows")):
            monte_carlo(SMALL, 12, [0.3, alpha], trials=2, seed=0, zero_codeword=True)
        assert ran == []

    def test_symbol_count_beyond_memory_rejected_before_any_trial(self, monkeypatch):
        # With room for 960 symbols, n = (1 + alpha)*L*M/(1 - eps) = 192 (1 + alpha)
        # reaches the bound exactly at alpha = 4, which still runs.
        monkeypatch.setattr(codec, "_max_symbols", lambda dg: 960)
        ran = []
        monkeypatch.setattr(
            codec, "_run_trial", lambda *args: ran.append(args) or (0.0, 1.0, 1.0))
        monte_carlo(SMALL, 12, [0.3, 4.0], trials=1, seed=0, zero_codeword=True)
        assert len(ran) == 2
        ran.clear()
        message = ("alpha = 4.5 overflows the symbol count: n = (1 + alpha)*L*M/(1 - eps)"
                   " = 1056 exceeds 960")
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo(SMALL, 12, [0.3, 4.5], trials=1, seed=0, zero_codeword=True)
        assert ran == []

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory not reported")
    def test_max_symbols_fit_stream_references_in_physical_memory(self):
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        for dg in (1, 3, 8):
            bound = codec._max_symbols(dg)
            assert 0 < bound * 8 * dg <= memory < (bound + 1) * 8 * dg

    @pytest.mark.parametrize("error", [OSError, ValueError, AttributeError])
    def test_max_symbols_without_reported_memory_spans_the_address_space(
            self, monkeypatch, error):
        def unreported(name):
            raise error(name)
        monkeypatch.setattr(codec.os, "sysconf", unreported, raising=False)
        for dg in (1, 3, 8):
            assert codec._max_symbols(dg) == sys.maxsize // (8 * dg)
        # An alpha past that bound is still refused by name, before any trial.
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        bound = sys.maxsize // (8 * SMALL.dg)
        with pytest.raises(ValueError, match=re.escape("alpha = 1e+16 overflows")) as refused:
            monte_carlo(SMALL, 12, [0.3, 1e16], trials=2, seed=0, zero_codeword=True)
        assert f"exceeds {bound}," in str(refused.value)
        assert ran == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected_before_any_trial(self, monkeypatch, workers):
        ran = []
        monkeypatch.setattr(codec, "_run_trial", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            monte_carlo(SMALL, 12, [0.3], trials=2, seed=0, workers=workers)
        assert ran == []

    def test_trial_jobs_carry_only_their_own_index(self, monkeypatch):
        # The run's settings are bound once; each job is (alpha index, alpha,
        # trial) and keeps the seed SeedSequence([seed, alpha index, trial]).
        calls = []
        monkeypatch.setattr(
            codec, "_run_trial", lambda *args: calls.append(args) or (0.0, 1.0, 1.0))
        monte_carlo(SMALL, 12, [0.6, 0.3], trials=2, seed=5, zero_codeword=True)
        assert calls == [
            (SMALL, 12, 5, True, (ai, alpha, t))
            for ai, alpha in enumerate([0.3, 0.6]) for t in range(2)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_undeclared_trial_exception_propagates(self, workers):
        # A fault inside a trial is not a trial error.  At alpha = -0.999 the
        # symbol count (1 + alpha) * k / (1 - eps) rounds to 0, and
        # channel_stream raises, in the caller's process or in a worker,
        # under any process start method.
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            monte_carlo(
                SMALL, 12, [0.3, -0.999], trials=4, seed=11,
                zero_codeword=True, workers=workers,
            )


class TestWaterfall:
    def test_far_above_threshold_mostly_perfect(self):
        # alpha = threshold + 0.3 at (2,3,3,16,2); regression band frozen
        # from the first calibration run (82/100 perfect decodes: rare
        # residual two-bit cores on degree-2 cycles keep this below 1).
        rows = monte_carlo(
            params(), 2001, [0.47], trials=100, seed=7, zero_codeword=True
        )
        assert rows[0].success_rate >= 0.70
        assert rows[0].mean_residual <= 1e-3

    def test_waterfall_sharpens_with_M(self):
        p = params()
        alphas = [0.13, 0.16, 0.19, 0.22, 0.25, 0.28, 0.31, 0.34]

        def transition_width(M):
            rows = monte_carlo(p, M, alphas, trials=30, seed=41, zero_codeword=True)
            res = [r.mean_residual for r in rows]
            a = [r.alpha for r in rows]

            def cross(level):
                for i in range(len(a) - 1):
                    if res[i] >= level > res[i + 1]:
                        return a[i] + (res[i] - level) / (res[i] - res[i + 1]) * (
                            a[i + 1] - a[i]
                        )
                return math.nan

            return cross(0.15) - cross(0.6)

        narrow, wide = transition_width(4002), transition_width(1002)
        assert not math.isnan(narrow) and not math.isnan(wide)
        assert narrow < wide
