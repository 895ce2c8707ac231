import collections
import hashlib
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

import sc_rateless.density as density
from reference import (
    de_step_loops,
    de_step_sequential,
    precode_de_step_loops,
    sliding_sums_sequential,
)
from sc_rateless import (
    DEConfig,
    DERun,
    DEState,
    EnsembleParams,
    NoSuccessInBracket,
    NonMonotoneBracket,
    NonMonotoneRun,
    ThresholdResult,
    alpha_from_beta,
    beta_from_alpha,
    de_run,
    de_step,
    overhead_threshold,
    threshold_sweep,
)


def params(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


FIG2 = params(2, 3, 3, L=16, w=2, eps=0.5)


def ones(L):
    return np.ones(L), np.ones(L)


def lane_sections(p, x):
    """The (2, K, L) sections of a flat state laid out as in _Lanes: w - 1
    zeros, then K p-lanes and K s-lanes of L sections and w - 1 zeros each."""
    return x[p.w - 1:].reshape(2, -1, p.L + p.w - 1)[:, :, :p.L]


class TestStep:
    def test_matches_loop_reference_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = params(
                dl=int(rng.integers(2, 5)),
                dr=int(rng.integers(5, 8)),
                dg=int(rng.integers(1, 5)),
                L=int(rng.integers(1, 9)),
                w=int(rng.integers(1, 5)),
                eps=float(rng.uniform(0, 0.95)),
            )
            beta = float(rng.uniform(0, 4))
            p_in, s_in = rng.uniform(0, 1, p.L), rng.uniform(0, 1, p.L)
            got_p, got_s = de_step(p, beta, p_in, s_in)
            want_p, want_s = de_step_loops(
                p.dl, p.dr, p.dg, p.w, p.L, p.epsilon, beta, p_in, s_in
            )
            np.testing.assert_allclose(got_p, want_p, atol=1e-14)
            np.testing.assert_allclose(got_s, want_s, atol=1e-14)

    def test_interior_sections_stay_erased_after_one_step(self):
        # The decoding wave can only start at the boundary: with everything
        # erased, interior sections see no information.
        p = params(L=12, w=3)
        nxt_p, nxt_s = de_step(p, 2.0, *ones(p.L))
        interior = slice(p.w - 1, p.L - p.w + 1)
        np.testing.assert_allclose(nxt_p[interior], 1.0, atol=0)
        np.testing.assert_allclose(nxt_s[interior], 1.0, atol=0)

    def test_single_section_uncoupled_stays_erased(self):
        p = params(dl=2, dr=3, dg=2, L=1, w=1)
        nxt_p, _ = de_step(p, 2.0, *ones(1))
        assert nxt_p[0] == 1.0

    def test_zero_state_is_absorbing(self):
        for w in (1, 2, 3):
            p = params(w=w, L=9)
            nxt_p, nxt_s = de_step(p, 1.7, np.zeros(9), np.zeros(9))
            assert np.all(nxt_p == 0.0)
            assert np.all(nxt_s == 0.0)

    def test_rejects_mismatched_state(self):
        with pytest.raises(ValueError):
            de_step(params(L=4), 1.0, *ones(5))
        with pytest.raises(ValueError):
            de_step(params(L=4), 1.0, np.ones(4), np.ones(5))

    def test_monotone_in_beta_elementwise(self):
        p = FIG2
        betas = np.linspace(0.5, 3.0, 6)
        for iters in (1, 10, 100):
            prev = None
            for beta in betas:
                pv, sv = ones(p.L)
                for _ in range(iters):
                    pv, sv = de_step(p, float(beta), pv, sv)
                if prev is not None:
                    assert np.all(pv <= prev + 1e-12)
                prev = pv

    def test_spatial_symmetry(self):
        p = params(L=17, w=3)
        pv, sv = ones(p.L)
        for _ in range(60):
            pv, sv = de_step(p, 2.2, pv, sv)
            np.testing.assert_allclose(pv, pv[::-1], atol=1e-12)
            np.testing.assert_allclose(sv, sv[::-1], atol=1e-12)

    def test_dg1_reduces_to_precode_de(self):
        # With dg = 1 the channel contributes the constant gf(eps), so the
        # p-update must coincide with the plain precode recursion over
        # BEC(gf(eps)).
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = params(
                dl=int(rng.integers(2, 4)),
                dr=int(rng.integers(4, 7)),
                dg=1,
                L=int(rng.integers(2, 12)),
                w=int(rng.integers(1, 4)),
                eps=float(rng.uniform(0.1, 0.9)),
            )
            beta = float(rng.uniform(0.2, 3.0))
            p_in, s_in = rng.uniform(0, 1, p.L), rng.uniform(0, 1, p.L)
            channel = math.exp(-beta * (1.0 - p.epsilon))
            want = precode_de_step_loops(p.dl, p.dr, p.w, p.L, channel, p_in)
            got_p, _ = de_step(p, beta, p_in, s_in)
            np.testing.assert_allclose(got_p, want, atol=1e-14)

    @pytest.mark.parametrize("dl, dr, w", [(2, 3, 2), (3, 6, 3), (2, 3, 9)])
    def test_inputs_unchanged_and_outputs_new(self, dl, dr, w):
        p = params(dl=dl, dr=dr, L=20, w=w)
        rng = np.random.default_rng(w)
        p_in, s_in = rng.uniform(0, 1, p.L), rng.uniform(0, 1, p.L)
        p_copy, s_copy = p_in.copy(), s_in.copy()
        out_p, out_s = de_step(p, 2.0, p_in, s_in)
        assert p_in.tobytes() == p_copy.tobytes()
        assert s_in.tobytes() == s_copy.tobytes()
        for x, y in itertools.combinations((p_in, s_in, out_p, out_s), 2):
            assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("beta", [-3.0, -0.1, math.nan, math.inf])
    def test_rejects_the_betas_de_run_rejects(self, beta):
        # At beta = -3 the step used to return p ~ 1.09, outside [0, 1], and
        # at NaN it returned NaNs.
        for w in (2, 3):
            p = params(L=8, w=w)
            with pytest.raises(ValueError, match="beta must be finite and >= 0") as stepped:
                de_step(p, beta, *ones(p.L))
            with pytest.raises(ValueError) as ran:
                de_run(p, beta)
            assert str(stepped.value) == str(ran.value)

    def test_upper_clamp_binds_at_width_nine(self):
        # Nine ones averaged by the 1/9 kernel round up past one, so from the
        # all-ones state a and both products exceed one before the clamp.
        assert np.convolve(np.ones(9), np.full(9, 1.0 / 9), mode="valid")[0] > 1.0
        p = params(L=20, w=9)
        nxt_p, nxt_s = de_step(p, 0.0, *ones(p.L))
        interior = slice(p.w - 1, p.L - p.w + 1)
        assert np.all(nxt_p[interior] == 1.0)
        assert np.all(nxt_s[interior] == 1.0)
        assert nxt_p.max() == 1.0 and nxt_s.max() == 1.0

    def test_bit_equal_to_sequential_sums(self):
        # Up to w = 11 every average of de_step sums its w products left to
        # right over the zero-padded window, so the step equals, to the bit,
        # the oracle that sums in Python loops and always clamps: where
        # de_step skips the clamp, it cannot bind.  At the chain's edges the
        # window reads zeros; a short chain (L < w) is all edge.
        rng = np.random.default_rng(12)
        for w, L in itertools.product(range(1, 12), range(1, 40)):
            dl = int(rng.integers(2, 4))
            p = params(dl=dl, dr=dl + int(rng.integers(1, 5)), dg=int(rng.integers(1, 5)),
                       L=L, w=w, eps=float(rng.uniform(0, 0.9)))
            beta = float(rng.uniform(0, 4))
            p_in, s_in = rng.uniform(0, 1, (2, L))
            want = de_step_sequential(p.dl, p.dr, p.dg, w, L, p.epsilon, beta, p_in, s_in)
            got = de_step(p, beta, p_in, s_in)
            for g, x in zip(got, want):
                assert g.tobytes() == x.tobytes(), (w, L, p)

    @pytest.mark.parametrize("w", range(1, 17))
    def test_clamp_flag_matches_kernel_sums_on_ones(self, w):
        # The clamp is kept where the sum of the kernel's w terms on ones
        # rounds past one: summed left to right up to w = 11, and by the BLAS
        # dot product (np.dot on 1-D arrays) from w = 12.
        kernel, clamp = density._kernel(w)
        assert kernel.tobytes() == np.full(w, 1.0 / w).tobytes()
        if w <= 11:
            total = sliding_sums_sequential(np.ones(w), w)[w - 1]
        else:
            total = float(np.dot(np.ones(w), kernel))
        assert clamp == (total > 1.0)

    @pytest.mark.parametrize("w", [w for w in range(1, 17) if not density._kernel(w)[1]])
    def test_unclamped_widths_stay_at_most_one(self, w):
        # Where the flag is clear de_step skips the upper clamp; for states in
        # [0, 1] the clamp would not have changed a bit.
        rng = np.random.default_rng(100 + w)
        cases = [(params(L=2 * w + 3, w=w), 0.0, *ones(2 * w + 3))]
        for _ in range(200):
            dl = int(rng.integers(2, 5))
            p = params(
                dl=dl,
                dr=dl + int(rng.integers(1, 6)),
                dg=int(rng.integers(1, 5)),
                L=int(rng.integers(1, 3 * w + 4)),
                w=w,
                eps=float(rng.choice([0.0, 0.5, 0.9])),
            )
            beta = float(rng.choice([0.0, rng.uniform(0, 4)]))
            # Uniform states, states within a few ulps of one, and mixes of
            # exact zeros and ones.
            kind = int(rng.integers(3))
            if kind == 0:
                p_in, s_in = rng.uniform(0, 1, (2, p.L))
            elif kind == 1:
                p_in, s_in = 1.0 - rng.integers(0, 4, (2, p.L)) * 2.0 ** -53
            else:
                p_in, s_in = rng.integers(0, 2, (2, p.L)).astype(float)
            cases.append((p, beta, p_in, s_in))
        for p, beta, p_in, s_in in cases:
            for out in de_step(p, beta, p_in, s_in):
                assert out.tobytes() == np.minimum(out, 1.0).tobytes()


# (params, lanes): every choice a stepper binds (the powers, the clamp),
# and lanes side by side at every width: where numpy sums left to right
# (w <= 11, the clamp binding at w = 9), where the BLAS dot product sums
# (w = 12 and 13), and where a lane is shorter than the kernel.
STEPPER_LAYOUTS = {
    "dr4-dg3": (params(dr=4, dg=3, L=16, w=2), 3),
    "dl3": (params(dl=3, dr=6, dg=3, L=16, w=2), 7),
    "w1": (params(L=8, w=1), 3),
    "w2-L1": (params(L=1, w=2), 7),
    "w3": (params(L=12, w=3), 1),
    "w3-lanes": (params(L=12, w=3), 5),
    "w3-dl3-lanes": (params(dl=3, dr=6, dg=3, L=16, w=3), 3),
    "w5-L2-lanes": (params(L=2, w=5), 5),
    "w9-clamp": (params(L=20, w=9), 1),
    "w9-clamp-lanes": (params(dl=3, dr=6, L=20, w=9), 5),
    "w12-ddot-lanes": (params(L=16, w=12), 5),
    "w13-ddot-lanes": (params(dr=4, dg=3, L=30, w=13), 3),
    "w13-L5-lanes": (params(L=5, w=13), 5),
}


def stepper_input(p, lanes, rng):
    """A flat state of ``lanes`` lanes laid out as in _Lanes, with the
    per-lane betas and the per-entry -beta a step takes.  The first lane is
    the all-ones state at beta = 0, where the w = 9 clamp binds (see
    test_upper_clamp_binds_at_width_nine); the others are random."""
    width = p.L + p.w - 1
    x = np.zeros(p.w - 1 + 2 * lanes * width)
    sections = lane_sections(p, x)
    sections[:, 0] = 1.0
    sections[:, 1:] = rng.uniform(0, 1, (2, lanes - 1, p.L))
    betas = np.concatenate(([0.0], rng.uniform(0, 4, lanes - 1)))
    return x, betas, np.repeat(-betas, width)[:lanes * width - p.w + 1]


class TestStepper:
    @pytest.mark.parametrize("p, lanes", STEPPER_LAYOUTS.values(), ids=STEPPER_LAYOUTS)
    def test_every_lane_gets_de_steps_bits(self, p, lanes):
        # Each lane sits at its own offset in the flat state, so equal bits
        # for every lane mean that no sum depends on where its lane lies.
        rng = np.random.default_rng(p.L * 31 + p.w)
        for _ in range(5):
            x, betas, neg_beta = stepper_input(p, lanes, rng)
            step = density._stepper(p, x.size)
            got = lane_sections(p, step(neg_beta, x))
            given = np.full(x.size, np.nan)
            assert step(neg_beta, x, given) is given
            assert lane_sections(p, given).tobytes() == got.tobytes()
            sections = lane_sections(p, x)
            for k, beta in enumerate(betas):
                want = de_step(p, beta, sections[0, k], sections[1, k])
                assert got[0, k].tobytes() == want[0].tobytes(), (p, k)
                assert got[1, k].tobytes() == want[1].tobytes(), (p, k)

    @pytest.mark.parametrize("p, lanes", STEPPER_LAYOUTS.values(), ids=STEPPER_LAYOUTS)
    def test_state_of_another_length_raises(self, p, lanes):
        # The step's operands have the layout's length, so a state of
        # another length cannot broadcast against them.
        x, _, neg_beta = stepper_input(p, lanes, np.random.default_rng(1))
        step = density._stepper(p, x.size)
        for size in {x.size - 2, x.size - 1, x.size + 1, x.size + 2, 2 * x.size} - {0}:
            with pytest.raises(ValueError):
                step(neg_beta[0], np.ones(size))

    def test_one_stepper_per_layout(self):
        p = params(L=16, w=2)
        assert density._stepper(p, 35) is density._stepper(p, 35)
        assert density._stepper(p, 35) is not density._stepper(p, 103)


class TestConfig:
    @pytest.mark.parametrize("name", ["fixed_point_tol", "success_target", "bisection_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_nonpositive_and_nan_tolerances(self, name, value):
        with pytest.raises(ValueError, match=name):
            DEConfig(**{name: value})

    @pytest.mark.parametrize("name", ["fixed_point_tol", "success_target"])
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_rejects_probability_tolerances_of_one_or_more(self, name, value):
        # P_b and every change of a state lie in [0, 1], so such a tolerance
        # would stop a run at its first step at any overhead.
        with pytest.raises(ValueError, match=f"{name} must be > 0 and < 1, got {value}"):
            DEConfig(**{name: value})

    @pytest.mark.parametrize("value", [1e-18, math.nextafter(2 * math.ulp(10.0), 0.0)])
    def test_rejects_bisection_tol_below_float_resolution(self, value):
        # Below two float steps at alpha = 10 the bracket can stop shrinking.
        with pytest.raises(ValueError, match=f"bisection_tol must be >= .*, got {value}$"):
            DEConfig(bisection_tol=value)

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_rejects_bad_max_iterations(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            DEConfig(max_iterations=value)


class TestRun:
    def test_far_above_threshold_decodes(self):
        run = de_run(FIG2, beta_from_alpha(FIG2, 0.5))
        assert run.converged_to_zero
        assert run.state.p.mean() < 1e-10
        assert not run.hit_iteration_cap

    def test_below_capacity_fails(self):
        run = de_run(FIG2, beta_from_alpha(FIG2, -0.5))
        assert not run.converged_to_zero
        assert run.state.p.mean() > 0.1

    def test_beta_zero_keeps_interior_fully_erased(self):
        # No channel information: only the shortened boundary leaks into the
        # precode, so the residual stays near (but not exactly at) 1.
        run = de_run(FIG2, 0.0)
        assert not run.converged_to_zero
        assert 0.9 < run.state.p.mean() < 1.0
        interior = run.state.p[FIG2.w - 1:FIG2.L - FIG2.w + 1]
        assert np.all(interior > 0.9)

    def test_rejects_nan_and_infinite_beta(self):
        # NaN passes a plain "beta < 0" test and would run to the cap.
        for beta in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="beta"):
                de_run(FIG2, beta)

    def test_iteration_cap_flagged(self):
        config = DEConfig(max_iterations=5)
        run = de_run(FIG2, beta_from_alpha(FIG2, 0.5), config)
        assert run.state.iteration == 5
        assert not run.converged_to_zero
        assert run.hit_iteration_cap

    def test_rising_bit_error_raises(self, monkeypatch):
        # A faulty update that lets P_b rise must stop the run with a
        # declared error, also under ``python -O``: here the third step
        # jumps back to the all-ones state.  The steps after it in its block
        # are stepped too, and thrown away.
        real_stepper = density._stepper
        calls = []

        def faulty_stepper(params, size):
            real_step = real_stepper(params, size)

            def faulty_step(neg_beta, x, out=None):
                calls.append(1)
                if len(calls) < 3:
                    return real_step(neg_beta, x, out)
                lane_sections(params, out)[...] = 1.0
                return out

            return faulty_step

        monkeypatch.setattr(density, "_stepper", faulty_stepper)
        with pytest.raises(NonMonotoneRun, match="at iteration 3"):
            de_run(FIG2, beta_from_alpha(FIG2, 0.5))
        assert len(calls) == density._BLOCK

    def test_boundary_wave_starts_at_the_edges(self):
        p = FIG2
        beta = beta_from_alpha(p, 0.3)
        pv, sv = ones(p.L)
        first_cross = np.full(p.L, -1)
        for it in range(1, 2000):
            pv, sv = de_step(p, beta, pv, sv)
            newly = (pv < 0.5) & (first_cross < 0)
            first_cross[newly] = it
            if np.all(first_cross >= 0):
                break
        assert np.all(first_cross >= 0), "wave never crossed everywhere"
        earliest = np.flatnonzero(first_cross == first_cross.min())
        near_edge = (earliest < p.w) | (earliest >= p.L - p.w)
        assert np.all(near_edge)


# de_run results recorded before the step and the run loop were rewritten
# in place.  The rewrite keeps every float operation, so the iteration count,
# the verdict and the final state must match to the bit.  The first two are
# de-wave bisection probes (sweep --dg 3, L=8).  "wave-stalls" is recorded
# where the failure certificate stops it; the stall that ended it before the
# certificate is pinned by test_stall_only_loop_keeps_the_recorded_stall.
WAVE = params(L=8, w=2)
WAVE_STALL_BETA = beta_from_alpha(WAVE, 0.3701171875)
RECORDED_RUNS = [
    pytest.param(WAVE, beta_from_alpha(WAVE, 0.3702392578125), 100_000, 4509, True, False,
                 "b75a338b2a7d82fdf25a4973db3bb2c4e213079b621e394ed1004d3c59a6caba",
                 id="wave-decodes"),
    pytest.param(WAVE, WAVE_STALL_BETA, 100_000, 2892, False, False,
                 "e0887b39b560eb4a9c205f1942fead0b804405df7edd488e92f607f87212eb85",
                 id="wave-stalls"),
    pytest.param(params(L=12, w=3), 2.5, 100_000, 61, True, False,
                 "0f4d44ecc17128dfe879b2148e9ba5fa1b58848e3f7b35729021c03a8cf1fe0f",
                 id="w3-dl2-decodes"),
    pytest.param(params(dl=3, dr=6, L=16, w=3), 3.0, 300, 300, False, True,
                 "98770edabbc38a810a8a62d030d6d3982194ddc5381716b582193d1f67014bfd",
                 id="w3-dl3-capped"),
    pytest.param(params(dl=3, dr=6, L=20, w=9), 1.0, 100_000, 37, False, False,
                 "0c20f9f3b50899f645382e0ceffb3bf515f8cff598e396993a7c6b0af6adcca9",
                 id="w9-dl3-stalls"),
    pytest.param(params(L=20, w=9), 1.9, 100_000, 72, True, False,
                 "4d3887374c3a80509d4f60a8b00181c2dacf6547afb1ace17d1a89e83447a3c9",
                 id="w9-dl2-decodes"),
    # Recorded before p and s shared one state vector: at w <= 2 the step
    # then averages both in one correlation and takes the power of each
    # half apart where dr != dg.
    pytest.param(params(dr=4, dg=3), 3.5, 100_000, 114, True, False,
                 "5a96b942b0fcbdb08707da9639a0b0d3d3619a603efb68268665a286007c37e1",
                 id="w2-dr4-dg3-decodes"),
    pytest.param(params(dr=4, dg=3), 3.0, 300, 300, False, True,
                 "42f272c31053fd1b4f9be2f88acade106aa8c11c70dd932e2dac384dd1d3af3b",
                 id="w2-dr4-dg3-capped"),
    pytest.param(params(dl=3, dr=6), 3.5, 100_000, 116, True, False,
                 "7ee7d8bd4d06af07e6376f7a3408d721c8d37b073cf421e344db3f84b2bdd353",
                 id="w2-dl3-decodes"),
    pytest.param(params(dl=3, dr=6), 3.0, 100_000, 100, False, False,
                 "871dfea3b6e9ad0e11014fe7d917e83b910e06b35a27c2105e8e83e7bb8dab91",
                 id="w2-dl3-fails"),
    pytest.param(params(dg=2, L=1), 0.5, 100_000, 90, True, False,
                 "96e7c4e7dfe644391be85488056accb95e77cb7b7358832ae0851c3bb9f35e9f",
                 id="w2-L1-decodes"),
    # At w = 1 the all-ones state is a fixed point unless dg = 1.
    pytest.param(params(dg=1, L=8, w=1), 2.0, 100_000, 71, True, False,
                 "7b8b4430a18a1aea89ee300de2fba3ec754deafcab4cbfba1106f10decf3387c",
                 id="w1-dg1-decodes"),
    pytest.param(params(dg=1, L=8, w=1), 1.4, 100_000, 2674, False, False,
                 "96cf746ee7002f86634844237bab2784c8f0821a830a16888888eeca39a1b63d",
                 id="w1-dg1-fails"),
]


def state_digest(pv, sv):
    return hashlib.sha256(pv.tobytes() + sv.tobytes()).hexdigest()


@pytest.mark.parametrize("p, beta, cap, iterations, decoded, capped, digest", RECORDED_RUNS)
def test_run_matches_recorded_result(p, beta, cap, iterations, decoded, capped, digest):
    run = de_run(p, beta, DEConfig(max_iterations=cap))
    assert run.state.iteration == iterations
    assert run.converged_to_zero is decoded
    assert run.hit_iteration_cap is capped
    assert state_digest(run.state.p, run.state.s) == digest


class LoopOutcome(NamedTuple):
    iteration: int
    decoded: bool
    capped: bool
    p: np.ndarray
    s: np.ndarray
    certificate: tuple | None
    iterates: list


def de_run_testing_change_every_step(p, beta, config, certify=True):
    """de_run's loop with the stall test |x_next - x| < fixed_point_tol
    taken on every iteration, with no P_b shortcut.  With ``certify`` it also
    tries de_run's failure certificate on de_run's schedule; without it, it
    is the stall-only loop.  Keeps every iterate and the certificate's y."""
    pv, sv = ones(p.L)
    iterates = []
    next_certify = density._CERTIFY_FIRST
    for it in range(1, config.max_iterations + 1):
        nxt_p, nxt_s = de_step(p, beta, pv, sv)
        certificate = None
        if certify and it == next_certify:
            next_certify = math.ceil(it * density._CERTIFY_GROWTH)
            (certificate,), _ = density._failure_certificates(
                p, [beta], density._Lanes(p, config, 1).pb_floor, np.array((pv, sv))[:, None],
                np.array((nxt_p, nxt_s))[:, None])
        change = max(float(np.abs(nxt_p - pv).max()), float(np.abs(nxt_s - sv).max()))
        pv, sv, pb = nxt_p, nxt_s, float(np.add.reduce(nxt_p)) / p.L
        iterates.append((pv, sv))
        done_zero = pb < config.success_target
        failed = change < config.fixed_point_tol or certificate is not None
        if done_zero or failed or it == config.max_iterations:
            return LoopOutcome(it, done_zero, not (done_zero or failed), pv, sv,
                               certificate, iterates)


def random_runs():
    """The runs both stopping-rule tests cover: five ensembles, three stall
    tolerances, L = 1..40 with random widths, and overheads on both sides
    of the threshold, taken on the L -> inf rate (short chains with wide
    windows have none)."""
    rng = np.random.default_rng(8)
    ensembles = [(2, 3, 3), (2, 3, 2), (3, 6, 3), (2, 4, 5), (4, 8, 2)]
    for tol in (1e-3, 1e-6, 1e-12):
        for L in range(1, 41):
            dl, dr, dg = ensembles[L % len(ensembles)]
            p = params(dl=dl, dr=dr, dg=dg, L=L, w=int(rng.integers(1, 10)))
            for alpha in (-0.2, 0.1, 0.4, 1.5):
                beta = dg / (1.0 - p.epsilon) * (1.0 - dl / dr) * (1.0 + alpha)
                config = DEConfig(max_iterations=int(rng.choice([30, 300, 1500])),
                                  fixed_point_tol=tol)
                yield (tol, p, alpha), p, beta, config


def test_stall_shortcut_matches_testing_every_step():
    # de_run skips the stall test while P_b falls by more than its floor; the
    # outcome must be the one of a loop that tests every step, to the bit.
    # Both step the same deterministic map from the same start, so equal
    # iteration counts imply equal P_b sequences.
    outcomes = set()
    for case, p, beta, config in random_runs():
        run = de_run(p, beta, config)
        ref = de_run_testing_change_every_step(p, beta, config)
        assert run.state.iteration == ref.iteration, case
        assert run.converged_to_zero is ref.decoded, case
        assert run.hit_iteration_cap is ref.capped, case
        assert run.state.p.tobytes() == ref.p.tobytes(), case
        assert run.state.s.tobytes() == ref.s.tobytes(), case
        outcomes.add("decoded" if ref.decoded else "capped" if ref.capped
                     else "certified" if ref.certificate is not None else "stalled")
    assert outcomes == {"decoded", "capped", "stalled", "certified"}


def test_failure_certificate_is_sound():
    # A certified run would, iterated on without the certificate, never
    # decode: every later iterate stays at or above the certificate's y.  So
    # the stall-only loop reaches the same verdict, no earlier.
    certified = 0
    for case, p, beta, config in random_runs():
        run = de_run_testing_change_every_step(p, beta, config)
        if run.certificate is None:
            continue
        certified += 1
        y_p, y_s = run.certificate
        assert np.all(y_p <= 1.0) and np.all(y_s <= 1.0), case
        stall_only = de_run_testing_change_every_step(p, beta, config, certify=False)
        assert not stall_only.decoded, case
        assert run.iteration <= stall_only.iteration, case
        for pv, sv in stall_only.iterates:
            assert np.all(pv >= y_p) and np.all(sv >= y_s), case
    assert certified > 0


def test_certificate_passes_while_interior_sections_sit_at_one():
    # Far from the boundary the state stays at exactly one until the wave
    # arrives, where f(y) >= y + margin needs the candidate's uniform shrink.
    # This failing probe is certified with 50 of its 64 sections still at one,
    # long before the stall-only loop stops.
    p = params(L=64)
    beta = beta_from_alpha(p, 0.03)
    run = de_run(p, beta)
    assert not run.converged_to_zero and not run.hit_iteration_cap
    assert np.sum(run.state.p == 1.0) == 50
    stall_only = de_run_testing_change_every_step(p, beta, DEConfig(), certify=False)
    assert not stall_only.decoded
    assert run.state.iteration < stall_only.iteration


def test_stall_only_loop_keeps_the_recorded_stall():
    # Before the failure certificate, de_run stopped the "wave-stalls" probe
    # on a stall at iteration 9,415 in this state; the stall-only loop still
    # does, and the certified run stops earlier on the same verdict.
    ref = de_run_testing_change_every_step(WAVE, WAVE_STALL_BETA, DEConfig(), certify=False)
    assert (ref.iteration, ref.decoded, ref.capped) == (9415, False, False)
    assert state_digest(ref.p, ref.s) == (
        "d3c87506796290f0b6e3beb469e34e2f1c00fdb017cf864d3ec23e86e667d20d")
    run = de_run(WAVE, WAVE_STALL_BETA)
    assert run.state.iteration < ref.iteration
    assert not run.converged_to_zero and not run.hit_iteration_cap


def failure_certificate_one_slope_at_a_time(p, beta, success_target, prev, cur):
    """The failure certificate as de_run tried it before the candidates were
    batched: one de_step per slope, and the first slope that passes wins."""
    error_a = (p.dr - 1) * (p.w + 2) + p.w + 10
    error_b = (p.dg - 1) * (p.w + 2) + p.w + 12
    error_gf = beta * (error_b + 2) + 8
    e = 2.0 * (p.dl * error_a + error_gf + 9) * density._U
    margin = 2.0 * e + 2.0 * density._U
    pb_floor = success_target + 2.0 * (p.L + 1) * density._U
    for k in density._CERTIFY_SLOPES:
        y = tuple(np.clip(x + k * (x - x_prev), 0.0, 1.0) * (1.0 - density._CERTIFY_SHRINK)
                  for x_prev, x in zip(prev, cur))
        if float(np.add.reduce(y[0])) / p.L < pb_floor:
            continue
        if all(np.all(fy >= v + margin) for fy, v in zip(de_step(p, beta, *y), y)):
            return y
    return None


def certify_together(p, config, betas, prevs, curs):
    """_failure_certificates on one batch of runs, in one step: their
    certificates."""
    found, _ = density._failure_certificates(
        p, betas, density._Lanes(p, config, 1).pb_floor, np.array(prevs).swapaxes(0, 1),
        np.array(curs).swapaxes(0, 1))
    return found


def assert_certificates_agree(case, p, config, betas, prevs, curs, found):
    """Each found certificate is the one-slope-at-a-time one, to the bit."""
    for beta, prev, cur, y in zip(betas, prevs, curs, found):
        ref = failure_certificate_one_slope_at_a_time(p, beta, config.success_target, prev, cur)
        assert (y is None) is (ref is None), case
        if y is not None:
            assert y[0].tobytes() == ref[0].tobytes(), case
            assert y[1].tobytes() == ref[1].tobytes(), case


def certificate_points(p, beta, config, every_step=False):
    """The (prev, cur) states of the every-step loop at each iteration where
    de_run tries its failure certificate, or at every iteration."""
    iterates = [ones(p.L), *de_run_testing_change_every_step(p, beta, config).iterates]
    it = 1 if every_step else density._CERTIFY_FIRST
    while it < len(iterates):
        yield iterates[it - 1], iterates[it]
        it = it + 1 if every_step else math.ceil(it * density._CERTIFY_GROWTH)


def test_batched_certificate_equals_one_slope_at_a_time_on_every_run():
    # Every certificate point of every stopping-rule run (L = 1..40, w = 1..9),
    # one run per call.  No run with L < w lasts until the first certificate,
    # so those runs are certified at every step.
    verdicts, widths = set(), set()
    for case, p, beta, config in random_runs():
        for prev, cur in certificate_points(p, beta, config, every_step=p.L < p.w):
            found = certify_together(p, config, [beta], [prev], [cur])
            assert_certificates_agree(case, p, config, [beta], [prev], [cur], found)
            verdicts.add(found[0] is not None)
            widths.add("short" if p.L < p.w else "w >= 3" if p.w >= 3 else "w <= 2")
    assert verdicts == {True, False} and widths == {"short", "w >= 3", "w <= 2"}


@pytest.mark.parametrize("w", [1, 2, 3, 9, 13])
def test_batched_certificate_equals_one_slope_at_a_time_across_runs(w):
    # Runs at mixed betas and iterations certified in one step, as the
    # due lanes of one lockstep are: each verdict and certificate is the one
    # a run alone gets, so no candidate leaks into its neighbours.  Runs
    # still at the all-ones start fail only at the chain's edges, where the
    # decoding wave starts, so their candidates would pass if one leaked.
    rng = np.random.default_rng(17)
    verdicts = set()
    for L in (1, 2, 3, 5, 8, 16, 24, 33, 64):
        p = params(dl=2, dr=3, dg=3 if L % 2 else 2, L=L, w=w)
        config = DEConfig()
        lanes = []
        for k, alpha in enumerate(rng.choice([-0.2, 0.02, 0.05, 0.1, 0.2, 0.4, 1.5], 12)):
            beta = p.dg / (1.0 - p.epsilon) * (1.0 - p.dl / p.dr) * (1.0 + alpha)
            if k % 4 == 0:
                lanes.insert(rng.integers(len(lanes) + 1), (beta, ones(L), ones(L)))
                continue
            points = list(certificate_points(p, beta, DEConfig(max_iterations=400), True))
            lanes.append((beta, *points[rng.integers(len(points))]))
        betas, prevs, curs = zip(*lanes)
        found = certify_together(p, config, betas, prevs, curs)
        assert_certificates_agree((w, L), p, config, betas, prevs, curs, found)
        verdicts.update(y is not None for y in found)
    assert verdicts == {True, False}


class TestThreshold:
    def test_dg3_L16_regression(self):
        # Self-generated regression value (bisection tol 1e-4).
        result = overhead_threshold(FIG2)
        assert result.alpha_star == pytest.approx(0.17282, abs=5e-4)
        assert result.beta_star == pytest.approx(
            beta_from_alpha(FIG2, result.alpha_star), abs=1e-10
        )
        lo, hi = result.bracket
        assert hi - lo <= DEConfig.bisection_tol
        assert result.iterations_at_threshold > 0

    def test_threshold_dominates_stability_bound(self):
        from sc_rateless import threshold_lower_bounds

        p = params(2, 3, 2, L=16)
        result = overhead_threshold(p)
        report = threshold_lower_bounds(p)
        assert result.alpha_star == pytest.approx(0.21579, abs=5e-4)
        assert result.alpha_star >= report.lower_bound_alpha
        assert result.beta_star >= report.lower_bound_beta

    def test_uncoupled_chain_never_starts(self):
        # w = 1 has no shortened boundary, so full erasure is a fixed point
        # at any overhead and the search must give up at alpha = 10.
        with pytest.raises(NoSuccessInBracket):
            overhead_threshold(params(dl=2, dr=3, dg=2, L=4, w=1))

    def test_dg1_threshold_stays_above_its_bounds(self):
        from sc_rateless import dg1_overhead_bound, threshold_lower_bounds

        p = params(dg=1, L=8)
        alpha_star = overhead_threshold(p).alpha_star
        assert alpha_star >= dg1_overhead_bound(2, 3)
        assert alpha_star >= threshold_lower_bounds(p).lower_bound_alpha

    def test_bad_bracket_rejected(self):
        for upper in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="upper"):
                overhead_threshold(FIG2, upper=upper)

    def test_upper_start_below_threshold_expands(self):
        # An upper end that fails to decode is doubled until it decodes.
        result = overhead_threshold(FIG2, upper=0.05)
        assert result.alpha_star == pytest.approx(0.17282, abs=5e-4)
        lo, hi = result.bracket
        assert hi - lo <= DEConfig.bisection_tol

    def test_nonmonotone_spot_check_raises(self, monkeypatch):
        # Rig the DE classifier with a success pocket below the bracket,
        # placed between the dyadic bisection probes so only the spot check
        # can see it (the threshold resolves to ~0.3000, the spot probe lands
        # at ~0.2800).
        def verdict(beta):
            alpha = alpha_from_beta(FIG2, beta)
            return fake_run(alpha >= 0.3 or 0.279 <= alpha <= 0.281, 1), 1

        rig_every_probe(monkeypatch, verdict)
        with pytest.raises(NonMonotoneBracket):
            overhead_threshold(FIG2)

    def test_smallest_bisection_tol_terminates(self, monkeypatch):
        # A DE that decodes from alpha = 0.17 up: with the smallest accepted
        # tolerance the bisection still ends, and an upper start past
        # alpha = 10 is probed at 10.
        alphas = []

        def verdict(beta):
            alphas.append(alpha_from_beta(FIG2, beta))
            return fake_run(alphas[-1] >= 0.17, 1), 1

        rig_every_probe(monkeypatch, verdict)
        tol = 2 * math.ulp(10.0)
        result = overhead_threshold(FIG2, DEConfig(bisection_tol=tol), upper=40.0)
        lo, hi = result.bracket
        assert lo < 0.17 <= hi and hi - lo <= tol
        assert len(alphas) < 100 and max(alphas) == pytest.approx(10.0)

    def test_decoding_zero_overhead_is_the_threshold(self, monkeypatch):
        # A DE that decodes everywhere: the probe at alpha = 0 closes the
        # bracket at [0, 0], and neither bisection nor spot probe runs.
        betas = []

        def fake_de_run(p, beta, config=DEConfig()):
            betas.append(beta)
            state = DEState(p=np.zeros(p.L), s=np.zeros(p.L), iteration=7)
            return DERun(state=state, converged_to_zero=True)

        monkeypatch.setattr(density, "de_run", fake_de_run)
        assert overhead_threshold(FIG2) == ThresholdResult(
            alpha_star=0.0, beta_star=beta_from_alpha(FIG2, 0.0),
            iterations_at_threshold=7, bracket=(0.0, 0.0),
        )
        assert betas == [beta_from_alpha(FIG2, 0.0)]


class TestSweep:
    def test_single_L_equals_direct_call(self):
        rows = threshold_sweep(FIG2, [16])
        direct = overhead_threshold(FIG2)
        assert len(rows) == 1
        assert rows[0].L == 16
        assert rows[0].error is None
        assert rows[0].alpha_star == direct.alpha_star
        assert rows[0].beta_star == direct.beta_star

    def test_rows_ordered_and_errors_recorded(self):
        p = params(dl=2, dr=3, dg=3, w=5, L=8)
        rows = threshold_sweep(p, [8, 1])
        assert [r.L for r in rows] == [1, 8]
        assert rows[0].error is not None and "rate" in rows[0].error
        assert math.isnan(rows[0].alpha_star)
        assert rows[1].error is None
        assert rows[1].alpha_star > 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(FIG2, [])

    def test_repeated_L_rejected_before_any_row(self, monkeypatch):
        # A repeated L would run twice with different warm-start brackets.
        def no_threshold(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(density, "overhead_threshold", no_threshold)
        with pytest.raises(ValueError, match="repeats L = 8"):
            threshold_sweep(FIG2, [8, 16, 8])

    def test_a_fault_that_is_no_row_failure_propagates(self, monkeypatch):
        # Only a row's own failures become its error; any other ValueError
        # is a fault, not a row that exits 0 with an error cell.
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(density, "overhead_threshold", boom)
        with pytest.raises(ValueError, match="boom"):
            threshold_sweep(FIG2, [8])


def lane_cases():
    """Lane batches for w in {1, 2}, L = 1..39 and 64, and K in {1, 2, 3,
    7, 15}: five ensembles, three stall tolerances, caps from 30 to 1,500
    and overheads on both sides of the L -> inf threshold, so that lanes
    decode, stall, are certified and hit the cap."""
    rng = np.random.default_rng(15)
    ensembles = [(2, 3, 3), (2, 3, 2), (3, 6, 3), (2, 4, 5), (4, 8, 2)]
    for w in (1, 2):
        for L in [*range(1, 40), 64]:
            for K in (1, 2, 3, 7, 15):
                dl, dr, dg = ensembles[(L + K) % len(ensembles)]
                p = params(dl=dl, dr=dr, dg=dg, L=L, w=w)
                alphas = rng.choice([-0.2, 0.05, 0.1, 0.2, 0.4, 1.5], K)
                betas = [dg / (1.0 - p.epsilon) * (1.0 - dl / dr) * (1.0 + a) for a in alphas]
                config = DEConfig(max_iterations=int(rng.choice([30, 300, 1500], p=[.3, .5, .2])),
                                  fixed_point_tol=float(rng.choice([1e-3, 1e-6, 1e-12])))
                yield (w, L, K), p, config, betas


def advance_to_the_end(lanes, betas: dict, outcomes=None, width=None) -> dict:
    """Advance ``lanes`` until every lane of ``betas`` = {key: beta} has
    ended, each time wanting the first ``width`` (all if None) that have
    not, in key order; returns ``outcomes`` (a new dict if None) updated
    with every lane's outcome."""
    outcomes = {} if outcomes is None else outcomes
    while len(outcomes) < len(betas):
        pending = [key for key in betas if key not in outcomes][:width]
        outcomes.update(lanes.advance({key: betas[key] for key in pending}))
    return outcomes


def running(lanes) -> list:
    """The keys of the lanes that run on if the next ``advance`` names them."""
    return [key for key in lanes._keys if key not in lanes._ended]


def run_lanes(p, config, betas):
    """Every lane's outcome; the second half joins once the first lane ends."""
    lanes = density._Lanes(p, config, depth=4)
    first = max(1, len(betas) // 2)
    outcomes = lanes.advance({k: betas[k] for k in range(first)})
    return lanes, advance_to_the_end(lanes, dict(enumerate(betas)), outcomes)


class TestLanes:
    def test_lanes_are_bit_equal_to_de_run(self, monkeypatch):
        certified = set()
        real_certificates = density._failure_certificates

        def recording_certificates(p, betas, *args):
            found, candidates = real_certificates(p, betas, *args)
            certified.update(beta for beta, y in zip(betas, found) if y is not None)
            return found, candidates

        monkeypatch.setattr(density, "_failure_certificates", recording_certificates)
        kinds = set()
        for case, p, config, betas in lane_cases():
            lanes, outcomes = run_lanes(p, config, betas)
            assert sorted(outcomes) == list(range(len(betas))), case
            for k, beta in enumerate(betas):
                run, ref = outcomes[k], de_run(p, beta, config)
                assert run.state.iteration == ref.state.iteration, (case, k)
                assert run.converged_to_zero is ref.converged_to_zero, (case, k)
                assert run.hit_iteration_cap is ref.hit_iteration_cap, (case, k)
                assert run.state.p.tobytes() == ref.state.p.tobytes(), (case, k)
                assert run.state.s.tobytes() == ref.state.s.tobytes(), (case, k)
                kinds.add("decoded" if ref.converged_to_zero else "capped" if ref.hit_iteration_cap
                          else "certified" if beta in certified else "stalled")
            assert lanes.retired == len(betas)
            assert lanes.row_steps == sum(run.state.iteration for run in outcomes.values())
        assert kinds == {"decoded", "capped", "stalled", "certified"}

    @pytest.mark.parametrize("w, L", [(3, 12), (3, 2), (9, 20), (9, 5), (12, 16), (13, 7)])
    def test_lanes_are_de_run_at_any_width(self, w, L):
        # The lanes lie side by side at every width, with the last lanes
        # joining once the first ends; each is still bit-equal to de_run.
        p = params(L=L, w=w)
        config = DEConfig(max_iterations=400)
        betas = [1.9, 2.5, 3.0, 1.2, 4.0]
        _, outcomes = run_lanes(p, config, betas)
        for k, beta in enumerate(betas):
            run, ref = outcomes[k], de_run(p, beta, config)
            assert (run.state.iteration, run.converged_to_zero, run.hit_iteration_cap) == (
                ref.state.iteration, ref.converged_to_zero, ref.hit_iteration_cap)
            assert state_digest(run.state.p, run.state.s) == state_digest(ref.state.p, ref.state.s)

    def test_a_rising_lane_raises_de_runs_error(self, monkeypatch):
        # A step that jumps back to the all-ones state on its third call:
        # advance raises, for the first lane, the NonMonotoneRun de_run
        # raises at that lane's beta, and no lane ends on a verdict.
        real_stepper = density._stepper
        calls = []

        def faulty_stepper(p, size):
            real_step = real_stepper(p, size)

            def faulty_step(neg_beta, x, out=None):
                calls.append(1)
                if len(calls) < 3:
                    return real_step(neg_beta, x, out)
                lane_sections(p, out)[...] = 1.0
                return out

            return faulty_step

        monkeypatch.setattr(density, "_stepper", faulty_stepper)
        lanes = density._Lanes(FIG2, DEConfig(), depth=2)
        with pytest.raises(NonMonotoneRun, match="at iteration 3") as lane_raised:
            lanes.advance(dict(enumerate([2.0, 2.5, 3.0])))
        assert lanes.retired == 0
        calls.clear()
        with pytest.raises(NonMonotoneRun) as raised:
            de_run(FIG2, 2.0)
        assert str(lane_raised.value) == str(raised.value)

    def test_one_rising_lane_raises_at_once(self, monkeypatch):
        # Once, the step resets only the middle lane of three to all ones: that
        # lane raises NonMonotoneRun at its third step, with its own P_b,
        # while the other two, which end much later, are still running.
        p, config = params(L=16, w=2), DEConfig(max_iterations=1500)
        betas = [beta_from_alpha(p, a) for a in (0.02, 0.15, 0.4)]
        refs = [de_run(p, beta, config) for beta in betas]
        width, real_stepper, calls = p.L + p.w - 1, density._stepper, []

        def faulty_stepper(p, size):
            real_step = real_stepper(p, size)

            def faulty_step(neg_beta, x, out=None):
                x_next = real_step(neg_beta, x, out)
                if len(x) == p.w - 1 + 2 * 3 * width:
                    calls.append(1)
                    if len(calls) == 3:
                        lane_sections(p, x_next)[:, 1] = 1.0
                return x_next

            return faulty_step

        monkeypatch.setattr(density, "_stepper", faulty_stepper)
        state = ones(p.L)
        for _ in range(2):
            state = de_step(p, betas[1], *state)
        lanes = density._Lanes(p, config, depth=2)
        with pytest.raises(NonMonotoneRun) as raised:
            lanes.advance(dict(enumerate(betas)))
        assert str(raised.value).endswith("to 1.0 at iteration 3")
        assert str(raised.value).startswith(f"P_b rose from {np.add.reduce(state[0]) / p.L} ")
        assert lanes.retired == 0 and len(calls) == density._BLOCK
        assert refs[0].state.iteration > 3 and refs[2].state.iteration > 3
        assert {refs[0].converged_to_zero, refs[2].converged_to_zero} == {False, True}

    def test_check_writes_neither_state(self, monkeypatch):
        # The dg = 2, L = 64 run at alpha = 0.085 stalls at iteration 6,285
        # (see DEConfig), so the stall test passes at its last check.  Every
        # check leaves both states it reads as they were.
        real_check, changes = density._Lanes._check, []

        def snapshot_check(self, lanes, pb, lanes_next, pb_next):
            before = lanes.tobytes(), lanes_next.tobytes()
            changes.append(float(np.abs(lanes_next - lanes).max()))
            ended = real_check(self, lanes, pb, lanes_next, pb_next)
            assert (lanes.tobytes(), lanes_next.tobytes()) == before, self.locksteps
            return ended

        monkeypatch.setattr(density._Lanes, "_check", snapshot_check)
        p, config = params(dg=2, L=64), DEConfig()
        run = de_run(p, beta_from_alpha(p, 0.085), config)
        assert run.state.iteration == 6285
        assert not run.converged_to_zero and not run.hit_iteration_cap
        assert len(changes) > 1 and changes[-1] < config.fixed_point_tol

    @pytest.mark.parametrize("w", [2, 5])
    def test_every_update_input_holds_zeros_in_every_padding_slot(self, monkeypatch, w):
        # A step writes entries that mix two lanes into the zeros after a
        # lane, and an average near a lane's edge reads the zeros before it,
        # so the lanes are bit-equal to de_run only if the leading zeros and
        # every lane's zeros hold zero whenever a step of _stepper reads
        # them: at every lockstep and in every certificate block.
        p, config = params(L=16, w=w), DEConfig(max_iterations=1500)
        width, real_stepper, lanes_read = p.L + p.w - 1, density._stepper, collections.Counter()

        def checking_stepper(q, size):
            real_step = real_stepper(q, size)

            def checking_step(neg_beta, x, out=None):
                rows = x[q.w - 1:].reshape(-1, width)
                assert np.all(x[:q.w - 1] == 0.0)
                assert len(rows) % 2 == 0 and np.all(rows[:, q.L:] == 0.0)
                lanes_read[len(rows) // 2] += 1
                return real_step(neg_beta, x, out)

            return checking_step

        monkeypatch.setattr(density, "_stepper", checking_stepper)
        betas = [beta_from_alpha(p, a) for a in (0.02, 0.15, 0.4)]
        lanes = density._Lanes(p, config, depth=2)
        outcomes = advance_to_the_end(lanes, dict(enumerate(betas)))
        assert lanes_read[3] >= 64 and lanes.certificate_batches > 0
        for k, beta in enumerate(betas):
            run, ref = outcomes[k], de_run(p, beta, config)
            assert run.state.iteration == ref.state.iteration
            assert state_digest(run.state.p, run.state.s) == state_digest(ref.state.p, ref.state.s)

    def test_block_stepping_matches_testing_every_step(self):
        # Lanes step _BLOCK locksteps before the stop rules screen them, so a
        # lane may stop at any row of a block.  At every cap from one step to
        # two blocks and one step, each lane, alone and beside others, ends at
        # the step, with the verdict and the state, of the loop that tests
        # every step.  A lone lane throws the rest of its last block away.
        block, p, kinds = density._BLOCK, params(L=8), set()
        betas = [beta_from_alpha(p, a) for a in (-0.2, 0.4, 1.5, 4.0)]
        for tol in (1e-2, 1e-12):
            for cap in range(1, 2 * block + 2):
                config = DEConfig(max_iterations=cap, fixed_point_tol=tol)
                _, together = run_lanes(p, config, betas)
                for k, beta in enumerate(betas):
                    ref = de_run_testing_change_every_step(p, beta, config)
                    alone = density._Lanes(p, config, 1)
                    run = alone.advance({None: beta})[None]
                    assert alone.discarded == -ref.iteration % block, (tol, cap, k)
                    for run in (run, together[k]):
                        assert (run.state.iteration, run.converged_to_zero,
                                run.hit_iteration_cap) == (ref.iteration, ref.decoded,
                                                           ref.capped), (tol, cap, k)
                        assert state_digest(run.state.p, run.state.s) == state_digest(
                            ref.p, ref.s), (tol, cap, k)
                    kinds.add("decoded" if ref.decoded else "capped" if ref.capped
                              else "stalled")
        assert kinds == {"decoded", "capped", "stalled"}

    def test_certificate_due_in_the_block_of_an_earlier_stall_check(self, monkeypatch):
        # At L = 16 with fixed_point_tol = 1e-2 the P_b screen sends most
        # locksteps to the stall test, so the certificates due at iterations 64
        # and 80 fall in blocks where a stall test ran first.  Each lane still
        # ends as the loop that tests every step does.
        block, checked, certified = density._BLOCK, [], []
        real_check, real_certificates = density._Lanes._check, density._failure_certificates

        def recording_check(self, *args):
            checked.append(self.locksteps)
            return real_check(self, *args)

        def recording_certificates(*args):
            certified.append(checked[-1])
            return real_certificates(*args)

        monkeypatch.setattr(density._Lanes, "_check", recording_check)
        monkeypatch.setattr(density, "_failure_certificates", recording_certificates)
        p, config = params(L=16), DEConfig(fixed_point_tol=1e-2)
        beta = beta_from_alpha(p, 0.4)
        run, ref = de_run(p, beta, config), de_run_testing_change_every_step(p, beta, config)
        assert certified[:2] == [64, 80]
        for t in certified[:2]:
            assert any(s < t and (s - 1) // block == (t - 1) // block for s in checked), t
        betas = [beta_from_alpha(p, a) for a in (0.4, 0.1, 0.3)]
        _, outcomes = run_lanes(p, config, betas)
        for got, beta in [(run, beta), *((outcomes[k], b) for k, b in enumerate(betas))]:
            ref = de_run_testing_change_every_step(p, beta, config)
            assert (got.state.iteration, got.converged_to_zero, got.hit_iteration_cap) == (
                ref.iteration, ref.decoded, ref.capped)
            assert state_digest(got.state.p, got.state.s) == state_digest(ref.p, ref.s)

    @pytest.mark.parametrize("L", [1, 7, 8, 9, 127, 128, 129, 512])
    def test_block_pb_is_each_lanes_one_dimensional_mean(self, monkeypatch, L):
        # One reduce over every step and lane of a block gives each P_b the
        # bits of a 1-D np.add.reduce of the lane's p, then one division.  The
        # step here writes random states, whose sums depend on the order.
        rng, p = np.random.default_rng(L), params(L=L)
        width, written = L + p.w - 1, []

        def random_stepper(q, size):
            def random_step(neg_beta, x, out=None):
                sections = lane_sections(q, out)
                sections[...] = rng.random(sections.shape)
                written.append(sections[0].copy())
                return out

            return random_step

        monkeypatch.setattr(density, "_stepper", random_stepper)
        for depth in (1, 2, 3):
            written.clear()
            lanes = density._Lanes(p, DEConfig(max_iterations=density._BLOCK), depth)
            # Random states make P_b rise, which raises once the block's P_b
            # are in.
            with pytest.raises(NonMonotoneRun):
                lanes.advance({k: 2.0 for k in range(2 ** depth - 1)})
            assert len(written) == density._BLOCK
            assert lanes._pb[1:].tolist() == [
                [float(np.add.reduce(lane)) / L for lane in step] for step in written]

    @pytest.mark.parametrize("w, depth", [(2, 3), (2, 1), (3, 3), (3, 1)])
    def test_certificates_take_one_update_per_lockstep(self, monkeypatch, w, depth):
        # Every lane due at a lockstep is certified in one step at every
        # width; the counters see each call.
        p = params(L=16, w=w)
        lanes = density._Lanes(p, DEConfig(max_iterations=1500), depth)
        width = p.L + p.w - 1
        real_stepper, real_certificates = density._stepper, density._failure_certificates
        certifying, calls = [], []

        def counting_certificates(*args):
            certifying.append(lanes.locksteps)
            try:
                return real_certificates(*args)
            finally:
                certifying.pop()

        def counting_stepper(p, size):
            real_step = real_stepper(p, size)

            def counting_step(neg_beta, x, out=None):
                if certifying:
                    calls.append((certifying[-1], (len(x) - p.w + 1) // (2 * width)))
                return real_step(neg_beta, x, out)

            return counting_step

        monkeypatch.setattr(density, "_failure_certificates", counting_certificates)
        monkeypatch.setattr(density, "_stepper", counting_stepper)
        alphas = [-0.2, 0.02, 0.05, 0.1, 0.2, 0.4, 1.5, 0.03, 0.07, 0.3]
        betas = [p.dg / (1.0 - p.epsilon) * (1.0 - p.dl / p.dr) * (1.0 + a) for a in alphas]
        advance_to_the_end(lanes, dict(enumerate(reversed(betas))), width=2 ** depth - 1)
        per_lockstep = collections.Counter(t for t, _ in calls)
        assert max(per_lockstep.values()) == 1
        # With several lanes one update steps the candidates of several.
        most = max(n for _, n in calls)
        assert most > 4 if depth > 1 else most <= 4
        assert lanes.certificate_batches == len(calls)
        assert lanes.certificate_candidates == sum(n for _, n in calls)

    def test_advance_runs_exactly_the_wanted_lanes(self):
        # A lane that the next advance does not name leaves, a new key joins
        # at the all-ones state, and a lane that ended and is named again
        # starts anew: every run that ends is still bit-equal to de_run.
        p, config = params(L=16), DEConfig(max_iterations=1500)
        betas = dict(enumerate(beta_from_alpha(p, a) for a in (1.5, 0.02, 0.15, 0.4)))
        lanes = density._Lanes(p, config, depth=2)
        first = lanes.advance({k: betas[k] for k in (0, 1, 2)})
        assert list(first) == [0] and running(lanes) == [1, 2]
        outcomes = advance_to_the_end(lanes, {k: betas[k] for k in (0, 1, 3)})
        assert sorted(outcomes) == [0, 1, 3] and lanes.retired == 4
        for beta, run in [(betas[0], first[0]), *((betas[k], run) for k, run in outcomes.items())]:
            ref = de_run(p, beta, config)
            assert (run.state.iteration, run.converged_to_zero, run.hit_iteration_cap) == (
                ref.state.iteration, ref.converged_to_zero, ref.hit_iteration_cap)
            assert state_digest(run.state.p, run.state.s) == state_digest(ref.state.p, ref.state.s)

    def test_lane_depth_fits_the_budget(self):
        for w in (1, 2, 3, 9, 13):
            for L in (1, 8, 16, 24, 64, 128, 256, 512, 2000):
                depth = density._lane_depth(params(L=L, w=w))
                width = L + w - 1
                assert depth == 1 or (2 ** depth - 1) * width <= density._LANE_BUDGET
                assert (depth == density._MAX_LANE_DEPTH
                        or (2 ** (depth + 1) - 1) * width > density._LANE_BUDGET)
        assert density._lane_depth(params(L=512)) == 2
        assert density._lane_depth(params(L=16)) == density._MAX_LANE_DEPTH
        for w in (3, 4, 9):
            assert density._lane_depth(params(L=4, w=w)) == density._MAX_LANE_DEPTH
        assert density._lane_depth(params(L=512, w=3)) == 2


class FakeLanes:
    """A lane engine whose lane at beta ends with ``verdict(beta)`` = (DERun
    or NonMonotoneRun, iterations) after that many locksteps; a lane whose
    outcome is a NonMonotoneRun raises it then, as _Lanes does.  ``path`` is
    the plain bisection's probe sequence: at every ``advance`` each wanted
    lane must lie inside the first probe on it whose outcome is not back.
    No ``advance`` may want a lane that a returned probe made moot (see
    ``moot``), and no key may start twice."""

    def __init__(self, verdict, depth, path=None):
        self.verdict, self.depth, self.path = verdict, depth, path
        self.running: dict = {}
        self.started: dict = {}
        self.returned: dict = {}
        self.locksteps = 0

    def advance(self, wanted):
        assert 0 < len(wanted) <= 2 ** self.depth - 1
        for key in wanted:
            assert not moot(key, self.returned), f"{key} is moot"
        if self.path is not None:
            lo, hi = next(key for key, _ in self.path if key not in self.returned)
            assert all(lo <= a < b <= hi for a, b in wanted), "a lane off the path runs"
        for key, beta in wanted.items():
            if key not in self.running:
                assert key not in self.started, f"{key} started twice"
                self.started[key] = beta
        self.running = {key: self.running.get(key, [beta, 0]) for key, beta in wanted.items()}
        while True:
            self.locksteps += 1
            ended = {}
            for key, lane in list(self.running.items()):
                lane[1] += 1
                outcome, iterations = self.verdict(lane[0])
                if lane[1] == iterations:
                    if isinstance(outcome, NonMonotoneRun):
                        raise outcome
                    ended[key] = outcome
                    del self.running[key]
            if ended:
                self.returned.update(ended)
                return ended


def moot(key, returned) -> bool:
    """Whether a verdict in ``returned`` = {bracket: DERun} makes the probe
    of bracket ``key`` moot: ``key`` lies in the half of a bracket that its
    verdict ruled out."""
    for (a, b), run in returned.items():
        if a <= key[0] < key[1] <= b and (a, b) != key:
            mid = 0.5 * (a + b)
            if key[0] >= mid if run.converged_to_zero else key[1] <= mid:
                return True
    return False


def fake_run(ok, iterations, capped=False):
    state = DEState(p=np.zeros(1) if ok else np.ones(1), s=np.zeros(1), iteration=iterations)
    return DERun(state=state, converged_to_zero=ok, hit_iteration_cap=capped)


def wave_verdict(threshold, cap=None, raises=()):
    """Decodes at and above ``threshold``; probes near it take longest, one
    at ``cap`` iterations or more is capped, and an alpha in ``raises``
    ends with NonMonotoneRun."""
    def verdict(alpha):
        iterations = 5 + int(3.0 / (abs(alpha - threshold) + 1e-3)) + int(alpha * 1e6) % 7
        if alpha in raises:
            return NonMonotoneRun(f"P_b rose at alpha = {alpha}"), iterations
        if cap is not None and iterations >= cap:
            return fake_run(False, cap, capped=True), cap
        return fake_run(alpha >= threshold, iterations), iterations
    return verdict


def plain_bisection(lo, hi, success_iters, tol, verdict):
    """The bisection one probe at a time: (lo, hi, success_iters) and the
    path of (bracket, outcome)."""
    path = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        run, iterations = verdict(mid)
        path.append(((lo, hi), (run, iterations)))
        if isinstance(run, NonMonotoneRun):
            raise run
        if run.converged_to_zero:
            hi, success_iters = mid, run.state.iteration
        else:
            lo = mid
    return (lo, hi, success_iters), path


class TestLookAhead:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("threshold, lo, hi, tol, cap", [
        (0.17282, 0.0, 1.0, 1e-4, None),
        (0.0407, 0.0, 0.13, 1e-4, 2500),
        (0.9, 0.0, 1.0, 1e-3, None),
        (0.001, 0.0, 2.0, 1e-4, 900),
        (0.5, 0.25, 0.75, 0.01, None),
    ])
    def test_same_bracket_and_probes_as_plain_bisection(self, depth, threshold, lo, hi, tol, cap):
        verdict = wave_verdict(threshold, cap)
        want, path = plain_bisection(lo, hi, 0, tol, verdict)
        lanes = FakeLanes(verdict, depth, path)
        assert density._bisect(lo, hi, 0, tol, lambda alpha: alpha, lanes) == want
        # Every probe on the path ran at its midpoint; the path ends at the
        # same bracket, so the bracket walked through the same verdicts.
        for (a, b), _ in path:
            assert lanes.started[a, b] == 0.5 * (a + b)
        assert lanes.locksteps <= sum(iterations for _, (_, iterations) in path)
        if depth == 1:
            assert list(lanes.started) == [key for key, _ in path]
        if cap is not None:
            assert any(run.hit_iteration_cap for _, (run, _) in path)

    def test_look_ahead_saves_locksteps(self):
        verdict = wave_verdict(0.17282)
        _, path = plain_bisection(0.0, 1.0, 0, 1e-4, verdict)
        lanes = FakeLanes(verdict, 4, path)
        density._bisect(0.0, 1.0, 0, 1e-4, lambda alpha: alpha, lanes)
        assert lanes.locksteps < 0.6 * sum(iterations for _, (_, iterations) in path)

    def test_an_off_path_error_raises_as_an_on_path_one_does(self):
        # 0.75 is a look-ahead probe below the first verdict's other half, so
        # the plain bisection never probes it, yet its error raises; 0.125 is
        # on the path.
        off_path = wave_verdict(0.17282, raises=(0.75,))
        _, path = plain_bisection(0.0, 1.0, 0, 1e-4, off_path)
        lanes = FakeLanes(off_path, 3, path)
        with pytest.raises(NonMonotoneRun, match="alpha = 0.75"):
            density._bisect(0.0, 1.0, 0, 1e-4, lambda alpha: alpha, lanes)
        assert 0.75 in lanes.started.values()
        on_path = wave_verdict(0.17282, raises=(0.125,))
        with pytest.raises(NonMonotoneRun, match="alpha = 0.125"):
            plain_bisection(0.0, 1.0, 0, 1e-4, on_path)
        with pytest.raises(NonMonotoneRun, match="alpha = 0.125"):
            density._bisect(0.0, 1.0, 0, 1e-4, lambda alpha: alpha, FakeLanes(on_path, 3))

    def test_a_rising_look_ahead_lane_raises_in_a_real_bisection(self, monkeypatch):
        # A real bisection at dg = 3, L = 8, with 15 lanes, whose step resets
        # the look-ahead lane at alpha = 0.75 to all ones at its third step.
        # The first verdict on the path (alpha = 0.5 decodes) makes that lane
        # moot, and the bisection one probe at a time never probes it, yet
        # the rise raises at once.
        p = params(L=8)
        assert overhead_threshold(p).bracket[1] <= 0.5
        neg_beta, width = -beta_from_alpha(p, 0.75), p.L + p.w - 1
        real_stepper, steps = density._stepper, []

        def faulty_stepper(q, size):
            real_step = real_stepper(q, size)

            def faulty_step(step_neg_beta, x, out=None):
                out = real_step(step_neg_beta, x, out)
                lane = np.flatnonzero(np.atleast_1d(step_neg_beta)[::width] == neg_beta)
                if len(lane):
                    steps.append(1)
                    if len(steps) == 3:
                        lane_sections(q, out)[:, lane] = 1.0
                return out

            return faulty_step

        monkeypatch.setattr(density, "_stepper", faulty_stepper)
        engines = record_engines(monkeypatch)
        with pytest.raises(NonMonotoneRun, match="to 1.0 at iteration 3$"):
            overhead_threshold(p)
        assert engines[0].depth == density._MAX_LANE_DEPTH and engines[0].locksteps == 3

    @pytest.mark.parametrize("case", ["zero-decodes", "expansion", "capped-on-path"])
    def test_threshold_equals_plain_bisection(self, monkeypatch, case):
        # One verdict source drives de_run (the zero, expansion and spot
        # probes) and the lanes.
        threshold, cap, upper = {"zero-decodes": (-1.0, None, 1.0),
                                 "expansion": (0.3, None, 0.05),
                                 "capped-on-path": (0.17282, 700, 1.0)}[case]
        verdict = wave_verdict(threshold, cap)
        probes = []

        def fake_de_run(p, beta, config=DEConfig()):
            probes.append(alpha_from_beta(p, beta))
            return verdict(probes[-1])[0]

        def lane_verdict(beta):
            return verdict(alpha_from_beta(FIG2, beta))

        engines = []
        depth = [1]

        def fake_probes(p, config):
            engines.append(FakeLanes(lane_verdict, depth[0]))
            return engines[-1]

        monkeypatch.setattr(density, "de_run", fake_de_run)
        monkeypatch.setattr(density, "_probes", fake_probes)
        plain = overhead_threshold(FIG2, upper=upper)
        plain_calls, probes[:] = probes[:], []
        depth[0] = 4
        assert overhead_threshold(FIG2, upper=upper) == plain
        # de_run saw the same zero, expansion and spot probes in both runs,
        # and the lanes ran every probe of the one-lane bisection.
        head = {"zero-decodes": 1, "expansion": 5, "capped-on-path": 2}[case]
        assert probes == plain_calls and len(probes) == head + (case != "zero-decodes")
        sequential = [alpha_from_beta(FIG2, beta) for beta in engines[0].started.values()]
        plain_probes = plain_calls[:head] + sequential + plain_calls[head:]
        lane_alphas = {alpha_from_beta(FIG2, beta) for beta in engines[1].started.values()}
        assert lane_alphas >= set(sequential)
        if case == "zero-decodes":
            assert plain.bracket == (0.0, 0.0) and engines[1].started == {}
        if case == "expansion":
            assert probes[1:head] == pytest.approx([0.05, 0.1, 0.2, 0.4])
        if case == "capped-on-path":
            assert any(verdict(alpha)[0].hit_iteration_cap for alpha in plain_probes)

    @pytest.mark.parametrize("p, tol", [(params(L=8), 1e-4), (params(dg=2, L=12), 1e-3),
                                        (params(dr=4, L=20), 1e-3)])
    def test_lanes_give_the_sequential_threshold(self, monkeypatch, p, tol):
        config = DEConfig(bisection_tol=tol)
        engines = record_engines(monkeypatch)
        with_lanes = overhead_threshold(p, config)
        assert engines[0].depth > 1
        monkeypatch.setattr(density, "_lane_depth", lambda p: 1)
        sequential = overhead_threshold(p, config)
        assert engines[1].depth == 1 and engines[1].row_steps == engines[1].locksteps
        assert with_lanes == sequential

    def test_the_engine_runs_no_moot_lane(self, monkeypatch):
        # A real bisection at dg = 3, L = 8, with 15 lanes: no advance wants a
        # lane that an outcome returned before it made moot, no key starts
        # twice, and the lanes take no more locksteps than the bisection one
        # probe at a time takes steps.
        calls, real_advance = [], density._Lanes.advance

        def recording_advance(self, wanted):
            outcomes = real_advance(self, wanted)
            calls.append((self, list(wanted), outcomes))
            return outcomes

        monkeypatch.setattr(density._Lanes, "advance", recording_advance)
        engines = record_engines(monkeypatch)
        p = params(L=8)
        result = overhead_threshold(p)
        lanes = engines[0]
        assert lanes.depth == density._MAX_LANE_DEPTH
        returned, started, running_before = {}, [], set()
        for engine, wanted, outcomes in calls:
            if engine is lanes:
                assert not [key for key in wanted if moot(key, returned)]
                started += [key for key in wanted if key not in running_before]
                returned.update(outcomes)
                running_before = set(wanted) - set(outcomes)
        assert len(started) == len(set(started)) > 2 ** lanes.depth
        monkeypatch.setattr(density, "_lane_depth", lambda p: 1)
        assert overhead_threshold(p) == result
        assert engines[1].depth == 1 and engines[1].row_steps == engines[1].locksteps
        assert lanes.locksteps <= engines[1].row_steps

    @pytest.mark.parametrize("w", [3, 9])
    def test_lanes_at_widths_of_three_and_more(self, monkeypatch, w):
        # At w >= 3 a bisection runs its probes as lanes too, and gets the
        # threshold of one probe at a time.
        config = DEConfig(bisection_tol=0.01)
        engines = record_engines(monkeypatch)
        result = overhead_threshold(params(L=12, w=w), config)
        assert result.bracket[1] - result.bracket[0] <= 0.01
        assert [engine.depth for engine in engines] == [density._MAX_LANE_DEPTH]
        assert 0 < engines[0].locksteps < engines[0].row_steps
        monkeypatch.setattr(density, "_lane_depth", lambda p: 1)
        assert overhead_threshold(params(L=12, w=w), config) == result
        assert engines[1].depth == 1 and engines[1].row_steps == engines[1].locksteps

    @pytest.mark.parametrize("p, tol", [(params(L=8), 1e-4), (params(L=12, w=3), 0.01)])
    def test_threshold_equals_bisection_on_every_step_loop(self, p, tol):
        # The loop that tests for a stall on every step is the reference for
        # whole thresholds: its verdicts, through the same zero and expansion
        # probes and a plain bisection, give overhead_threshold's bracket,
        # with lanes at w = 2 and at w = 3.
        config = DEConfig(bisection_tol=tol)

        def verdict(alpha):
            ref = de_run_testing_change_every_step(p, beta_from_alpha(p, alpha), config)
            return fake_run(ref.decoded, ref.iteration, ref.capped), ref.iteration

        run, _ = verdict(0.0)
        assert not run.converged_to_zero
        hi = 1.0
        while not (run := verdict(hi)[0]).converged_to_zero:
            hi *= 2.0
        (lo, hi, iterations), path = plain_bisection(0.0, hi, run.state.iteration, tol, verdict)
        result = overhead_threshold(p, config)
        assert result.bracket == (lo, hi)
        assert result.alpha_star == 0.5 * (lo + hi)
        assert result.iterations_at_threshold == iterations
        assert density._lane_depth(p) > 1 and len(path) > 3


def record_engines(monkeypatch) -> list:
    """The engines that overhead_threshold gets from density._probes."""
    engines = []
    real_probes = density._probes
    monkeypatch.setattr(density, "_probes",
                        lambda *args: engines.append(real_probes(*args)) or engines[-1])
    return engines


def rig_every_probe(monkeypatch, verdict):
    """Make ``verdict(beta)`` = (DERun, iterations) the outcome of every DE
    probe of overhead_threshold: its de_run calls and its bisection's
    engine, which runs one lane at a time."""
    monkeypatch.setattr(density, "de_run", lambda p, beta, config=DEConfig(): verdict(beta)[0])
    monkeypatch.setattr(density, "_probes", lambda p, config: FakeLanes(verdict, 1))
