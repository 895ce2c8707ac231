import math

import numpy as np
import pytest

from reference import band_matrix_loops
from sc_rateless import (
    BandMatrix,
    EnsembleParams,
    NonConvergence,
    build_jacobian,
    capacity_condition,
    de_step,
    dg1_overhead_bound,
    norm_upper_bound,
    rayleigh_lower_bound,
    spectral_radius,
    threshold_lower_bounds,
)


def params(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


def scale(dr, beta, eps):
    return (dr - 1) * math.exp(-beta * (1 - eps))


def as_dense(m):
    """The package's band matrix, column by column through its matvec."""
    return np.column_stack([m.matvec(e) for e in np.eye(m.size)])


class TestBandMatrix:
    def test_w1_is_diagonal(self):
        m = build_jacobian(params(dg=2, w=1, L=5), beta=1.3)
        c = scale(3, 1.3, 0.5)
        np.testing.assert_allclose(as_dense(m), c * np.eye(5), atol=1e-15)

    def test_w2_L2_entries(self):
        m = build_jacobian(params(dg=2, w=2, L=2), beta=0.9)
        c = scale(3, 0.9, 0.5)
        want = c * np.array([[0.5, 0.25], [0.25, 0.5]])
        np.testing.assert_allclose(as_dense(m), want, atol=1e-15)
        np.testing.assert_allclose(band_matrix_loops(2, 2, c), want, atol=1e-15)

    def test_w2_L5_row_sums(self):
        m = build_jacobian(params(dg=2, w=2, L=5), beta=1.1)
        c = scale(3, 1.1, 0.5)
        sums = m.matvec(np.ones(5))
        np.testing.assert_allclose(sums[1:-1], c, atol=1e-14)
        np.testing.assert_allclose(sums[[0, -1]], 0.75 * c, atol=1e-14)
        assert m.one_norm() == pytest.approx(c, abs=1e-14)

    def test_symmetric_nonnegative(self):
        for w in (1, 2, 3, 5):
            m = build_jacobian(params(dg=2, w=w, L=7), beta=0.7)
            dense = as_dense(m)
            np.testing.assert_allclose(dense, dense.T, atol=0)
            assert np.all(dense >= 0)

    def test_band_vanishes_at_width(self):
        m = build_jacobian(params(dg=2, w=3, L=8), beta=0.5)
        dense = as_dense(m)
        for i in range(8):
            for j in range(8):
                if abs(i - j) >= 3:
                    assert dense[i, j] == 0.0
                else:
                    assert dense[i, j] > 0.0

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        for L, w in [(1, 1), (2, 4), (5, 2), (9, 3), (40, 5)]:
            m = build_jacobian(params(dg=2, w=w, L=L), beta=0.8)
            x = rng.normal(size=L)
            dense = band_matrix_loops(L, w, scale(3, 0.8, 0.5))
            np.testing.assert_allclose(m.matvec(x), dense @ x, atol=1e-12)

    def test_dl_above_two_vanishes(self):
        m = build_jacobian(params(dl=3, dr=4), beta=1.0)
        assert m.scale == 0.0
        assert np.all(as_dense(m) == 0.0)
        assert spectral_radius(m) == 0.0

    def test_dl_above_two_rejects_nonfinite_beta(self):
        # The zero matrix must not hide a NaN or infinite beta.
        p = params(dl=3, dr=4, dg=3, L=8)
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="beta must be finite"):
                build_jacobian(p, beta)

    @pytest.mark.parametrize("size, half_width, message", [
        (0, 1, "size must be >= 1, got 0"),
        (4, -1, "half_width must be >= 0, got -1"),
    ])
    def test_rejects_empty_size_and_negative_half_width(self, size, half_width, message):
        with pytest.raises(ValueError, match=message):
            BandMatrix(size, half_width, 1.0)

    def test_rejects_negative_and_nan_scale(self):
        for scale_value in (-0.1, math.nan):
            with pytest.raises(ValueError, match="scale"):
                BandMatrix(4, 1, scale_value)


class TestSpectralRadius:
    def test_w2_L2_exact(self):
        m = build_jacobian(params(dg=2, w=2, L=2), beta=0.9)
        assert spectral_radius(m, tol=1e-13) == pytest.approx(
            0.75 * scale(3, 0.9, 0.5), abs=1e-12
        )

    def test_w1_scaled_identity(self):
        m = build_jacobian(params(dg=2, w=1, L=6), beta=1.4)
        assert spectral_radius(m) == pytest.approx(scale(3, 1.4, 0.5), abs=1e-13)

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_small_sizes_match_dense_eigensolver(self, L, w):
        m = build_jacobian(params(dg=2, w=w, L=L), beta=0.6)
        dense = band_matrix_loops(L, w, scale(3, 0.6, 0.5))
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
        assert spectral_radius(m, tol=1e-12) == pytest.approx(oracle, abs=1e-8)

    def test_perron_pair_positive(self):
        for L, w in [(5, 2), (12, 3)]:
            m = build_jacobian(params(dg=2, w=w, L=L), beta=0.8)
            rho = spectral_radius(m, tol=1e-12)
            assert rho > 0
            values, vectors = np.linalg.eigh(band_matrix_loops(L, w, scale(3, 0.8, 0.5)))
            vec = vectors[:, -1]
            vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
            assert np.all(vec > 0)
            assert values[-1] == pytest.approx(rho, abs=1e-10)

    def test_nonconvergence_raises(self):
        m = build_jacobian(params(dg=2, w=2, L=40), beta=0.5)
        with pytest.raises(NonConvergence):
            spectral_radius(m, tol=1e-14, max_iter=2)

    def test_underflowing_scale_keeps_its_radius(self):
        # At beta = 1400 the scale is ~2e-304: squaring the iterate's entries
        # underflows its norm to 0, and the radius must still be scale * rho(A).
        m = build_jacobian(params(dg=2, w=2, L=64), beta=1400.0)
        assert 0.0 < m.scale < 1e-300
        unit = spectral_radius(BandMatrix(m.size, m.half_width, 1.0))
        assert spectral_radius(m) == m.scale * unit

    def test_rejects_nonpositive_and_nan_tol(self):
        m = build_jacobian(params(dg=2, w=2, L=40), beta=0.5)
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="tol"):
                spectral_radius(m, tol=tol)


class TestClosedFormBounds:
    def test_rayleigh_w2_L2_is_exact_radius(self):
        # The all-ones vector is the Perron vector here.
        p = params(dg=2, w=2, L=2)
        c = scale(3, 0.9, 0.5)
        assert rayleigh_lower_bound(p, 0.9) == pytest.approx(
            c * (8 - 1 * 2 * 3 / 3) / 8, abs=1e-14
        )
        assert rayleigh_lower_bound(p, 0.9) == pytest.approx(0.75 * c, abs=1e-14)

    def test_rayleigh_w1_equals_scale(self):
        for L in (1, 4, 33):
            p = params(dg=2, w=1, L=L)
            assert rayleigh_lower_bound(p, 1.3) == pytest.approx(
                scale(3, 1.3, 0.5), abs=1e-14
            )

    def test_rayleigh_closed_form_vs_explicit_quadratic(self):
        for L in range(1, 51):
            for w in range(1, 6):
                p = params(dg=2, w=w, L=L)
                m = build_jacobian(p, 0.8)
                ones = np.ones(L)
                explicit = float(ones @ m.matvec(ones)) / L
                assert rayleigh_lower_bound(p, 0.8) == pytest.approx(explicit, abs=1e-12)

    def test_rayleigh_simplified_form_when_L_at_least_w(self):
        for L in (5, 12, 40):
            for w in (2, 3, 5):
                p = params(dg=2, w=w, L=L)
                c = scale(3, 0.8, 0.5)
                want = c * (w * w * L - (w - 1) * w * (w + 1) / 3) / (w * w * L)
                assert rayleigh_lower_bound(p, 0.8) == pytest.approx(want, abs=1e-14)

    def test_rayleigh_limit_is_scale(self):
        p = params(dg=2, w=2, L=200_000)
        assert rayleigh_lower_bound(p, 1.0) == pytest.approx(
            scale(3, 1.0, 0.5), rel=1e-5
        )

    def test_norm_upper_marginal_point(self):
        # At beta = 2 ln 2 the norm is exactly 1: the marginal stability point.
        p = params(dg=2, w=2, L=16)
        assert norm_upper_bound(p, 2 * math.log(2)) == pytest.approx(1.0, abs=1e-14)

    def test_norm_equals_max_row_sum(self):
        for L, w in [(3, 2), (9, 3), (29, 5)]:
            p = params(dg=2, w=w, L=L)
            m = build_jacobian(p, 0.7)
            assert norm_upper_bound(p, 0.7) == pytest.approx(m.one_norm(), abs=1e-12)

    def test_norm_vanishes_at_large_beta(self):
        assert norm_upper_bound(params(dg=2), 800.0) == pytest.approx(0.0, abs=1e-100)

    def test_norm_without_interior_row_is_truncated_row_sum(self):
        # L < 2w-1: no row holds the whole band, so the bound is the exact
        # max row sum of the truncated matrix, below the closed form.
        for L, w in [(4, 3), (1, 2), (2, 2), (8, 5)]:
            p = params(dg=2, w=w, L=L)
            upper = norm_upper_bound(p, 1.0)
            assert upper == build_jacobian(p, 1.0).one_norm()
            assert 0 < upper < scale(3, 1.0, 0.5)

    def test_rejects_nonfinite_beta(self):
        p = params(dg=2)
        for beta in (math.nan, math.inf, -math.inf):
            for bound in (rayleigh_lower_bound, norm_upper_bound, build_jacobian):
                with pytest.raises(ValueError, match="beta"):
                    bound(p, beta)

    def test_rejects_negative_beta(self):
        # The one beta rule (finite and >= 0) holds for the matrix and both
        # bounds, at dl = 2 and at dl > 2 alike.
        for p in (params(dg=2), params(dl=3, dr=6)):
            for bound in (rayleigh_lower_bound, norm_upper_bound, build_jacobian):
                with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                    bound(p, -0.5)

    @pytest.mark.parametrize("L, w", [(16, 2), (5, 3), (2, 3)], ids=["L16w2", "L5w3", "L2w3"])
    def test_bounds_vanish_above_dl_two(self, L, w):
        # The linearization is the zero matrix at dl = 3, so both bounds
        # read its exact max row sum, 0, with and without an interior row.
        p = params(dl=3, dr=6, L=L, w=w)
        bounds = (rayleigh_lower_bound(p, 1.0), norm_upper_bound(p, 1.0))
        assert bounds == (0.0, 0.0) == (build_jacobian(p, 1.0).one_norm(),) * 2


class TestSandwich:
    def test_sandwich_on_grid(self):
        for L in range(1, 51, 7):
            for w in range(1, 6):
                p = params(dg=2, w=w, L=L)
                for beta in (0.3, 1.0, 2.5):
                    m = build_jacobian(p, beta)
                    rho = spectral_radius(m, tol=1e-12, max_iter=500_000)
                    lower = rayleigh_lower_bound(p, beta)
                    upper = norm_upper_bound(p, beta)
                    assert lower <= rho + 1e-10
                    assert rho <= upper + 1e-10

    def test_sandwich_holds_at_an_underflowing_scale(self):
        # dg = 2000 puts the marginal beta where the scale is ~8e-279.
        report = threshold_lower_bounds(params(dg=2000, L=64))
        assert report.rayleigh_lower > 0.0
        assert report.rayleigh_lower <= report.spectral_radius <= report.norm_upper

    def test_bounds_pinch_at_large_L(self):
        p = params(dg=2, w=2, L=1000)
        lower = rayleigh_lower_bound(p, 1.0)
        upper = norm_upper_bound(p, 1.0)
        assert (upper - lower) / upper < 1e-3


class TestThresholdLowerBounds:
    def test_limits_dg2(self):
        report = threshold_lower_bounds(params(dl=2, dr=3, dg=2, L=64))
        assert report.limit_alpha == pytest.approx((3 * math.log(2) - 2) / 2, abs=1e-12)
        assert report.limit_alpha == pytest.approx(0.0397207, abs=1e-7)
        assert report.limit_beta == pytest.approx(2 * math.log(2), abs=1e-12)
        assert not report.capacity_condition_holds

    def test_limits_dg3(self):
        report = threshold_lower_bounds(params(dl=2, dr=3, dg=3, L=64))
        assert report.limit_alpha == 0.0
        assert report.limit_beta == pytest.approx(2.0, abs=1e-12)
        assert report.capacity_condition_holds

    def test_dg3_L16_capacity_term_wins(self):
        report = threshold_lower_bounds(params(dl=2, dr=3, dg=3, L=16))
        # stability term 2*ln(2*(1 - 3/96)) = 1.32278 < capacity term 1.70588
        assert report.lower_bound_beta == pytest.approx(1.70588, abs=1e-5)
        assert report.lower_bound_alpha == 0.0

    def test_stability_term_wins_for_dg2(self):
        report = threshold_lower_bounds(params(dl=2, dr=3, dg=2, L=512))
        stab = 2 * math.log(2 * (1 - 3 / (6 * 512)))
        assert report.lower_bound_beta == pytest.approx(stab, abs=1e-12)
        assert report.lower_bound_alpha > 0.04

    def test_report_internal_sandwich(self):
        for p in [params(2, 3, 2, L=16), params(2, 3, 3, L=40), params(2, 5, 3, L=9, w=3)]:
            report = threshold_lower_bounds(p)
            assert report.rayleigh_lower <= report.spectral_radius + 1e-10
            assert report.spectral_radius <= report.norm_upper + 1e-10
            assert report.lower_bound_alpha >= 0.0

    def test_dl3_only_capacity_bound(self):
        report = threshold_lower_bounds(params(dl=3, dr=6, dg=3, L=32))
        assert not report.stability_applies
        assert report.lower_bound_alpha == 0.0
        assert report.limit_alpha == 0.0
        assert report.spectral_radius == 0.0
        finite_rate = 0.5 - 0.5 * (1 - 2 * 0.5 ** 6) / 32
        assert report.lower_bound_beta == pytest.approx(
            3 / 0.5 * finite_rate * 32 / 33, abs=1e-12
        )


class TestCapacityCondition:
    def test_boundary_cases(self):
        assert capacity_condition(14, 3)
        assert not capacity_condition(15, 3)
        assert not capacity_condition(3, 2)  # 2 < 3 ln 2
        assert capacity_condition(3, 3)
        assert not capacity_condition(2, 3)
        assert not capacity_condition(2, 100)

    def test_dg2_never_satisfies(self):
        for dr in range(3, 40):
            assert not capacity_condition(dr, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_condition(1, 3)
        with pytest.raises(ValueError):
            capacity_condition(3, 0)


class TestDg1Bound:
    def test_hand_values(self):
        assert dg1_overhead_bound(2, 3) == pytest.approx(3 * math.log(1.5) - 1, abs=1e-14)
        assert dg1_overhead_bound(2, 3) == pytest.approx(0.216395, abs=1e-6)
        assert dg1_overhead_bound(2, 4) == pytest.approx(2 * math.log(2) - 1, abs=1e-14)

    def test_strictly_positive(self):
        for dl in range(1, 6):
            for dr in range(dl + 1, 12):
                assert dg1_overhead_bound(dl, dr) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dg1_overhead_bound(3, 3)


class TestLinkToDensityEvolution:
    def test_contraction_below_marginal_norm(self):
        # Once the norm bound is below 1, one DE step contracts a small state
        # by (at most) that factor, up to O(delta).
        rng = np.random.default_rng(5)
        delta = 1e-6
        for p, beta in [
            (params(2, 3, 2, L=24), 1.6),
            (params(2, 3, 3, L=16), 1.9),
            (params(2, 4, 3, L=30, w=3), 2.5),
        ]:
            upper = norm_upper_bound(p, beta)
            assert upper < 1.0
            for _ in range(10):
                p_in = rng.uniform(0, delta, p.L)
                s_in = rng.uniform(0, delta, p.L)
                nxt_p, _ = de_step(p, beta, p_in, s_in)
                assert nxt_p.max() <= 1.01 * upper * p_in.max()
