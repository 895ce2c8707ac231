import math

import mpmath
import numpy as np
import pytest

from reference import poisson_pmf
from sc_rateless import (
    EnsembleParams,
    NonPositiveRate,
    alpha_from_beta,
    beta_from_alpha,
    design_rate,
    design_rate_limit,
)


def params(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5):
    return EnsembleParams(dl=dl, dr=dr, dg=dg, L=L, w=w, epsilon=eps)


class TestDesignRate:
    def test_limit_2_3(self):
        assert design_rate_limit(params(dl=2, dr=3)) == pytest.approx(1 / 3, abs=1e-15)

    def test_finite_L8(self):
        # boundary term w-1-2*(1/2)^3 = 3/4, so R = 1/3 - (2/3)(3/4)/8
        assert design_rate(params(dl=2, dr=3, w=2, L=8)) == pytest.approx(
            1 / 3 - 0.5 / 8, abs=1e-15
        )

    def test_w1_has_no_boundary_loss(self):
        for L in (1, 3, 17):
            assert design_rate(params(dl=2, dr=4, w=1, L=L)) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            design_rate(params(dl=2, dr=3, w=5, L=1))

    @pytest.mark.parametrize("dl,dr,w", [(2, 3, 2), (2, 4, 3), (3, 7, 2), (2, 5, 4)])
    def test_increasing_in_L_and_converges(self, dl, dr, w):
        rates = [design_rate(params(dl=dl, dr=dr, w=w, L=L)) for L in (8, 16, 64, 512)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(design_rate_limit(params(dl=dl, dr=dr)), abs=1e-2)


class TestOverheadDegreeConversion:
    def test_alpha_minus_one_gives_zero(self):
        assert beta_from_alpha(params(), -1.0) == 0.0
        assert beta_from_alpha(params(2, 4, 2, L=7, w=3), -1.0) == 0.0

    def test_finite_L16(self):
        # R(16) = 29/96, so beta = 2/0.5 * 16*(29/96)/17 = 58/51
        got = beta_from_alpha(params(dl=2, dr=3, dg=2, L=16, w=2), 0.0)
        assert got == pytest.approx(58 / 51, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = params(
                dl=2,
                dr=int(rng.integers(3, 9)),
                dg=int(rng.integers(1, 5)),
                L=int(rng.integers(2, 300)),
                w=int(rng.integers(1, 4)),
                eps=float(rng.uniform(0.0, 0.9)),
            )
            alpha = float(rng.uniform(-1.0, 3.0))
            assert alpha_from_beta(p, beta_from_alpha(p, alpha)) == pytest.approx(
                alpha, abs=1e-12
            )

    def test_beta_zero_inverts_to_minus_one(self):
        assert alpha_from_beta(params(), 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_strictly_increasing_in_alpha(self):
        p = params()
        betas = [beta_from_alpha(p, a) for a in np.linspace(-1, 2, 40)]
        assert all(a < b for a, b in zip(betas, betas[1:]))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dl=1),
            dict(dl=3, dr=3),
            dict(dl=4, dr=3),
            dict(dr=1),
            dict(dg=0),
            dict(L=0),
            dict(w=0),
            dict(eps=1.0),
            dict(eps=-0.1),
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(dl=2, dr=3, dg=3, L=16, w=2, eps=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            params(**base)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            EnsembleParams(dl=2.0, dr=3, dg=3, L=16, w=2, epsilon=0.5)

    def test_accepts_dg1(self):
        assert params(dg=1).dg == 1

    def test_beta_requires_alpha_at_least_minus_one(self):
        for alpha in (-1.5, math.nan):
            with pytest.raises(ValueError):
                beta_from_alpha(params(), alpha)

    def test_alpha_requires_nonnegative_beta(self):
        for beta in (-0.5, math.nan):
            with pytest.raises(ValueError):
                alpha_from_beta(params(), beta)

    def test_alpha_requires_finite_beta(self):
        with pytest.raises(ValueError, match="beta must be finite and >= 0, got inf"):
            alpha_from_beta(params(), math.inf)


class TestDegreeDistribution:
    """The Poisson(beta) channel-degree law of a bit node, from the oracle
    in ``tests/reference.py`` that acceptance criterion 7 compares sampled
    streams with."""

    def test_pmf_hand_values(self):
        assert poisson_pmf(0.0, 3) == [1.0, 0.0, 0.0, 0.0]
        assert poisson_pmf(1.0, 1)[1] == pytest.approx(math.exp(-1), abs=1e-15)
        assert poisson_pmf(2.0, 0) == [pytest.approx(math.exp(-2), abs=1e-15)]

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.5, 4.0])
    def test_pmf_nonnegative_and_sums_to_one(self, beta):
        masses = poisson_pmf(beta, 40)
        assert all(m >= 0 for m in masses)
        assert sum(masses) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.5, 4.0])
    def test_pmf_matches_gf_derivatives(self, beta):
        # Lambda_d = (d-th derivative of the generating function at 0) / d!
        masses = poisson_pmf(beta, 5)
        with mpmath.workdps(40):
            for d in range(6):
                oracle = mpmath.diff(lambda x: mpmath.e ** (-beta * (1 - x)), 0, d)
                oracle = float(oracle / mpmath.factorial(d))
                assert masses[d] == pytest.approx(oracle, abs=1e-6)
