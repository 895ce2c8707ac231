"""Stability analysis of the decoded fixed point.

Linearizing the density-evolution map at the all-zero (decoded) state for
bit degree dl = 2 gives an L x L symmetric nonnegative band matrix whose
(i, j) entry is

    c * (w - |i-j|) / w^2       for |i-j| < w,   c = (dr-1) * exp(-beta*(1-eps))

and 0 otherwise.  Local stability of the decoded state requires its spectral
radius to stay below 1, which yields computable lower bounds on the overhead
and degree thresholds.  This module builds the matrix, computes its dominant
eigenvalue by power iteration, evaluates the closed-form Rayleigh/operator-norm
sandwich, the finite-L and limiting threshold lower bounds, the capacity
condition on dg, and the dg = 1 overhead bound.

For dl > 2 the linearization vanishes identically (scale 0), so only the
trivial capacity bound survives; the report flags that case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleParams, design_rate, design_rate_limit


class NonConvergence(RuntimeError):
    """Power iteration did not reach the requested tolerance within the
    iteration cap.  Raise the cap for near-degenerate spectra (large L)."""


@dataclass(frozen=True)
class BandMatrix:
    """Symmetric nonnegative band matrix with the triangular entry profile
    scale*(w-|i-j|)/w^2, w = half_width+1.

    The profile vanishes exactly at |i-j| = w, so the stored band width is
    w-1 nonzero off-diagonals per side.  Scale 0 is the identically zero
    matrix produced when the bit degree exceeds 2.
    """

    size: int
    half_width: int
    scale: float

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.half_width < 0:
            raise ValueError(f"half_width must be >= 0, got {self.half_width}")
        if not self.scale >= 0.0:
            raise ValueError(f"scale must be >= 0, got {self.scale}")

    def band_profile(self) -> np.ndarray:
        """The 2w-1 nonzero band values, centered on the diagonal."""
        w = self.half_width + 1
        d = np.abs(np.arange(-self.half_width, self.half_width + 1))
        return self.scale * (w - d) / (w * w)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # The band is symmetric, so convolution equals correlation; 'full'
        # mode zero-pads, which is exactly the matrix truncation at the
        # boundary rows.
        y = np.convolve(np.asarray(x, dtype=float), self.band_profile(), mode="full")
        return y[self.half_width:self.half_width + self.size]

    def one_norm(self) -> float:
        """Exact max row sum, valid for any size (boundary rows truncated)."""
        return float(self.matvec(np.ones(self.size)).max(initial=0.0))


@dataclass(frozen=True)
class StabilityReport:
    """Spectral data of the linearization at its marginal degree together
    with the finite-L threshold lower bounds and their limits.

    The spectral fields are evaluated at beta = lower_bound_beta, the
    marginal point the bounds describe.  ``stability_applies`` is False for
    dl > 2, where only the capacity bound is available and the spectral
    fields are all zero.
    """

    spectral_radius: float
    rayleigh_lower: float
    norm_upper: float
    lower_bound_beta: float
    lower_bound_alpha: float
    limit_beta: float
    limit_alpha: float
    capacity_condition_holds: bool
    stability_applies: bool


def _require_finite(beta: float) -> None:
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")


def _scale(params: EnsembleParams, beta: float) -> float:
    _require_finite(beta)
    return (params.dr - 1) * math.exp(-beta * (1.0 - params.epsilon))


def build_jacobian(params: EnsembleParams, beta: float) -> BandMatrix:
    """Band matrix of partial derivatives of the p-update at the decoded
    state.  For dl > 2 every entry is zero, so the scale is 0; beta must
    still be finite."""
    _require_finite(beta)
    scale = 0.0 if params.dl > 2 else _scale(params, beta)
    return BandMatrix(size=params.L, half_width=params.w - 1, scale=scale)


def spectral_radius(m: BandMatrix, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Dominant eigenvalue of the band matrix by power iteration.

    Starts from the all-ones vector, which has positive overlap with the
    Perron vector, and stops when the Rayleigh quotient is stable to a
    relative ``tol``.  The matrix is positive semidefinite (it is a Gram
    matrix of overlapping windows), so the Rayleigh quotient increases
    monotonically toward the true value.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if m.scale == 0.0:
        return 0.0
    x = np.ones(m.size) / math.sqrt(m.size)
    lam_prev = None
    for _ in range(max_iter):
        y = m.matvec(x)
        lam = float(x @ y)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            # The scale is > 0, so y underflowed when its entries were
            # squared; rho(cA) = c * rho(A) gives the radius from scale 1.
            return m.scale * spectral_radius(replace(m, scale=1.0), tol, max_iter)
        x = y / norm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * abs(lam):
            return lam
        lam_prev = lam
    raise NonConvergence(
        f"power iteration did not stabilize to rel. tol {tol:g} in {max_iter} iterations "
        f"(size {m.size}); raise max_iter for near-degenerate spectra"
    )


def _rayleigh_factor(L: int, w: int) -> float:
    # 1^T P 1 / (L c): exact triangular-profile sum, truncated to the matrix.
    # For L >= w this reduces to 1 - (w-1)(w+1)/(3wL).
    total = L * w + 2 * sum((L - d) * (w - d) for d in range(1, min(w, L)))
    return total / (w * w * L)


def rayleigh_lower_bound(params: EnsembleParams, beta: float) -> float:
    """All-ones Rayleigh quotient of the linearization, a lower bound on its
    spectral radius: c * (w^2 L - (w-1)w(w+1)/3) / (w^2 L) for L >= w."""
    if params.dl != 2:
        raise ValueError("the stability linearization requires bit degree dl = 2")
    return _scale(params, beta) * _rayleigh_factor(params.L, params.w)


def norm_upper_bound(params: EnsembleParams, beta: float) -> float:
    """Max row sum of the linearization, an upper bound on its spectral
    radius: (d_r-1)e^{-beta(1-eps)} in closed form when an interior row
    exists (L >= 2w-1), else the truncated matrix's exact max row sum."""
    if params.dl != 2:
        raise ValueError("the stability linearization requires bit degree dl = 2")
    if params.L < 2 * params.w - 1:
        return build_jacobian(params, beta).one_norm()
    return _scale(params, beta)


def capacity_condition(dr: int, dg: int) -> bool:
    """Whether dg >= dr*ln(dr-1)/(dr-2), necessary for vanishing overhead.

    Never satisfied for dr = 2 (the rate would vanish; the dr -> 2 limit of
    the right-hand side is 2).
    """
    if dr < 2:
        raise ValueError(f"dr must be >= 2, got {dr}")
    if dg < 1:
        raise ValueError(f"dg must be >= 1, got {dg}")
    if dr == 2:
        return False
    return dg >= dr * math.log(dr - 1) / (dr - 2)


def dg1_overhead_bound(dl: int, dr: int) -> float:
    """Strictly positive large-L lower bound on the overhead threshold when
    each received symbol carries a single coded bit (dg = 1):
    (dr/(dr-dl)) * ln(dr/dl) - 1."""
    if not 1 <= dl < dr:
        raise ValueError(f"need 1 <= dl < dr, got dl={dl}, dr={dr}")
    return dr / (dr - dl) * math.log(dr / dl) - 1.0


def threshold_lower_bounds(params: EnsembleParams) -> StabilityReport:
    """Finite-L lower bounds on the degree/overhead thresholds and their
    large-L limits.

    The degree bound is the larger of the marginal-stability point of the
    linearization (dl = 2 only) and the capacity point; the overhead bound
    follows by the degree/overhead conversion.  Spectral data is reported at
    the bound degree.
    """
    L, w, dg, eps = params.L, params.w, params.dg, params.epsilon
    rate = design_rate(params)
    capacity_beta = dg / (1.0 - eps) * rate * L / (L + w - 1)
    if params.dl == 2:
        factor = _rayleigh_factor(L, w)
        stability_beta = math.log((params.dr - 1) * factor) / (1.0 - eps)
        lower_beta = max(stability_beta, capacity_beta)
        limit_beta = max(
            math.log(params.dr - 1) / (1.0 - eps),
            dg / (1.0 - eps) * design_rate_limit(params),
        )
        limit_alpha = max(
            params.dr * math.log(params.dr - 1) / (dg * (params.dr - 2)) - 1.0, 0.0
        )
        applies = True
    else:
        lower_beta = capacity_beta
        limit_beta = dg / (1.0 - eps) * design_rate_limit(params)
        limit_alpha = 0.0
        applies = False
    lower_alpha = max(lower_beta / capacity_beta - 1.0, 0.0)

    if applies:
        rayleigh = rayleigh_lower_bound(params, lower_beta)
        norm = norm_upper_bound(params, lower_beta)
        rho = spectral_radius(build_jacobian(params, lower_beta), tol=1e-10,
                              max_iter=max(100_000, 100 * L * L))
    else:
        rayleigh = norm = rho = 0.0

    return StabilityReport(
        spectral_radius=rho,
        rayleigh_lower=rayleigh,
        norm_upper=norm,
        lower_bound_beta=lower_beta,
        lower_bound_alpha=lower_alpha,
        limit_beta=limit_beta,
        limit_alpha=limit_alpha,
        capacity_condition_holds=capacity_condition(params.dr, dg),
        stability_applies=applies,
    )

