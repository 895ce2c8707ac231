"""Ensemble parameters and the closed-form scalar quantities derived from them.

A coupled code is described by the precode bit/check degrees (dl, dr), the
inner channel-node degree dg, the number of coupled sections L, the coupling
width w, and the channel erasure rate epsilon.  Everything downstream (density
evolution, stability bounds, the finite-length simulator) consumes these
values through the conversions in this module:

    design_rate      R(L)  = 1 - dl/dr - (dl/dr) * (w-1 - 2*sum((i/w)^dr)) / L
    beta_from_alpha  beta  = dg/(1-eps) * L*R(L)*(1+alpha) / (L+w-1)
    alpha_from_beta  exact inverse of the above

beta is the mean number of channel nodes attached to a bit node; the number
of attached channel nodes is Poisson(beta) in the large-M limit, whose
generating function exp(-beta*(1-x)) the density-evolution step evaluates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPositiveRate(ValueError):
    """The design rate formula gave R <= 0: the chain is too short for the
    given degrees.  We reject these parameters rather than clamping."""


@dataclass(frozen=True)
class EnsembleParams:
    """The (dl, dr, dg, L, w) code ensemble plus the channel erasure rate.

    dl, dr are the precode bit/check degrees, dg the channel-node degree,
    L the number of coupled sections, w the coupling width.  dg = 1 cannot
    reach capacity (its overhead threshold stays above
    ``stability.dg1_overhead_bound``), but the library computes it like any
    dg; only the CLI refuses it unless given ``--allow-dg1``.
    """

    dl: int
    dr: int
    dg: int
    L: int
    w: int
    epsilon: float

    def __post_init__(self):
        for name in ("dl", "dr", "dg", "L", "w"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.dl < 2:
            raise ValueError(f"bit degree dl must be >= 2, got {self.dl}")
        if self.dr < 2:
            raise ValueError(f"check degree dr must be >= 2, got {self.dr}")
        if not self.dl < self.dr:
            raise ValueError(
                f"dl < dr is required for a positive design rate (got dl={self.dl}, dr={self.dr})"
            )
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")


def design_rate(params: EnsembleParams) -> float:
    """Design rate R(L) of the coupled precode.

    Raises NonPositiveRate when the boundary rate loss eats the whole rate
    (L too small for the given degrees and width).
    """
    dl, dr, w, L = params.dl, params.dr, params.w, params.L
    boundary = w - 1 - 2 * sum((i / w) ** dr for i in range(1, w))
    rate = 1.0 - dl / dr - (dl / dr) * boundary / L
    if rate <= 0.0:
        raise NonPositiveRate(
            f"design rate {rate:.6g} <= 0 for dl={dl}, dr={dr}, w={w}, L={L}"
        )
    return rate


def design_rate_limit(params: EnsembleParams) -> float:
    """L -> infinity limit of the design rate, 1 - dl/dr."""
    return 1.0 - params.dl / params.dr


def beta_from_alpha(params: EnsembleParams, alpha: float) -> float:
    """Mean channel-node degree beta for a given overhead alpha."""
    if not alpha >= -1.0:
        raise ValueError(f"alpha must be >= -1, got {alpha}")
    per_section = design_rate(params) * params.L / (params.L + params.w - 1)
    return params.dg / (1.0 - params.epsilon) * per_section * (1.0 + alpha)


def check_beta(beta: float) -> None:
    """The one rule for a mean channel-node degree: finite and >= 0 (NaN
    fails).  Density evolution, the stability bounds and
    :func:`alpha_from_beta` all apply it."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def alpha_from_beta(params: EnsembleParams, beta: float) -> float:
    """Overhead alpha for a given mean channel-node degree beta (exact inverse
    of :func:`beta_from_alpha`)."""
    check_beta(beta)
    return beta / beta_from_alpha(params, 0.0) - 1.0
