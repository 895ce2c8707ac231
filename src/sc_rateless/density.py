"""Coupled density evolution on the BEC.

Tracks per-section erasure probabilities p_i (bit -> precode check messages)
and s_i (bit -> channel node messages) for sections i in [0, L-1]; sections
outside the chain are pinned to 0 (shortening) and never stored.  One update
reads

    A_i = (1/w) sum_j [ 1 - (1 - (1/w) sum_k p_{i+j-k})^(dr-1) ]
    B_i = (1/w) sum_j [ 1 - (1-eps) (1 - (1/w) sum_k s_{i+j-k})^(dg-1) ]
    p_i <- A_i^(dl-1) * gf(B_i),     s_i <- A_i^dl * gf(B_i)

with gf the Poisson generating function (node and edge perspectives agree).
Both sliding averages are plain correlations with the symmetric ones(w)/w
kernel, so one step is four ``np.correlate`` calls plus elementwise updates
written in place into the arrays those correlations return.  At L <= 512 a
step's cost is numpy call overhead, not arithmetic, so it allocates little
beyond those arrays.  The correlations fix the summation order, and with it
every bit of the result.

The update is clamped to [0, 1] from above only, and only at the widths
where that clamp can bind.  For states in [0, 1] every factor above is
>= 0, so a lower clamp never binds.  The upper one binds where a sum of the
kernel's rounded 1/w terms exceeds one: with w = 9 nine of them sum to
1.0000000000000002, so from the all-ones state A_i exceeds one.  Rounding
is monotone and ``np.correlate`` sums a given number of terms in one order,
so for states in [0, 1] every correlation entry is at most the partial sum
of as many kernel terms taken on ones, and every later factor stays in
[0, 1].  A width whose partial sums on ones all stay <= 1 (every w in 1..12
but 9 and 11 on x86-64) needs no clamp, and skipping it changes no bit.

Decoding succeeds when the mean of p falls below a configured target; the
overhead threshold is located by bisection on alpha.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import stability
from .ensemble import EnsembleParams, beta_from_alpha

# The bisection's bracket never reaches past this alpha.  While the bracket
# is wider than two float steps at the cap, its rounded midpoint lies strictly
# inside, so a smaller ``bisection_tol`` could stall the bisection for good.
_ALPHA_CAP = 10.0
_MIN_BISECTION_TOL = 2 * math.ulp(_ALPHA_CAP)


class NoSuccessInBracket(RuntimeError):
    """Bisection could not find a decoding alpha even after expanding the
    search bracket up to alpha = 10."""


class NonMonotoneBracket(RuntimeError):
    """A spot probe decoded at an overhead below the located bracket,
    contradicting the monotonicity assumption bisection relies on."""


class NonMonotoneRun(RuntimeError):
    """The mean erasure probability rose between two DE iterations.  From
    the all-ones start the map is monotone, so P_b cannot rise; a rise means
    the update itself is wrong."""


@dataclass
class DEState:
    """Per-section erasure probabilities and the iteration count."""

    p: np.ndarray
    s: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class DEConfig:
    """Discretization knobs for "P_b converges to 0".

    A run decodes once P_b < ``success_target``, fails once no entry moves by
    ``fixed_point_tol`` in one step (a stall) or once a failure certificate
    proves that it never decodes (see ``de_run``), and stops undecided at
    ``max_iterations``.  The defaults do not resolve every threshold to
    ``bisection_tol``.  Where the decoding wave sets the threshold (dg >= 3)
    probes near it are slow, and at large L the iteration cap binds.  Where
    stability binds (dg = 2) the stall test binds instead: the decoded state
    contracts at a rate near one, so a run below the threshold moves by less
    than ``fixed_point_tol`` per step while still heading to zero.  At dg = 2,
    L = 64, alpha = 0.085 (below the printed alpha* = 0.090424) the run stalls
    at iteration 6,285 with P_b = 2.18e-10; with ``fixed_point_tol = 1e-16`` it
    decodes at 6,550.  ROADMAP.md item 1(a) tabulates the resulting dg = 2
    thresholds, 0.004-0.010 above the exact stability point.
    """

    max_iterations: int = 100_000
    fixed_point_tol: float = 1e-12
    success_target: float = 1e-10
    bisection_tol: float = 1e-4

    def __post_init__(self):
        value = self.max_iterations
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"max_iterations must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"max_iterations must be >= 1, got {value}")
        # Written as "not > 0" so that a NaN is rejected too.
        for name in ("fixed_point_tol", "success_target", "bisection_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.bisection_tol < _MIN_BISECTION_TOL:
            raise ValueError(
                f"bisection_tol must be >= {_MIN_BISECTION_TOL:g} (two float steps at "
                f"alpha = {_ALPHA_CAP:g}), got {self.bisection_tol}"
            )


@dataclass(frozen=True)
class ThresholdResult:
    """Overhead threshold estimate: bracket midpoint plus the retained
    bracket for one-sided guarantees."""

    alpha_star: float
    beta_star: float
    iterations_at_threshold: int
    bracket: tuple[float, float]


@dataclass
class DERun:
    """The last state and the verdict of a run from the all-ones start."""

    state: DEState
    converged_to_zero: bool
    hit_iteration_cap: bool = False


@dataclass
class SweepRow:
    """One threshold-sweep row: DE threshold plus the stability lower bounds.
    ``error`` records a per-row failure without aborting the sweep."""

    L: int
    alpha_star: float = math.nan
    beta_star: float = math.nan
    lower_bound_alpha: float = math.nan
    lower_bound_beta: float = math.nan
    iterations: int = 0
    error: str | None = None


@functools.lru_cache(maxsize=16)
def _kernel(w: int) -> tuple[np.ndarray, bool]:
    """The ones(w)/w averaging kernel, built once per width and read-only,
    and whether a correlation with it can round past one on states in
    [0, 1]: whether any entry of its full correlation with ones exceeds one."""
    kernel = np.full(w, 1.0 / w)
    kernel.flags.writeable = False
    return kernel, bool(np.any(np.correlate(np.ones(w), kernel, "full") > 1.0))


def _full_average(v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The full correlation of v with the symmetric kernel.  A v shorter than
    the kernel goes second and reversed, the operand order ``np.convolve``
    takes there, so every sum runs in the order it did with ``np.convolve``."""
    if len(v) < len(kernel):
        return np.correlate(kernel, v[::-1], "full")
    return np.correlate(v, kernel, "full")


def de_step(params: EnsembleParams, beta: float, p: np.ndarray, s: np.ndarray):
    """One synchronous density-evolution update of the per-section erasure
    probabilities p and s; returns the next (p, s) as new arrays and leaves
    its inputs unchanged.

    The states must lie in [0, 1] and beta must be >= 0; the outputs then
    lie in [0, 1] too, so iterating from the all-ones start (as ``de_run``
    does) keeps the contract.  The upper clamp is applied only at widths
    whose kernel sums can round past one, so outside the contract the
    outputs may exceed one.
    """
    if len(p) != params.L or len(s) != params.L:
        raise ValueError(f"p and s need {params.L} sections, got {len(p)} and {len(s)}")
    kernel, clamp = _kernel(params.w)
    # Inner average per check/channel section (length L+w-1, zero-extended),
    # then the outer average back onto bit sections (length L).  The
    # elementwise updates write into the arrays the correlations return.
    x = _full_average(p, kernel)
    np.subtract(1.0, x, out=x)
    x **= params.dr - 1
    np.subtract(1.0, x, out=x)
    a = np.correlate(x, kernel, "valid")
    y = _full_average(s, kernel)
    np.subtract(1.0, y, out=y)
    y **= params.dg - 1
    y *= 1.0 - params.epsilon
    np.subtract(1.0, y, out=y)
    gf = np.correlate(y, kernel, "valid")
    np.subtract(1.0, gf, out=gf)
    gf *= -beta
    np.exp(gf, out=gf)
    # a ** 1 is a, so dl = 2 needs no power for p.
    p_next = a * gf if params.dl == 2 else a ** (params.dl - 1) * gf
    a **= params.dl
    a *= gf
    if clamp:
        np.minimum(p_next, 1.0, out=p_next)
        np.minimum(a, 1.0, out=a)
    return p_next, a


# The failure certificate (see de_run): tried first at step 64, then each
# time the step count has grown by 25%, on candidates extrapolated back along
# the last step with these slopes and shrunk by this factor.
_CERTIFY_FIRST = 64
_CERTIFY_GROWTH = 1.25
_CERTIFY_SLOPES = (10.0, 100.0, 1000.0, 10000.0)
_CERTIFY_SHRINK = 1e-9
_U = 2.0 ** -53


def _failure_certificate(params: EnsembleParams, beta: float, success_target: float,
                         prev: tuple[np.ndarray, np.ndarray],
                         cur: tuple[np.ndarray, np.ndarray]):
    """A state (p_y, s_y) that proves a run never decodes, or None.

    ``prev`` and ``cur`` are the run's last two states.  Each candidate is
    y = (1 - eta) clip(x_t - k (x_{t-1} - x_t), 0, 1), and the first one that
    passes is returned.  It passes when its computed P_b is at least
    ``success_target`` + 2 (L + 1) u and de_step(y) >= y + margin
    componentwise, where margin = 2e + 2u (e from the derivation in
    ``de_run``; 2u covers the rounding of y + margin).
    """
    dl, dr, dg, w, L = params.dl, params.dr, params.dg, params.w, params.L
    error_a = (dr - 1) * (w + 2) + w + 10
    error_b = (dg - 1) * (w + 2) + w + 12
    error_gf = beta * (error_b + 2) + 8
    e = 2.0 * (dl * error_a + error_gf + 9) * _U
    margin = 2.0 * e + 2.0 * _U
    pb_floor = success_target + 2.0 * (L + 1) * _U
    for k in _CERTIFY_SLOPES:
        y = tuple(np.clip(x + k * (x - x_prev), 0.0, 1.0) * (1.0 - _CERTIFY_SHRINK)
                  for x_prev, x in zip(prev, cur))
        if float(np.add.reduce(y[0])) / L < pb_floor:
            continue
        if all(np.all(fy >= v + margin) for fy, v in zip(de_step(params, beta, *y), y)):
            return y
    return None


def de_run(params: EnsembleParams, beta: float, config: DEConfig = DEConfig()) -> DERun:
    """Iterate from the all-ones start until the mean erasure probability
    drops below the success target, the run fails, or the iteration cap.
    P_b is checked at every step: a rise by over 1e-12 raises ``NonMonotoneRun``.

    A run fails on a stall or on a failure certificate.  It stalls when no
    entry of p or s moves by ``fixed_point_tol`` in one step.  That test
    takes passes over both states, so it runs only on steps where P_b fell by
    no more than 2 * ``fixed_point_tol`` plus a round-off margin; a larger
    fall proves that some entry of p moved by more than the tolerance, and
    skipping the test changes no outcome.

    The failure certificate proves that the run never decodes.  The exact
    map f on x = (p, s) is monotone on [0, 1]^(2L) and the run starts at
    x_0 = 1.  Let |f~(x) - f(x)| <= e bound one computed step's error (f~ is
    ``de_step``).  A state y in [0, 1]^(2L) with f~(y) >= y + 2e keeps every
    computed iterate at or above y, since by induction from x~_0 = 1 >= y

        x~_{t+1} >= f(x~_t) - e >= f(y) - e >= f~(y) - 2e >= y.

    Each computed P_b is within (L + 1) u of the exact mean (u = 2^-53; see
    the stall floor below), so a computed P_b(y) at least
    ``success_target`` + 2 (L + 1) u keeps every computed P_b at or above
    the target: the run never decodes.  Iterated on, it would stall or hit
    the cap, so returning "failed" at once changes no verdict.  Candidates
    are tried at step 64 and then each time the step count has grown by 25%:
    y = (1 - eta) clip(x_t - k (x_{t-1} - x_t), 0, 1) with k = 10 .. 10^4
    and eta = 1e-9, one ``de_step`` each.  The shrink is needed because
    interior sections sit at exactly one, where f~(y) >= y + 2e fails.

    The bound e, to first order in u.  Each count below is in units of u; e
    is twice the total, which covers the higher-order terms while every
    count is far below 1/u.  On states in [0, 1]:
    - an average of at most w entries with fl(1/w) for 1/w adds w + 1 (the
      w-term sum and the rounded kernel) to the error of its entries;
    - 1 - z adds 1, and so does a product of two factors in [0, 1] (their
      errors add); a product by fl(1 - eps) adds 2;
    - z^n for z in [0, 1] multiplies the error of z by n and adds 8, since
      ``pow`` and ``exp`` are taken to be within four ulps (the bound numpy
      states for its SIMD math routines; glibc's are within one);
    - exp is 1-Lipschitz on (-inf, 0], so gf = exp(-beta (1 - B)) carries
      beta times the error of 1 - B, plus beta for rounding that product
      and 8 for exp.
    Hence, with A and B the outer averages of the update:

        E_A  = (dr - 1)(w + 2) + w + 10
        E_B  = (dg - 1)(w + 2) + w + 12
        E_gf = beta (E_B + 2) + 8
        E_s  = dl E_A + E_gf + 9    (s = A^dl gf; p = A^(dl-1) gf has less)

    The clamp min(., 1) is 1-Lipschitz and f <= 1, so it adds nothing.  At
    dr = 30, w = 12, dg = 3 and beta ~ 6 this gives E_s ~ 1,200 and e ~ 2,400u.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    L = params.L
    p = np.ones(L)
    s = np.ones(L)
    pb = 1.0
    next_certify = _CERTIFY_FIRST
    # max_i |p_next_i - p_i| >= (sum p - sum p_next) / L.  The states stay in
    # [0, 1], so each computed P_b is within (L + 1) u of sum p / L (u = 2^-53,
    # a bound for any summation order), and the computed fall of P_b is within
    # a factor (1 + u) of the true one.  A computed fall above this floor thus
    # leaves a true fall above 2 tol (1 - u), and the computed |p_next - p|
    # loses at most another factor (1 - u): the stall test cannot pass.
    stall_floor = 2.0 * config.fixed_point_tol + 8.0 * (L + 1) * _U
    for it in range(1, config.max_iterations + 1):
        p_next, s_next = de_step(params, beta, p, s)
        # Bit-equal to p_next.mean(): the same pairwise sum, then one division.
        pb_next = float(np.add.reduce(p_next)) / L
        if pb_next > pb + 1e-12:
            raise NonMonotoneRun(f"P_b rose from {pb} to {pb_next} at iteration {it}")
        failed = False
        if it == next_certify:
            next_certify = math.ceil(it * _CERTIFY_GROWTH)
            failed = _failure_certificate(
                params, beta, config.success_target, (p, s), (p_next, s_next)) is not None
        if not failed and pb - pb_next <= stall_floor:
            # The previous state is dead once stepped from, so |x_next - x|
            # is taken in its buffers (de_step returns new arrays).
            np.abs(np.subtract(p_next, p, out=p), out=p)
            np.abs(np.subtract(s_next, s, out=s), out=s)
            change = max(
                float(np.maximum.reduce(p, initial=0.0)),
                float(np.maximum.reduce(s, initial=0.0)),
            )
            failed = change < config.fixed_point_tol
        p, s, pb = p_next, s_next, pb_next
        done_zero = pb < config.success_target
        if done_zero or failed or it == config.max_iterations:
            return DERun(
                state=DEState(p=p, s=s, iteration=it),
                converged_to_zero=done_zero,
                hit_iteration_cap=not (done_zero or failed),
            )
    raise AssertionError("unreachable")  # loop always returns


def overhead_threshold(
    params: EnsembleParams,
    config: DEConfig = DEConfig(),
    upper: float = 1.0,
    *,
    allow_dg1: bool = False,
) -> ThresholdResult:
    """Bisection on alpha for the smallest decoding overhead.

    The bracket starts as [0, upper].  Zero overhead is probed first: at
    capacity it cannot decode, and if it does anyway the bracket is [0, 0]
    and there is nothing to bisect.  The upper end, capped at alpha = 10, is
    doubled (capped again) until it decodes.  After bisection one spot probe
    below the bracket re-checks the monotonicity assumption.
    """
    if params.dg == 1 and not allow_dg1:
        raise ValueError(
            "dg = 1 cannot reach capacity and is excluded from the threshold "
            "search by default; pass allow_dg1=True to analyze it anyway"
        )
    if not upper > 0.0:
        raise ValueError(f"the upper starting point must be > 0, got {upper}")

    def decodes(alpha: float) -> tuple[bool, int]:
        run = de_run(params, beta_from_alpha(params, alpha), config)
        return run.converged_to_zero, run.state.iteration

    lo = 0.0
    ok, success_iters = decodes(lo)
    hi = lo if ok else min(upper, _ALPHA_CAP)
    while not ok:
        ok, success_iters = decodes(hi)
        if not ok:
            if hi >= _ALPHA_CAP:
                raise NoSuccessInBracket(
                    f"density evolution fails up to alpha = {hi:g} for {params}"
                )
            hi = min(2.0 * hi, _ALPHA_CAP)

    while hi - lo > config.bisection_tol:
        mid = 0.5 * (lo + hi)
        ok, iters = decodes(mid)
        if ok:
            hi = mid
            success_iters = iters
        else:
            lo = mid

    alpha_star = 0.5 * (lo + hi)
    # Monotonicity spot check: a point clearly below the located bracket must
    # also fail (probing just above the bracket instead would sit in the
    # critically slow regime and stall spuriously).
    spot = alpha_star - max(0.02, 10.0 * config.bisection_tol)
    if spot > 0.0:
        ok, _ = decodes(spot)
        if ok:
            raise NonMonotoneBracket(
                f"alpha = {spot:g} decodes although the bracket bottom {lo:g} does not"
            )
    return ThresholdResult(
        alpha_star=alpha_star,
        beta_star=beta_from_alpha(params, alpha_star),
        iterations_at_threshold=success_iters,
        bracket=(lo, hi),
    )


def fill_sweep_row(row: SweepRow, params: EnsembleParams, config: DEConfig,
                   upper: float = 1.0, *, allow_dg1: bool) -> None:
    """Fill ``row`` with the stability lower bounds, then the overhead
    threshold (bisection from [0, upper]) of ``params`` at L = ``row.L``.
    A failure propagates and leaves the fields already filled, so a row
    whose bisection raises keeps its lower bounds."""
    report = stability.threshold_lower_bounds(params)
    row.lower_bound_alpha = report.lower_bound_alpha
    row.lower_bound_beta = report.lower_bound_beta
    result = overhead_threshold(params, config, upper, allow_dg1=allow_dg1)
    row.alpha_star = result.alpha_star
    row.beta_star = result.beta_star
    row.iterations = result.iterations_at_threshold


def threshold_sweep(
    params: EnsembleParams,
    L_values,
    config: DEConfig = DEConfig(),
    *,
    allow_dg1: bool = False,
) -> list[SweepRow]:
    """Overhead thresholds and stability lower bounds over a grid of chain
    lengths.

    Rows are ordered by L, and each bisection warm-starts from the previous
    row: the threshold shrinks with L in every regime of interest, so the
    previous estimate (plus margin) is the fresh bracket's upper end.  Per-row
    failures land in the row's ``error`` field instead of aborting the sweep;
    an empty grid or a repeated L raises ``ValueError`` before any row runs.
    """
    L_sorted = sorted(L_values)
    if not L_sorted:
        raise ValueError("L_values must be nonempty")
    repeated = sorted({a for a, b in zip(L_sorted, L_sorted[1:]) if a == b})
    if repeated:
        raise ValueError(f"L_values repeats L = {', '.join(map(str, repeated))}")
    rows: list[SweepRow] = []
    prev_alpha: float | None = None
    for L in L_sorted:
        row = SweepRow(L=L)
        p_l = dataclasses.replace(params, L=L)
        upper = prev_alpha + 0.02 if prev_alpha is not None else 1.0
        try:
            fill_sweep_row(row, p_l, config, upper, allow_dg1=allow_dg1)
            prev_alpha = row.alpha_star
        except (NoSuccessInBracket, NonMonotoneBracket, ValueError) as exc:
            row.error = str(exc)
        rows.append(row)
    return rows
