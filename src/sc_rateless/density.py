"""Coupled density evolution on the BEC.

Tracks per-section erasure probabilities p_i (bit -> precode check messages)
and s_i (bit -> channel node messages) for sections i in [0, L-1]; sections
outside the chain are pinned to 0 (shortening).  One update reads

    A_i = (1/w) sum_j [ 1 - (1 - (1/w) sum_k p_{i+j-k})^(dr-1) ]
    B_i = (1/w) sum_j [ 1 - (1-eps) (1 - (1/w) sum_k s_{i+j-k})^(dg-1) ]
    p_i <- A_i^(dl-1) * gf(B_i),     s_i <- A_i^dl * gf(B_i)

with gf the Poisson generating function (node and edge perspectives agree).
Both sliding averages are correlations with the symmetric ones(w)/w kernel.
The states of K runs (the lanes of ``_Lanes``) lie in one flat vector: w - 1
zeros, then the K p-lanes and the K s-lanes, each L sections followed by
w - 1 zeros, which stand for the shortened sections.  Each average is one
"valid" ``np.correlate`` over that vector, so one step is two correlations
and a few elementwise updates over every lane of both halves, in place in
the arrays the correlations return (the power once per half where
dr != dg).  Every valid entry sums its w products in the same loop, in an
order fixed by w alone, so each lane gets the bits it gets alone at any
offset: up to w = 11 numpy sums them left to right, and from w = 12 an
entry's bits are the BLAS ``ddot``'s.  At L <= 512 a step's cost is numpy
call overhead, not arithmetic, so it allocates little beyond those arrays,
and every choice that depends only on the lane layout (the kernel, the
constant operands, the offsets, the powers and the clamp) is bound once
per layout into a stepper (``_stepper``), not made at every step.  The run
loop steps a block of ``_BLOCK`` steps before it looks at any of them (see
``_Lanes``).

The update is clamped to [0, 1] from above only, and only at the widths
where that clamp can bind.  For states in [0, 1] every factor above is
>= 0, so a lower clamp never binds.  The upper one binds where the sum of
the kernel's w rounded 1/w terms exceeds one: with w = 9 it is
1.0000000000000002, so from the all-ones state A_i exceeds one.  Rounding
is monotone and every correlation entry sums its w products in one order,
so for states in [0, 1] every entry is at most the same sum taken on ones,
and every later factor stays in [0, 1].  A width whose sum on ones stays
<= 1 needs no clamp, and skipping it changes no bit (see ``_kernel``).

A run decodes when P_b, the mean of p, falls below a configured target, and
fails on a stall or on a failure certificate (see ``de_run``).  Every run,
``de_run``'s too, is a lane of ``_Lanes``, the one owner of these stop
rules.  Each lane depends only on its own state, so stepping a whole block
before the stop rules run, and dropping the steps past a stop, changes no
iteration, verdict or bit.  The overhead threshold is located by bisection
on alpha.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import stability
from .ensemble import EnsembleParams, NonPositiveRate, beta_from_alpha, check_beta

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
        # P_b and every entry's change lie in [0, 1], so a success target or a
        # stall tolerance of one or more lets a run stop at its first step at
        # any overhead.  Written as "not 0 < value < high" so a NaN fails too.
        for name, high in (("fixed_point_tol", 1.0), ("success_target", 1.0),
                           ("bisection_tol", math.inf)):
            value = getattr(self, name)
            if not 0.0 < value < high:
                bound = "finite" if high == math.inf else f"< {high:g}"
                raise ValueError(f"{name} must be > 0 and {bound}, got {value}")
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
    [0, 1]: whether a valid correlation of one all-ones lane, laid out as
    in ``_Lanes``, has an entry above one.  With numpy 2.4 and OpenBLAS on
    x86-64 that holds at w = 9 and 11 of the widths 1..16 (and at 20 and
    21 of 17..24)."""
    kernel = np.full(w, 1.0 / w)
    kernel.flags.writeable = False
    return kernel, bool(np.any(np.correlate(np.pad(np.ones(w), w - 1), kernel, "valid") > 1.0))


def _sections(params: EnsembleParams, x: np.ndarray) -> np.ndarray:
    """The lane sections of flat states laid out as in ``_Lanes`` along the
    last axis of ``x``: a (..., 2, K, L) view, p-lanes above s-lanes."""
    width = params.L + params.w - 1
    return x[..., params.w - 1:].reshape(*x.shape[:-1], 2, -1, width)[..., :params.L]


def _layout(params: EnsembleParams, lanes: np.ndarray) -> np.ndarray:
    """A new flat state laid out as in ``_Lanes``, whose sections are the
    (2, K, L) ``lanes`` and whose other elements are zeros."""
    x = np.zeros(params.w - 1 + 2 * lanes.shape[1] * (params.L + params.w - 1))
    _sections(params, x)[...] = lanes
    return x


def de_step(params: EnsembleParams, beta: float, p: np.ndarray, s: np.ndarray):
    """One synchronous density-evolution update of the per-section erasure
    probabilities p and s; returns the next (p, s) as new arrays and leaves
    its inputs unchanged.

    The states must lie in [0, 1].  Beta must pass ``ensemble.check_beta``
    (finite and >= 0), else ``ValueError``, as in ``de_run``; the outputs
    then lie in [0, 1] too, so iterating from the all-ones start (as
    ``de_run`` does) keeps the contract.  The upper clamp is applied only at
    widths whose kernel sums can round past one, so outside the contract the
    outputs may exceed one.

    The step is the one a ``_stepper`` takes for a lone lane of ``_Lanes``,
    and every lane of every layout gets its bits (see the module
    docstring), so this function pins the bits of every DE step: the tests
    check each lane of several layouts against it.
    """
    if len(p) != params.L or len(s) != params.L:
        raise ValueError(f"p and s need {params.L} sections, got {len(p)} and {len(s)}")
    check_beta(beta)
    x = _layout(params, np.array((p, s))[:, None])
    p_next, s_next = _sections(params, _stepper(params, x.size)(-beta, x))[:, 0]
    return p_next, s_next


@functools.lru_cache(maxsize=64)
def _stepper(params: EnsembleParams, size: int):
    """The update of ``de_step`` on a flat state of ``size`` elements, laid
    out as the state of ``_Lanes``: w - 1 zeros, then the K p-lanes and the
    K s-lanes, each L sections and then w - 1 zeros.  Returns
    ``step(neg_beta, x, out=None)``, which writes the next state's sections
    into ``out`` (a new array if None) and returns it.  The zeros after
    every lane but the last of each half it overwrites with entries that
    mix two lanes, and the others it leaves as they are, so the caller must
    reset the zeros of a state before the next step reads it.  ``neg_beta``
    is -beta, or one -beta per entry of a half of the outer average: its
    K (L + w - 1) - (w - 1) entries, lane k's L sections from k (L + w - 1)
    on.  A state of another length raises ValueError: it cannot broadcast
    against the step's operands, which have this layout's lengths.

    Every choice that depends only on the layout is made here, once: the
    kernel, the constant operands, the offsets of the halves, the powers
    and whether it clamps.  The step itself makes only the numpy calls.
    Its constants (ones, 1 - eps and the clamp's bound) are arrays, which
    a ufunc converts once, where it converts a Python float on every call;
    the bits are the same.  Both averages are one valid correlation over
    both halves.  The inner one has K (L + w - 1) entries per half, lane
    k's from k (L + w - 1) on, and the outer one lands lane k's L sections
    at the same offsets.  The power is one call over both halves where
    dr == dg, else one per half.
    """
    kernel, clamp = _kernel(params.w)
    lead, dl = params.w - 1, params.dl
    n = (size - lead) // 2
    ones_y, ones_a, keep, one = (np.ones(2 * n), np.ones(n - lead),
                                 np.array(1.0 - params.epsilon), np.array(1.0))
    p_y, s_y = slice(None, n), slice(n, None)
    a_half, gf_half = slice(None, n - lead), slice(n, None)
    p_out, s_out = slice(lead, n), slice(n + lead, 2 * n)
    same_power, dr_power, dg_power = params.dr == params.dg, params.dr - 1, params.dg - 1
    correlate, subtract, multiply, exp, minimum, empty = (
        np.correlate, np.subtract, np.multiply, np.exp, np.minimum, np.empty)

    def step(neg_beta, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Inner average per check/channel section, then the outer average
        # back onto bit sections.  The elementwise updates write into the
        # arrays the correlations return.
        y = correlate(x, kernel, "valid")
        s = y[s_y]
        subtract(ones_y, y, out=y)
        if same_power:
            y **= dr_power
        else:
            y[p_y] **= dr_power
            s **= dg_power
        s *= keep
        subtract(ones_y, y, out=y)
        outer = correlate(y, kernel, "valid")
        a, gf = outer[a_half], outer[gf_half]
        subtract(ones_a, gf, out=gf)
        gf *= neg_beta
        exp(gf, out=gf)
        if out is None:
            out = empty(size)
        # a ** 1 is a, so dl = 2 needs no power for p.
        multiply(a if dl == 2 else a ** (dl - 1), gf, out=out[p_out])
        a **= dl
        multiply(a, gf, out=out[s_out])
        if clamp:
            minimum(out, one, out=out)
        return out

    return step


# The failure certificate (see de_run): tried first at step 64, then each
# time the step count has grown by 25%, on candidates extrapolated back along
# the last step with these slopes and shrunk by this factor.
_CERTIFY_FIRST = 64
_CERTIFY_GROWTH = 1.25
_CERTIFY_SLOPES = np.array([10.0, 100.0, 1000.0, 10000.0])
_CERTIFY_SHRINK = 1e-9
_U = 2.0 ** -53


def _failure_certificates(params: EnsembleParams, betas: list, pb_floor: float,
                          prev: np.ndarray, cur: np.ndarray):
    """Try the failure certificate (see ``de_run``) of D runs at once.

    ``prev`` and ``cur`` are (2, D, L) arrays of the runs' last two states,
    p above s, and ``betas`` the runs' betas.  Returns per run a state
    (p_y, s_y) that proves it never decodes, or None; then the number of
    candidates stepped.

    The candidates of every slope are built as one block, with the bits of
    one slope at a time.  Those whose P_b is at least ``pb_floor`` are
    stepped together, laid out as the lanes of ``_Lanes``, with the bits of
    ``de_step``.  A candidate y passes when f~(y) >= y + ``_margin``
    componentwise.  A run's first passing candidate in slope order is
    returned, the one a search that stops at the first passing slope
    returns.
    """
    L = params.L
    y = cur[:, :, None] + _CERTIFY_SLOPES[:, None] * (cur - prev)[:, :, None]
    # clip(y, 0, 1) as its two ufuncs, without np.clip's Python wrapper.
    np.maximum(y, 0.0, out=y)
    np.minimum(y, 1.0, out=y)
    y *= 1.0 - _CERTIFY_SHRINK
    pb = np.add.reduce(y[0], axis=2)
    pb /= L
    keep = pb >= pb_floor
    run = keep.nonzero()[0]
    y = y[:, keep]
    count = len(run)
    found = [None] * len(betas)
    if count == 0:
        return found, 0
    margin = np.array([_margin(params, beta) for beta in betas])[run, None]
    x = _layout(params, y)
    neg_beta = _lane_betas(params, -np.array(betas)[run])
    f = _sections(params, _stepper(params, x.size)(neg_beta, x))
    for j in np.flatnonzero(np.all(f >= y + margin, axis=(0, 2))):
        if found[run[j]] is None:
            found[run[j]] = (y[0, j], y[1, j])
    return found, count


def _lane_betas(params: EnsembleParams, neg_betas) -> np.ndarray:
    """The per-entry ``neg_beta`` of a ``_stepper`` step from one -beta per
    lane."""
    width = params.L + params.w - 1
    return np.repeat(neg_betas, width)[:len(neg_betas) * width - params.w + 1]


def de_run(params: EnsembleParams, beta: float, config: DEConfig = DEConfig()) -> DERun:
    """Iterate from the all-ones start until the mean erasure probability
    drops below the success target, the run fails, or the iteration cap.
    Beta must pass ``ensemble.check_beta`` (finite and >= 0), else
    ``ValueError``, as in ``de_step``.  Every step's P_b is computed, and a
    rise by over 1e-12 raises ``NonMonotoneRun``, in this run as in every
    lane.  The run is the one lane of a ``_Lanes`` engine
    (``advance({None: beta})``), which applies these stop rules after each
    block of steps at the step where they fire, so the run ends there as if
    they ran at every step.

    A run fails on a stall or on a failure certificate.  It stalls when no
    entry of p or s moves by ``fixed_point_tol`` in one step.  The rules run
    only at the steps where some lane's P_b fell by no more than
    2 * ``fixed_point_tol`` plus a round-off margin, fell below the success
    target, or where a certificate or the cap is due (see ``_Lanes``); there
    the stall test runs on every lane, as one reduction that reads both
    states.  A larger fall proves that some entry of p moved by more than the
    tolerance, so skipping the test elsewhere changes no outcome.

    The failure certificate proves that the run never decodes.  The exact
    map f on x = (p, s) is monotone on [0, 1]^(2L) and the run starts at
    x_0 = 1.  Let |f~(x) - f(x)| <= e bound one computed step's error (f~ is
    ``de_step``).  A state y in [0, 1]^(2L) with f~(y) >= y + 2e keeps every
    computed iterate at or above y, since by induction from x~_0 = 1 >= y

        x~_{t+1} >= f(x~_t) - e >= f(y) - e >= f~(y) - 2e >= y.

    Each computed P_b is within (L + 1) u of the exact mean (u = 2^-53; see
    the stall floor in ``_Lanes``), so a computed P_b(y) at least
    ``success_target`` + 2 (L + 1) u keeps every computed P_b at or above
    the target: the run never decodes.  Iterated on, it would stall or hit
    the cap, so returning "failed" at once changes no verdict.  Candidates
    are tried at step 64 and then each time the step count has grown by 25%:
    y = (1 - eta) clip(x_t - k (x_{t-1} - x_t), 0, 1) with k = 10 .. 10^4
    and eta = 1e-9; the shrink is needed because interior sections sit at
    exactly one, where f~(y) >= y + 2e fails.  ``_failure_certificates``
    steps the candidates of every lane due at one lockstep together, with
    the bits of ``de_step``, and accepts f~(y) >= y + ``_margin``.

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
    ``_margin`` adds 2u to 2e for the rounding of y + margin.
    """
    check_beta(beta)
    return _Lanes(params, config, 1).advance({None: beta})[None]


def _margin(params: EnsembleParams, beta: float) -> float:
    """The failure certificate's margin 2e + 2u at ``beta``, with e the
    bound on one computed step's error derived in ``de_run``."""
    dl, dr, dg, w = params.dl, params.dr, params.dg, params.w
    error_a = (dr - 1) * (w + 2) + w + 10
    error_b = (dg - 1) * (w + 2) + w + 12
    error_gf = beta * (error_b + 2) + 8
    e = 2.0 * (dl * error_a + error_gf + 9) * _U
    return 2.0 * e + 2.0 * _U


# Lanes of one lockstep share a flat vector of K (L + w - 1) elements per
# message type, p and s, after w - 1 leading zeros.  A bisection runs the
# largest K = 2^d - 1 lanes, at most 15, that fit this budget: a lockstep's
# cost grows with that vector and the lane count, while each added level
# saves fewer locksteps.
# Measured before p and s shared one vector and before lanes stepped in
# blocks (``_BLOCK``), on a shared 2-core x86-64 machine with dg = 3
# thresholds: at L = 8 and 16, 7 and 15 lanes
# tie and 31 or 63 lanes are slower; at L = 64, 15 lanes (975 elements)
# took 5.4 s, 7 lanes 6.3 s and one lane 8.7 s; at L = 128, 7 lanes (903
# elements) took 7.5 s, 15 lanes 8.3 s and one lane 12.6 s.  Measured again
# with the step bound once per layout (``_stepper``), on the same machine:
# six alternating pairs of the dg = 3 L-grid sweep (L = 4 to 512, 450k
# cap) with budgets of 1,000 and 1,800, the larger faster in 6 of 6, with
# medians of 57.7 and 52.9 CPU s.  Its L = 512 row took 31.2 s with one
# lane and 25.9 s with 3 (6 of 6); its L = 256 row 14.1 s with 3 lanes and
# 14.3 s with 7 (a tie, 4 of 6).  Deeper look-ahead, measured again with
# ``_stepper`` and ``_BLOCK`` on the same machine: ``sweep --dg 3 --L-grid
# 8,16,24`` with ``_MAX_LANE_DEPTH`` 4, 5 and 6 (15, 31 and 63 lanes) made
# 127,821, 114,427 and 109,068 locksteps with identical rows, in median
# CPU times of 1.46, 1.48 and 1.77 s (five alternating rounds), so fewer
# locksteps do not pay.  The budget holds at every width: 15 lanes while
# L + w - 1 <= 120 (L = 119 at w = 2), 7 up to 257, 3 up to 600, then one
# lane at a time.  A block of ``_BLOCK`` + 1 such vectors then takes about
# 2 * 17 * 1800 * 8 bytes, 0.49 MB.
_LANE_BUDGET = 1800
_MAX_LANE_DEPTH = 4

# ``_Lanes`` steps its lanes this many locksteps at a time before it screens
# them for a stop.  A longer block spreads the screen's dozen numpy calls
# over more steps, but steps further past each stop.  Measured on a shared
# 2-core x86-64 machine with ``sweep --dg 3 --L-grid 8,16,24`` (~129k
# locksteps), in two sessions of 6 rounds alternating 8, 16 and 32: median
# CPU times of 2.62 / 1.89 / 2.39 s and 2.35 / 2.18 / 2.34 s, with 699 /
# 1,539 / 3,203 locksteps thrown away.
_BLOCK = 16


def _lane_depth(params: EnsembleParams) -> int:
    """How many levels of a bisection run as lanes of one lockstep: the
    largest d up to ``_MAX_LANE_DEPTH`` whose 2^d - 1 lanes fit
    ``_LANE_BUDGET``."""
    lane = params.L + params.w - 1
    depth = 1
    while depth < _MAX_LANE_DEPTH and (2 ** (depth + 1) - 1) * lane <= _LANE_BUDGET:
        depth += 1
    return depth


class _Lanes:
    """DE runs of one ensemble at several betas in lockstep, each bit-equal
    to a run alone at its beta, and the one owner of their stop rules (see
    ``de_run``).  ``de_run`` is one lane.

    The state of K lanes is one flat vector of w - 1 + 2K (L + w - 1)
    elements: w - 1 zeros, then the K p-lanes and the K s-lanes, each
    lane's L sections and then w - 1 zeros, so one correlation serves every
    lane of both halves at every width, and each lane's step is
    ``de_step``'s (see ``_stepper``).  Beside its key, each
    lane keeps its beta, the lockstep it joined at and the iteration of its
    next failure certificate.  The stall floor and the P_b floor depend only
    on L and the config, so the engine holds one of each.

    The lanes step ``_BLOCK`` locksteps at a time in a buffer of
    ``_BLOCK`` + 1 such vectors, which the engine owns: row 0 holds the
    state, and each step writes the next row (the step's ``out``), whose
    lane zeros are then reset through a view made when the lanes were laid
    out (no step writes the leading zeros).  Laying the lanes out
    (``_Lanes._regroup``) fetches the stepper and lists each lockstep's
    row, next row and zero reset, so a lockstep is one step call and one
    fill.
    One ``np.add.reduce`` over the block's (``_BLOCK``, K, L) view of p then
    gives every step's P_b, each with the bits of the 1-D reduce of its
    lane's p.  The stop rules run only after a lockstep where one could
    stop some lane: where some lane's P_b fell by no more than
    ``stall_floor`` (a rise is a fall below zero) or fell below the success
    target, or where some lane's certificate or cap is due.  Elsewhere no
    rule can stop a lane, since a fall above the floor rules out a stall.
    That screen runs once per block on (``_BLOCK``, K) arrays; then the
    rules run at each lockstep it picked, in order, on that lockstep's two
    rows' sections, as they would if the lanes stepped one lockstep at a
    time.  Once
    a lane ends at row j, the rows after j are thrown away and row j becomes
    the state.  The rules read the two rows and write neither.  The failure
    certificates of every lane due at a lockstep are tried together, in one
    step (``_failure_certificates``).

    Each ``advance`` names the lanes that run: a lane it does not name
    leaves, a new key joins at the all-ones state, and a lane that ended
    runs no more.  ``advance`` returns as soon as a lane ends, so every
    call lays the lanes out anew.  ``locksteps``, ``row_steps`` and
    ``retired`` count the locksteps up to the last stop, the lane steps and
    the lanes that ended on a verdict; ``discarded`` counts the locksteps
    stepped past a stop and thrown away.  ``certificate_batches`` and
    ``certificate_candidates`` count the certificates' step calls and the
    candidates they stepped.
    """

    def __init__(self, params: EnsembleParams, config: DEConfig, depth: int):
        self.params, self.config, self.depth = params, config, depth
        self.locksteps = self.row_steps = self.retired = self.discarded = 0
        self.certificate_batches = self.certificate_candidates = 0
        # max_i |p_next_i - p_i| >= (sum p - sum p_next) / L.  The states stay
        # in [0, 1], so each computed P_b is within (L + 1) u of sum p / L
        # (u = 2^-53, a bound for any summation order), and the computed fall
        # of P_b is within a factor (1 + u) of the true one.  A computed fall
        # above this floor thus leaves a true fall above 2 tol (1 - u), and the
        # computed |p_next - p| loses at most another factor (1 - u): the
        # stall test cannot pass.
        self.stall_floor = 2.0 * config.fixed_point_tol + 8.0 * (params.L + 1) * _U
        # A failure certificate's candidate needs a computed P_b of at least
        # this, so that every later computed P_b stays at or above the
        # success target (see de_run).
        self.pb_floor = config.success_target + 2.0 * (params.L + 1) * _U
        self._keys: list = []
        self._betas: list[float] = []
        self._joined: list[int] = []
        self._certify: list[int] = []
        self._rows = [np.empty(0)]
        self._step, self._steps = None, []
        self._pb = np.empty((1, 0))
        self._sections = self._p_sections = np.empty((1, 2, 0, params.L))
        self._neg_beta = np.empty(0)
        self._next_check = math.inf
        self._ended: dict = {}

    def _check_at(self) -> float:
        """The first lockstep at which a lane's certificate or cap is due."""
        cap = self.config.max_iterations
        return min((joined + min(certify, cap)
                    for joined, certify in zip(self._joined, self._certify)), default=math.inf)

    def _regroup(self, wanted: dict) -> None:
        """Keep the running lanes that ``wanted`` names, with their betas
        and states, append its other lanes at the all-ones state, and lay
        the block out for the new lane count."""
        params = self.params
        rows = [k for k, key in enumerate(self._keys) if key in wanted and key not in self._ended]
        kept = [self._keys[k] for k in rows]
        joining = [key for key in wanted if key not in kept]
        self._keys = kept + joining
        self._betas = [self._betas[k] for k in rows] + [wanted[key] for key in joining]
        self._joined = [self._joined[k] for k in rows] + [self.locksteps] * len(joining)
        self._certify = [self._certify[k] for k in rows] + [_CERTIFY_FIRST] * len(joining)
        count, width = len(self._keys), params.L + params.w - 1
        block = np.zeros((_BLOCK + 1, params.w - 1 + 2 * count * width))
        sections = _sections(params, block)
        sections[0, :, :len(rows)] = self._sections[0][:, rows]
        sections[0, :, len(rows):] = 1.0
        pb = np.empty((_BLOCK + 1, count))
        pb[0] = [self._pb[0, k] for k in rows] + [1.0] * len(joining)
        self._rows, self._sections, self._pb = list(block), sections, pb
        # Lockstep j reads row j, writes row j + 1 and resets the zeros after
        # that row's lanes (an empty view at w = 1).
        pads = block[1:, params.w - 1:].reshape(_BLOCK, 2 * count, width)[:, :, params.L:]
        self._steps = list(zip(self._rows, self._rows[1:], [pad.fill for pad in pads]))
        self._step = _stepper(params, block.shape[1])
        self._p_sections = sections[1:, 0]
        self._neg_beta = _lane_betas(params, [-beta for beta in self._betas])
        self._next_check = self._check_at()

    def advance(self, wanted: dict) -> dict:
        """Run exactly the lanes that ``wanted`` = {key: beta} names: the
        others leave, and a key that is not running joins at the all-ones
        state (a lane that ended is not running).  Step every lane until at
        least one ends; return {key: DERun} for the lanes that ended.  A lane
        whose P_b rises raises ``NonMonotoneRun`` at that step, whichever
        lane it is."""
        self._regroup(wanted)
        step, steps, neg_beta, L = self._step, self._steps, self._neg_beta, self.params.L
        rows, sections, pb, p_sections = self._rows, self._sections, self._pb, self._p_sections
        count, next_check = len(self._keys), self._next_check
        stall_floor = self.stall_floor
        target = self.config.success_target
        low = np.minimum.reduce
        pb_next = pb[1:]
        start = t = self.locksteps
        while True:
            for x, x_next, reset in steps:
                step(neg_beta, x, x_next)
                reset(0.0)
            # Each P_b is the same pairwise sum as the 1-D reduce of the lane's
            # p, then one division.
            np.add.reduce(p_sections, axis=2, out=pb_next)
            pb_next /= L
            due = (low(pb[:-1] - pb_next, axis=1) <= stall_floor) | (low(pb_next, axis=1) < target)
            rows_due = iter(np.flatnonzero(due).tolist())
            end = t + _BLOCK
            # The next row the screen picked, or one past the block; the rules
            # run there or at the next certificate or cap, whichever is first.
            row = next(rows_due, _BLOCK) + 1
            while (at := min(t + row, next_check)) <= end:
                j = at - t
                self.locksteps = at
                ended = self._check(sections[j - 1], pb[j - 1].tolist(), sections[j],
                                    pb[j].tolist())
                if ended:
                    self.row_steps += (at - start) * count
                    self.discarded += end - at
                    rows[0][:], pb[0] = rows[j], pb[j]
                    self._ended = ended
                    return ended
                next_check = self._next_check
                while row <= j:
                    row = next(rows_due, _BLOCK) + 1
            rows[0][:], pb[0] = rows[_BLOCK], pb[_BLOCK]
            t = end

    def _check(self, lanes, pb, lanes_next, pb_next) -> dict:
        """Apply every lane's stop rules after this lockstep (see
        ``de_run``), given the (2, K, L) sections of its two states, which
        it reads and does not write.  Returns {key: DERun} for the lanes
        that end; a lane whose P_b rose raises ``NonMonotoneRun``."""
        config, t = self.config, self.locksteps
        due = [k for k, (joined, certify) in enumerate(zip(self._joined, self._certify))
               if t - joined == certify]
        certified = set()
        if due:
            found, candidates = _failure_certificates(
                self.params, [self._betas[k] for k in due], self.pb_floor,
                lanes[:, due], lanes_next[:, due])
            self.certificate_batches += candidates > 0
            self.certificate_candidates += candidates
            certified = {k for k, y in zip(due, found) if y is not None}
            for k in due:
                self._certify[k] = math.ceil(self._certify[k] * _CERTIFY_GROWTH)
        # The largest change of each lane over both halves: the stall test.
        change = np.maximum.reduce(np.abs(lanes_next - lanes), axis=(0, 2)).tolist()
        ended = {}
        for k, (key, joined) in enumerate(zip(self._keys, self._joined)):
            it = t - joined
            if pb_next[k] > pb[k] + 1e-12:
                raise NonMonotoneRun(f"P_b rose from {pb[k]} to {pb_next[k]} at iteration {it}")
            failed = k in certified or change[k] < config.fixed_point_tol
            decoded = pb_next[k] < config.success_target
            if decoded or failed or it == config.max_iterations:
                state = DEState(p=lanes_next[0, k].copy(), s=lanes_next[1, k].copy(), iteration=it)
                ended[key] = DERun(state=state, converged_to_zero=decoded,
                                   hit_iteration_cap=not (decoded or failed))
                self.retired += 1
        self._next_check = self._check_at()
        return ended


def _probes(params: EnsembleParams, config: DEConfig) -> _Lanes:
    """The engine that runs a bisection's probes: ``_lane_depth`` levels of
    lanes (see ``_LANE_BUDGET``).  It is the one place
    ``overhead_threshold`` gets its engine from, so an engine with the same
    methods can stand in for it."""
    return _Lanes(params, config, _lane_depth(params))


def _untested(lo: float, hi: float, tol: float, outcomes: dict, count: int) -> list:
    """The first ``count`` brackets below [lo, hi] whose midpoint the
    bisection may still probe and whose verdict is not in ``outcomes``,
    level by level.  A bracket whose verdict is in leads to one child only."""
    found, level = [], [(lo, hi)]
    while level and len(found) < count:
        below = []
        for a, b in level:
            while (a, b) in outcomes and b - a > tol:
                mid = 0.5 * (a + b)
                a, b = (a, mid) if outcomes[a, b].converged_to_zero else (mid, b)
            if b - a > tol:
                found.append((a, b))
                mid = 0.5 * (a + b)
                below += [(a, mid), (mid, b)]
        level = below
    return found[:count]


def _bisect(lo: float, hi: float, success_iters: int, tol: float, beta_of, probes):
    """Bisect [lo, hi] down to ``tol``; returns (lo, hi, success_iters).

    Whenever the bisection needs a verdict, the engine runs exactly the
    first 2^d - 1 untested midpoints below the bracket in the bisection
    tree, level by level (see ``_untested``), where d is ``probes.depth``:
    the probe at the bracket's midpoint and the look-ahead below it.  A
    verdict, on the path or off it, rules out half of its bracket, and the
    lanes in that half, which it makes moot, leave at the next ``advance``.
    Each verdict on the path moves the bracket as a plain bisection would,
    so the bracket walks through the same probes with the same verdicts as
    one probe at a time.  At most 2^d - 1 brackets lie in the first d
    levels, so a lane there runs until a verdict ends it or makes it moot;
    each probe on the path thus runs from its start to its verdict, and the
    locksteps never exceed the sequential bisection's steps.  A lane whose
    P_b rises raises ``NonMonotoneRun`` at once, on the path or off it.
    """
    lanes = 2 ** probes.depth - 1
    outcomes: dict = {}
    while hi - lo > tol:
        while (lo, hi) not in outcomes:
            wanted = _untested(lo, hi, tol, outcomes, lanes)
            outcomes.update(probes.advance({key: beta_of(0.5 * (key[0] + key[1]))
                                            for key in wanted}))
        run = outcomes[lo, hi]
        mid = 0.5 * (lo + hi)
        if run.converged_to_zero:
            hi = mid
            success_iters = run.state.iteration
        else:
            lo = mid
    return lo, hi, success_iters


def overhead_threshold(
    params: EnsembleParams,
    config: DEConfig = DEConfig(),
    upper: float = 1.0,
) -> ThresholdResult:
    """Bisection on alpha for the smallest decoding overhead.

    The bracket starts as [0, upper].  Zero overhead is probed first: at
    capacity it cannot decode, and if it does anyway the bracket is [0, 0]
    and there is nothing to bisect.  The upper end, capped at alpha = 10, is
    doubled (capped again) until it decodes; if the probe at alpha = 10 does
    not, ``NoSuccessInBracket`` says so, and whether that probe hit the
    iteration cap.  After bisection one spot probe below the bracket
    re-checks the monotonicity assumption.

    These probes are ``de_run`` calls.  The bisection's probes run as lanes
    of one lockstep DE batch (``_Lanes``, from ``_probes``): the probe at the
    midpoint runs together with the untested midpoints of the next levels
    of the bisection tree, up to 2^d - 1 lanes, where d is ``_lane_depth``
    (see ``_LANE_BUDGET``); a verdict drops the lanes it makes moot at the
    next ``_Lanes.advance`` (see ``_bisect``).  Each lane is bit-equal
    to ``de_run``, so the bisection probes the same alphas with the same
    verdicts as one ``de_run`` call at a time, and the result is the same
    to the bit.  The probe on the bisection's path steps at every lockstep,
    so the locksteps never exceed the steps of the sequential bisection.  A
    rise of P_b in any lane, a look-ahead lane's too, raises
    ``NonMonotoneRun`` at once, so no lane's fault stays silent.

    Every ensemble is searched alike, dg = 1 too, whose threshold stays
    above ``stability.dg1_overhead_bound``.
    """
    if not upper > 0.0:
        raise ValueError(f"the upper starting point must be > 0, got {upper}")

    def probe(alpha: float) -> DERun:
        return de_run(params, beta_from_alpha(params, alpha), config)

    lo = 0.0
    run = probe(lo)
    hi = lo if run.converged_to_zero else min(upper, _ALPHA_CAP)
    while not run.converged_to_zero:
        run = probe(hi)
        if not run.converged_to_zero:
            if hi >= _ALPHA_CAP:
                capped = (f"; the last probe hit the iteration cap of {config.max_iterations}"
                          if run.hit_iteration_cap else "")
                raise NoSuccessInBracket(
                    f"density evolution fails up to alpha = {hi:g} for {params}{capped}"
                )
            hi = min(2.0 * hi, _ALPHA_CAP)

    lo, hi, success_iters = _bisect(lo, hi, run.state.iteration, config.bisection_tol,
                                    lambda alpha: beta_from_alpha(params, alpha),
                                    _probes(params, config))

    alpha_star = 0.5 * (lo + hi)
    # Monotonicity spot check: a point clearly below the located bracket must
    # also fail (probing just above the bracket instead would sit in the
    # critically slow regime and stall spuriously).
    spot = alpha_star - max(0.02, 10.0 * config.bisection_tol)
    if spot > 0.0 and probe(spot).converged_to_zero:
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
                   upper: float = 1.0) -> None:
    """Fill ``row`` with the stability lower bounds, then the overhead
    threshold (bisection from [0, upper]) of ``params`` at L = ``row.L``.
    A failure propagates and leaves the fields already filled, so a row
    whose bisection raises keeps its lower bounds."""
    report = stability.threshold_lower_bounds(params)
    row.lower_bound_alpha = report.lower_bound_alpha
    row.lower_bound_beta = report.lower_bound_beta
    result = overhead_threshold(params, config, upper)
    row.alpha_star = result.alpha_star
    row.beta_star = result.beta_star
    row.iterations = result.iterations_at_threshold


def threshold_sweep(
    params: EnsembleParams,
    L_values,
    config: DEConfig = DEConfig(),
) -> list[SweepRow]:
    """Overhead thresholds and stability lower bounds over a grid of chain
    lengths.

    Rows are ordered by L, and each bisection warm-starts from the previous
    row: the threshold shrinks with L in every regime of interest, so the
    previous estimate (plus margin) is the fresh bracket's upper end.  Per-row
    failures (``NoSuccessInBracket``, ``NonMonotoneBracket``, and
    ``NonPositiveRate`` for an L too short for a positive design rate) land
    in the row's ``error`` field instead of aborting the sweep; any other
    exception propagates.  An empty grid or a repeated L raises
    ``ValueError`` before any row runs.
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
            fill_sweep_row(row, p_l, config, upper)
            prev_alpha = row.alpha_star
        except (NoSuccessInBracket, NonMonotoneBracket, NonPositiveRate) as exc:
            row.error = str(exc)
        rows.append(row)
    return rows
