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
kernel.  p and s lie end to end in one state vector, so one step is two
``np.correlate`` calls at w <= 2, one per average over both halves, and
every elementwise update runs once over both, in place in the arrays the
correlations return (the power once per half where dr != dg).  At w >= 3
the inner averages of p and s stay two correlations, whose results are laid
end to end for the rest of the step.  At L <= 512 a step's cost is numpy
call overhead, not arithmetic, so it allocates little beyond those arrays,
and every choice that depends only on the lane layout (the kernel, the
constant operands, the offsets, the powers, the branch and the clamp) is
bound once per layout into a stepper (``_stepper``), not made at every
step.  The run loop steps a block of ``_BLOCK`` steps before it looks at
any of them (see ``_Lanes``).

The correlations fix the summation order, but not every bit on every CPU.
``np.correlate`` takes the first and last w - 1 entries of a full average
from the BLAS dot product and the others from numpy's own unfused loop.
OpenBLAS's Haswell ``ddot`` fuses a multiply-add: at w = 3, all of 2,000
sampled right-edge entries a k + b k equal fma(b, k, a k), and only 1,722
equal the unfused sum.  So the bits of a step at w >= 3 (the recorded runs
at w = 3 and 9 in the tests, for one) are those of this BLAS kernel.  At
w <= 2 every edge entry is a single product, which rounds the same in
either loop.  So p and s share their inner average, and a bisection runs
several DE runs as lanes of one correlation (``_Lanes``), only at w <= 2.
An outer (valid) average has no edge entries: every entry sums w terms in
the same loop, so at any w it serves both halves at once.

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
    [0, 1]: whether any entry of its full correlation with ones exceeds one."""
    kernel = np.full(w, 1.0 / w)
    kernel.flags.writeable = False
    return kernel, bool(np.any(np.correlate(np.ones(w), kernel, "full") > 1.0))


def de_step(params: EnsembleParams, beta: float, p: np.ndarray, s: np.ndarray):
    """One synchronous density-evolution update of the per-section erasure
    probabilities p and s; returns the next (p, s) as new arrays and leaves
    its inputs unchanged.

    The states must lie in [0, 1].  Beta must be finite and >= 0, else
    ``ValueError``, as in ``de_run``; the outputs then lie in [0, 1] too, so
    iterating from the all-ones start (as ``de_run`` does) keeps the
    contract.  The upper clamp is applied only at widths whose kernel sums
    can round past one, so outside the contract the outputs may exceed one.

    The step is the one a ``_stepper`` takes for a lone lane of ``_Lanes``,
    with p and s laid out as there, so this function pins the bits of every
    DE step: the tests check each lane of every layout against it.  At
    w >= 3 the bits depend on the BLAS library: a full average's first and
    last w - 1 entries come from its dot product, which may fuse a
    multiply-add (OpenBLAS's Haswell ``ddot`` does), and the other entries
    from numpy's unfused loop (see the module docstring).
    """
    if len(p) != params.L or len(s) != params.L:
        raise ValueError(f"p and s need {params.L} sections, got {len(p)} and {len(s)}")
    _check_beta(beta)
    x = np.zeros((2, params.L + params.w - 1 if _stackable(params) else params.L))
    x[0, :params.L], x[1, :params.L] = p, s
    out = _stepper(params, x.size)(-beta, x.ravel()).reshape(x.shape)
    return out[0, :params.L], out[1, :params.L]


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


@functools.lru_cache(maxsize=64)
def _stepper(params: EnsembleParams, size: int):
    """The update of ``de_step`` on a flat state of ``size`` elements, laid
    out as the state of ``_Lanes``: the K p-lanes, then the K s-lanes, each
    L sections and then its zeros.  Returns ``step(neg_beta, x, out=None)``,
    which writes the next state, with that layout, into ``out`` (a new array
    if None) and returns it; the caller must reset its zeros.  ``neg_beta``
    is -beta, or one -beta per element of a half.  A state of another
    length raises ValueError: it cannot broadcast against the step's
    operands, which have this layout's lengths.

    Every choice that depends only on the layout is made here, once: the
    kernel, the constant operands, the offsets of the halves, the powers,
    which inner average the step takes and whether it clamps.  The step
    itself makes only the numpy calls.  Its constants (ones, 1 - eps and
    the clamp's bound) are arrays, which a ufunc converts once, where it
    converts a Python float on every call; the bits are the same.

    At w <= 2 (``_stackable``) one full and one valid correlation serve
    both halves.  A full entry there is one product or the sum of two.  A
    sum of two nonzero products lies inside a lane, where every layout
    takes it from numpy's loop; any other entry is one product plus at most
    a zero product, which rounds the same in either loop.  So every entry
    has the bits it has in a half's own correlation, but the one that
    straddles the halves: it adds a zero product to s's first product, so
    it equals s's first entry, and as p's entry it reaches only the last
    p-lane's last zero.  At w >= 3 each half has its own full correlation,
    for its BLAS edge bits, and the valid one drops the w - 1 entries
    between the halves.  The power is one call over both halves where
    dr == dg, else one per half.
    """
    kernel, clamp = _kernel(params.w)
    n, w, dl = size // 2, params.w, params.dl
    stackable = _stackable(params)
    # A half shorter than the kernel goes second and reversed, the operand
    # order ``np.convolve`` takes there, so every sum runs in the order it
    # did with ``np.convolve``.
    reverse = not stackable and n < w
    inner = size + w - 1 if stackable else size + 2 * (w - 1)
    ones_y, ones_n, keep, one = (np.ones(inner), np.ones(n),
                                 np.array(1.0 - params.epsilon), np.array(1.0))
    p_half, s_half, gf_half = slice(None, n), slice(n, None), slice(-n, None)
    p_in, s_in = (slice(n - 1, None, -1), slice(None, n - 1, -1)) if reverse else (p_half, s_half)
    p_y, s_y = slice(None, inner // 2), slice(inner // 2, None)
    same_power, dr_power, dg_power = params.dr == params.dg, params.dr - 1, params.dg - 1
    correlate, concatenate, subtract, multiply, exp, minimum, empty = (
        np.correlate, np.concatenate, np.subtract, np.multiply, np.exp, np.minimum, np.empty)

    def step(neg_beta, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Inner average per check/channel section (zero-extended), then the
        # outer average back onto bit sections.  The elementwise updates
        # write into the arrays the correlations return.
        if stackable:
            y = correlate(x, kernel, "full")
        elif reverse:
            y = concatenate((correlate(kernel, x[p_in], "full"),
                             correlate(kernel, x[s_in], "full")))
        else:
            y = concatenate((correlate(x[p_in], kernel, "full"),
                             correlate(x[s_in], kernel, "full")))
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
        a, gf = outer[p_half], outer[gf_half]
        subtract(ones_n, gf, out=gf)
        gf *= neg_beta
        exp(gf, out=gf)
        if out is None:
            out = empty(size)
        # a ** 1 is a, so dl = 2 needs no power for p.
        multiply(a if dl == 2 else a ** (dl - 1), gf, out=out[p_half])
        a **= dl
        multiply(a, gf, out=out[s_half])
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


def _stackable(params: EnsembleParams) -> bool:
    """Whether a full average over states laid end to end, with w - 1 zeros
    after each, gives each state the bits it gets alone: then p and s share
    one (see ``_stepper``), and so do the lanes of ``_Lanes``.

    At w <= 2 every entry of a flat full average that touches a state's
    edge is a single product, or one plus a zero product, which rounds the
    same in either loop.  At w >= 3 the entries at the inner edges would
    come from numpy's unfused loop, where a state alone takes them from the
    BLAS dot product, which may fuse (see ``de_step``)."""
    return params.w <= 2


def _failure_certificates(params: EnsembleParams, betas: list, pb_floor: float,
                          prev: np.ndarray, cur: np.ndarray):
    """Try the failure certificate (see ``de_run``) of D runs at once.

    ``prev`` and ``cur`` are (2, D, L) arrays of the runs' last two states,
    p above s, and ``betas`` the runs' betas.  Returns per run a state
    (p_y, s_y) that proves it never decodes, or None; then the number of
    steps taken and of candidates stepped.

    The candidates of every slope are built as one block, with the bits of
    one slope at a time.  Those whose P_b is at least ``pb_floor`` are
    stepped by a ``_stepper`` for their layout: in one step, laid out as the
    lanes of ``_Lanes``, where ``_stackable``, else one at a time as
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
        return found, 0, 0
    neg_beta = -np.array(betas)[run]
    margin = np.array([_margin(params, beta) for beta in betas])[run, None]
    if _stackable(params):
        flat = np.zeros((2, count, L + params.w - 1))
        flat[:, :, :L] = y
        f = _stepper(params, flat.size)(np.repeat(neg_beta, flat.shape[2]), flat.ravel())
        f, batches = f.reshape(flat.shape)[:, :, :L], 1
    else:
        step = _stepper(params, 2 * L)
        f = np.array([step(neg_beta[j], y[:, j].ravel()) for j in range(count)])
        f, batches = f.reshape(count, 2, L).swapaxes(0, 1), count
    for j in np.flatnonzero(np.all(f >= y + margin, axis=(0, 2))):
        if found[run[j]] is None:
            found[run[j]] = (y[0, j], y[1, j])
    return found, batches, count


def de_run(params: EnsembleParams, beta: float, config: DEConfig = DEConfig()) -> DERun:
    """Iterate from the all-ones start until the mean erasure probability
    drops below the success target, the run fails, or the iteration cap.
    Every step's P_b is computed, and a rise by over 1e-12 raises
    ``NonMonotoneRun``.  The run is one lane of ``_Lanes``, which applies
    these stop rules after each block of steps at the step where they fire,
    so the run ends there as if they ran at every step.

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
    _check_beta(beta)
    lanes = _Lanes(params, config, 1)
    lanes.start(None, beta)
    run = lanes.advance()[None]
    if isinstance(run, NonMonotoneRun):
        raise run
    return run


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
# message type, p and s.  A bisection runs the largest K = 2^d - 1 lanes, at
# most 15, that fit this budget: a lockstep's cost grows with that vector
# and the lane count, while each added level saves fewer locksteps.
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
# locksteps do not pay.  At w = 2 the budget gives 15 lanes up to
# L = 119, 7 up to 256, 3 up to 599, then one lane at a time.  A block of
# ``_BLOCK`` + 1 such vectors then takes at most 2 * 17 * 1800 * 8 bytes,
# 0.49 MB.
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
    ``_LANE_BUDGET``, and 1 where lanes are not ``_stackable`` (w >= 3)."""
    if not _stackable(params):
        return 1
    lane = params.L + params.w - 1
    depth = 1
    while depth < _MAX_LANE_DEPTH and (2 ** (depth + 1) - 1) * lane <= _LANE_BUDGET:
        depth += 1
    return depth


class _Lanes:
    """DE runs of one ensemble at several betas in lockstep, each bit-equal
    to a run alone at its beta, and the one owner of their stop rules (see
    ``de_run``).  ``de_run`` is one lane; several run together only where
    ``_stackable`` (w <= 2).

    The state of K lanes is one flat vector of 2K (L + w - 1) elements:
    the K p-lanes, then the K s-lanes, each lane's L sections and then
    w - 1 zeros, so one correlation serves every lane of both halves (see
    ``_stepper``).  A lone lane keeps its zeros at w <= 2 and runs with none
    at w >= 3; either way its step is ``de_step``'s.  Beside its key, each
    lane keeps its beta, the lockstep it joined at and the iteration of its
    next failure certificate.  The stall floor and the P_b floor depend only
    on L and the config, so the engine holds one of each.

    The lanes step ``_BLOCK`` locksteps at a time in a buffer of
    ``_BLOCK`` + 1 such vectors, which the engine owns: row 0 holds the
    state, and each step writes the next row (the step's ``out``), whose
    zeros are then reset through a view made when the lanes were laid out.
    Laying the lanes out (``_Lanes._regroup``) fetches the stepper and
    lists each lockstep's row, next row and zero reset, so a lockstep is
    one step call and one fill.
    One ``np.add.reduce`` over the block's (``_BLOCK``, K, L) view of p then
    gives every step's P_b, each with the bits of the 1-D reduce of its
    lane's p.  The stop rules run only after a lockstep where one could
    stop some lane: where some lane's P_b fell by no more than
    ``stall_floor`` (a rise is a fall below zero) or fell below the success
    target, or where some lane's certificate or cap is due.  Elsewhere no
    rule can stop a lane, since a fall above the floor rules out a stall.
    That screen runs once per block on (``_BLOCK``, K) arrays; then the
    rules run at each lockstep it picked, in order, on that lockstep's two
    rows, as they would if the lanes stepped one lockstep at a time.  Once
    a lane ends at row j, the rows after j are thrown away and row j becomes
    the state.  The failure certificates of every lane due at a lockstep are
    tried together, before any stall test overwrites a lane's previous state
    (``_failure_certificates``: one step at w <= 2).

    A lane joins with ``start`` at the all-ones state and leaves when it
    ends or is stopped.  ``locksteps``, ``row_steps`` and ``retired`` count
    the locksteps up to the last stop, the lane steps and the lanes that
    ended on a verdict; ``discarded`` counts the locksteps stepped past a
    stop and thrown away.  ``certificate_batches`` and
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
        self._rows, self._width = [np.empty(0)], params.L
        self._step, self._steps = None, []
        self._pb = np.empty((1, 0))
        self._p_sections = np.empty((0, 0, 0))
        self._neg_beta = np.empty(0)
        self._next_check = math.inf
        self._joining: dict = {}
        self._leaving: set = set()

    def keys(self) -> list:
        """The keys of the lanes that run or will join."""
        return [key for key in self._keys if key not in self._leaving] + list(self._joining)

    def start(self, key, beta: float) -> None:
        """A lane at ``beta`` joins before the next lockstep; ``key`` must
        not be one of ``keys()``."""
        self._joining[key] = beta

    def stop(self, key) -> None:
        if self._joining.pop(key, None) is None:
            self._leaving.add(key)

    def _check_at(self) -> float:
        """The first lockstep at which a staying lane's certificate or cap
        is due."""
        cap = self.config.max_iterations
        return min((joined + min(certify, cap) for key, joined, certify
                    in zip(self._keys, self._joined, self._certify)
                    if key not in self._leaving), default=math.inf)

    def _regroup(self) -> None:
        """Drop the lanes that left, append the joining ones at the all-ones
        state, and lay the block out for the new lane count."""
        L, joining = self.params.L, self._joining
        rows = [k for k, key in enumerate(self._keys) if key not in self._leaving]
        self._keys = [self._keys[k] for k in rows] + list(joining)
        self._betas = [self._betas[k] for k in rows] + list(joining.values())
        self._joined = [self._joined[k] for k in rows] + [self.locksteps] * len(joining)
        self._certify = [self._certify[k] for k in rows] + [_CERTIFY_FIRST] * len(joining)
        count = len(self._keys)
        width = L + self.params.w - 1 if _stackable(self.params) or count > 1 else L
        block = np.zeros((_BLOCK + 1, 2, count, width))
        block[0, :, :len(rows), :L] = self._rows[0].reshape(2, -1, self._width)[:, rows, :L]
        block[0, :, len(rows):, :L] = 1.0
        pb = np.empty((_BLOCK + 1, count))
        pb[0] = [self._pb[0, k] for k in rows] + [1.0] * len(joining)
        self._rows, self._width, self._pb = list(block.reshape(_BLOCK + 1, -1)), width, pb
        # Lockstep j reads row j, writes row j + 1 and resets that row's
        # zeros (an empty view where width == L).
        pads = block.reshape(_BLOCK + 1, 2 * count, width)[1:, :, L:]
        self._steps = list(zip(self._rows, self._rows[1:], [pad.fill for pad in pads]))
        self._step = _stepper(self.params, self._rows[0].size)
        self._p_sections = block[1:, 0, :, :L]
        self._neg_beta = np.repeat([-beta for beta in self._betas], width)
        self._joining, self._leaving = {}, set()
        self._next_check = self._check_at()

    def advance(self) -> dict:
        """Step every lane until at least one ends; return {key: DERun} for
        the lanes that ended, or the ``NonMonotoneRun`` a lane raised."""
        if self._joining or self._leaving:
            self._regroup()
        step, steps, neg_beta, L = self._step, self._steps, self._neg_beta, self.params.L
        rows, pb, p_sections = self._rows, self._pb, self._p_sections
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
                ended = self._check(rows[j - 1], pb[j - 1].tolist(), rows[j], pb[j].tolist())
                if ended:
                    self.row_steps += (at - start) * count
                    self.discarded += end - at
                    rows[0][:], pb[0] = rows[j], pb[j]
                    return ended
                next_check = self._next_check
                while row <= j:
                    row = next(rows_due, _BLOCK) + 1
            rows[0][:], pb[0] = rows[_BLOCK], pb[_BLOCK]
            t = end

    def _check(self, x, pb, x_next, pb_next) -> dict:
        """Apply every lane's stop rules after this lockstep (see
        ``de_run``); the lanes that end leave, and their outcomes are
        returned.  The stall test overwrites a lane's state in ``x``, which
        is dead once stepped from."""
        config, L, t, width = self.config, self.params.L, self.locksteps, self._width
        lanes, lanes_next = x.reshape(2, -1, width), x_next.reshape(2, -1, width)
        due = [k for k, (joined, certify) in enumerate(zip(self._joined, self._certify))
               if t - joined == certify]
        certified = set()
        if due:
            found, batches, candidates = _failure_certificates(
                self.params, [self._betas[k] for k in due], self.pb_floor,
                lanes[:, due, :L], lanes_next[:, due, :L])
            self.certificate_batches += batches
            self.certificate_candidates += candidates
            certified = {k for k, y in zip(due, found) if y is not None}
            for k in due:
                self._certify[k] = math.ceil(self._certify[k] * _CERTIFY_GROWTH)
        ended = {}
        for k, (key, joined) in enumerate(zip(self._keys, self._joined)):
            it = t - joined
            if pb_next[k] > pb[k] + 1e-12:
                ended[key] = NonMonotoneRun(f"P_b rose from {pb[k]} to {pb_next[k]} "
                                            f"at iteration {it}")
                self._leaving.add(key)
                continue
            lane, lane_next = lanes[:, k, :L], lanes_next[:, k, :L]
            failed = k in certified
            if not failed and pb[k] - pb_next[k] <= self.stall_floor:
                np.abs(np.subtract(lane_next, lane, out=lane), out=lane)
                failed = float(np.maximum.reduce(lane, axis=None)) < config.fixed_point_tol
            decoded = pb_next[k] < config.success_target
            if decoded or failed or it == config.max_iterations:
                state = DEState(p=lane_next[0].copy(), s=lane_next[1].copy(), iteration=it)
                ended[key] = DERun(state=state, converged_to_zero=decoded,
                                   hit_iteration_cap=not (decoded or failed))
                self._leaving.add(key)
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
    level by level.  A bracket whose verdict is in leads to one child only;
    one that raised leads nowhere."""
    found, level = [], [(lo, hi)]
    while level and len(found) < count:
        below = []
        for a, b in level:
            while (a, b) in outcomes and b - a > tol and isinstance(outcomes[a, b], DERun):
                mid = 0.5 * (a + b)
                a, b = (a, mid) if outcomes[a, b].converged_to_zero else (mid, b)
            if b - a > tol and (a, b) not in outcomes:
                found.append((a, b))
                mid = 0.5 * (a + b)
                below += [(a, mid), (mid, b)]
        level = below
    return found[:count]


def _bisect(lo: float, hi: float, success_iters: int, tol: float, beta_of, probes):
    """Bisect [lo, hi] down to ``tol``; returns (lo, hi, success_iters).

    The probe at the bracket's midpoint runs together with the untested
    midpoints below it in the bisection tree, level by level (see
    ``_untested``), up to 2^``probes.depth`` - 1 at a time.  Each verdict on
    the path moves the bracket as a plain bisection would and stops every
    probe whose bracket no longer lies inside it.  So the bracket walks
    through the same probes with the same verdicts as one probe at a time,
    and the probe on that path steps at every lockstep.  A probe that raised
    ``NonMonotoneRun`` raises it only once it is on the path.
    """
    lanes = 2 ** probes.depth - 1
    outcomes: dict = {}
    while hi - lo > tol:
        if (lo, hi) not in outcomes:
            running = set(probes.keys())
            for key in _untested(lo, hi, tol, outcomes, lanes):
                if len(running) >= lanes:
                    break
                if key not in running:
                    probes.start(key, beta_of(0.5 * (key[0] + key[1])))
                    running.add(key)
            outcomes.update(probes.advance())
            continue
        run = outcomes.pop((lo, hi))
        if isinstance(run, NonMonotoneRun):
            raise run
        mid = 0.5 * (lo + hi)
        if run.converged_to_zero:
            hi = mid
            success_iters = run.state.iteration
        else:
            lo = mid
        for key in probes.keys():
            if not lo <= key[0] < key[1] <= hi:
                probes.stop(key)
        outcomes = {key: run for key, run in outcomes.items() if lo <= key[0] < key[1] <= hi}
    return lo, hi, success_iters


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
    doubled (capped again) until it decodes; if the probe at alpha = 10 does
    not, ``NoSuccessInBracket`` says so, and whether that probe hit the
    iteration cap.  After bisection one spot probe below the bracket
    re-checks the monotonicity assumption.

    These probes are ``de_run`` calls.  The bisection's probes run as lanes
    of one lockstep DE batch (``_Lanes``, from ``_probes``): the probe at the
    midpoint runs together with the untested midpoints of the next levels
    of the bisection tree, up to 2^d - 1 lanes, where d is ``_lane_depth``
    (see ``_LANE_BUDGET``; d = 1 at w >= 3).  Each lane is bit-equal to
    ``de_run``, and a verdict stops every lane it makes moot, so the
    bisection probes the same alphas with the same verdicts as one
    ``de_run`` call at a time, and the result is the same to the bit.  The
    probe on the bisection's path steps at every lockstep, so the locksteps
    never exceed the steps of the sequential bisection.
    """
    if params.dg == 1 and not allow_dg1:
        raise ValueError(
            "dg = 1 cannot reach capacity and is excluded from the threshold "
            "search by default; pass allow_dg1=True to analyze it anyway"
        )
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
