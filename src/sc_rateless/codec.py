"""Finite-length realization of the coupled rateless code.

Samples a member of the coupled precode ensemble, encodes information bits
through a systematic form computed once per graph by GF(2) forward
elimination (echelon rows, one triangular solve per codeword),
draws the endless channel-node stream truncated at n received symbols over
BEC(eps), and runs the peeling decoder (sum-product reduces to iterative
erasure filling on the BEC).  The Monte Carlo harness aggregates decoding
trials over an overhead grid to cross-validate density evolution; a trial
whose socket matching cannot be conditioned is counted as a trial error, and
any other exception propagates to the caller.

Sampling convention: bit sections live in [0, L-1]; sections within w-1 of
either end of the chain are shortened (known zero, not transmitted) and
their stubs pre-fill boundary check sockets.  Each section's M*dl edge stubs
are dealt to the w forward offsets in equal shares (plus/minus one when w
does not divide M*dl), so every one of the L+w-1 check sections receives
exactly M*dl stubs for its M*dl sockets and socket matching is a single
permutation per section.  Check section c holds checks
[c*M*dl/dr, (c+1)*M*dl/dr), so the graph stores only the CSR of check
supports.  Conditioning leaves no check with a repeated bit, so a stored
support is its check's distinct in-chain bits.  A channel node may
reference a bit twice; the decoder folds such references out mod 2.
Shortened references carry known zeros and are dropped from both.
"""
from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gf2
from .ensemble import EnsembleParams, design_rate


class InvalidM(ValueError):
    """M violates the divisibility/size preconditions of the sampler."""


class ConditioningFailed(InvalidM):
    """The sampled socket matching kept a repeated bit or (for dl = 2) a
    repeated check pair through every conditioning round; M is too small
    for the ensemble."""


CONDITIONING_ROUNDS = 200


@dataclass(eq=False)
class PrecodeGraph:
    """A sampled coupled precode: the CSR of check supports over the L*M
    in-chain bits.  A support holds the check's distinct in-chain bits in
    increasing order; shortened references are not stored, so its length is
    the check's count of in-chain stubs.  Check q lies in check section
    q // (M*dl/dr)."""

    params: EnsembleParams
    M: int
    check_indptr: np.ndarray
    check_indices: np.ndarray

    @property
    def num_bits(self) -> int:
        return self.params.L * self.M

    @property
    def num_checks(self) -> int:
        return len(self.check_indptr) - 1

    def design_dimension(self) -> int:
        """Nominal information size k = R(L) * L * M, rounded to an integer."""
        return round(design_rate(self.params) * self.num_bits)

    @functools.cached_property
    def _systematic_form(self):
        """(echelon rows, pivot columns, free columns) of the checks.

        The rows are ``gf2.rref``'s: forward elimination only, in ascending
        pivot order and each aligned at its pivot, since each ``encode``
        solves for one codeword and a reduced form would back-substitute the
        whole basis.
        """
        rows, lows = gf2.rows_from_support(self.check_indptr, self.check_indices, self.num_bits)
        echelon, pivots = gf2.rref(rows, self.num_bits, lows)
        is_pivot = np.zeros(self.num_bits, dtype=bool)
        is_pivot[pivots] = True
        free = np.flatnonzero(~is_pivot)
        return echelon, pivots, free

    def realized_dimension(self) -> int:
        """Actual code dimension L*M - rank; exceeds the design k by the
        rank deficiency of the sampled graph."""
        return self.num_bits - len(self._systematic_form[1])

    def syndrome_weight(self, bits: np.ndarray) -> int:
        """Number of violated precode checks for a full bit assignment.
        Raises ValueError unless ``bits`` holds exactly one entry per bit."""
        bits = np.asarray(bits)
        if bits.shape != (self.num_bits,):
            raise ValueError(
                f"bits must have length {self.num_bits}, got shape {bits.shape}"
            )
        edge_check = np.repeat(np.arange(self.num_checks), np.diff(self.check_indptr))
        parities = np.bincount(
            edge_check, weights=bits[self.check_indices], minlength=self.num_checks
        ).astype(np.int64) & 1
        return int(parities.sum())


def _repeat_sockets(values, dr, ties=None):
    """Positions whose value (>= 0) also sits on another position of the
    same row of dr, all but the first of each such value in (tie, position)
    order; listed in (row, value, tie, position) order.  ``ties``, of the
    shape of ``values``, ranks equal values when given.

    Rows with a repeat are found by dr*(dr-1)/2 column comparisons; only
    those rows are sorted.
    """
    rows = values.reshape(-1, dr)
    repeats = np.zeros(len(rows), dtype=bool)
    for i in range(1, dr):
        real = rows[:, i] >= 0
        for j in range(i):
            repeats |= (rows[:, i] == rows[:, j]) & real
    flagged = np.flatnonzero(repeats)
    keys = (rows[flagged],)
    if ties is not None:
        keys = (ties.reshape(-1, dr)[flagged],) + keys
    order = np.lexsort(keys, axis=1)
    ordered = np.take_along_axis(keys[-1], order, axis=1)
    dup = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    return (flagged[:, None] * dr + order)[:, 1:][dup]


def _check_sockets(sockets, dr, num_checks):
    """Every socket of each check that holds one of ``sockets``, check by
    check: check q owns the dr consecutive sockets [q*dr, (q+1)*dr)."""
    hit = np.zeros(num_checks, dtype=bool)
    hit[sockets // dr] = True
    return (np.flatnonzero(hit)[:, None] * dr + np.arange(dr)).reshape(-1)


def _double_edge_sockets(sock_bit, dr, swapped=None):
    """Sockets whose bit already sits on an earlier socket of the same check,
    in (check, bit, socket) order.

    With ``swapped``, the sockets swapped since the last scan, only their
    checks are scanned: a repeat elsewhere would have been there, and
    flagged, at the last scan, and its flagged socket was swapped.
    """
    if swapped is None:
        return _repeat_sockets(sock_bit, dr)
    sockets = _check_sockets(swapped, dr, sock_bit.size // dr)
    return sockets[_repeat_sockets(sock_bit[sockets], dr)]


def _parallel_pair_sockets(sock_bit, pairs, dr, swapped=None):
    """One socket per surplus bit sharing an identical check pair, in
    (check pair, bit) order; the socket is the bit's first one.

    ``pairs`` is the socket table: row b holds bit b's two sockets, lower
    first (see ``_socket_pairs``).  Two bits share their check pair exactly
    when their lower sockets lie in one check and their upper sockets in
    another, so each lower socket is labelled with its partner's check
    (every other socket with -1) and the labels go through the same column
    comparisons as ``_double_edge_sockets``; only the flagged checks are
    sorted, by (partner check, bit).

    With ``swapped``, the sockets swapped since the last scan, only the
    checks holding the lower socket of a bit now on one of them are
    scanned: a shared pair elsewhere would have been flagged at the last
    scan, and its surplus bit's socket swapped.

    Only meaningful for dl = 2, where such pairs defeat even ML decoding
    unless a channel node happens to split them.
    """
    if swapped is None:
        partner_check = np.full(sock_bit.size, -1, dtype=np.int64)
        partner_check[pairs[:, 0]] = pairs[:, 1] // dr
        return _repeat_sockets(partner_check, dr, ties=sock_bit)
    moved = sock_bit[swapped]
    sockets = _check_sockets(pairs[moved[moved >= 0], 0], dr, sock_bit.size // dr)
    bits = sock_bit[sockets]
    # Filler (-1) reads the last bit's row, whose lower socket is real, so
    # never equal to the filler's socket.
    lower, upper = pairs[bits].T
    partner_check = np.where(lower == sockets, upper // dr, -1)
    return sockets[_repeat_sockets(partner_check, dr, ties=bits)]


def _socket_pairs(sock_stub, num_bits, dl):
    """The socket table of a fresh matching (None unless dl = 2): row b
    holds the two sockets of bit b, lower first.  ``sock_stub`` gives each
    socket's stub id, or -1 for filler, where stub k belongs to bit k // dl;
    one scatter of the sockets by stub id lists every bit's sockets without
    a sort."""
    if dl != 2:
        return None
    # The extra last slot takes the filler sockets' writes.
    by_stub = np.empty(2 * num_bits + 1, dtype=np.int64)
    by_stub[sock_stub] = np.arange(sock_stub.size)
    pairs = by_stub[:-1].reshape(num_bits, 2)
    lower = np.minimum(pairs[:, 0], pairs[:, 1])
    np.maximum(pairs[:, 0], pairs[:, 1], out=pairs[:, 1])
    pairs[:, 0] = lower
    return pairs


def _move_socket(pairs, bit, old, new):
    """Bit ``bit`` (skipped when filler, -1) moves from socket ``old`` to
    ``new``; keeps its socket-table row lower first."""
    if bit < 0:
        return
    lower, upper = pairs[bit]
    other = upper if lower == old else lower
    pairs[bit] = (other, new) if other < new else (new, other)


def _condition_matching(sock_bit, pairs, stubs, dl, dr, rng):
    """Swap stubs (within their check section) until no check repeats a bit
    and, for dl = 2, no two bits share the same pair of checks.

    Repeated bits cancel mod 2 (leaving dl = 2 bits disconnected from the
    precode) and identical check pairs are undecodable two-bit cores, so the
    socket matching is conditioned to exclude both, as usual in finite-length
    constructions.  Each round re-draws the sockets of the first scan that
    finds any: repeated bits, then (dl = 2 only, once none repeat) surplus
    bits on a shared check pair.  Swaps stay inside one section and
    preserve its stub multiset, so degrees and socket counts are untouched;
    check section c owns sockets [c*stubs, (c+1)*stubs).

    ``pairs`` is the socket table of ``_socket_pairs`` (None unless
    dl = 2).  A swap moves at most two bits, and their rows are updated in
    place, so the table stays current without a rebuild.  Each scan after
    the first of its kind looks only where the swaps since its last run can
    have made a repeat or a shared pair, and finds what a full scan finds.
    Raises ConditioningFailed if the matching is still bad after the last
    round.
    """
    # The sockets swapped since the last scan of each kind; None scans every
    # check.
    edge_swapped = pair_swapped = None
    for round_ in range(CONDITIONING_ROUNDS + 1):
        bad = _double_edge_sockets(sock_bit, dr, edge_swapped)
        if bad.size == 0 and dl == 2:
            bad = _parallel_pair_sockets(sock_bit, pairs, dr, pair_swapped)
            pair_swapped = bad[:0]  # no swap since this scan
        if bad.size == 0:
            return
        if round_ == CONDITIONING_ROUNDS:
            break
        partners = []
        for socket in bad:
            partner = socket // stubs * stubs + int(rng.integers(stubs))
            bit, other = sock_bit[socket], sock_bit[partner]
            sock_bit[socket], sock_bit[partner] = other, bit
            if pairs is not None and bit != other:
                _move_socket(pairs, bit, socket, partner)
                _move_socket(pairs, other, partner, socket)
            partners.append(partner)
        edge_swapped = np.concatenate([bad, partners])
        if pair_swapped is not None:
            pair_swapped = np.concatenate([pair_swapped, edge_swapped])
    raise ConditioningFailed(
        f"{bad.size} sockets still repeat a bit or a check pair after "
        f"{CONDITIONING_ROUNDS} swap rounds; M = {stubs // dl} is too small "
        "for this ensemble"
    )


def sample_precode(params: EnsembleParams, M: int, seed) -> PrecodeGraph:
    """Draw one member of the coupled precode ensemble.

    Requires dr | M*dl (integral check count per section) and M >= dr.
    Raises ConditioningFailed when the socket matching cannot be conditioned
    (common at M = dr, not seen from M = 2*dr for the (2, 3) ensemble).

    The draws permute stub ids, where stub k of the section's M*dl belongs
    to bit k // dl.  A permutation or shuffle makes the same swaps whatever
    the values, so this is the matching that permuting repeated bit ids
    gives, and the stub ids also yield every bit's sockets (the socket
    table of ``_socket_pairs``) without a sort.
    """
    dl, dr, L, w = params.dl, params.dr, params.L, params.w
    if (M * dl) % dr != 0:
        raise InvalidM(f"M*dl = {M * dl} must be divisible by dr = {dr}")
    if M < dr:
        raise InvalidM(f"M = {M} must be at least dr = {dr}")
    rng = np.random.default_rng(seed)
    stubs = M * dl
    cps = stubs // dr
    num_bits = L * M
    shares = np.full(w, stubs // w, dtype=np.int64)
    shares[: stubs % w] += 1
    bounds = np.concatenate(([0], np.cumsum(shares)))

    # Section s's stub ids, in a random order, are dealt to check sections
    # s..s+w-1: check section c takes columns [bounds[j], bounds[j+1]) of
    # section c-j for each offset j and permutes them.  Columns whose section
    # c-j lies off the chain hold shortened filler (-1: occupies sockets,
    # carries a known zero).  Check section c owns sockets
    # [c*stubs, (c+1)*stubs), dr per check node, so check q owns [q*dr, (q+1)*dr).
    num_sections = L + w - 1
    num_checks = num_sections * cps
    layout = np.full((num_sections, stubs), -1, dtype=np.int64)
    for s in range(L):
        stub_ids = rng.permutation(np.arange(s * stubs, (s + 1) * stubs))
        for j in range(w):
            cols = slice(bounds[j], bounds[j + 1])
            layout[s + j, cols] = stub_ids[cols]
    for row in layout:
        rng.shuffle(row)
    sock_stub = layout.reshape(-1)
    pairs = _socket_pairs(sock_stub, num_bits, dl)
    sock_bit = np.floor_divide(sock_stub, dl, out=sock_stub)  # filler stays -1

    _condition_matching(sock_bit, pairs, stubs, dl, dr, rng)

    # Check q owns sockets [q*dr, (q+1)*dr) and conditioning left no check
    # repeating a bit, so each check's sockets, sorted, are its filler (-1)
    # and then its support.
    supports = np.sort(sock_bit.reshape(num_checks, dr), axis=1)
    real = supports >= 0
    check_indices = supports[real]
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(real, axis=1))))
    return PrecodeGraph(
        params=params,
        M=M,
        check_indptr=indptr,
        check_indices=check_indices,
    )


def encode(graph: PrecodeGraph, info_bits) -> np.ndarray:
    """Map info bits onto a precode codeword (all check sums zero mod 2).

    ``info_bits`` must have the realized dimension of the sampled graph; the
    free positions of the systematic form carry them and the pivot positions
    are solved for in two stages: one parity of the free bits per echelon
    row (``gf2.dot_rows``), then a triangular solve in descending pivot
    order (``gf2.solve_pivots``).  The free bits fix the pivot bits, so the
    codeword is the one that a fully reduced form gives.
    """
    echelon, pivots, free = graph._systematic_form
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.shape != (len(free),):
        raise ValueError(
            f"expected {len(free)} info bits (realized dimension), got shape {info_bits.shape}"
        )
    x = np.zeros(graph.num_bits, dtype=np.uint8)
    x[free] = info_bits & 1
    # Each echelon row reads x[pivot] + its later pivot bits + its free bits = 0.
    x[pivots] = gf2.solve_pivots(
        echelon, pivots, gf2.dot_rows(echelon, pivots, gf2.pack_vector(x)))
    return x


@dataclass(eq=False)
class ChannelStream:
    """n received rateless symbols as flat arrays: symbol t lives in section
    ``sections[t]``, references the dg bits ``bit_ids[t]`` (flattened
    in-chain bit numbers, -1 where the reference lands on a shortened
    section), and carries ``values[t]`` unless ``erased[t]``."""

    sections: np.ndarray
    bit_ids: np.ndarray
    values: np.ndarray
    erased: np.ndarray

    def __len__(self) -> int:
        return len(self.sections)


def channel_stream(
    graph: PrecodeGraph, codeword, n: int, epsilon: float, seed
) -> ChannelStream:
    """Sample n received symbols of the rateless inner code.

    Each symbol picks a uniform section in [0, L+w-2], dg uniform backward
    shifts and dg uniform bit indices (both with repetition), transmits the
    mod-2 sum of the referenced bits (shortened references are zero), and is
    erased independently with probability epsilon.  ``default_rng(seed)``
    draws, in this order: the n sections, the (n, dg) shifts, the (n, dg)
    bit indices, and n uniforms, of which those below epsilon mark erasures.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    params, M = graph.params, graph.M
    L, w, dg = params.L, params.w, params.dg
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (graph.num_bits,):
        raise ValueError(f"codeword must have length {graph.num_bits}")
    rng = np.random.default_rng(seed)
    sections = rng.integers(0, L + w - 1, size=n)
    shifts = rng.integers(0, w, size=(n, dg))
    indices = rng.integers(0, M, size=(n, dg))
    ref_sections = sections[:, None] - shifts
    in_chain = (ref_sections >= 0) & (ref_sections < L)
    bit_ids = np.where(in_chain, ref_sections * M + indices, -1)
    # The parity is the low bit of the XOR of the dg columns, which costs
    # several times less than a row sum over so narrow rows.
    refs = codeword[bit_ids] * in_chain
    values = refs[:, 0].copy()
    for column in refs.T[1:]:
        values ^= column
    values &= 1
    erased = rng.random(n) < epsilon
    return ChannelStream(sections=sections, bit_ids=bit_ids, values=values, erased=erased)


@dataclass(eq=False)
class TrialResult:
    """One decoding trial: the residual unresolved fraction at the peeling
    fixpoint, the number of rounds, and the resolved assignment (-1 marks
    bits still unknown)."""

    residual_bit_erasure: float
    peeling_rounds: int
    assignment: np.ndarray


def peel(graph: PrecodeGraph, stream: ChannelStream) -> TrialResult:
    """Iterative erasure filling to its fixpoint.

    Factor nodes are the precode checks (target value 0) and the unerased
    channel nodes (target value y); erased channel nodes constrain nothing
    and are dropped.  Any factor with exactly one unknown incident bit
    resolves it to the XOR of the rest; rounds are level-synchronous sweeps
    of the resolution frontier, so the fixpoint and the round count do not
    depend on scheduling.  A bit that several factors resolve in the same
    round takes the value of the lowest-numbered one (checks first, then
    channel nodes in stream order).

    Setting up the factor graph costs O(E log E) for its E edges, for the
    sort that groups the edges by bit.  After that no round sorts: a round
    touches only the edges of the bits it resolves and costs O(e) for those
    e edges, independent of the graph size, so the whole decode costs
    O(E log E) plus a per-round constant of numpy calls.

    Raises ValueError when the stream does not fit the graph: its arrays
    disagree in length, or a bit id lies outside [-1, num_bits).
    """
    num_bits = graph.num_bits
    num_checks = graph.num_checks
    bit_ids = stream.bit_ids
    n = len(stream)
    if not (bit_ids.ndim == 2 and len(bit_ids) == len(stream.values)
            == len(stream.erased) == n):
        raise ValueError(
            f"stream arrays disagree: {n} sections, bit_ids of shape "
            f"{bit_ids.shape}, {len(stream.values)} values, "
            f"{len(stream.erased)} erasure flags"
        )
    if bit_ids.size and not (bit_ids.min() >= -1 and bit_ids.max() < num_bits):
        raise ValueError(
            f"stream bit ids span [{bit_ids.min()}, {bit_ids.max()}], outside "
            f"[-1, {num_bits}) for this graph"
        )

    # Fold each unerased channel node's in-chain references mod 2: a
    # reference stays if it is the first column holding its bit and the bit
    # occurs an odd number of times in the row.
    live = np.flatnonzero(~stream.erased)
    rows = bit_ids[live]
    keep = rows >= 0
    odd = np.ones_like(keep)
    for i in range(1, rows.shape[1]):
        for j in range(i):
            same = rows[:, i] == rows[:, j]
            keep[:, i] &= ~same
            odd[:, i] ^= same
            odd[:, j] ^= same
    keep &= odd
    node_of_edge, _ = np.nonzero(keep)

    # Channel factor num_checks + r is the r-th unerased node, so factor ids
    # keep stream order.
    edge_factor = np.concatenate(
        [
            np.repeat(np.arange(num_checks), np.diff(graph.check_indptr)),
            num_checks + node_of_edge,
        ]
    )
    edge_bit = np.concatenate([graph.check_indices, rows[keep]], dtype=np.int64)
    num_factors = num_checks + len(live)
    target = np.concatenate(
        [np.zeros(num_checks, dtype=np.int64), stream.values[live].astype(np.int64)]
    )

    unk_count = np.bincount(edge_factor, minlength=num_factors)
    unk_sum = np.bincount(
        edge_factor, weights=edge_bit, minlength=num_factors
    ).astype(np.int64)
    # Factors of each bit's edges, grouped by bit.  One sort of (bit, factor)
    # keys packed in an int64 costs several times less than an argsort of
    # the bits and a gather.  The order inside a group is immaterial, since
    # a round's updates commute.
    shift = num_factors.bit_length()
    factor_by_bit = np.sort((edge_bit << shift) | edge_factor) & ((1 << shift) - 1)
    degree = np.bincount(edge_bit, minlength=num_bits)
    bit_end = np.cumsum(degree)

    state = np.full(num_bits, -1, dtype=np.int8)
    # Scratch for the rounds, indexed by bit: its lowest frontier factor, and
    # one frontier position that holds it.
    best = np.empty(num_bits, dtype=np.int64)
    stamp = np.empty(num_bits, dtype=np.int64)
    index = np.arange(len(edge_bit))
    frontier = np.flatnonzero(unk_count == 1)
    rounds = 0
    while frontier.size:
        # A factor touched by several of last round's bits may repeat in the
        # frontier.  Each bit resolves once, to its lowest factor's value:
        # the entry whose position its stamp holds stands for the bit,
        # whichever of the bit's writes won.
        bits = unk_sum[frontier]
        best[bits] = num_factors
        np.minimum.at(best, bits, frontier)
        positions = index[:bits.size]
        stamp[bits] = positions
        bits_new = bits[stamp[bits] == positions]
        vals_new = target[best[bits_new]] & 1
        state[bits_new] = vals_new
        lengths = degree[bits_new]
        ends = lengths.cumsum()
        factors = factor_by_bit[
            (bit_end[bits_new] - ends).repeat(lengths) + index[:ends[-1]]
        ]
        # Unbuffered updates: a factor may hold several of this round's bits.
        # A factor's target keeps its parity as a running sum, since
        # np.subtract.at is several times faster than np.bitwise_xor.at.
        np.subtract.at(unk_count, factors, 1)
        np.subtract.at(unk_sum, factors, bits_new.repeat(lengths))
        np.subtract.at(target, factors, vals_new.repeat(lengths))
        frontier = factors[unk_count[factors] == 1]
        rounds += 1

    return TrialResult(
        residual_bit_erasure=float((state < 0).sum() / num_bits),
        peeling_rounds=rounds,
        assignment=state,
    )


@dataclass
class MonteCarloRow:
    """Aggregated decoding trials at one overhead point, with the Wilson 95%
    interval of its success rate.  ``trial_errors`` counts the trials whose
    graph could not be conditioned (ConditioningFailed); the statistics
    cover the other ``trials`` and are NaN when there are none."""

    alpha: float
    n_symbols: float
    dimension: float
    success_rate: float
    wilson_low: float
    wilson_high: float
    mean_residual: float
    trials: int
    trial_errors: int


_Z95 = 1.959963984540054


def _wilson(phat: float, n: int) -> tuple[float, float]:
    """Wilson 95% interval for a success rate phat over n trials.  The low
    end is exactly 0 at phat = 0 and the high end exactly 1 at phat = 1,
    where the formula's round-off would leave them off by an ulp."""
    if n == 0:
        return math.nan, math.nan
    denom = 1.0 + _Z95 ** 2 / n
    center = (phat + _Z95 ** 2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + _Z95 ** 2 / (4 * n * n)) / denom
    low = 0.0 if phat == 0.0 else center - half
    high = 1.0 if phat == 1.0 else center + half
    return low, high


def pool_map(func, jobs: list, workers: int) -> list:
    """``[func(job) for job in jobs]``, in order, over up to ``workers``
    processes; serial when ``workers == 1`` or there is at most one job.
    Raises ValueError for ``workers < 1`` before any job runs.  Exceptions
    raised by ``func`` reach the caller either way.  This is the package's
    one process pool: ``monte_carlo`` and the CLI sweep use it."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        return [func(job) for job in jobs]
    # Imported here, so that a serial run never loads the pool's machinery.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(func, jobs))


def _run_trial(params, M, seed, zero_codeword, job) -> tuple[float, float, float] | None:
    """One decoding trial, ``job = (alpha_index, alpha, trial_index)``; None
    when its graph cannot be conditioned."""
    alpha_index, alpha, trial_index = job
    root = np.random.SeedSequence([seed, alpha_index, trial_index])
    graph_seed, info_seed, stream_seed = root.spawn(3)
    try:
        graph = sample_precode(params, M, graph_seed)
    except ConditioningFailed:
        return None
    if zero_codeword:
        # Erasure dynamics on the BEC do not depend on the codeword, so the
        # all-zero shortcut is exact; it skips the GF(2) elimination and uses
        # the design dimension for the overhead accounting.
        k = graph.design_dimension()
        codeword = np.zeros(graph.num_bits, dtype=np.uint8)
    else:
        k = graph.realized_dimension()
        info = np.random.default_rng(info_seed).integers(0, 2, size=k, dtype=np.uint8)
        codeword = encode(graph, info)
    n = round((1.0 + alpha) * k / (1.0 - params.epsilon))
    stream = channel_stream(graph, codeword, n, params.epsilon, stream_seed)
    result = peel(graph, stream)
    return result.residual_bit_erasure, float(n), float(k)


def _max_symbols(dg: int) -> int:
    """The most received symbols one trial can hold: its stream's (n, dg)
    int64 bit references alone must fit in the physical memory the machine
    reports (in the address space where it reports none)."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = sys.maxsize
    return memory // (8 * dg)


def monte_carlo(
    params: EnsembleParams,
    M: int,
    alpha_grid,
    trials: int,
    seed: int,
    *,
    zero_codeword: bool = False,
    workers: int = 1,
) -> list[MonteCarloRow]:
    """Decoding-trial statistics over an overhead grid.

    Every trial draws a fresh graph and stream from a PRNG keyed by
    (seed, alpha index, trial index), so trials are reproducible and
    order-independent; rows come back sorted by alpha.  A trial whose
    socket matching cannot be conditioned (ConditioningFailed: M too small
    for the ensemble) is counted in the row's ``trial_errors`` and left out
    of its statistics.  Any other exception, including InvalidM for an M
    that fails the sampler preconditions, propagates; so does the
    ValueError of an overhead too close to -1 to send one symbol.
    ``trials < 1``, a design rate <= 0 (``NonPositiveRate``, whichever
    codeword path), an empty or repeated alpha grid, an alpha whose largest
    symbol count n would not fit in memory (``_max_symbols``), and
    ``workers < 1`` raise ValueError before any trial runs.  Every ensemble
    is simulated alike, dg = 1 too.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    design_rate(params)
    alphas = sorted(float(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha_grid must be nonempty")
    max_symbols = _max_symbols(params.dg)
    for alpha in alphas:
        if not -1.0 < alpha < math.inf:
            raise ValueError(f"every alpha must be finite and > -1, got {alpha}")
        # No graph has more than L*M dimensions, so this bounds every trial's
        # symbol count, computed as _run_trial does; an infinite n fails it too.
        n = (1.0 + alpha) * (params.L * M) / (1.0 - params.epsilon)
        if not n <= max_symbols:
            raise ValueError(
                f"alpha = {alpha!r} overflows the symbol count: n = (1 + alpha)*L*M/(1 - eps)"
                f" = {n:.4g} exceeds {max_symbols}, the most symbols whose (n, dg = "
                f"{params.dg}) int64 bit references fit in physical memory"
            )
    repeated = sorted({a for a, b in zip(alphas, alphas[1:]) if a == b})
    if repeated:
        raise ValueError(f"alpha_grid repeats alpha = {', '.join(map(repr, repeated))}")

    jobs = [(ai, alpha, t) for ai, alpha in enumerate(alphas) for t in range(trials)]
    outcomes = pool_map(functools.partial(_run_trial, params, M, seed, zero_codeword),
                        jobs, workers)

    rows = []
    for ai, alpha in enumerate(alphas):
        chunk = outcomes[ai * trials:(ai + 1) * trials]
        good = [c for c in chunk if c is not None]
        if good:
            residuals = np.array([g[0] for g in good])
            n_symbols = float(np.mean([g[1] for g in good]))
            dimension = float(np.mean([g[2] for g in good]))
            rate = float((residuals == 0.0).mean())
            residual = float(residuals.mean())
        else:
            n_symbols = dimension = rate = residual = math.nan
        rows.append(MonteCarloRow(
            alpha, n_symbols, dimension, rate, *_wilson(rate, len(good)), residual,
            trials=len(good), trial_errors=len(chunk) - len(good),
        ))
    return rows
