"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most literal style possible
(scalar loops, python-int bitmasks) and shares no code with the package, so
agreement is meaningful.
"""
from __future__ import annotations

import math

import numpy as np


def de_step_loops(dl, dr, dg, w, L, eps, beta, p, s):
    """Straight-loop transcription of the density-evolution update pair."""

    def pv(i):
        return p[i] if 0 <= i < L else 0.0

    def sv(i):
        return s[i] if 0 <= i < L else 0.0

    p_next = np.zeros(L)
    s_next = np.zeros(L)
    for i in range(L):
        a = 0.0
        for j in range(w):
            inner = sum(pv(i + j - k) for k in range(w)) / w
            a += 1.0 - (1.0 - inner) ** (dr - 1)
        a /= w
        b = 0.0
        for j in range(w):
            inner = sum(sv(i + j - k) for k in range(w)) / w
            b += 1.0 - (1.0 - eps) * (1.0 - inner) ** (dg - 1)
        b /= w
        gf = math.exp(-beta * (1.0 - b))
        p_next[i] = a ** (dl - 1) * gf
        s_next[i] = a ** dl * gf
    return p_next, s_next


def sliding_sums_sequential(x, w):
    """The sliding averages of ``x`` zero-padded by w - 1 on each side, each
    summed left to right: every one of a window's w terms is multiplied by
    fl(1/w), and the products are added one at a time to a sum that starts
    at 0.0.  Returns the len(x) + w - 1 averages as a list of floats."""
    padded = [0.0] * (w - 1) + [float(v) for v in x] + [0.0] * (w - 1)
    tap = 1.0 / w
    sums = []
    for start in range(len(padded) - w + 1):
        total = 0.0
        for k in range(w):
            total += padded[start + k] * tap
        sums.append(total)
    return sums


def de_step_sequential(dl, dr, dg, w, L, eps, beta, p, s):
    """The density-evolution update pair with each sliding average summed
    left to right over its zero-padded window (``sliding_sums_sequential``),
    then clamped to at most one.  The elementwise operations are numpy's,
    in the order the update is written; only the sums are loops, so this
    is bit-exact for any averaging loop that sums in the same order."""
    inner = np.array(sliding_sums_sequential(p, w))
    a = np.array(sliding_sums_sequential(1.0 - (1.0 - inner) ** (dr - 1), w)[w - 1:w - 1 + L])
    inner = np.array(sliding_sums_sequential(s, w))
    inner = 1.0 - (1.0 - inner) ** (dg - 1) * (1.0 - eps)
    b = np.array(sliding_sums_sequential(inner, w)[w - 1:w - 1 + L])
    gf = np.exp((1.0 - b) * -beta)
    return np.minimum(a ** (dl - 1) * gf, 1.0), np.minimum(a ** dl * gf, 1.0)


def precode_de_step_loops(dl, dr, w, L, channel, p):
    """One update of the plain coupled-LDPC recursion over BEC(channel)."""

    def pv(i):
        return p[i] if 0 <= i < L else 0.0

    p_next = np.zeros(L)
    for i in range(L):
        a = 0.0
        for j in range(w):
            inner = sum(pv(i + j - k) for k in range(w)) / w
            a += 1.0 - (1.0 - inner) ** (dr - 1)
        a /= w
        p_next[i] = channel * a ** (dl - 1)
    return p_next


def band_matrix_loops(size, w, c):
    """Dense size x size matrix with entries c*(w-|i-j|)/w^2 for |i-j| < w
    and 0 elsewhere: the stability linearization at dl = 2."""
    out = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            d = abs(i - j)
            if d < w:
                out[i, j] = c * (w - d) / (w * w)
    return out


def masks_from_supports(supports):
    """Rows as python-int bitmasks; repeated columns cancel mod 2."""
    masks = []
    for cols in supports:
        m = 0
        for c in cols:
            m ^= 1 << int(c)
        masks.append(m)
    return masks


def rref_masks(masks, ncols):
    """Reduced row echelon form over GF(2) on python-int rows."""
    rows = list(masks)
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        bit = 1 << col
        hit = None
        for r in range(pivot_row, len(rows)):
            if rows[r] & bit:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r] & bit:
                rows[r] ^= rows[pivot_row]
        pivots.append(col)
        pivot_row += 1
    return rows, pivots


def determined_bits(supports, values, ncols):
    """Bits whose value is forced by the linear system sum(support) = value.

    Returns {bit: value}.  A bit is determined exactly when, after full
    reduction of the augmented system, it is a pivot whose row has no other
    unknown columns.
    """
    aug = []
    for cols, v in zip(supports, values):
        m = 0
        for c in cols:
            m ^= 1 << int(c)
        if v & 1:
            m |= 1 << ncols
        aug.append(m)
    rows, pivots = rref_masks(aug, ncols)
    value_bit = 1 << ncols
    out = {}
    for r, piv in enumerate(pivots):
        row = rows[r]
        support = row & (value_bit - 1)
        if support == 1 << piv:
            out[piv] = 1 if row & value_bit else 0
    return out


def peel_sequential(num_bits, factors, order="fifo", rng=None):
    """One-at-a-time peeling with an explicit schedule.

    ``factors`` is a list of (support list, value).  Returns {bit: value} at
    the fixpoint.  ``order`` picks which usable factor fires next: queue
    order ('fifo') or a uniformly random usable one ('random').
    """
    supports = [set() for _ in factors]
    values = []
    for f, (cols, v) in enumerate(factors):
        folded = set()
        for c in cols:
            c = int(c)
            if c in folded:
                folded.remove(c)
            else:
                folded.add(c)
        supports[f] = folded
        values.append(int(v) & 1)

    known: dict[int, int] = {}
    bit_to_factors: dict[int, list[int]] = {}
    for f, cols in enumerate(supports):
        for c in cols:
            bit_to_factors.setdefault(c, []).append(f)

    def unknowns(f):
        return [c for c in supports[f] if c not in known]

    usable = [f for f in range(len(factors)) if len(unknowns(f)) == 1]
    while usable:
        if order == "random":
            idx = rng.randrange(len(usable))
            usable[idx], usable[-1] = usable[-1], usable[idx]
            f = usable.pop()
        else:
            f = usable.pop(0)
        unk = unknowns(f)
        if len(unk) != 1:
            continue
        bit = unk[0]
        val = values[f]
        for c in supports[f]:
            if c != bit:
                val ^= known[c]
        known[bit] = val
        for g in bit_to_factors.get(bit, []):
            if len(unknowns(g)) == 1:
                usable.append(g)
    return known


def combined_factors(graph, stream):
    """(support, value) list for the decoder graph: precode checks plus
    unerased channel nodes (in-chain references only, multiplicity kept;
    folding is the peelers' job)."""
    factors = []
    indptr, indices = graph.check_indptr, graph.check_indices
    for c in range(len(indptr) - 1):
        factors.append(([int(b) for b in indices[indptr[c]:indptr[c + 1]]], 0))
    for t in range(len(stream)):
        if stream.erased[t]:
            continue
        refs = [int(b) for b in stream.bit_ids[t] if b >= 0]
        factors.append((refs, int(stream.values[t])))
    return factors


def peel_rounds(num_bits, factors):
    """Level-synchronous peeling with the round count.

    ``factors`` is a list of (support list, value), in factor-id order.  In
    each round every factor with exactly one unknown bit (after folding its
    support mod 2) fires at once; a bit hit by several of them takes the
    value of the lowest-numbered one.  Returns (assignment list with -1 for
    unknown bits, number of rounds that resolved something).
    """
    supports = []
    for cols, _ in factors:
        folded = set()
        for c in cols:
            folded ^= {int(c)}
        supports.append(sorted(folded))
    values = [int(v) & 1 for _, v in factors]

    assignment = [-1] * num_bits
    rounds = 0
    while True:
        resolved = {}
        for f, cols in enumerate(supports):
            unknown = [c for c in cols if assignment[c] < 0]
            if len(unknown) != 1:
                continue
            val = values[f]
            for c in cols:
                if c != unknown[0]:
                    val ^= assignment[c]
            if unknown[0] not in resolved:
                resolved[unknown[0]] = val
        if not resolved:
            return assignment, rounds
        for bit, val in resolved.items():
            assignment[bit] = val
        rounds += 1


def double_edge_sockets_loops(sock_bit, sock_check):
    """Sockets whose (real, >= 0) bit already occupies an earlier socket of
    the same check, in (check, bit, socket) order."""
    by_check = {}
    for socket, (bit, check) in enumerate(zip(sock_bit, sock_check)):
        by_check.setdefault(int(check), []).append((int(bit), socket))
    out = []
    for check in sorted(by_check):
        seen = set()
        for bit, socket in sorted(by_check[check]):
            if bit >= 0 and bit in seen:
                out.append(socket)
            seen.add(bit)
    return out


def parallel_pair_sockets_loops(sock_bit, sock_check):
    """For degree-2 bits: every bit whose pair of checks an earlier
    (lower-numbered) bit already has, as that bit's lower socket, in
    (check pair, bit) order."""
    sockets = {}
    for socket, bit in enumerate(sock_bit):
        if bit >= 0:
            sockets.setdefault(int(bit), []).append(socket)
    by_pair = {}
    for bit in sorted(sockets):
        first, second = sorted(sockets[bit])
        pair = tuple(sorted((int(sock_check[first]), int(sock_check[second]))))
        by_pair.setdefault(pair, []).append((bit, first))
    out = []
    for pair in sorted(by_pair):
        out.extend(socket for _, socket in by_pair[pair][1:])
    return out


def channel_stream_loops(codeword, L, w, M, dg, n, epsilon, seed):
    """The channel stream of ``channel_stream`` re-drawn from
    ``default_rng(seed)`` in its documented order (n sections, (n, dg)
    shifts, (n, dg) bit indices, n erasure uniforms), with the referenced
    bit ids and the received values built one reference at a time.

    Returns (sections, shifts, bit_indices, bit_ids, values, erased) as
    lists; a bit id is -1 where the reference lands outside [0, L-1].
    """
    rng = np.random.default_rng(seed)
    sections = [int(c) for c in rng.integers(0, L + w - 1, size=n)]
    shifts = [[int(j) for j in row] for row in rng.integers(0, w, size=(n, dg))]
    bit_indices = [[int(i) for i in row] for row in rng.integers(0, M, size=(n, dg))]
    erased = [bool(u < epsilon) for u in rng.random(n)]
    bit_ids = []
    values = []
    for t in range(n):
        ids = []
        value = 0
        for shift, index in zip(shifts[t], bit_indices[t]):
            section = sections[t] - shift
            if 0 <= section < L:
                ids.append(section * M + index)
                value ^= int(codeword[section * M + index])
            else:
                ids.append(-1)
        bit_ids.append(ids)
        values.append(value)
    return sections, shifts, bit_indices, bit_ids, values, erased


def poisson_pmf(beta, dmax):
    """Poisson(beta) probabilities of 0, 1, ..., dmax attached channel nodes,
    by the ratio recursion P(0) = exp(-beta), P(d) = P(d-1) * beta / d."""
    masses = [math.exp(-beta)]
    for d in range(1, dmax + 1):
        masses.append(masses[-1] * beta / d)
    return masses
