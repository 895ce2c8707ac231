"""GF(2) linear algebra on Python-int rows aligned at their lowest column.

A row is a pair of a Python int and its low column: bit ``j`` of the int
is column ``low + j``.  Rows of a banded matrix (the coupled precode's
checks span about w sections of the chain) stay as narrow as their band,
so a XOR costs the row's width rather than its distance from column 0.
``rref`` eliminates on those ints, so its cost is the number of XORs of
basis rows rather than a numpy pass per column, and a dot product is a
popcount of an AND with a window of the vector.  Rows are built from a CSR
of column indices, the layout in which the codec stores its checks.
Enough for the systematic-form precode encoder at simulation sizes:
``rref`` runs the forward pass alone, and the encoder solves for one
codeword's pivot bits with ``dot_rows`` and ``solve_pivots``, so nothing
back-substitutes the whole basis.
"""
from __future__ import annotations

import numpy as np


def rows_from_support(indptr, indices, ncols: int) -> tuple[list[int], list[int]]:
    """Rows and their low columns from a CSR of column indices: row ``r``
    holds ``indices[indptr[r]:indptr[r + 1]]``, as ``rows[r] << lows[r]``.

    ``lows[r]`` is the row's smallest index (0 for an empty row).  Repeated
    indices within a row cancel mod 2, matching GF(2) semantics, so bit 0 of
    a row is clear when its smallest index cancels.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    outside = np.flatnonzero((cols < 0) | (cols >= ncols))
    if outside.size:
        r = int(np.searchsorted(indptr, outside[0], side="right")) - 1
        raise ValueError(f"row {r} has column indices outside [0, {ncols})")
    counts = np.diff(indptr)
    cols = cols[indptr[0]:indptr[-1]]
    lows = np.zeros(len(counts), dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        lows[nonempty] = np.minimum.reduceat(cols, indptr[:-1][nonempty] - indptr[0])
    bounds = (indptr - indptr[0]).tolist()
    offsets = (cols - np.repeat(lows, counts)).tolist()
    rows = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        v = 0
        for c in offsets[start:stop]:
            v ^= 1 << c
        rows.append(v)
    return rows, lows.tolist()


def rref(rows: list[int], ncols: int, lows: list[int]) -> tuple[list[int], list[int]]:
    """Row-echelon form over GF(2) by forward elimination of the rows
    ``rows[r] << lows[r]``.

    Returns the rank rows in ascending pivot order, as a new list, together
    with the pivot column list (both have the rank's length).  Each returned
    row is aligned at its pivot: bit 0 is the pivot column, and bit ``j``
    column ``pivot + j``.  A row's pivot is its lowest set column, and a row
    may also hold the pivot bits of later rows: the form is not reduced, but
    its pivots and row space are those of the RREF, and ``solve_pivots``
    solves it.  A set bit at or beyond column ``ncols`` raises
    ``ValueError`` naming the first such row.

    Rows are eliminated keyed by their pivot, and two rows with one pivot
    XOR without a shift, so the cost is the number of basis-row XORs times
    the rows' width, not a pass over every column of the matrix.  The name
    ``rref`` is the one under which ``perfbench/tracing.py`` wraps it; the
    result is not reduced.
    """
    basis: dict[int, int] = {}
    for r, (v, low) in enumerate(zip(rows, lows, strict=True)):
        if v and low + v.bit_length() > ncols:
            raise ValueError(f"row {r} has a set bit at or beyond column {ncols}")
        while v:
            shift = (v & -v).bit_length() - 1
            v >>= shift
            low += shift
            row = basis.get(low)
            if row is None:
                basis[low] = v
                break
            v ^= row
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def solve_pivots(rows: list[int], pivots: list[int], rhs) -> np.ndarray:
    """Pivot bits y with ``parity((rows[i] << pivots[i]) & Y) == rhs[i]``
    for every ``i``, as uint8 in the order of ``rows``, where ``Y`` packs
    ``y[j]`` at column ``pivots[j]`` and every other column is 0.  Each
    entry's lowest bit of ``rhs`` is read.

    ``rows`` must be echelon rows in ascending pivot order, each aligned at
    its pivot with bit 0 set (``rref``'s output).  A row then holds no
    pivot bit below its own, so solving in descending pivot order finds
    every bit it reads already solved.  The solved bits are kept as one int
    aligned at the current pivot and cut to the widest row, since no row
    reads further.  A shift across a gap of g columns costs O(g + width),
    so all the shifts together cost O(n + rank * width).  The three must
    have one length; ``ValueError`` otherwise.
    """
    rhs = (np.asarray(rhs, dtype=np.uint8) & 1).tolist()
    mask = (1 << max(map(int.bit_length, rows), default=0)) - 1
    out = []
    solved = 0
    above = pivots[-1] if pivots else 0
    for row, p, b in zip(reversed(rows), reversed(pivots), reversed(rhs), strict=True):
        solved = (solved << (above - p)) & mask
        above = p
        b ^= (row & solved).bit_count() & 1
        solved |= b
        out.append(b)
    out.reverse()
    return np.array(out, dtype=np.uint8)


def dot_rows(rows: list[int], lows: list[int], vector: int) -> np.ndarray:
    """GF(2) inner product of every row ``rows[i] << lows[i]`` with one
    vector, as uint8.

    Each row reads a window of the vector cut at a nearby low column and
    twice the widest row wide; the window is cut again whenever a row falls
    outside it, so ascending lows cut it once every widest-row's width.
    """
    width = max(map(int.bit_length, rows), default=0)
    mask = (1 << 2 * width) - 1
    out = []
    base, window = -width - 1, 0
    for row, low in zip(rows, lows, strict=True):
        shift = low - base
        if not 0 <= shift <= width:
            base, shift, window = low, 0, (vector >> low) & mask
        out.append(((row << shift) & window).bit_count() & 1)
    return np.array(out, dtype=np.uint8)


def pack_vector(bits) -> int:
    """One row from a 0/1 vector (each entry's lowest bit is read)."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
