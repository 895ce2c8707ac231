"""GF(2) linear algebra on Python-int rows.

A row is one Python int: bit ``c`` of the int is column ``c``.  ``rref``
eliminates on those ints, so its cost is the number of XORs of basis rows
rather than a numpy pass per column, and a dot product is a popcount of an
AND.  Rows are built from a CSR of column indices, the layout in which the
codec stores its checks.  Enough for the systematic-form precode encoder at
simulation sizes: ``rref`` runs the forward pass alone, and the encoder
solves for one codeword's pivot bits with ``dot_rows`` and
``solve_pivots``, so nothing back-substitutes the whole basis.
"""
from __future__ import annotations

import numpy as np


def rows_from_support(indptr, indices, ncols: int) -> list[int]:
    """Rows from a CSR of column indices: row ``r`` holds
    ``indices[indptr[r]:indptr[r + 1]]``.

    Repeated indices within a row cancel mod 2, matching GF(2) semantics.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    outside = np.flatnonzero((cols < 0) | (cols >= ncols))
    if outside.size:
        r = int(np.searchsorted(indptr, outside[0], side="right")) - 1
        raise ValueError(f"row {r} has column indices outside [0, {ncols})")
    bounds, cols = indptr.tolist(), cols.tolist()
    rows = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        v = 0
        for c in cols[start:stop]:
            v ^= 1 << c
        rows.append(v)
    return rows


def rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Row-echelon form over GF(2) by forward elimination.

    Returns the rank rows in ascending pivot order, as a new list, together
    with the pivot column list (both have the rank's length).  A row's pivot
    is its lowest set bit, and a row may also hold the pivot bits of later
    rows: the form is not reduced, but its pivots and row space are those of
    the RREF, and ``solve_pivots`` solves it.  A set bit at or beyond
    ``ncols`` raises ``ValueError`` naming the first such row.

    Rows are eliminated keyed by their lowest set bit, so the cost is the
    number of basis-row XORs, not a pass over every column of the matrix.
    The name ``rref`` is the one under which ``perfbench/tracing.py`` wraps
    it; the result is not reduced.
    """
    basis: dict[int, int] = {}
    for r, v in enumerate(rows):
        if v >> ncols:
            raise ValueError(f"row {r} has a set bit at or beyond column {ncols}")
        while v:
            low = (v & -v).bit_length() - 1
            row = basis.get(low)
            if row is None:
                basis[low] = v
                break
            v ^= row
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def solve_pivots(rows: list[int], pivots: list[int], rhs) -> np.ndarray:
    """Pivot bits y with ``parity(rows[i] & Y) == rhs[i]`` for every ``i``,
    as uint8 in the order of ``rows``, where ``Y`` packs ``y[j]`` at column
    ``pivots[j]`` and every other column is 0.  Each entry's lowest bit of
    ``rhs`` is read.

    ``rows`` must be echelon rows in ascending pivot order, each with its
    pivot as its lowest set bit (``rref``'s output).  A row then
    holds no pivot bit below its own, so solving in descending pivot order
    finds every bit it reads already solved.  The three must have one
    length; ``ValueError`` otherwise.
    """
    rhs = (np.asarray(rhs, dtype=np.uint8) & 1).tolist()
    out = []
    solved = 0
    for row, p, b in zip(reversed(rows), reversed(pivots), reversed(rhs), strict=True):
        b ^= (row & solved).bit_count() & 1
        if b:
            solved |= 1 << p
        out.append(b)
    out.reverse()
    return np.array(out, dtype=np.uint8)


def dot_rows(rows: list[int], vector: int) -> np.ndarray:
    """GF(2) inner product of every row with one vector, as uint8."""
    return np.fromiter(((r & vector).bit_count() & 1 for r in rows), np.uint8, len(rows))


def pack_vector(bits) -> int:
    """One row from a 0/1 vector (each entry's lowest bit is read)."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
