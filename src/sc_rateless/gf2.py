"""GF(2) linear algebra on Python-int rows.

A row is one Python int: bit ``c`` of the int is column ``c``.  ``rref``
eliminates on those ints, so its cost is the number of XORs of basis rows
rather than a numpy pass per column, and a dot product is a popcount of an
AND.  Rows are built from a CSR of column indices, the layout in which the
codec stores its checks.  Enough for the systematic-form precode encoder at
simulation sizes.  ``rref`` takes its rows last row first, which gives the
same result with a third of the back-substitution XORs on the codec's
checks (see ``rref``).
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
    """Reduced row-echelon form over GF(2).

    Returns the rank rows in pivot order, as a new list, together with the
    pivot column list (both have the rank's length).  Fully reduced: each
    pivot column has a single 1, so solving for the pivot variables is a
    direct read-off.  A set bit at or beyond ``ncols`` raises ``ValueError``
    naming the first such row.

    Rows are eliminated keyed by their lowest set bit, so the cost is the
    number of basis-row XORs, not a pass over every column of the matrix.
    Rows enter the basis last row first.  Lowest-bit pivots make the RREF
    of a row space unique, so the order changes the work, not the output.
    The back-substitution makes one XOR per pivot bit that an echelon row
    holds besides its own, and on the codec's checks, listed along the
    chain, the rows that the forward pass reduces come out sparser last row
    first: 3.7k-3.9k such XORs per L=16, M=300 graph at (dl, dr, w) =
    (2, 3, 2), against 9.8k-12.0k in row order, with ~3,335 forward XORs
    either way.  At (3, 6, 2) the order gains nothing.
    """
    for r, v in enumerate(rows):
        if v >> ncols:
            raise ValueError(f"row {r} has a set bit at or beyond column {ncols}")
    basis: dict[int, int] = {}
    for v in reversed(rows):
        while v:
            low = (v & -v).bit_length() - 1
            row = basis.get(low)
            if row is None:
                basis[low] = v
                break
            v ^= row
    pivots = sorted(basis)
    is_pivot = np.zeros(ncols, dtype=np.uint8)
    is_pivot[pivots] = 1
    pivot_mask = pack_vector(is_pivot)
    # Descending pivots: every row XORed in already holds no other pivot bit,
    # so clearing the pivot bits a row holds takes one pass.
    for p in reversed(pivots):
        v = basis[p]
        others = (v & pivot_mask) ^ (1 << p)
        while others:
            low = others & -others
            v ^= basis[low.bit_length() - 1]
            others ^= low
        basis[p] = v
    return [basis[p] for p in pivots], pivots


def dot_rows(rows: list[int], vector: int) -> np.ndarray:
    """GF(2) inner product of every row with one vector, as uint8."""
    return np.fromiter(((r & vector).bit_count() & 1 for r in rows), np.uint8, len(rows))


def pack_vector(bits) -> int:
    """One row from a 0/1 vector (each entry's lowest bit is read)."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
