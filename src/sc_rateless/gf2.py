"""Bit-packed GF(2) linear algebra.

Rows are stored as little-endian uint64 words (bit ``c`` of the row lives in
word ``c >> 6`` at position ``c & 63``), so dot products are popcounts.
``rref`` reads each packed row as one Python int (bit ``c`` of the int is
column ``c``) and eliminates on those, so its cost is the number of XORs of
basis rows rather than a numpy pass per column.  Rows are packed from a CSR
of column indices, the layout in which the codec stores its checks.  Enough
for the systematic-form precode encoder at simulation sizes.
"""
from __future__ import annotations

import numpy as np


def _num_words(ncols: int) -> int:
    return (ncols + 63) >> 6


def rows_from_support(indptr, indices, ncols: int) -> np.ndarray:
    """Packed rows from a CSR of column indices: row ``r`` holds
    ``indices[indptr[r]:indptr[r + 1]]``.

    Repeated indices within a row cancel mod 2, matching GF(2) semantics.
    All rows are packed by one XOR scatter into the flat word array.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    m, nwords = len(indptr) - 1, _num_words(ncols)
    outside = np.flatnonzero((cols < 0) | (cols >= ncols))
    if outside.size:
        r = int(np.searchsorted(indptr, outside[0], side="right")) - 1
        raise ValueError(f"row {r} has column indices outside [0, {ncols})")
    packed = np.zeros((m, nwords), dtype=np.uint64)
    flat = np.repeat(np.arange(m, dtype=np.int64) * nwords, np.diff(indptr)) + (cols >> 6)
    np.bitwise_xor.at(packed.ravel(), flat, np.uint64(1) << (cols & 63).astype(np.uint64))
    return packed


def rref(packed: np.ndarray, ncols: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns a new packed array of the input's shape, in RREF with the rank
    rows in pivot order and zero rows below them, together with the pivot
    column list (its length is the rank).  Fully reduced: each pivot column
    has a single 1, so solving for the pivot variables is a direct read-off.
    A set bit at or beyond ``ncols`` raises ``ValueError``.

    Rows are eliminated as Python ints, keyed by their lowest set bit, so
    the cost is the number of basis-row XORs (each over the row's words),
    not a pass over every column of the whole matrix.
    """
    a = np.ascontiguousarray(packed, dtype="<u8")
    m, nwords = a.shape
    basis: dict[int, int] = {}
    for r in range(m):
        v = int.from_bytes(a[r].data, "little")
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
    pivot_mask = sum(1 << p for p in pivots)
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
    out = np.zeros((m, nwords), dtype=np.uint64)
    for i, p in enumerate(pivots):
        out[i] = np.frombuffer(basis.pop(p).to_bytes(8 * nwords, "little"), dtype="<u8")
    return out, pivots


def dot_rows(packed: np.ndarray, vector_packed: np.ndarray) -> np.ndarray:
    """GF(2) inner product of every packed row with one packed vector."""
    return (
        np.bitwise_count(packed & vector_packed[None, :]).sum(axis=1) & 1
    ).astype(np.uint8)


def pack_vector(bits) -> np.ndarray:
    """One packed row from a 0/1 vector (each entry's lowest bit is read)."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    out = np.zeros(8 * _num_words(bits.size), dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    out[: packed.size] = packed
    return out.view("<u8")
