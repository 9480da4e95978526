"""GF(2) linear algebra on packed bit-matrices.

An m x n matrix is an (m, ceil(n / 64)) array of little-endian uint64
words: entry (i, j) is bit j % 64 of word j // 64 of row i, so the bytes of
a 512-bit row are the bits of a 64-octet block, LSB first. A vector is one
packed row. ``transpose``, ``rank`` and ``invert`` ignore the bits of a
row at n and above. Inverting the packed columns of A gives the packed
columns of A^-1, since (A^T)^-1 = (A^-1)^T; ``mat_vec`` takes that form.

Both ``mat_vec`` and the elimination under ``rank`` and ``invert`` use the
Method of Four Russians (Bard 2006; Albrecht, Bard and Hart, M4RI, 2010),
with one builder, ``_xor_table``, for the tables of XOR combinations.
``mat_vec`` XORs one entry per nibble of x. Elimination takes 8 columns,
one octet of every row, per step: it picks up to 8 pivot rows for the
strip, tabulates their combinations, and clears the strip from every row
with one gather and one XOR, so a 512-column matrix takes 64 steps.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMapError


# Only the tests call it now; perfbench/spans.py traces the name, so it stays.
def transpose(rows: np.ndarray, n: int) -> np.ndarray:
    """The n x len(rows) transpose of the len(rows) x n matrix ``rows``."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    return _pack_bits(bits[:, :n].T)


def mat_vec(columns: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M.x for the matrix M whose packed columns are ``columns``.

    ``x`` is one packed vector or a (k, w) stack of them, and the result has
    the same leading shape; bits of x at len(columns) and above select
    nothing. Method of Four Russians: each group of four columns becomes a
    table of its 16 XOR combinations, and each nibble of x picks one entry
    to XOR into the result.
    """
    groups = -(-len(columns) // 4)
    padded = np.zeros((groups * 4, columns.shape[1]), np.uint64)
    padded[:len(columns)] = columns
    # Entry (e, g) is the combination e of group g's four columns.
    table = _xor_table(padded.reshape(groups, 4, -1).transpose(1, 0, 2))
    # Row g of nibbles holds nibble g of every x: bits 4g..4g+3.
    octets = np.atleast_2d(x).view(np.uint8).T
    width, k = octets.shape
    nibbles = np.stack([octets & 15, octets >> 4], axis=1).reshape(2 * width, k)[:groups]
    # One gather and XOR-reduce per 64 columns (one word of x) keeps the
    # gathered temporary at 16 times the result whatever len(columns) is.
    select = np.arange(groups)[:, None]
    out = np.zeros((k, columns.shape[1]), np.uint64)
    for g in range(0, groups, 16):
        out ^= np.bitwise_xor.reduce(table[nibbles[g:g + 16], select[g:g + 16]], axis=0)
    return out.reshape(x.shape[:-1] + columns.shape[1:])


def rank(rows: np.ndarray, n: int) -> int:
    """Rank over columns 0..n-1 via Gaussian elimination; the input is not modified."""
    return len(_eliminate(rows.copy(), n))


def invert(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse via elimination on [A | I]; raises SingularMapError if singular."""
    if len(rows) != n:
        raise SingularMapError(f"matrix must be {n}x{n}")
    work = np.hstack([rows, _pack_bits(np.eye(n, dtype=np.uint8))])
    pivots = _eliminate(work, n)
    if len(pivots) < n:
        col = min(set(range(n)).difference(pivots))
        raise SingularMapError(f"matrix is singular (no pivot in column {col})")
    return work[:, rows.shape[1]:].copy()


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    # The 0/1 octets along the last axis as packed uint64 words.
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(packed.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


def _xor_table(rows: np.ndarray) -> np.ndarray:
    # Entry e is the XOR of the rows[j] whose bit j is set in e: 2**len(rows)
    # entries, built in len(rows) doubling steps.
    table = np.zeros((1 << len(rows),) + rows.shape[1:], rows.dtype)
    for j, row in enumerate(rows):
        table[1 << j:2 << j] = table[:1 << j] ^ row
    return table


def _eliminate(work: np.ndarray, n: int) -> list[int]:
    # Gauss-Jordan elimination in place on bit columns 0..n-1 of the C-ordered
    # packed rows: afterwards work[r] is the only row with a bit in pivots[r],
    # and those rows come first, in column order. Bits at n and above ride
    # along, which is how invert carries the identity half of [A | I] in the
    # words after A. One step per 8-column strip, octet c0 // 8 of every
    # row; rows r0 and below hold no bit left of the strip. The pivot
    # columns of a reduced row-echelon form do not depend on which rows are
    # picked, so they are those of a column-by-column elimination.
    octets = work.view(np.uint8)
    pivots: list[int] = []
    for c0 in range(0, n, 8):
        r0 = len(pivots)
        if r0 == len(work):
            break
        # Scan the strip's octets from row r0 down for up to 8 independent
        # rows. basis[p] is an octet found so far, reduced until its lowest
        # bit p is that of no other, so its keys are the strip's pivot bits.
        columns = min(8, n - c0)
        basis: dict[int, int] = {}
        chosen: list[int] = []
        for i, v in enumerate((octets[r0:, c0 >> 3] & (1 << columns) - 1).tolist(), r0):
            while v:
                p = (v & -v).bit_length() - 1
                if p not in basis:
                    basis[p] = v
                    chosen.append(i)
                    break
                v ^= basis[p]
            if v and len(chosen) == columns:
                break
        if not chosen:
            continue
        # table[e] XORs the chosen rows that the bits of e pick. Their octets
        # span those of rows r0 and below, and no two of their combinations
        # agree on the pivot bits, so index[o] is the entry that agrees with
        # octet o there. XORing it clears the pivot bits of every row and
        # the whole strip of rows r0 and below: the chosen rows become zero,
        # and the pivot row of bit p is table[index[1 << p]], the reduced
        # row-echelon row with no other pivot bit.
        keep = sum(1 << p for p in basis)
        table = _xor_table(work[chosen])
        index = np.zeros(256, np.intp)
        index[table.view(np.uint8)[:, c0 >> 3] & keep] = np.arange(len(table))
        k = len(chosen)
        # Rows r0..r0+k-1 that were not chosen move to the places of the
        # chosen rows below them.
        moved = [i for i in chosen if i >= r0 + k]
        if moved:
            work[moved] = work[[r for r in range(r0, r0 + k) if r not in chosen]]
        work ^= table.take(index[octets[:, c0 >> 3] & keep], axis=0)
        order = sorted(basis)
        work[r0:r0 + k] = table.take(index[[1 << p for p in order]], axis=0)
        pivots.extend(c0 + p for p in order)
    return pivots
