"""GF(2) linear algebra on packed bit-matrices.

An m x n matrix is an (m, ceil(n / 64)) array of little-endian uint64
words: entry (i, j) is bit j % 64 of word j // 64 of row i, so the bytes of
a 512-bit row are the bits of a 64-octet block, LSB first. A vector is one
packed row. ``transpose``, ``rank`` and ``invert`` ignore the bits of a
row at n and above. Inverting the packed columns of A gives the packed
columns of A^-1, since (A^T)^-1 = (A^-1)^T; ``mat_vec`` takes that form.
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
    table = np.zeros((groups, 16, columns.shape[1]), np.uint64)
    for b in range(4):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ padded[b::4, None]
    # Row g of nibbles holds nibble g of every x: bits 4g..4g+3.
    octets = np.atleast_2d(x).view(np.uint8).T
    width, k = octets.shape
    nibbles = np.stack([octets & 15, octets >> 4], axis=1).reshape(2 * width, k)[:groups]
    # One gather and XOR-reduce per 64 columns (one word of x) keeps the
    # gathered temporary at 16 times the result whatever len(columns) is.
    select = np.arange(groups)[:, None]
    out = np.zeros((k, columns.shape[1]), np.uint64)
    for g in range(0, groups, 16):
        out ^= np.bitwise_xor.reduce(table[select[g:g + 16], nibbles[g:g + 16]], axis=0)
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


def _eliminate(work: np.ndarray, n: int) -> list[int]:
    # Gauss-Jordan elimination in place on bit columns 0..n-1 of the packed
    # rows: afterwards work[r] is the only row with a bit in pivots[r], and
    # those rows come first, in column order. The pivot is the first row at
    # or below r with the column's bit, as in a row-by-row scan. Bits at n
    # and above ride along, which is how invert carries the identity half of
    # [A | I] in the words after A.
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        if r == len(work):
            break
        word, shift = divmod(col, 64)
        bits = (work[:, word] >> shift) & 1
        pivot = r + int(bits[r:].argmax())
        if not bits[pivot]:
            continue
        if pivot != r:
            work[[r, pivot]] = work[[pivot, r]]
            bits[pivot] = bits[r]
        bits[r] = 0
        work ^= bits[:, None] * work[r]
        pivots.append(col)
    return pivots
