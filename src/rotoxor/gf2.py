"""GF(2) linear algebra on packed bit-matrices.

An m x n matrix is an (m, ceil(n / 64)) array of little-endian uint64
words: entry (i, j) is bit j % 64 of word j // 64 of row i, so the bytes of
a 512-bit row are the bits of a 64-octet block, LSB first. A vector is one
packed row. ``transpose``, ``rank`` and ``invert`` ignore the bits of a
row at n and above. Inverting the packed columns of A gives the packed
columns of A^-1, since (A^T)^-1 = (A^-1)^T; ``mat_vec`` takes that form.

``mat_vec`` is the attack's one kernel. It uses the Method of Four Russians
(Bard 2006; Albrecht, Bard and Hart, M4RI, 2010): ``_xor_table`` tabulates
the XOR combinations of each four columns, and each nibble of x picks one
entry. ``rank`` and ``invert`` share a plain Gauss-Jordan loop, one column
per step. No package code calls them or ``transpose``: the attack inverts
through unipotence (see ``analysis.LinearMap512``), and they stay as the
tests' elimination oracle and because perfbench/spans.py traces them by
name.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMapError


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
    """Rank over columns 0..n-1 by Gauss-Jordan elimination; the input is not modified."""
    return len(_eliminate(rows.copy(), n))


def invert(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination on [A | I]; raises SingularMapError if singular."""
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
        np.bitwise_xor(table[:1 << j], row, out=table[1 << j:2 << j])
    return table


def _eliminate(work: np.ndarray, n: int) -> list[int]:
    # Gauss-Jordan elimination in place on bit columns 0..n-1 of the packed
    # rows: afterwards work[r] is the only row with a bit in pivots[r], and
    # those rows come first, in column order. Bits at n and above ride
    # along, which is how invert carries the identity half of [A | I] in the
    # words after A. One column per step: the first row at or below r with
    # the column's bit moves up to r and is XORed into every other row that
    # has the bit.
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        has = (work[:, c >> 6] >> (c & 63) & 1).astype(bool)
        below = np.flatnonzero(has[r:])
        if not below.size:
            continue
        p = r + int(below[0])
        work[[r, p]] = work[[p, r]]
        # Row p now holds the old row r, which lacks the bit unless p == r,
        # and row r must not clear itself.
        has[p] = False
        work[has] ^= work[r]
        pivots.append(c)
    return pivots
