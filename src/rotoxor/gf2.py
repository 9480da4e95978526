"""GF(2) linear algebra on bit-matrices stored as lists of int row bitmasks.

Row i of an n x n matrix is an int whose bit j is the entry (i, j). The
transpose, the elimination and the matrix-vector product run on numpy
arrays that pack each row into little-endian uint64 words (bit j in word
j // 64, bit j % 64). Callers see int rows, except that ``mat_vec`` also
takes the packed form, which ``pack`` returns.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMapError

_PARITY = np.array([i.bit_count() & 1 for i in range(256)], dtype=np.uint8)


def transpose(rows: list[int], n: int) -> list[int]:
    bits = np.unpackbits(pack(rows, n).view(np.uint8), axis=1, bitorder="little")
    return _unpack(np.packbits(bits[:, :n].T, axis=1, bitorder="little"))


def mat_vec(rows: list[int] | np.ndarray, x: int) -> int:
    """Bit i of the result is parity(rows[i] AND x).

    ``rows`` is int rows or, for a matrix applied many times, the rows
    packed once by ``pack``. Bits of ``x`` past a packed width count as 0.
    """
    if not isinstance(rows, np.ndarray):
        rows = pack(rows, x.bit_length())
    words = rows.shape[1]
    v = np.frombuffer((x & ((1 << 64 * words) - 1)).to_bytes(8 * words, "little"), "<u8")
    folded = np.bitwise_xor.reduce((rows & v).view(np.uint8), axis=1)
    return int.from_bytes(np.packbits(_PARITY[folded], bitorder="little").tobytes(), "little")


def rank(rows: list[int], n: int) -> int:
    """Rank over columns 0..n-1 via Gaussian elimination; the input is not modified."""
    return len(_eliminate(pack(rows, n), n))


def invert(rows: list[int], n: int) -> list[int]:
    """Inverse via elimination on [A | I]; raises SingularMapError if singular."""
    if len(rows) != n:
        raise SingularMapError(f"matrix must be {n}x{n}")
    work = pack([row | (1 << (n + i)) for i, row in enumerate(rows)], 2 * n)
    pivots = _eliminate(work, n)
    if len(pivots) < n:
        col = min(set(range(n)).difference(pivots))
        raise SingularMapError(f"matrix is singular (no pivot in column {col})")
    return [row >> n for row in _unpack(work)]


def pack(rows: list[int], width: int) -> np.ndarray:
    """(len(rows), ceil(width / 64)) uint64 copy of the rows' bits 0..width-1."""
    words = -(-width // 64)
    mask = (1 << width) - 1
    data = bytearray(b"".join((row & mask).to_bytes(8 * words, "little") for row in rows))
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), words)


def _unpack(packed: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _eliminate(work: np.ndarray, n: int) -> list[int]:
    # Gauss-Jordan elimination in place on bit columns 0..n-1 of the packed
    # rows: afterwards work[r] is the only row with a bit in pivots[r], and
    # those rows come first, in column order. The pivot is the first row at
    # or below r with the column's bit, as in a row-by-row scan. Bits at n
    # and above ride along, which is how invert carries the identity half of
    # [A | I].
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
