"""GF(2) linear algebra on bit-matrices stored as lists of int row bitmasks.

Row i of an n x n matrix is an int whose bit j is the entry (i, j).
"""

from __future__ import annotations

from .errors import SingularMapError


def transpose(rows: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        j = 0
        while row:
            if row & 1:
                out[j] |= bit
            row >>= 1
            j += 1
    return out


def mat_vec(rows: list[int], x: int) -> int:
    """Matrix-vector product: bit i of the result is parity(rows[i] AND x)."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def rank(rows: list[int], n: int) -> int:
    """Rank via Gaussian elimination; the input is not modified."""
    return len(_eliminate(list(rows), n))


def invert(rows: list[int], n: int) -> list[int]:
    """Inverse via elimination on [A | I]; raises SingularMapError if singular."""
    if len(rows) != n:
        raise SingularMapError(f"matrix must be {n}x{n}")
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    pivots = _eliminate(work, n)
    if len(pivots) < n:
        col = min(set(range(n)).difference(pivots))
        raise SingularMapError(f"matrix is singular (no pivot in column {col})")
    return [row >> n for row in work]


def _eliminate(work: list[int], n: int) -> list[int]:
    # Gauss-Jordan elimination in place on bit columns 0..n-1: afterwards
    # work[r] is the only row with a bit in pivots[r], and those rows come
    # first, in column order. Bits at n and above ride along, which is how
    # invert carries the identity half of [A | I].
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> col) & 1):
                work[i] ^= work[r]
        pivots.append(col)
    return pivots
