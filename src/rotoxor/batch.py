"""Vectorized block pipeline used by the message codec and the analysis reports.

Round-for-round the same transform as cipher.encrypt_block/decrypt_block,
applied to N blocks at once, with each step a fixed number of numpy calls
whatever N is. The rounds work on a C-contiguous (64, N) copy of the
blocks' transpose, one row per cell, so every table lookup gathers whole
rows with ``take(..., axis=0)``: at the codec's N <= 12, fancy indexing of
the strided transpose view cost 3-7 times as much as ``take`` on the
contiguous copy. Every step makes a new array, so the caller's states and
keys are never written. The (N, 64) uint8 result is a view of the final
(64, N) array. ``_MIX_1``/``_MIX_2`` are cipher's ``_NEIGH_1``/``_NEIGH_2``
as (5, 64) tables (column i: cell i and its four neighbours): a mix pass is
one gather and one XOR-reduce over the spec's own neighbourhood. Row m-1 of
the (8, 64) ``_ROUND_CELLS`` names the key cell that
keys.derive_round_key(key, m) puts at each cell, so one gather yields every
round key. Tests pin this path to the scalar one byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cipher import _NEIGH_1, _NEIGH_2, ROUNDS

_MIX_1, _MIX_2 = (np.array(table, dtype=np.intp).T.copy() for table in (_NEIGH_1, _NEIGH_2))
_ROUND_CELLS = np.array([[i & ~7 | (i - s) & 7 for i in range(64)] for s in range(ROUNDS)])


def encrypt_blocks(states, session_keys) -> np.ndarray:
    """Encrypt N blocks; ``session_keys`` is one key (64,) or one per block (N, 64)."""
    x = _cells(states)
    right, left = _round_shifts(session_keys)
    for m in range(ROUNDS):
        x = (x >> right[m]) | (x << left[m])
        x = np.bitwise_xor.reduce(x.take(_MIX_1, axis=0), axis=0)
    return x.T


def decrypt_blocks(states, session_keys) -> np.ndarray:
    """Inverse of encrypt_blocks under the same keys."""
    x = _cells(states)
    right, left = _round_shifts(session_keys)
    for m in reversed(range(ROUNDS)):
        x = np.bitwise_xor.reduce(x.take(_MIX_1, axis=0), axis=0)
        x = np.bitwise_xor.reduce(x.take(_MIX_2, axis=0), axis=0)
        x = (x << right[m]) | (x >> left[m])
    return x.T


def blocks_to_array(blocks: Sequence[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 64)


def _cells(x) -> np.ndarray:
    # Accept bytes-likes and arrays of (N, 64) octets alike; return the
    # C-contiguous (64, N) working array, row i holding cell i of each block.
    if isinstance(x, (bytes, bytearray, memoryview)):
        x = np.frombuffer(bytes(x), dtype=np.uint8)
    return np.ascontiguousarray(np.asarray(x, dtype=np.uint8).reshape(-1, 64).T)


def _round_shifts(session_keys) -> tuple[np.ndarray, np.ndarray]:
    # For K keys, the (8, 64, K) round keys r and the left shifts (8 - r) & 7
    # that complete each rotation.
    right = _cells(session_keys).take(_ROUND_CELLS, axis=0)
    left = 8 - right
    left &= 7
    return right, left
