"""Vectorized block pipeline used by the message codec and the analysis reports.

The same transform as cipher.encrypt_block/decrypt_block, applied to N
blocks at once, with each step a fixed number of numpy calls whatever N is.
The rounds work on a C-contiguous (64, N) copy of the blocks' transpose, one
row per cell, so every table lookup gathers whole rows with
``take(..., axis=0)``: at the codec's N <= 12, fancy indexing of the strided
transpose view cost 3-7 times as much as ``take`` on the contiguous copy.
Every step makes a new array, so the caller's states and keys are never
written. The (N, 64) uint8 result is a view of the final (64, N) array.
``_MIX_1``/``_MIX_2`` are cipher's ``_NEIGH_1``/``_NEIGH_2`` as (5, 64) tables
(column i: cell i and its four neighbours): a mix pass is one gather and one
XOR-reduce over the spec's own neighbourhood.

Every round runs under the session key k itself. Let P shift every grid row
one column right, R_k rotate each octet by its digit of k, and M be the mix.
Round m's key is P^(m-1) k (keys.derive_round_key), and three facts fold
the rounds together: rotating by P^s k is P^s R_k P^-s; M commutes with P on
the torus; and P^8 = I. The eight rounds P^(m-1) M R_k P^-(m-1), m = 1..8,
therefore telescope to (P^-1 M R_k)^8, and decryption is
(R_k^-1 M^-1 P)^8. Each loop folds its one-column shift into a mix table:
``_MIX_NEXT`` reads the neighbourhood of the next column (P^-1 M) and
``_MIX_PREV`` that of the previous one (M P). Tests pin this path to the
scalar one byte for byte.
"""

from __future__ import annotations

import numpy as np

from .cipher import _NEIGH_1, _NEIGH_2, ROUNDS
from .keys import _ROW_ROTATIONS

_MIX_1, _MIX_2 = (np.array(table, dtype=np.intp).T.copy() for table in (_NEIGH_1, _NEIGH_2))
_MIX_NEXT, _MIX_PREV = (_MIX_1.take(_ROW_ROTATIONS[r], axis=1) for r in (1, 7))


def encrypt_blocks(states, session_keys) -> np.ndarray:
    """Encrypt N blocks; ``session_keys`` is one key (64,) or one per block (N, 64).

    Any other key count raises ValueError.
    """
    x, right, left = _operands(states, session_keys)
    for _ in range(ROUNDS):
        x = (x >> right) | (x << left)
        x = np.bitwise_xor.reduce(x.take(_MIX_NEXT, axis=0), axis=0)
    return x.T


def decrypt_blocks(states, session_keys) -> np.ndarray:
    """Inverse of encrypt_blocks under the same keys."""
    x, right, left = _operands(states, session_keys)
    for _ in range(ROUNDS):
        x = np.bitwise_xor.reduce(x.take(_MIX_PREV, axis=0), axis=0)
        x = np.bitwise_xor.reduce(x.take(_MIX_2, axis=0), axis=0)
        x = (x << right) | (x >> left)
    return x.T


def _cells(x) -> np.ndarray:
    # Accept bytes-likes and arrays of (N, 64) octets alike; return the
    # C-contiguous (64, N) working array, row i holding cell i of each block.
    if isinstance(x, (bytes, bytearray, memoryview)):
        x = np.frombuffer(bytes(x), dtype=np.uint8)
    return np.ascontiguousarray(np.asarray(x, dtype=np.uint8).reshape(-1, 64).T)


def _operands(states, session_keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The (64, N) states, and for K keys the (64, K) right shifts (the key
    # digits) and the left shifts (8 - r) & 7 that complete each rotation.
    x, right = _cells(states), _cells(session_keys)
    if right.shape[1] not in (1, x.shape[1]):
        raise ValueError(f"got {right.shape[1]} session keys for {x.shape[1]} blocks: "
                         "need 1 key or one per block")
    return x, right, (8 - right) & 7
