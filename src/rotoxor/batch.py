"""Vectorized block pipeline used by the message codec and the analysis reports.

The same transform as cipher.encrypt_block/decrypt_block, applied to N
blocks at once, with each step a fixed number of numpy calls whatever N is.
The rounds work on a C-contiguous (64, W) copy of the blocks' transpose, one
row per cell, so every table lookup gathers whole rows with
``take(..., axis=0)``: at the codec's N <= 12, fancy indexing of the strided
transpose view cost 3-7 times as much as ``take`` on the contiguous copy.
Every step makes a new array, so the caller's states and keys are never
written. The (N, 64) uint8 result is a view of the final (64, W) array.
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
``_MIX_PREV`` that of the previous one (M P). A rotation by r is a right
shift by r OR a left shift by 8 - r: for r = 0 that is a shift by 8, which
numpy defines as 0 for uint8, so no mask is needed. Tests pin this path to
the scalar one byte for byte.

The size rule: up to ``_SMALL`` (32) blocks, W is N rounded up to a power of
two, and decryption applies M^-1 P as one gather over ``_MIX_INV_PREV``, the
17 cells per column that ``_MIX_PREV`` then ``_MIX_2`` reach an odd number
of times; above it, W = N and the inverse mix is those two 5-cell passes.
Both paths are needed. The codec sends N <= 12 (keys.LIVE_BLOCKS), where
the time is per-call overhead: one pass makes 8 fewer gathers and
reductions, and ``take`` copies rows of 1, 2, 4, 8, 16 or 32 octets by a
fast path but others by ``memmove``, which without the padding cost as much
as the pass saved (N = 12 decrypt: 68 µs both ways; padded, 55 µs).
Encryption shares the padding, which neither helps nor costs it there. The
attack's check sends N >= 100, where the 17-row gather costs more than two
5-row ones (N = 1000, per-block keys: 1.07 against 0.96 ms) and would break
the bound of 10 times the states' bytes that tests pin on a round's
temporaries. Two one-key callers that only encrypt lie above it as well: the
attack's query of the 512 single-bit basis states, and the plaintext
avalanche's one call per report of the 64 cell basis states.
"""

from __future__ import annotations

import numpy as np

from .cipher import _NEIGH_1, _NEIGH_2, ROUNDS
from .keys import _ROW_ROTATIONS

_MIX_1, _MIX_2 = (np.array(table, dtype=np.intp).T.copy() for table in (_NEIGH_1, _NEIGH_2))
_MIX_NEXT, _MIX_PREV = (_MIX_1.take(_ROW_ROTATIONS[r], axis=1) for r in (1, 7))
# _MIX_PREV then _MIX_2 as one pass. _hits[c, b] counts the ways the two
# passes carry cell b into cell c; an even count cancels, leaving 17.
_hits = np.zeros((64, 64), dtype=np.intp)
np.add.at(_hits, (np.arange(64), _MIX_PREV[:, _MIX_2]), 1)
_MIX_INV_PREV = np.nonzero(_hits & 1)[1].reshape(64, -1).T.copy()
_SMALL = 32


def encrypt_blocks(states, session_keys) -> np.ndarray:
    """Encrypt N blocks; ``session_keys`` is one key (64,) or one per block (N, 64).

    Any other key count raises ValueError.
    """
    x, right, left, n = _operands(states, session_keys)
    for _ in range(ROUNDS):
        x = (x >> right) | (x << left)
        x = np.bitwise_xor.reduce(x.take(_MIX_NEXT, axis=0), axis=0)
    return x[:, :n].T


def decrypt_blocks(states, session_keys) -> np.ndarray:
    """Inverse of encrypt_blocks under the same keys."""
    x, right, left, n = _operands(states, session_keys)
    tables = (_MIX_INV_PREV,) if n <= _SMALL else (_MIX_PREV, _MIX_2)
    for _ in range(ROUNDS):
        for table in tables:
            x = np.bitwise_xor.reduce(x.take(table, axis=0), axis=0)
        x = (x << right) | (x >> left)
    return x[:, :n].T


def _rows(x) -> np.ndarray:
    # Bytes-likes and arrays of (N, 64) octets alike, as an (N, 64) uint8
    # array. Only a memoryview is copied, since it may be strided.
    if isinstance(x, (bytes, bytearray, memoryview)):
        x = np.frombuffer(x.tobytes() if isinstance(x, memoryview) else x, dtype=np.uint8)
    return np.asarray(x, dtype=np.uint8).reshape(-1, 64)


def _cells(rows: np.ndarray, width: int) -> np.ndarray:
    # The C-contiguous (64, width) working array: row i holds cell i of each
    # block, then zeros.
    if len(rows) == width:
        return np.ascontiguousarray(rows.T)
    cells = np.zeros((64, width), dtype=np.uint8)
    cells[:, :len(rows)] = rows.T
    return cells


def _operands(states, session_keys) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    # The (64, W) states, the right shifts (the key digits, (64, 1) for one
    # key and (64, W) for one per block), the left shifts 8 - r that
    # complete each rotation, and N. W is N, rounded up to a power of two
    # up to _SMALL blocks.
    blocks, keys = _rows(states), _rows(session_keys)
    n = len(blocks)
    if len(keys) not in (1, n):
        raise ValueError(f"got {len(keys)} session keys for {n} blocks: "
                         "need 1 key or one per block")
    width = n if n > _SMALL or not n & (n - 1) else 1 << n.bit_length()
    right = _cells(keys, width if len(keys) == n else 1)
    return _cells(blocks, width), right, 8 - right, n
