"""Vectorized block pipeline used by the message codec and the analysis reports.

``session_keys`` is the session-key chain's one implementation, in closed
form: it returns the keys of blocks 1..n as one (n, 64) uint8 array, the
form ``encrypt_blocks`` and ``decrypt_blocks`` take them in.

The block functions are cipher.encrypt_block/decrypt_block applied to N
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
shift by r OR a left shift by 8 - r, and each loop does the left shift by
s as a uint8 multiply by 2^s, ``np.left_shift(_ONE, s)``: for r = 0 that
is 2^8, which wraps to 0 as a shift by 8 gives 0, so no mask is needed.
numpy 2.4's uint8 shift by an array is not vectorized and its multiply is
(W = 1000: 20.0 against 3.5 µs; W = 4096: 77 against 12 µs); at the
codec's N <= 12 the two cost the same, the powers' one extra call
included. The powers replace the shift amounts they come from
(encryption's left, decryption's right), so a round holds no more (64, W)
arrays than the shifts did. Both loops call the ufuncs bound to locals
rather than the ``>>``, ``*`` and ``|`` operators, which reach the same
ufuncs through ndarray's number protocol (eight encryption rounds, 2-vCPU
shared Xeon, W = 1, 8 and 16: 28.3, 34.0 and 38.7 µs with operators;
27.1, 33.7 and 37.9 µs bound). Tests pin this path to the scalar one byte
for byte.

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

from math import comb

import numpy as np

from .cipher import _NEIGH_1, _NEIGH_2, ROUNDS
from .keys import CHAIN_BLOCKS, DIGIT_BASE, KEY_DIGITS, _check_key

# The chain in closed form. Block n's session key is (I+S)^(n-1) applied to
# each row of the master, and S^8 = I, so (I+S)^t is the sum over r of
# c[t][r] S^r with c[t][r] the sum of C(t, i) over i = r (mod 8). Row t-1 of
# _CHAIN_POWERS holds c[t] mod 8 for t = 1..15; (I+S)^16 = 0 mod 8 ends the
# table, and from block keys.LIVE_BLOCKS + 1 on the keys already make the
# block transform the identity. Row r of _ROW_ROTATIONS gathers S^r of a
# key: cell 8i+j reads digit 8i+(j+r)%8. Its rows 1 and 7 (the next and the
# previous column) are also the one-column grid shifts folded into the mix
# tables below.
_CHAIN_POWERS = np.array([[sum(comb(t, i) for i in range(r, t + 1, 8)) % DIGIT_BASE
                           for r in range(8)] for t in range(1, CHAIN_BLOCKS)], dtype=np.float32)
_ROW_ROTATIONS = np.array([[i & ~7 | (i + r) & 7 for i in range(KEY_DIGITS)]
                           for r in range(8)])

_MIX_1, _MIX_2 = (np.array(table, dtype=np.intp).T.copy() for table in (_NEIGH_1, _NEIGH_2))
_MIX_NEXT, _MIX_PREV = (_MIX_1.take(_ROW_ROTATIONS[r], axis=1) for r in (1, 7))
# _MIX_PREV then _MIX_2 as one pass. _hits[c, b] counts the ways the two
# passes carry cell b into cell c; an even count cancels, leaving 17.
_hits = np.zeros((64, 64), dtype=np.intp)
np.add.at(_hits, (np.arange(64), _MIX_PREV[:, _MIX_2]), 1)
_MIX_INV_PREV = np.nonzero(_hits & 1)[1].reshape(64, -1).T.copy()
_SMALL = 32
# numpy scalars, since a Python int operand costs a ufunc call 0.3-0.4 µs.
_ONE, _EIGHT, _DIGIT_MASK = np.uint8(1), np.uint8(8), np.uint16(DIGIT_BASE - 1)


def session_keys(master: bytes, n: int) -> np.ndarray:
    """The session keys of blocks 1..n as one (n, 64) uint8 array.

    Row 1 is the checked master, so one block computes no other key. Rows
    2..min(n, 16) come from one product of the closed form; every later row
    is keys.ZERO_KEY, the chain's fixed point. The product is in float32,
    since ``np.dot`` on integers skips BLAS and runs a slower loop; it is
    exact, as every sum is at most 8 * 7 * 7 = 392.
    """
    key = np.frombuffer(_check_key(master), dtype=np.uint8)
    keys = np.zeros((n, KEY_DIGITS), dtype=np.uint8)
    keys[:1] = key
    if n > 1:
        powers = _CHAIN_POWERS[:n - 1]
        product = np.dot(powers, key.take(_ROW_ROTATIONS))
        keys[1:len(powers) + 1] = product.astype(np.uint16) & _DIGIT_MASK
    return keys


def encrypt_blocks(states, session_keys) -> np.ndarray:
    """Encrypt N blocks; ``session_keys`` is one key (64,) or one per block (N, 64).

    The keys may be bytes or a uint8 array such as session_keys returns.
    Any other key count raises ValueError.
    """
    x, right, left, n = _operands(states, session_keys)
    left = np.left_shift(_ONE, left)
    shr, mul, bor, xor = np.right_shift, np.multiply, np.bitwise_or, np.bitwise_xor.reduce
    for _ in range(ROUNDS):
        x = bor(shr(x, right), mul(x, left))
        x = xor(x.take(_MIX_NEXT, axis=0), axis=0)
    return x[:, :n].T


def decrypt_blocks(states, session_keys) -> np.ndarray:
    """Inverse of encrypt_blocks under the same keys."""
    x, right, left, n = _operands(states, session_keys)
    tables = (_MIX_INV_PREV,) if n <= _SMALL else (_MIX_PREV, _MIX_2)
    right = np.left_shift(_ONE, right)
    shr, mul, bor, xor = np.right_shift, np.multiply, np.bitwise_or, np.bitwise_xor.reduce
    for _ in range(ROUNDS):
        for table in tables:
            x = xor(x.take(table, axis=0), axis=0)
        x = bor(mul(x, right), shr(x, left))
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
    return _cells(blocks, width), right, _EIGHT - right, n
