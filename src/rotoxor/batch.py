"""Vectorized block pipeline used by the message codec and the analysis reports.

Round-for-round the same transform as cipher.encrypt_block/decrypt_block,
applied to N blocks at once with numpy. The test suite pins the two
implementations to byte equality on random data.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def encrypt_blocks(states, session_keys) -> np.ndarray:
    """Encrypt N blocks; ``session_keys`` is one key (64,) or one per block (N, 64)."""
    x = _as_grid(states)
    k = _as_grid(session_keys)
    for m in range(1, 9):
        rk = np.roll(k, m - 1, axis=2)
        x = (x >> rk) | (x << ((8 - rk) & 7))
        x = _mix(x, 1)
    return x.reshape(-1, 64)


def decrypt_blocks(states, session_keys) -> np.ndarray:
    """Inverse of encrypt_blocks under the same keys."""
    x = _as_grid(states)
    k = _as_grid(session_keys)
    for m in range(8, 0, -1):
        rk = np.roll(k, m - 1, axis=2)
        x = _mix(_mix(x, 1), 2)
        x = (x << rk) | (x >> ((8 - rk) & 7))
    return x.reshape(-1, 64)


def blocks_to_array(blocks: Sequence[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 64)


def _as_grid(x) -> np.ndarray:
    # Accept bytes-likes and arrays alike; see each block as an 8x8 grid.
    if isinstance(x, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(bytes(x), dtype=np.uint8)
    else:
        arr = np.asarray(x, dtype=np.uint8)
    return arr.reshape(-1, 8, 8)


def _mix(x: np.ndarray, dist: int) -> np.ndarray:
    # One diffusion pass: XOR with the four plus-neighbors at the given distance.
    return (x
            ^ np.roll(x, dist, axis=1) ^ np.roll(x, -dist, axis=1)
            ^ np.roll(x, dist, axis=2) ^ np.roll(x, -dist, axis=2))
