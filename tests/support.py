"""Helpers that only the tests use: bit and GF(2) arithmetic, block adaptors."""

import numpy as np


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between two equal-length byte strings."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).bit_count()


def flip_bit(state: bytes, position: int) -> bytes:
    """Copy of ``state`` with one bit flipped (position 0..511, LSB-first per octet)."""
    out = bytearray(state)
    out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


def identity(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def mat_mul(a: list[int], b: list[int]) -> list[int]:
    """Matrix product: row i of the result XORs the rows of b selected by a[i]."""
    out = []
    for row in a:
        acc = 0
        k = 0
        while row:
            if row & 1:
                acc ^= b[k]
            row >>= 1
            k += 1
        out.append(acc)
    return out


def array_to_blocks(arr: np.ndarray) -> list[bytes]:
    data = np.ascontiguousarray(arr, dtype=np.uint8).tobytes()
    return [data[i:i + 64] for i in range(0, len(data), 64)]


def batched(block_fn):
    """Lift ``block_fn(state, key) -> bytes`` to batch.encrypt_blocks' one-key form."""
    def encrypt_fn(states, session_key):
        out = b"".join(block_fn(s, session_key) for s in array_to_blocks(states))
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, 64)
    return encrypt_fn
