"""Helpers that only the tests use: bit and GF(2) arithmetic, block adaptors.

The GF(2) functions here work one int row at a time (bit j of row i is the
entry (i, j)) and are the slow reference that the packed ``rotoxor.gf2`` is
compared against; ``pack_rows`` and ``unpack_rows`` convert between the two
forms.
"""

import random
import statistics

import numpy as np

from rotoxor import analysis
from rotoxor.cipher import encrypt_block
from rotoxor.errors import SingularMapError


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between two equal-length byte strings."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).bit_count()


def flip_bit(state: bytes, position: int) -> bytes:
    """Copy of ``state`` with one bit flipped (position 0..511, LSB-first per octet)."""
    out = bytearray(state)
    out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


def pack_rows(rows: list[int], width: int) -> np.ndarray:
    """Int rows as gf2 packed rows, (len(rows), ceil(width / 64)) uint64; bits >= width drop."""
    words = -(-width // 64)
    mask = (1 << width) - 1
    data = b"".join((row & mask).to_bytes(8 * words, "little") for row in rows)
    return np.frombuffer(data, "<u8").reshape(len(rows), words).copy()


def unpack_rows(packed: np.ndarray) -> list[int]:
    """Inverse of pack_rows: one int per packed row."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def apply_columns(columns, block: bytes) -> bytes:
    """Matrix-vector product: XOR of the columns selected by the input bits."""
    x = int.from_bytes(block, "little")
    acc = 0
    c = 0
    while x:
        if x & 1:
            acc ^= columns[c]
        x >>= 1
        c += 1
    return acc.to_bytes(64, "little")


def mat_vec_reference(rows: list[int], x: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def transpose_reference(rows: list[int], n: int) -> list[int]:
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


def rank_reference(rows: list[int], n: int) -> int:
    return len(_eliminate_reference(list(rows), n))


def invert_reference(rows: list[int], n: int) -> list[int]:
    if len(rows) != n:
        raise SingularMapError(f"matrix must be {n}x{n}")
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    pivots = _eliminate_reference(work, n)
    if len(pivots) < n:
        col = min(set(range(n)).difference(pivots))
        raise SingularMapError(f"matrix is singular (no pivot in column {col})")
    return [row >> n for row in work]


def _eliminate_reference(work: list[int], n: int) -> list[int]:
    # Gauss-Jordan on int rows in place over bit columns 0..n-1; the pivot
    # is the first row at or below r with the column's bit.
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


def scalar_avalanche_plaintext_sweep(key: bytes, seed: int):
    """Flip each of the 512 state bits of one seeded random block once."""
    base = random.Random(seed).randbytes(64)
    encrypted = encrypt_block(base, key)
    distances = [hamming_distance(encrypted, encrypt_block(flip_bit(base, p), key))
                 for p in range(512)]
    return avalanche_report_reference(distances, seed, "plaintext-sweep")


def avalanche_report_reference(distances: list[int], seed: int, mode: str):
    """The report's statistics computed on the list of distances with ``statistics``."""
    ratios = [d / 512 for d in distances]
    return analysis.AvalancheReport(
        trials=len(distances),
        flipped_ratio_mean=sum(distances) / (512 * len(distances)),
        flipped_ratio_min=min(ratios),
        flipped_ratio_max=max(ratios),
        flipped_ratio_stddev=statistics.pstdev(ratios),
        seed=seed,
        mode=mode,
    )


def is_identity_form(key: bytes) -> bool:
    """Every digit 0 or 4, and every 8-digit row repeating with period 4."""
    return set(key) <= {0, 4} and all(key[i] == key[i ^ 4] for i in range(64))


def chain_step_reference(prev: bytes) -> bytes:
    """One chain step, digit by digit: each digit plus its right neighbour in its row, mod 8."""
    return bytes((prev[i + j] + prev[i + (j + 1) % 8]) % 8
                 for i in range(0, 64, 8) for j in range(8))


def chain_reference(master: bytes, count: int) -> list[bytes]:
    """The session keys of blocks 1..count, stepped one at a time from the master."""
    out = [bytes(master)]
    while len(out) < count:
        out.append(chain_step_reference(out[-1]))
    return out[:count]


def block_12_master(rng: random.Random) -> bytes:
    """A master whose chain first reaches identity form at block 12, not 13.

    About 1 in 200 random keys; the chain step keeps the form.
    """
    while True:
        key = bytes(rng.choices(range(8), k=64))
        chain = chain_reference(key, 12)
        if is_identity_form(chain[11]) and not is_identity_form(chain[10]):
            return key


# Digits 0 and 4, rows of period 4, not uniform: the transform is the identity.
IDENTITY_FORM_MASTER = bytes([0, 4, 4, 0] * 16)


def blocks_to_array(blocks) -> np.ndarray:
    """Join 64-octet blocks into one (N, 64) uint8 array."""
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 64)


def array_to_blocks(arr: np.ndarray) -> list[bytes]:
    data = np.ascontiguousarray(arr, dtype=np.uint8).tobytes()
    return [data[i:i + 64] for i in range(0, len(data), 64)]


def blockwise(block_fn):
    """Lift ``block_fn(block) -> bytes`` to a buffer of whole blocks: split, apply, join.

    This is the oracle form analysis.recover_linear_map asks for, with the
    scalar cipher answering one block at a time.
    """
    def buffer_fn(blocks):
        return b"".join(block_fn(blocks[i:i + 64]) for i in range(0, len(blocks), 64))
    return buffer_fn


def batched(block_fn):
    """Lift ``block_fn(state, key) -> bytes`` to batch.encrypt_blocks' one-key form."""
    def encrypt_fn(states, session_key):
        out = b"".join(block_fn(s, session_key) for s in array_to_blocks(states))
        return np.frombuffer(out, dtype=np.uint8).reshape(-1, 64)
    return encrypt_fn
