"""Empirical checks of the cipher's security and performance behavior.

Covers the avalanche effect for plaintext and key changes, repeated-block
distinctness under the session-key chain, data-independent timing, key-space
accounting, and a chosen-plaintext attack that recovers the fixed-key cipher
as a 512x512 GF(2) matrix and then decrypts without the key.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable

import numpy as np

from . import batch, gf2
from .cipher import encrypt_block
from .errors import SingularMapError
from .keys import _check_key, session_key_chain

STATE_BITS = 512


class LinearMap512:
    """The fixed-key block transform as a 512x512 bit matrix over GF(2).

    ``columns`` holds the matrix's columns as gf2 packed rows, shape
    (512, 8): row c is the image of the c-th single-bit basis state, so its
    bytes are that ciphertext block. ``inverse`` holds the inverse matrix's
    columns in the same form, computed once when the map is built; building
    raises SingularMapError if there is none.
    """

    def __init__(self, columns: np.ndarray):
        if columns.shape != (STATE_BITS, STATE_BITS // 64):
            raise ValueError(
                f"expected {STATE_BITS} packed columns of {STATE_BITS} bits, got {columns.shape}")
        self.columns = columns
        self.inverse = gf2.invert(columns, STATE_BITS)

    def mean_column_weight(self) -> float:
        ones = int(np.unpackbits(self.columns.view(np.uint8)).sum())
        return ones / (STATE_BITS * STATE_BITS)


def recover_linear_map(encrypt_oracle: Callable[[bytes], bytes]) -> LinearMap512:
    """Rebuild the cipher matrix from one chosen-plaintext oracle query.

    The oracle must be the block transform under one fixed session key,
    taking whole 64-octet blocks and returning their ciphertexts as one
    buffer of the same length. It is asked once, for the 512 single-bit
    basis states in column order; ciphertext c is matrix column c. The
    inverse is computed here, once, for kpa_decrypt. Raises ValueError if
    the reply has the wrong length, and SingularMapError if the result is
    not invertible, which for this construction signals a broken
    implementation.
    """
    bit = np.arange(STATE_BITS)
    basis = np.zeros((STATE_BITS, 64), np.uint8)
    basis[bit, bit >> 3] = 1 << (bit & 7)
    replies = encrypt_oracle(basis.tobytes())
    if len(replies) != basis.size:
        raise ValueError(f"oracle must answer the {STATE_BITS} basis states with "
                         f"{basis.size} octets, got {len(replies)}")
    try:
        return LinearMap512(np.frombuffer(replies, "<u8").reshape(STATE_BITS, -1))
    except SingularMapError as err:
        raise SingularMapError("recovered cipher matrix is singular") from err


def kpa_decrypt(linear_map: LinearMap512, ciphertext: bytes) -> bytes:
    """Decrypt k whole blocks with the recovered matrix alone, no key involved."""
    if len(ciphertext) % 64:
        raise ValueError(f"ciphertext must be whole 64-octet blocks, got {len(ciphertext)} octets")
    states = np.frombuffer(ciphertext, "<u8").reshape(-1, STATE_BITS // 64)
    return gf2.mat_vec(linear_map.inverse, states).tobytes()


def linearity_check(
    session_key: bytes, trials: int, seed: int
) -> tuple[bool, tuple[bytes, bytes] | None]:
    """Test E(x^y) = E(x)^E(y) and E(0) = 0 on random pairs.

    Returns (True, None) when every trial holds, else (False, (x, y)) with
    the first failing pair. E is batch.encrypt_blocks, looked up when the
    check runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_key(bytes(session_key))
    encrypt = batch.encrypt_blocks
    rng = random.Random(seed)
    zero = bytes(64)
    if encrypt(batch.blocks_to_array([zero]), session_key).any():
        return False, (zero, zero)
    xs = [rng.randbytes(64) for _ in range(trials)]
    ys = [rng.randbytes(64) for _ in range(trials)]
    ax = batch.blocks_to_array(xs)
    ay = batch.blocks_to_array(ys)
    ex = encrypt(ax, session_key)
    ey = encrypt(ay, session_key)
    exy = encrypt(ax ^ ay, session_key)
    bad = (exy != (ex ^ ey)).any(axis=1).nonzero()[0]
    if bad.size:
        t = int(bad[0])
        return False, (xs[t], ys[t])
    return True, None


@dataclass
class AvalancheReport:
    """Flipped-output-bit statistics over a batch of single-change trials."""

    trials: int
    flipped_ratio_mean: float
    flipped_ratio_min: float
    flipped_ratio_max: float
    flipped_ratio_stddev: float
    seed: int
    mode: str = "plaintext-sample"

    def as_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


def avalanche_plaintext(session_key: bytes, trials: int, seed: int) -> AvalancheReport:
    """Sample the plaintext avalanche: flip one random state bit per trial.

    By linearity the flipped-bit count for position p equals the weight of
    matrix column p whatever the base state, so the sampled distribution is
    exactly the column-weight distribution under random position choice.
    """
    _check_key(bytes(session_key))
    states, positions = [], []
    for sub in _trial_seeds(seed, trials):
        rng = random.Random(sub)
        states.append(rng.randbytes(64))
        positions.append(rng.randrange(STATE_BITS))
    base = batch.blocks_to_array(states)
    distances = _output_distances(
        base, session_key, _flip_bits(base, positions), session_key)
    return _avalanche_report(distances, seed, "plaintext-sample")


def avalanche_key(master: bytes, trials: int, seed: int) -> AvalancheReport:
    """Sample key sensitivity: change one key digit to a different value per trial."""
    _check_key(bytes(master))
    states, mutated = [], []
    for sub in _trial_seeds(seed, trials):
        rng = random.Random(sub)
        states.append(rng.randbytes(64))
        position = rng.randrange(64)
        replacement = rng.choice([d for d in range(8) if d != master[position]])
        key = bytearray(master)
        key[position] = replacement
        mutated.append(bytes(key))
    base = batch.blocks_to_array(states)
    distances = _output_distances(base, master, base, batch.blocks_to_array(mutated))
    return _avalanche_report(distances, seed, "key-sample")


@dataclass
class RepeatedBlockReport:
    """Pairwise comparison of ciphertexts of one content repeated across blocks."""

    block_count: int
    collisions: tuple[tuple[int, int], ...]
    all_distinct: bool

    def as_lines(self) -> list[str]:
        pairs = ";".join(f"{a}-{b}" for a, b in self.collisions) or "none"
        return [
            f"block_count={self.block_count}",
            f"collisions={pairs}",
            f"all_distinct={self.all_distinct}",
        ]


def repeated_block_report(
    master: bytes, content: bytes, block_count: int
) -> RepeatedBlockReport:
    """Encrypt the same content in block positions 1..block_count and compare.

    Over early block positions the chained session keys keep the ciphertexts
    pairwise distinct for typical keys and content. Degenerate exceptions:
    all-zero content (fixed point of every linear map), the all-zero master
    key (fixed point of the chain), and block positions past
    keys.LIVE_BLOCKS (13 and beyond). Their session keys turn the block
    transform into the identity, so there identical content always
    collides (and, worse, is transmitted unchanged).
    """
    if block_count < 2:
        raise ValueError("block_count must be >= 2")
    if len(content) != 64:
        raise ValueError(f"content must be exactly 64 octets, got {len(content)}")
    session_keys = b"".join(islice(session_key_chain(master), block_count))
    encrypted = batch.encrypt_blocks(bytes(content) * block_count, session_keys)
    ciphertexts = [row.tobytes() for row in encrypted]
    collisions = tuple(
        (a + 1, b + 1)
        for a in range(block_count)
        for b in range(a + 1, block_count)
        if ciphertexts[a] == ciphertexts[b]
    )
    return RepeatedBlockReport(block_count, collisions, not collisions)


@dataclass
class TimingReport:
    """Per-block wall-clock timing, split by plaintext content class."""

    blocks_timed: int
    mean_ns: float
    stddev_ns: float
    min_ns: int
    max_ns: int
    zero_mean_ns: float
    uniform_mean_ns: float
    random_mean_ns: float
    class_spread: float
    noise_threshold: float
    data_independent: bool

    def as_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


_BENCH_KEY = bytes(random.Random(0).choices(range(8), k=64))
# The largest relative spread of the per-class means still called noise.
_NOISE_THRESHOLD = 0.20


def bench_throughput(block_count: int) -> TimingReport:
    """Time encrypt_block over three content classes under one fixed key.

    ``block_count`` blocks per class: all-zero, uniform (one repeated octet),
    and random content. Classes are interleaved in chunks to spread drift,
    and the per-class means are compared against _NOISE_THRESHOLD for the
    data-independence verdict.
    """
    if block_count < 100:
        raise ValueError("block_count must be >= 100")
    rng = random.Random(0xBE7C)
    classes = {
        "zero": [bytes(64)] * block_count,
        "uniform": [bytes([0xA5]) * 64] * block_count,
        "random": [rng.randbytes(64) for _ in range(block_count)],
    }
    for _ in range(200):  # warm-up
        encrypt_block(rng.randbytes(64), _BENCH_KEY)
    samples: dict[str, list[int]] = {name: [] for name in classes}
    chunk = max(1, block_count // 20)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        done = 0
        while done < block_count:
            take = min(chunk, block_count - done)
            for name, blocks in classes.items():
                out = samples[name]
                for block in blocks[done:done + take]:
                    t0 = time.perf_counter_ns()
                    encrypt_block(block, _BENCH_KEY)
                    out.append(time.perf_counter_ns() - t0)
            done += take
    finally:
        if gc_was_enabled:
            gc.enable()
    every = samples["zero"] + samples["uniform"] + samples["random"]
    means = {name: statistics.fmean(vals) for name, vals in samples.items()}
    spread = (max(means.values()) - min(means.values())) / min(means.values())
    return TimingReport(
        blocks_timed=len(every),
        mean_ns=statistics.fmean(every),
        stddev_ns=statistics.pstdev(every),
        min_ns=min(every),
        max_ns=max(every),
        zero_mean_ns=means["zero"],
        uniform_mean_ns=means["uniform"],
        random_mean_ns=means["random"],
        class_spread=spread,
        noise_threshold=_NOISE_THRESHOLD,
        data_independent=spread <= _NOISE_THRESHOLD,
    )


def keyspace_report() -> str:
    """Contrast the stated key count (64^8) with the structural count (8^64)."""
    stated = 64 ** 8
    structural = 8 ** 64
    lines = [
        "stated_keys=64^8",
        "stated_keys_pow2=2^48",
        f"stated_keys_value={stated}",
        "structural_keys=8^64",
        "structural_keys_pow2=2^192",
        f"structural_keys_value={structural}",
        "discrepancy=yes",
        "discrepancy_note=the stated count 2^48 and the structural count 2^192"
        " differ by a factor of 2^144; 64 positions over 8 digit values give"
        " 8^64 keys, not 64^8",
    ]
    return "\n".join(lines)


def _trial_seeds(seed: int, trials: int) -> list[int]:
    # Every trial gets its own sub-seed so trial order (or parallel
    # execution) cannot change the report.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(trials)]


def _flip_bits(states: np.ndarray, positions) -> np.ndarray:
    # Copy of the (N, 64) states with bit positions[i] of row i flipped;
    # state bit p is bit p & 7 (LSB first) of octet p >> 3.
    pos = np.fromiter(positions, dtype=np.intp)
    out = states.copy()
    out[np.arange(len(pos)), pos >> 3] ^= (1 << (pos & 7)).astype(np.uint8)
    return out


def _output_distances(states_a, keys_a, states_b, keys_b) -> list[int]:
    # Per block, the output bits that differ between the two encryptions.
    diff = batch.encrypt_blocks(states_a, keys_a) ^ batch.encrypt_blocks(states_b, keys_b)
    return np.unpackbits(diff, axis=1).sum(axis=1).tolist()


def _avalanche_report(distances: list[int], seed: int, mode: str) -> AvalancheReport:
    ratios = [d / STATE_BITS for d in distances]
    return AvalancheReport(
        trials=len(distances),
        flipped_ratio_mean=sum(distances) / (STATE_BITS * len(distances)),
        flipped_ratio_min=min(ratios),
        flipped_ratio_max=max(ratios),
        flipped_ratio_stddev=statistics.pstdev(ratios),
        seed=seed,
        mode=mode,
    )
