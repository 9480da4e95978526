"""Empirical checks of the cipher's security and performance behavior.

Covers the avalanche effect for plaintext and key changes, repeated-block
distinctness under the session-key chain, data-independent timing, and a
chosen-plaintext attack that recovers the fixed-key cipher as a 512x512
GF(2) matrix, decrypts without the key, and checks those decryptions against
the key's own. ``analyze`` is every ``rotoxor analyze`` report: it picks the
trial count, key and content the command's options leave out, and returns
the report's lines with its verdict.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from . import batch, gf2
# Unused here; perfbench/spans.py traces this name by lookup, so it stays.
from .cipher import encrypt_block  # noqa: F401
from .errors import SingularMapError
from .keys import _check_key, random_key

STATE_BITS = 512
# Every report, the attack's check included, runs its trials this many at a
# time, so memory is bounded whatever the trial count; the default 1000
# trials fit in one chunk.
_TRIAL_CHUNK = 1024
# _POPCOUNT[b] is the number of set bits in octet b.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint16)
# Row i is the packed basis state 8i: octet 0x01 in cell i.
_CELL_BASIS = np.eye(64, dtype=np.uint8).view("<u8")
# The avalanche trials restate randrange(512), randrange(64) and choice()
# of seven digits as Random._randbelow(n) does them: n.bit_length() bits
# from getrandbits, drawn again until below n.
_CELLS, _OTHER_DIGITS = 64, 7
_POSITION_BITS, _CELL_BITS, _OTHER_BITS = (
    n.bit_length() for n in (STATE_BITS, _CELLS, _OTHER_DIGITS))


class LinearMap512:
    """The fixed-key block transform as a 512x512 bit matrix over GF(2).

    ``columns`` holds the matrix's columns as gf2 packed rows, shape
    (512, 8): row c is the image of the c-th single-bit basis state, so its
    bytes are that ciphertext block. ``inverse`` holds the inverse matrix's
    columns in the same form, computed once when the map is built.

    The inverse comes from the cipher's algebra (see ``cipher``), with no
    elimination. Read each octet as an element of R = F2[x]/(x + 1)^8, so
    that multiplying by x rotates it left one bit. Only an R-linear M with
    M^8 = I is accepted, as every key's transform is; then M^-1 = M^7.
    Building checks both facts and raises SingularMapError naming the first
    that fails:

    - R-linearity: column 8i + j is column 8i with every octet rotated left
      by j, since basis state 8i + j is x^j times basis state 8i;
    - M^8 = I: M^8 returns each of the 64 cell basis states 8i, which
      with R-linearity gives every column.

    M^7 on the cells comes by squaring in three products: M times the 64
    cell columns gives M^2; M^2 (its columns rotated from its cells, as it
    is R-linear too) times M and M^2 gives M^3 and M^4; M^4 times those
    gives M^7 and M^8, whose cells must be the cell basis. The same
    rotations expand M^7 to all 512 columns of the inverse. A nonsingular
    matrix outside that class is refused too.
    """

    def __init__(self, columns: np.ndarray):
        if columns.shape != (STATE_BITS, STATE_BITS // 64):
            raise ValueError(
                f"expected {STATE_BITS} packed columns of {STATE_BITS} bits, got {columns.shape}")
        cells = columns[::8]
        wrong = (_rotations(cells) != columns).any(axis=1)
        if wrong.any():
            c = int(wrong.argmax())
            raise SingularMapError(f"not R-linear: column {c} is not column {c & ~7} "
                                   f"rotated left by {c & 7}")
        # c<k> stacks M^k of the 64 cell basis states; cells is M^1.
        c2 = gf2.mat_vec(columns, cells)
        c34 = gf2.mat_vec(_rotations(c2), np.vstack([cells, c2]))
        c78 = gf2.mat_vec(_rotations(c34[64:]), c34)
        moved = (c78[64:] != _CELL_BASIS).any(axis=1)
        if moved.any():
            raise SingularMapError(f"M^8 is not I: it moves basis state {8 * int(moved.argmax())}")
        self.columns = columns
        self.inverse = _rotations(c78[:64])

    def mean_column_weight(self) -> float:
        ones = int(_POPCOUNT[self.columns.view(np.uint8)].sum())
        return ones / (STATE_BITS * STATE_BITS)


def recover_linear_map(encrypt_oracle: Callable[[bytes], bytes]) -> LinearMap512:
    """Rebuild the cipher matrix from one chosen-plaintext oracle query.

    The oracle must be the block transform under one fixed session key,
    taking whole 64-octet blocks and returning their ciphertexts as one
    buffer of the same length. It is asked once, for the 512 single-bit
    basis states in column order; ciphertext c is matrix column c. The
    inverse is computed here, once, for kpa_decrypt. Raises ValueError if
    the reply has the wrong length, and SingularMapError if the matrix is
    not one LinearMap512 accepts (singular, or not R-linear with M^8 = I),
    with the failed check as its cause; for this construction either
    signals a broken implementation.
    """
    replies = encrypt_oracle(_BIT_BASIS.tobytes())
    if len(replies) != _BIT_BASIS.size:
        raise ValueError(f"oracle must answer the {STATE_BITS} basis states with "
                         f"{_BIT_BASIS.size} octets, got {len(replies)}")
    try:
        return LinearMap512(np.frombuffer(replies, "<u8").reshape(STATE_BITS, -1))
    except SingularMapError as err:
        raise SingularMapError(
            "recovered cipher matrix is singular or not R-linear with M^8 = I") from err


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
    check runs. Every x is drawn from Random(seed) before every y; a second
    Random(seed) skips the x draws, so both streams run chunk by chunk.
    """
    sizes = _chunk_sizes(trials)
    _check_key(session_key)
    encrypt = batch.encrypt_blocks
    if encrypt(np.zeros((1, 64), np.uint8), session_key).any():
        return False, (bytes(64), bytes(64))
    x_rng, y_rng = random.Random(seed), random.Random(seed)
    for n in sizes:
        # 512 bits advance the stream exactly as randbytes(64) does.
        y_rng.getrandbits(STATE_BITS * n)
    for n in sizes:
        xs, ys = x_rng.randbytes(64 * n), y_rng.randbytes(64 * n)
        ax = np.frombuffer(xs, np.uint8).reshape(n, 64)
        ay = np.frombuffer(ys, np.uint8).reshape(n, 64)
        exy = encrypt(ax ^ ay, session_key)
        bad = (exy != (encrypt(ax, session_key) ^ encrypt(ay, session_key))).any(axis=1)
        if bad.any():
            t = 64 * int(bad.argmax())
            return False, (xs[t:t + 64], ys[t:t + 64])
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
        return _field_lines(self)


def avalanche_plaintext(session_key: bytes, trials: int, seed: int) -> AvalancheReport:
    """Sample the plaintext avalanche: flip one random state bit per trial.

    The cipher is linear, so the bits a flip at position p changes are
    exactly matrix column p, whatever the base state; it is R-linear, so
    column 8i + j has the weight of column 8i. The counts are therefore
    read from the 64 cell weights, one encryption of the cell basis states
    per report, and a trial needs only its position. It still draws in the
    order that measuring on its state would, randbytes(64) then
    randrange(512), restated as in avalanche_key, so the report is the
    same. The linearity report and the tests check the algebra on random
    states.
    """
    _check_key(session_key)
    cells = batch.encrypt_blocks(_CELL_BASIS.view(np.uint8), session_key)
    weights = _POPCOUNT[cells].sum(axis=1).tolist()
    rng = random.Random()
    reseed, getrandbits = _seeder(rng), rng.getrandbits
    counts = [0] * (STATE_BITS + 1)
    for subs in _trial_seeds(seed, trials):
        for sub in subs:
            reseed(sub)
            getrandbits(STATE_BITS)
            while (position := getrandbits(_POSITION_BITS)) >= STATE_BITS:
                pass
            counts[weights[position >> 3]] += 1
    return _avalanche_report(np.array(counts), seed, "plaintext-sample")


def avalanche_key(master: bytes, trials: int, seed: int) -> AvalancheReport:
    """Sample key sensitivity: change one key digit to a different value per trial.

    A trial draws randbytes(64), randrange(64) for the position, then
    choice() of the seven other digits there. Each is restated as the C
    getrandbits calls it makes, so the report is the same: getrandbits(512)
    read little-endian, and Random._randbelow(n)'s loop of n.bit_length()
    bits drawn until below n.
    """
    master = _check_key(master)
    master_row = np.frombuffer(master, np.uint8)
    rng = random.Random()
    reseed, getrandbits = _seeder(rng), rng.getrandbits
    histogram = np.zeros(STATE_BITS + 1, np.int64)
    for subs in _trial_seeds(seed, trials):
        states, positions, replacements = bytearray(), [], []
        for sub in subs:
            reseed(sub)
            states += getrandbits(STATE_BITS).to_bytes(64, "little")
            while (position := getrandbits(_CELL_BITS)) >= _CELLS:
                pass
            while (i := getrandbits(_OTHER_BITS)) >= _OTHER_DIGITS:
                pass
            positions.append(position)
            # The i-th of the seven digits other than the master's, ascending.
            replacements.append(i + (i >= master[position]))
        base = np.frombuffer(states, np.uint8).reshape(-1, 64)
        mutated = np.tile(master_row, (len(base), 1))
        mutated[np.arange(len(base)), positions] = replacements
        diff = batch.encrypt_blocks(base, master) ^ batch.encrypt_blocks(base, mutated)
        distances = _POPCOUNT[diff].sum(axis=1, dtype=np.intp)
        histogram += np.bincount(distances, minlength=STATE_BITS + 1)
    return _avalanche_report(histogram, seed, "key-sample")


@dataclass
class AttackReport:
    """The attack's result: the recovered map's decryptions checked against the key's."""

    oracle_calls: int
    # Always "yes": recover_linear_map raises on a map it cannot invert.
    matrix_nonsingular: str
    verified_blocks: int
    mismatches: int
    mean_column_weight: float
    seed: int

    def as_lines(self) -> list[str]:
        verdict = "recovered map FAILED verification" if self.mismatches else \
            f"recovered map verified on {self.verified_blocks} blocks"
        return _field_lines(self) + [verdict]


def attack_report(session_key: bytes, trials: int, seed: int) -> AttackReport:
    """Recover the cipher matrix under one session key, then check it on random blocks.

    The oracle is batch.encrypt_blocks under the key, and it counts the
    blocks it answers. ``trials`` blocks from Random(seed).randbytes, drawn
    one chunk at a time, go through kpa_decrypt, and each that differs from
    batch.decrypt_blocks under the key counts as a mismatch. The functions
    are looked up when the report runs.
    """
    sizes = _chunk_sizes(trials)
    session_key = _check_key(session_key)
    oracle_calls = 0

    def oracle(blocks: bytes) -> bytes:
        nonlocal oracle_calls
        oracle_calls += len(blocks) // 64
        return batch.encrypt_blocks(blocks, session_key).tobytes()

    linear_map = recover_linear_map(oracle)
    rng = random.Random(seed)
    mismatches = 0
    for n in sizes:
        ciphertext = rng.randbytes(64 * n)
        recovered = np.frombuffer(kpa_decrypt(linear_map, ciphertext), np.uint8)
        expected = batch.decrypt_blocks(ciphertext, session_key)
        mismatches += int((recovered.reshape(-1, 64) != expected).any(axis=1).sum())
    return AttackReport(oracle_calls, "yes", trials, mismatches,
                        linear_map.mean_column_weight(), seed)


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
    encrypted = batch.encrypt_blocks(bytes(content) * block_count,
                                     batch.session_keys(master, block_count))
    ciphertexts = [row.tobytes() for row in encrypted]
    collisions = tuple(
        (a + 1, b + 1)
        for a in range(block_count)
        for b in range(a + 1, block_count)
        if ciphertexts[a] == ciphertexts[b]
    )
    return RepeatedBlockReport(block_count, collisions, not collisions)


# Per-target trial defaults: attack counts verification blocks and
# repeated-block counts block positions, so their natural scales differ.
_TRIAL_DEFAULTS = {"attack": 100, "repeated-block": 8}


def analyze(target: str, key: bytes | None, trials: int | None,
            seed: int) -> tuple[list[str], bool]:
    """Run the report that ``rotoxor analyze <target>`` prints.

    Returns its stdout lines and whether it passed, which is False only for
    a linearity counterexample or attack mismatches. ``trials`` None takes
    the target's default: 100 for attack, 8 block positions for
    repeated-block, 1000 otherwise. ``key`` None takes
    keys.random_key(Random(seed)), and repeated-block repeats
    Random(seed).randbytes(64). The reports are looked up when it runs.
    Raises ValueError for an unknown target.
    """
    trials = _TRIAL_DEFAULTS.get(target, 1000) if trials is None else trials
    key = random_key(random.Random(seed)) if key is None else key
    if target == "linearity":
        ok, pair = linearity_check(key, trials, seed)
        counterexample = "none" if ok else ",".join(block.hex() for block in pair)
        return [f"trials={trials}", f"seed={seed}", f"counterexample={counterexample}",
                f"result={'PASS' if ok else 'FAIL'}"], ok
    if target == "attack":
        report = attack_report(key, trials, seed)
        return report.as_lines(), not report.mismatches
    if target == "avalanche-plaintext":
        report = avalanche_plaintext(key, trials, seed)
    elif target == "avalanche-key":
        report = avalanche_key(key, trials, seed)
    elif target == "repeated-block":
        report = repeated_block_report(key, random.Random(seed).randbytes(64), trials)
    else:
        raise ValueError(f"unknown analyze target {target!r}")
    return report.as_lines(), True


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
        # The fields, the verdict, and the original design's per-block figure.
        return _field_lines(self) + [
            f"data_independence={'PASS' if self.data_independent else 'FAIL'}",
            "reference_ns_per_block=18000",
            "reference_note=18 us/block is the original design's figure on a"
            " 4 GHz single core; informational only, not a pass/fail bound",
        ]


_BENCH_KEY = random_key(random.Random(0))
# The largest relative spread of the per-class means still called noise.
_NOISE_THRESHOLD = 0.20


def bench_throughput(block_count: int) -> TimingReport:
    """Time batch.encrypt_blocks, one block per call, over three content classes.

    Every call encrypts one block under one fixed key, which is what a
    one-block message's rounds cost in the codec. numpy's per-call overhead
    dominates it: about 25-30 µs a call on a 2-vCPU shared Xeon, where a
    12-block head costs about 3 µs a block and the scalar cipher, the
    specification, about 120 µs. ``block_count`` blocks per class:
    all-zero, uniform (one repeated octet), and random content. Classes are
    interleaved in chunks to spread drift, and the per-class means are
    compared against _NOISE_THRESHOLD for the data-independence verdict.
    """
    if block_count < 100:
        raise ValueError("block_count must be >= 100")
    rng = random.Random(0xBE7C)
    classes = {
        "zero": [bytes(64)] * block_count,
        "uniform": [bytes([0xA5]) * 64] * block_count,
        "random": [rng.randbytes(64) for _ in range(block_count)],
    }
    encrypt = batch.encrypt_blocks
    for _ in range(200):  # warm-up
        encrypt(rng.randbytes(64), _BENCH_KEY)
    samples: dict[str, list[int]] = {name: [] for name in classes}
    chunk = max(1, block_count // 20)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for done in range(0, block_count, chunk):
            for name, blocks in classes.items():
                out = samples[name]
                for block in blocks[done:done + chunk]:
                    t0 = time.perf_counter_ns()
                    encrypt(block, _BENCH_KEY)
                    out.append(time.perf_counter_ns() - t0)
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


def _chunk_sizes(trials: int) -> list[int]:
    # The trial count split into _TRIAL_CHUNK-sized runs, the last one short.
    # Every report's trial count is checked here.
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [min(_TRIAL_CHUNK, trials - done) for done in range(0, trials, _TRIAL_CHUNK)]


def _trial_seeds(seed: int, trials: int) -> Iterator[list[int]]:
    # Every trial gets its own sub-seed so trial order (or parallel
    # execution) cannot change the report. Each chunk's sub-seeds are one
    # getrandbits(64 * n) from the master, whose little-endian 64-bit words
    # are the values of n getrandbits(64) calls.
    master = random.Random(seed)
    for n in _chunk_sizes(trials):
        yield np.frombuffer(master.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8").tolist()


def _seeder(rng: random.Random) -> Callable[[int], None]:
    # For an int, rng.seed(sub) is this C seed plus clearing the cached
    # gauss() value, which no report draws: the same state as Random(sub),
    # without a Python frame per trial.
    return super(random.Random, rng).seed


def _rotations(cells: np.ndarray) -> np.ndarray:
    # The 512 packed columns of an R-linear map from its 64 cell columns:
    # column 8i + j is column 8i with every octet rotated left by j.
    r = cells.view(np.uint8).reshape(64, 1, 64)
    j = np.arange(8, dtype=np.uint8).reshape(1, 8, 1)
    return ((r << j) | (r >> ((8 - j) & 7))).reshape(STATE_BITS, -1).view("<u8")


# Row p is the single-bit basis state p, bit p & 7 (LSB first) of octet
# p >> 3: state 8i + j is x^j times state 8i, so it is cell basis state i
# rotated left by j. It is the attack's query.
_BIT_BASIS = _rotations(_CELL_BASIS).view(np.uint8)


def _field_lines(report) -> list[str]:
    # One name=value line per dataclass field, in field order.
    return [f"{f.name}={getattr(report, f.name)}" for f in fields(report)]


def _avalanche_report(histogram: np.ndarray, seed: int, mode: str) -> AvalancheReport:
    # The statistics of the distances the histogram counts, as computed on
    # the list of them: the same int/int mean, and the standard deviation
    # of the ratios d / 512 as 3.11's pstdev takes it, the correctly rounded
    # root of the exact variance, (n sum(c d^2) - sum(c d)^2) / (n 512)^2.
    # It is the same on every supported Python; 3.10's pstdev rounds twice.
    counts = histogram.tolist()
    trials = sum(counts)
    present = [d for d, c in enumerate(counts) if c]
    total = sum(d * counts[d] for d in present)
    squares = sum(d * d * counts[d] for d in present)
    stddev = _sqrt_of_fraction(trials * squares - total * total, (trials * STATE_BITS) ** 2)
    return AvalancheReport(
        trials=trials,
        flipped_ratio_mean=total / (STATE_BITS * trials),
        flipped_ratio_min=present[0] / STATE_BITS,
        flipped_ratio_max=present[-1] / STATE_BITS,
        flipped_ratio_stddev=stddev,
        seed=seed,
        mode=mode,
    )


def _sqrt_of_fraction(n: int, m: int) -> float:
    # sqrt(n / m) correctly rounded, as statistics takes it from 3.11: an
    # integer root at 2 * 53 + 3 bits, rounded to odd, then one rounding.
    # n < m (a variance of ratios in [0, 1] is at most 1/4), so q < 0.
    q = (n.bit_length() - m.bit_length() - 109) // 2
    n <<= -2 * q
    root = math.isqrt(n // m)
    return math.ldexp(root | (root * root * m != n), q)
