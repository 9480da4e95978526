"""Acceptance suite: the package's headline guarantees, one test per claim.

Each test prints one "[acceptance] <name>: PASS/FAIL" line (visible with
pytest -s or in captured output) in addition to the usual pytest verdict.
"""

import functools
import io
import random
import time
from contextlib import redirect_stdout
from itertools import islice

import numpy as np
import pytest

from rotoxor import analysis, batch, cli, gf2
from rotoxor.analysis import (
    LinearMap512,
    avalanche_key,
    avalanche_plaintext,
    bench_throughput,
    kpa_decrypt,
    linearity_check,
    recover_linear_map,
    repeated_block_report,
)
from rotoxor.cipher import (
    decrypt_block,
    encrypt_block,
    rotate_layer_decrypt,
    rotate_layer_encrypt,
    xor_layer_decrypt,
    xor_layer_encrypt,
)
from rotoxor.codec import decrypt_message, encrypt_message, unpad_message
from rotoxor.keys import derive_round_key, keyspace_report, session_key_chain
from support import (
    batched,
    blockwise,
    identity,
    mat_mul,
    pack_rows,
    scalar_avalanche_plaintext_sweep,
    unpack_rows,
)


def acceptance(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")
        return wrapper
    return decorate


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


@acceptance("round-trip correctness (1000 messages, lengths 0..4096, <10s)")
def test_round_trip_correctness():
    rng = random.Random(0xAC01)
    lengths = [0, 1, 61, 62, 63, 64, 128, 4096]
    lengths += [rng.randrange(4097) for _ in range(1000 - len(lengths))]
    started = time.perf_counter()
    for length in lengths:
        message = rng.randbytes(length)
        key = random_key(rng)
        assert decrypt_message(encrypt_message(message, key, rng), key) == message
    elapsed = time.perf_counter() - started
    assert len(lengths) >= 1000
    assert elapsed < 10.0, f"round-trip suite took {elapsed:.2f}s"


@acceptance("layer inverses (10,000 states; 64x64 matrix vs closed form)")
def test_layer_inverse_suite():
    rng = random.Random(0xAC02)
    for _ in range(10000):
        state = rng.randbytes(64)
        key = random_key(rng)
        assert rotate_layer_decrypt(rotate_layer_encrypt(state, key), key) == state
        assert xor_layer_decrypt(xor_layer_encrypt(state)) == state

    # Independent 64x64 construction of the diffusion matrix A = I + N from
    # the plus-neighborhood definition alone.
    n_mat = [0] * 64
    for i in range(8):
        for j in range(8):
            row = i * 8 + j
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                n_mat[row] |= 1 << ((ni % 8) * 8 + (nj % 8))
    eye = identity(64)
    a = [eye[i] ^ n_mat[i] for i in range(64)]
    packed_a = pack_rows(a, 64)
    columns_a = gf2.transpose(packed_a, 64)

    # the construction matches the implementation on every basis cell
    for cell in range(64):
        probe = bytearray(64)
        probe[cell] = 1
        image = xor_layer_encrypt(bytes(probe))
        expected = unpack_rows([gf2.mat_vec(columns_a, pack_rows([1 << cell], 64)[0])])[0]
        assert sum((image[i] & 1) << i for i in range(64)) == expected

    assert gf2.rank(packed_a, 64) == 64, "diffusion matrix must be nonsingular"
    gaussian_inverse = unpack_rows(gf2.invert(packed_a, 64))
    n2 = mat_mul(n_mat, n_mat)
    n4 = mat_mul(n2, n2)
    closed_form = mat_mul(
        mat_mul(a, [eye[i] ^ n2[i] for i in range(64)]),
        [eye[i] ^ n4[i] for i in range(64)],
    )
    assert closed_form == gaussian_inverse, "closed-form inverse must match"


@acceptance("worked key-schedule and rotation values")
def test_worked_values():
    row = bytes(range(8)) * 8
    assert list(islice(session_key_chain(row), 2))[1] == bytes([1, 3, 5, 7, 1, 3, 5, 7]) * 8
    assert derive_round_key(row, 2) == bytes([7, 0, 1, 2, 3, 4, 5, 6]) * 8
    assert rotate_layer_encrypt(bytes([0b10010100]) * 64, bytes([2]) * 64) == \
        bytes([0b00100101]) * 64


@acceptance("linearity (10 keys x 10,000 pairs; mutation caught)")
def test_linearity_theorem():
    rng = random.Random(0xAC04)
    for _ in range(10):
        key = random_key(rng)
        ok, counterexample = linearity_check(key, 10000, rng.randrange(2 ** 32))
        assert ok and counterexample is None

    def broken_encrypt(state, key):
        # rotation layer replaced by addition mod 256
        from rotoxor.cipher import _NEIGH_1, _xor_pass

        cells = bytes(state)
        for m in range(1, 9):
            rk = derive_round_key(key, m)
            cells = bytes([(b + r) & 0xFF for b, r in zip(cells, rk)])
            cells = _xor_pass(cells, _NEIGH_1)
        return cells

    key = random_key(rng)
    assert any(key)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "encrypt_blocks", batched(broken_encrypt))
        ok, counterexample = linearity_check(key, 100, 5)
    assert not ok and counterexample is not None


@acceptance("unipotence: E^8 = I for 1,000 keys, decryption is seven encryptions, "
            "default analyze key has order 8")
def test_unipotence():
    rng = random.Random(0xAC09)
    states = rng.randbytes(64 * 1000)
    keys = b"".join(random_key(rng) for _ in range(1000))
    powers = [states]
    for _ in range(8):
        powers.append(batch.encrypt_blocks(powers[-1], keys).tobytes())
    assert powers[8] == states
    assert batch.decrypt_blocks(states, keys).tobytes() == powers[7]
    key = bytes(random.Random(0).choices(range(8), k=64))
    basis = b"".join((1 << c).to_bytes(64, "little") for c in range(512))
    powers = [basis]
    for _ in range(8):
        powers.append(batch.encrypt_blocks(powers[-1], key).tobytes())
    assert powers[8] == basis and powers[4] != basis


@acceptance("attack: one query of the 512 basis states recovers the map; "
            "5 keys x 100 blocks, <30s")
def test_attack_demonstration():
    rng = random.Random(0xAC05)
    basis = b"".join((1 << c).to_bytes(64, "little") for c in range(512))
    started = time.perf_counter()
    for _ in range(5):
        key = random_key(rng)
        queries = []

        def oracle(blocks, _key=key):
            queries.append(blocks)
            return blockwise(lambda b: encrypt_block(b, _key))(blocks)

        linear_map = recover_linear_map(oracle)
        assert queries == [basis], "recovery must make one query: the 512 basis states in order"
        for _ in range(100):
            ciphertext = rng.randbytes(64)
            assert kpa_decrypt(linear_map, ciphertext) == decrypt_block(ciphertext, key)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"attack suite took {elapsed:.2f}s"


# Query i is octet 0x01 in cell i: the element 1 of R = F2[x]/(x^8 + 1) there.
_CELL_QUERIES = b"".join(bytes(i) + b"\x01" + bytes(63 - i) for i in range(64))


def _columns_from_cell_replies(replies: bytes) -> np.ndarray:
    # E_k is R-linear and multiplying by x rotates every octet left one bit,
    # so GF(2) column 8i+j, the image of octet 1 << j in cell i, is reply i
    # with every octet rotated left by j. Returns gf2 packed columns (512, 8).
    r = np.frombuffer(replies, np.uint8).reshape(64, 1, 64)
    j = np.arange(8, dtype=np.uint8).reshape(1, 8, 1)
    columns = (r << j) | (r >> ((8 - j) & 7))
    return np.ascontiguousarray(columns).reshape(512, 64).view("<u8")


@acceptance("R-linearity: 64 queries rebuild the 512-query matrix exactly (20 keys)")
def test_sixty_four_queries_rebuild_the_matrix():
    rng = random.Random(0xAC0A)
    for _ in range(20):
        key = random_key(rng)
        replies = blockwise(lambda b, _key=key: encrypt_block(b, _key))(_CELL_QUERIES)
        linear_map = recover_linear_map(lambda blocks, _key=key:
                                        batch.encrypt_blocks(blocks, _key).tobytes())
        assert np.array_equal(_columns_from_cell_replies(replies), linear_map.columns)


@acceptance("message-level break: 64 chosen 768-octet messages give a master's 12 live "
            "transforms, which decrypt its other messages without the key")
def test_chosen_messages_decrypt_without_the_key():
    rng = random.Random(0xAC0B)
    master = random_key(rng)
    # Message i repeats query i in all 12 blocks. Its padding fills a 13th
    # block, so each of the 12 live blocks is a chosen plaintext under one
    # session key, and its replies give that key's 64 cell columns.
    replies = [encrypt_message(_CELL_QUERIES[64 * i:64 * i + 64] * 12, master, rng)
               for i in range(64)]
    maps = [LinearMap512(_columns_from_cell_replies(b"".join(r[b] for r in replies)))
            for b in range(12)]
    for length in (231, 640, 768, 1100, 1577):
        message = rng.randbytes(length)
        blocks = encrypt_message(message, master, rng)
        # Blocks past the 12th are sent unchanged (the key-schedule collapse).
        plain = [kpa_decrypt(maps[b], bytes(block)) if b < 12 else block
                 for b, block in enumerate(blocks)]
        assert unpad_message(b"".join(plain)) == message


@acceptance("repeated blocks distinct (20 fixtures) with degenerate collisions")
def test_repeated_block_claim():
    rng = random.Random(0xAC06)
    for _ in range(20):
        content = rng.randbytes(64)
        key = random_key(rng)
        report = repeated_block_report(key, content, 8)
        assert report.all_distinct, f"collision in fixture: {report.collisions}"
    all_pairs = tuple(
        (a + 1, b + 1) for a in range(8) for b in range(a + 1, 8)
    )
    zero_content = repeated_block_report(random_key(rng), bytes(64), 8)
    assert zero_content.collisions == all_pairs
    zero_master = repeated_block_report(bytes(64), rng.randbytes(64), 8)
    assert zero_master.collisions == all_pairs


@acceptance("avalanche: sampled mean equals matrix column-weight mean exactly")
def test_avalanche_consistency():
    rng = random.Random(0xAC07)
    key = random_key(rng)
    sweep = scalar_avalanche_plaintext_sweep(key, seed=17)
    linear_map = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    assert sweep.flipped_ratio_mean == linear_map.mean_column_weight()
    # reports are bit-identical under fixed seeds
    assert avalanche_plaintext(key, 200, 23) == avalanche_plaintext(key, 200, 23)
    assert avalanche_plaintext(key, 200, 23).as_lines() == \
        avalanche_plaintext(key, 200, 23).as_lines()
    assert avalanche_key(key, 200, 29) == avalanche_key(key, 200, 29)


@acceptance("timing: >=10,000 blocks, class means within 20%, 18us as reference")
def test_timing_report():
    report = bench_throughput(4000)
    assert report.blocks_timed == 12000
    assert report.min_ns <= report.mean_ns <= report.max_ns
    assert report.class_spread <= 0.20, (
        f"content classes diverge: spread={report.class_spread:.3f} "
        f"(zero={report.zero_mean_ns:.0f} uniform={report.uniform_mean_ns:.0f} "
        f"random={report.random_mean_ns:.0f})"
    )
    assert report.data_independent
    # the CLI prints the historical figure as reference only
    captured = io.StringIO()
    with redirect_stdout(captured):
        assert cli.main(["bench", "--blocks", "100"]) == 0
    out = captured.getvalue()
    assert "reference_ns_per_block=18000" in out
    assert "18 us/block" in out
    assert "informational only" in out


@acceptance("keyspace report: 2^48 stated vs 2^192 structural, flagged")
def test_keyspace_discrepancy():
    text = keyspace_report()
    assert "2^48" in text
    assert "2^192" in text
    assert str(64 ** 8) in text
    assert str(8 ** 64) in text
    assert "discrepancy=yes" in text
    captured = io.StringIO()
    with redirect_stdout(captured):
        assert cli.main(["keyspace"]) == 0
    assert captured.getvalue().strip() == text
