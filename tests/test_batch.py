"""The vectorized pipeline must match the scalar one byte for byte."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoxor import batch
from rotoxor.cipher import decrypt_block, encrypt_block
from support import array_to_blocks, blocks_to_array


def test_encrypt_blocks_matches_scalar_per_block_keys():
    rng = random.Random(50)
    states = [rng.randbytes(64) for _ in range(100)]
    ks = [bytes(rng.choices(range(8), k=64)) for _ in range(100)]
    out = batch.encrypt_blocks(
        blocks_to_array(states), blocks_to_array(ks)
    )
    assert array_to_blocks(out) == [
        encrypt_block(s, k) for s, k in zip(states, ks)
    ]


def test_encrypt_blocks_broadcasts_single_key():
    rng = random.Random(51)
    states = [rng.randbytes(64) for _ in range(40)]
    key = bytes(rng.choices(range(8), k=64))
    out = batch.encrypt_blocks(blocks_to_array(states), key)
    assert array_to_blocks(out) == [encrypt_block(s, key) for s in states]


def test_decrypt_blocks_matches_scalar():
    rng = random.Random(52)
    states = [rng.randbytes(64) for _ in range(100)]
    ks = [bytes(rng.choices(range(8), k=64)) for _ in range(100)]
    out = batch.decrypt_blocks(
        blocks_to_array(states), blocks_to_array(ks)
    )
    assert array_to_blocks(out) == [
        decrypt_block(s, k) for s, k in zip(states, ks)
    ]


def test_batch_round_trip():
    rng = random.Random(53)
    states = blocks_to_array([rng.randbytes(64) for _ in range(500)])
    key = bytes(rng.choices(range(8), k=64))
    back = batch.decrypt_blocks(batch.encrypt_blocks(states, key), key)
    assert np.array_equal(back, states)


def test_blocks_array_round_trip():
    rng = random.Random(54)
    blocks = [rng.randbytes(64) for _ in range(7)]
    arr = blocks_to_array(blocks)
    assert arr.shape == (7, 64)
    assert array_to_blocks(arr) == blocks


def test_accepts_raw_bytes_inputs():
    rng = random.Random(55)
    state = rng.randbytes(64)
    key = bytes(rng.choices(range(8), k=64))
    out = batch.encrypt_blocks(state, key)
    assert array_to_blocks(out) == [encrypt_block(state, key)]


def _random_keys(rng, n):
    return np.frombuffer(bytes(rng.choices(range(8), k=64 * n)), dtype=np.uint8).reshape(n, 64)


def _scalar(block_fn, states, keys):
    # The scalar transform block by block; ``keys`` is one key or one per block.
    blocks = array_to_blocks(states)
    if isinstance(keys, bytes):
        return [block_fn(s, keys) for s in blocks]
    return [block_fn(s, k) for s, k in zip(blocks, array_to_blocks(keys))]


# 6, 12, 13 and 17 are padded to a power of two; batch._SMALL is the last
# size decrypted in one mix pass.
@pytest.mark.parametrize("n", [0, 1, 6, 12, 13, 16, 17, batch._SMALL, batch._SMALL + 1, 1000])
def test_both_directions_match_scalar_at_edge_sizes(n):
    rng = random.Random(56 + n)
    states = blocks_to_array([rng.randbytes(64) for _ in range(n)])
    per_block = _random_keys(rng, n)
    one = bytes(rng.choices(range(8), k=64))
    one_row = np.frombuffer(one, dtype=np.uint8).reshape(1, 64)
    for keys, scalar_keys in ((one, one), (one_row, one), (per_block, per_block)):
        for fast, slow in ((batch.encrypt_blocks, encrypt_block),
                           (batch.decrypt_blocks, decrypt_block)):
            out = fast(states, keys)
            assert out.dtype == np.uint8 and out.shape == (n, 64)
            assert array_to_blocks(out) == _scalar(slow, states, scalar_keys)


def test_one_pass_inverse_mix_is_the_two_passes_composed():
    # Decryption's small-N table: 17 distinct cells per column, and one
    # gather and XOR-reduce over it equals _MIX_PREV's pass then _MIX_2's.
    table = batch._MIX_INV_PREV
    assert table.shape == (17, 64)
    assert all(len(set(column)) == 17 for column in table.T.tolist())
    rng = np.random.default_rng(59)
    for n in (1, 5, 64):
        x = rng.integers(0, 256, (64, n), dtype=np.uint8)
        two = x
        for passes in (batch._MIX_PREV, batch._MIX_2):
            two = np.bitwise_xor.reduce(two.take(passes, axis=0), axis=0)
        assert np.array_equal(np.bitwise_xor.reduce(x.take(table, axis=0), axis=0), two)


def test_empty_input_as_bytes():
    # The codec's zero-master-key path sends no live blocks and no keys.
    for fn in (batch.encrypt_blocks, batch.decrypt_blocks):
        out = fn(b"", b"")
        assert out.dtype == np.uint8 and out.shape == (0, 64)


@pytest.mark.parametrize("n_states, n_keys", [(1, 5), (3, 2), (2, 0)])
def test_key_count_must_be_one_or_one_per_block(n_states, n_keys):
    states = np.zeros((n_states, 64), dtype=np.uint8)
    keys = np.zeros((n_keys, 64), dtype=np.uint8)
    for fn in (batch.encrypt_blocks, batch.decrypt_blocks):
        with pytest.raises(ValueError, match=f"got {n_keys} session keys for {n_states} blocks"):
            fn(states, keys)


@pytest.mark.parametrize("fn", [batch.encrypt_blocks, batch.decrypt_blocks])
def test_per_block_keys_peak_memory(fn):
    # The rounds need the working array, the key shifts and one mix gather:
    # at most 10 times the states' bytes above batch._SMALL blocks, where
    # decryption gathers 5 rows per pass. At or below it, the one-pass
    # gather's 17 rows hold at most 17 * 64 * 32 octets.
    n = 4096
    rng = random.Random(60)
    states = np.frombuffer(rng.randbytes(64 * n), dtype=np.uint8).reshape(n, 64)
    keys = _random_keys(rng, n)
    fn(states[:1], keys[:1])  # first-call set-up stays outside the trace
    tracemalloc.start()
    try:
        fn(states, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 64 * n


def test_non_contiguous_and_buffer_inputs():
    rng = random.Random(57)
    wide = blocks_to_array([rng.randbytes(64) for _ in range(10)])
    states = wide[::2]
    keys = _random_keys(rng, 10)[::2]
    assert not states.flags.c_contiguous and not keys.flags.c_contiguous
    expected = _scalar(encrypt_block, states, keys)
    assert array_to_blocks(batch.encrypt_blocks(states, keys)) == expected
    assert array_to_blocks(batch.decrypt_blocks(states, keys)) == _scalar(
        decrypt_block, states, keys)
    raw_states = np.ascontiguousarray(states).tobytes()
    raw_keys = np.ascontiguousarray(keys).tobytes()
    for wrap in (bytearray, memoryview):
        out = batch.encrypt_blocks(wrap(raw_states), wrap(raw_keys))
        assert out.dtype == np.uint8 and out.shape == (5, 64)
        assert array_to_blocks(out) == expected
        back = batch.decrypt_blocks(wrap(out.tobytes()), wrap(raw_keys))
        assert back.tobytes() == raw_states


@pytest.mark.parametrize("n", [1, 12])
def test_inputs_are_never_written(n):
    # Neither direction writes into the caller's states or keys, and the
    # result shares no memory with them, even at N = 1, where the (64, N)
    # transpose of the input is already contiguous.
    rng = random.Random(59 + n)
    raw_states = rng.randbytes(64 * n)
    raw_keys = bytes(rng.choices(range(8), k=64 * n))
    wraps = (bytearray, lambda b: memoryview(bytearray(b)),
             lambda b: np.frombuffer(bytearray(b), dtype=np.uint8).reshape(-1, 64))
    for wrap in wraps:
        for fn in (batch.encrypt_blocks, batch.decrypt_blocks):
            for raw_key in (raw_keys, raw_keys[:64]):
                states, keys = wrap(raw_states), wrap(raw_key)
                out = fn(states, keys)
                assert bytes(states) == raw_states and bytes(keys) == raw_key
                out[...] = 0
                assert bytes(states) == raw_states and bytes(keys) == raw_key


def test_zero_key_is_the_identity_both_ways():
    # Under the all-zero key each round is I+N, and (I+N)^8 = I.
    rng = random.Random(58)
    states = blocks_to_array([rng.randbytes(64) for _ in range(33)])
    for keys in (bytes(64), np.zeros((33, 64), dtype=np.uint8)):
        assert np.array_equal(batch.encrypt_blocks(states, keys), states)
        assert np.array_equal(batch.decrypt_blocks(states, keys), states)


@st.composite
def _states_and_keys(draw):
    n = draw(st.integers(0, 20))
    states = draw(st.binary(min_size=64 * n, max_size=64 * n))
    digits = st.lists(st.integers(0, 7), min_size=64, max_size=64).map(bytes)
    if draw(st.booleans()):
        keys = draw(digits)
    else:
        keys = b"".join(draw(st.lists(digits, min_size=n, max_size=n)))
    return np.frombuffer(states, dtype=np.uint8).reshape(n, 64), keys


@settings(max_examples=150, deadline=None)
@given(_states_and_keys())
def test_batch_matches_scalar_property(case):
    states, keys = case
    key_rows = keys if len(keys) == 64 else np.frombuffer(keys, dtype=np.uint8).reshape(-1, 64)
    enc = batch.encrypt_blocks(states, keys)
    assert array_to_blocks(enc) == _scalar(encrypt_block, states, key_rows)
    assert array_to_blocks(batch.decrypt_blocks(states, keys)) == _scalar(
        decrypt_block, states, key_rows)
    assert np.array_equal(batch.decrypt_blocks(enc, keys), states)
