"""The vectorized pipeline must match the scalar one byte for byte."""

import random

import numpy as np

from rotoxor import batch
from rotoxor.cipher import decrypt_block, encrypt_block
from support import array_to_blocks


def test_encrypt_blocks_matches_scalar_per_block_keys():
    rng = random.Random(50)
    states = [rng.randbytes(64) for _ in range(100)]
    ks = [bytes(rng.choices(range(8), k=64)) for _ in range(100)]
    out = batch.encrypt_blocks(
        batch.blocks_to_array(states), batch.blocks_to_array(ks)
    )
    assert array_to_blocks(out) == [
        encrypt_block(s, k) for s, k in zip(states, ks)
    ]


def test_encrypt_blocks_broadcasts_single_key():
    rng = random.Random(51)
    states = [rng.randbytes(64) for _ in range(40)]
    key = bytes(rng.choices(range(8), k=64))
    out = batch.encrypt_blocks(batch.blocks_to_array(states), key)
    assert array_to_blocks(out) == [encrypt_block(s, key) for s in states]


def test_decrypt_blocks_matches_scalar():
    rng = random.Random(52)
    states = [rng.randbytes(64) for _ in range(100)]
    ks = [bytes(rng.choices(range(8), k=64)) for _ in range(100)]
    out = batch.decrypt_blocks(
        batch.blocks_to_array(states), batch.blocks_to_array(ks)
    )
    assert array_to_blocks(out) == [
        decrypt_block(s, k) for s, k in zip(states, ks)
    ]


def test_batch_round_trip():
    rng = random.Random(53)
    states = batch.blocks_to_array([rng.randbytes(64) for _ in range(500)])
    key = bytes(rng.choices(range(8), k=64))
    back = batch.decrypt_blocks(batch.encrypt_blocks(states, key), key)
    assert np.array_equal(back, states)


def test_blocks_array_round_trip():
    rng = random.Random(54)
    blocks = [rng.randbytes(64) for _ in range(7)]
    arr = batch.blocks_to_array(blocks)
    assert arr.shape == (7, 64)
    assert array_to_blocks(arr) == blocks


def test_accepts_raw_bytes_inputs():
    rng = random.Random(55)
    state = rng.randbytes(64)
    key = bytes(rng.choices(range(8), k=64))
    out = batch.encrypt_blocks(state, key)
    assert array_to_blocks(out) == [encrypt_block(state, key)]
