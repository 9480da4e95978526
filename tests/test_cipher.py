"""Block transform layers: rotations, XOR diffusion, full round pipeline."""

import random

import pytest

from rotoxor import cipher, gf2
from rotoxor.cipher import (
    decrypt_block,
    encrypt_block,
    rotate_layer_decrypt,
    rotate_layer_encrypt,
    rotate_octet_left,
    rotate_octet_right,
    xor_layer_decrypt,
    xor_layer_encrypt,
)
from support import identity, mat_mul, pack_rows, unpack_rows


def random_state(rng):
    return rng.randbytes(64)


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


# --- octet rotations ---------------------------------------------------------

def test_rotate_octet_vectors():
    assert rotate_octet_right(0b10010100, 0) == 0b10010100
    assert rotate_octet_right(0b10010100, 2) == 0b00100101
    assert rotate_octet_right(0b11111111, 5) == 0b11111111
    assert rotate_octet_left(0b00100101, 2) == 0b10010100
    assert rotate_octet_left(0b00000001, 1) == 0b00000010
    assert rotate_octet_left(0xAA, 1) == 0x55


def test_rotate_octet_inverse_exhaustive():
    for b in range(256):
        for r in range(8):
            assert rotate_octet_left(rotate_octet_right(b, r), r) == b
            assert rotate_octet_right(rotate_octet_left(b, r), r) == b


def test_rotate_octet_preserves_weight():
    for b in (0b10010100, 0x01, 0xF0, 0x77):
        for r in range(8):
            assert bin(rotate_octet_right(b, r)).count("1") == bin(b).count("1")


def test_rotate_octet_domain_checks():
    with pytest.raises(ValueError):
        rotate_octet_right(256, 1)
    with pytest.raises(ValueError):
        rotate_octet_right(-1, 1)
    with pytest.raises(ValueError):
        rotate_octet_right(1, 8)
    with pytest.raises(ValueError):
        rotate_octet_left(1, -1)


# --- rotation layer ----------------------------------------------------------

def test_rotate_layer_zero_key_is_identity():
    rng = random.Random(30)
    s = random_state(rng)
    assert rotate_layer_encrypt(s, bytes(64)) == s
    assert rotate_layer_decrypt(s, bytes(64)) == s


def test_rotate_layer_all_ones_fixed_point():
    ones = bytes([0xFF]) * 64
    rng = random.Random(31)
    assert rotate_layer_encrypt(ones, random_key(rng)) == ones


def test_rotate_layer_alternating_pattern():
    state = bytes([0b10101010]) * 64
    key = bytes([1]) * 64
    assert rotate_layer_decrypt(state, key) == bytes([0b01010101]) * 64


def test_rotate_layer_inverse():
    rng = random.Random(32)
    for _ in range(200):
        s, k = random_state(rng), random_key(rng)
        assert rotate_layer_decrypt(rotate_layer_encrypt(s, k), k) == s
        assert rotate_layer_encrypt(rotate_layer_decrypt(s, k), k) == s


def test_rotate_layer_is_bit_permutation():
    # Every single-bit input maps to a single-bit output, and no two inputs
    # land on the same output bit.
    rng = random.Random(33)
    k = random_key(rng)
    seen = set()
    for pos in range(512):
        s = bytearray(64)
        s[pos >> 3] = 1 << (pos & 7)
        out = rotate_layer_encrypt(bytes(s), k)
        bits = int.from_bytes(out, "little")
        assert bits.bit_count() == 1
        seen.add(bits)
    assert len(seen) == 512


# --- XOR diffusion layer -----------------------------------------------------

def test_xor_layer_zero_and_uniform_fixed_points():
    assert xor_layer_encrypt(bytes(64)) == bytes(64)
    assert xor_layer_decrypt(bytes(64)) == bytes(64)
    for c in (0x01, 0x7F, 0xFF):
        u = bytes([c]) * 64
        assert xor_layer_encrypt(u) == u
        assert xor_layer_decrypt(u) == u


def test_xor_layer_single_cell_propagation():
    s = bytearray(64)
    s[0] = 0x01  # cell (0, 0)
    out = xor_layer_encrypt(bytes(s))
    expected = {0: 0x01, 8: 0x01, 56: 0x01, 1: 0x01, 7: 0x01}
    for idx in range(64):
        assert out[idx] == expected.get(idx, 0)


def test_xor_layer_inverse():
    rng = random.Random(34)
    for _ in range(300):
        s = random_state(rng)
        assert xor_layer_decrypt(xor_layer_encrypt(s)) == s
        assert xor_layer_encrypt(xor_layer_decrypt(s)) == s


def test_xor_layer_has_order_four():
    rng = random.Random(35)
    s = random_state(rng)
    t = s
    for _ in range(4):
        t = xor_layer_encrypt(t)
    assert t == s
    t = xor_layer_encrypt(xor_layer_encrypt(s))
    assert t != s  # order exactly 4, not 2


def _cell_matrix():
    # 64x64 bit-plane matrix of the diffusion layer: the same matrix acts on
    # each of the 8 octet bit planes, so probing one plane determines it.
    rows = []
    for cell in range(64):
        probe = bytearray(64)
        probe[cell] = 1
        image = xor_layer_encrypt(bytes(probe))
        col = sum((image[i] & 1) << i for i in range(64))
        rows.append(col)
    return unpack_rows(gf2.transpose(pack_rows(rows, 64), 64))


def test_xor_layer_matrix_nonsingular_and_closed_form_inverse():
    a = _cell_matrix()
    assert gf2.rank(pack_rows(a, 64), 64) == 64
    inverse = unpack_rows(gf2.invert(pack_rows(a, 64), 64))
    # A = I + N. The inverse in closed form is (I+N)(I+N^2)(I+N^4).
    eye = identity(64)
    n_mat = [a[i] ^ eye[i] for i in range(64)]
    n2 = mat_mul(n_mat, n_mat)
    n4 = mat_mul(n2, n2)
    closed = mat_mul(
        mat_mul(a, [eye[i] ^ n2[i] for i in range(64)]),
        [eye[i] ^ n4[i] for i in range(64)],
    )
    assert closed == inverse
    # N^4 = 0 on the 8x8 torus, which is why the implementation needs only
    # the distance-1 and distance-2 passes.
    assert n4 == [0] * 64
    assert mat_mul(a, inverse) == eye


# --- full block pipeline -----------------------------------------------------

def test_block_round_trip():
    rng = random.Random(36)
    for _ in range(200):
        s, k = random_state(rng), random_key(rng)
        assert decrypt_block(encrypt_block(s, k), k) == s


def test_block_zero_fixed_points():
    rng = random.Random(37)
    assert encrypt_block(bytes(64), bytes(64)) == bytes(64)
    assert decrypt_block(bytes(64), bytes(64)) == bytes(64)
    # E(0) = 0 for every key: all layers are linear
    for _ in range(20):
        assert encrypt_block(bytes(64), random_key(rng)) == bytes(64)


def test_block_uniform_state_zero_key():
    for c in (0x01, 0xC3, 0xFF):
        u = bytes([c]) * 64
        assert encrypt_block(u, bytes(64)) == u
        assert decrypt_block(u, bytes(64)) == u


def test_block_zero_key_is_identity():
    # With the all-zero key every rotation is the identity, leaving eight
    # diffusion passes; the diffusion layer has order 4, so the whole block
    # transform collapses to the identity.
    rng = random.Random(38)
    for _ in range(20):
        s = random_state(rng)
        assert encrypt_block(s, bytes(64)) == s


def test_block_linearity_spot_check():
    rng = random.Random(39)
    k = random_key(rng)
    for _ in range(50):
        x, y = random_state(rng), random_state(rng)
        xy = bytes(a ^ b for a, b in zip(x, y))
        expect = bytes(
            a ^ b for a, b in zip(encrypt_block(x, k), encrypt_block(y, k))
        )
        assert encrypt_block(xy, k) == expect


def test_block_changes_typical_input():
    rng = random.Random(40)
    s, k = random_state(rng), random_key(rng)
    assert encrypt_block(s, k) != s


def test_block_input_validation():
    rng = random.Random(41)
    k = random_key(rng)
    with pytest.raises(ValueError):
        encrypt_block(bytes(63), k)
    with pytest.raises(ValueError):
        encrypt_block(bytes(64), bytes(63))
    with pytest.raises(ValueError):
        encrypt_block(bytes(64), bytes([8]) * 64)
    with pytest.raises(ValueError):
        decrypt_block(bytes(65), k)


def test_layers_accept_bytearray():
    rng = random.Random(42)
    s, k = bytearray(random_state(rng)), bytearray(random_key(rng))
    assert encrypt_block(s, k) == encrypt_block(bytes(s), bytes(k))
    assert xor_layer_encrypt(s) == xor_layer_encrypt(bytes(s))


def test_round_structure_one_round_composition():
    # One encryption round is diffusion(rotation(state)); check the pipeline
    # against a hand-rolled composition over all 8 rounds.
    from rotoxor.keys import derive_round_key

    rng = random.Random(43)
    s, k = random_state(rng), random_key(rng)
    manual = s
    for m in range(1, 9):
        manual = xor_layer_encrypt(rotate_layer_encrypt(manual, derive_round_key(k, m)))
    assert manual == encrypt_block(s, k)
    manual = encrypt_block(s, k)
    for m in range(8, 0, -1):
        manual = rotate_layer_decrypt(xor_layer_decrypt(manual), derive_round_key(k, m))
    assert manual == s
