"""Block transform layers: rotations, XOR diffusion, full round pipeline."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoxor import batch, cipher, gf2
from rotoxor.cipher import (
    decrypt_block,
    encrypt_block,
    rotate_layer_decrypt,
    rotate_layer_encrypt,
    xor_layer_decrypt,
    xor_layer_encrypt,
)
from support import identity, mat_mul, pack_rows, unpack_rows


def random_state(rng):
    return rng.randbytes(64)


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


# --- octet rotations, through the layer on uniform states and keys ---------

def _uniform(value: int) -> bytes:
    return bytes([value]) * 64


def test_rotate_octet_vectors():
    assert rotate_layer_encrypt(_uniform(0b10010100), _uniform(0)) == _uniform(0b10010100)
    assert rotate_layer_encrypt(_uniform(0b10010100), _uniform(2)) == _uniform(0b00100101)
    assert rotate_layer_encrypt(_uniform(0b11111111), _uniform(5)) == _uniform(0b11111111)
    assert rotate_layer_decrypt(_uniform(0b00100101), _uniform(2)) == _uniform(0b10010100)
    assert rotate_layer_decrypt(_uniform(0b00000001), _uniform(1)) == _uniform(0b00000010)
    assert rotate_layer_decrypt(_uniform(0xAA), _uniform(1)) == _uniform(0x55)


def test_rotate_octet_inverse_exhaustive():
    # All 256 octets, four blocks of 64, under each uniform key.
    octets = bytes(range(256))
    for r in range(8):
        for i in range(0, 256, 64):
            s = octets[i:i + 64]
            assert rotate_layer_decrypt(rotate_layer_encrypt(s, _uniform(r)), _uniform(r)) == s
            assert rotate_layer_encrypt(rotate_layer_decrypt(s, _uniform(r)), _uniform(r)) == s


def test_rotate_octet_preserves_weight():
    for b in (0b10010100, 0x01, 0xF0, 0x77):
        for r in range(8):
            out = rotate_layer_encrypt(_uniform(b), _uniform(r))
            assert out == _uniform(out[0])
            assert bin(out[0]).count("1") == bin(b).count("1")


def test_rotate_layer_checks_digits_before_negating():
    # rotate_layer_decrypt rotates right by -d & 7, which maps digit 9 to a
    # valid 7: the key check must come first.
    for digit in (8, 9, 15, 255):
        bad = bytes([1]) * 63 + bytes([digit])
        for layer in (rotate_layer_encrypt, rotate_layer_decrypt):
            with pytest.raises(ValueError, match="key digits"):
                layer(bytes(64), bad)
    for layer in (rotate_layer_encrypt, rotate_layer_decrypt):
        with pytest.raises(ValueError, match="state must be"):
            layer(bytes(63), bytes(64))
        with pytest.raises(ValueError, match="key must have"):
            layer(bytes(64), bytes(63))


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


# --- the column-shift identity ------------------------------------------------

def _shift_columns(grid: bytes) -> bytes:
    # P: every row of the 8x8 grid moves one column right, cyclically.
    return b"".join(grid[i + 7:i + 8] + grid[i:i + 7] for i in range(0, 64, 8))


_digits = st.lists(st.integers(0, 7), min_size=64, max_size=64).map(bytes)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=64, max_size=64), _digits)
def test_block_commutes_with_column_shift(state, key):
    # E(P x, P k) = P E(x, k): round m's key is the session key shifted m-1
    # columns, the mix commutes with P, and P^8 = I. The batch kernel runs
    # every round under the session key itself on the strength of this.
    p_state, p_key = _shift_columns(state), _shift_columns(key)
    assert encrypt_block(p_state, p_key) == _shift_columns(encrypt_block(state, key))
    assert decrypt_block(p_state, p_key) == _shift_columns(decrypt_block(state, key))


# (plaintext, key, ciphertext), computed with the scalar encrypt_block.
_KNOWN_ANSWERS = [
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
     "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
     "3473441456020650775410401103364535327765212063637601737305620276",
     "443751a94511de3231d2819b48e6832ea1e1c954d42ca4b71452915320bb5602"
     "ea6fcf3456231c8baf5db3e8a730569d9afe1f606ecaed8af8442ef72e798672"),
    ("01" + "00" * 63,
     "0123456701234567012345670123456701234567012345670123456701234567",
     "100055ff00ff550000ff00ff00ff00ff00ff5500000055ff00ff0000000000ff"
     "000000000000000000ff0000000000ff00ff5500000055ff00ff00ff00ff00ff"),
    ("e00fae1879062279cc20655db43fff31d7f413547ae48795c81383027be58f83"
     "0ea72cd6d3979ae21340c09fb9c8bff7594c0fe7a3396a4f29a7af53a7011d79",
     "1463742645403600625635267142657265077422712770201502001610353634",
     "2f0c5d65eafaff4647379aef6c9618b61e2904468335af06d69bd57fc316342a"
     "da67a88398ad112ee9e3ff1b19d9082033d3d1d4e42277310d2924dda8029631"),
]


def test_known_answers_scalar_and_batch():
    plain = [bytes.fromhex(p) for p, _, _ in _KNOWN_ANSWERS]
    keys = [bytes(int(d) for d in k) for _, k, _ in _KNOWN_ANSWERS]
    cipher_blocks = [bytes.fromhex(c) for _, _, c in _KNOWN_ANSWERS]
    for p, k, c in zip(plain, keys, cipher_blocks):
        assert encrypt_block(p, k) == c
        assert decrypt_block(c, k) == p
        assert batch.encrypt_blocks(p, k).tobytes() == c
        assert batch.decrypt_blocks(c, k).tobytes() == p
    all_plain, all_keys, all_cipher = (b"".join(x) for x in (plain, keys, cipher_blocks))
    assert batch.encrypt_blocks(all_plain, all_keys).tobytes() == all_cipher
    assert batch.decrypt_blocks(all_cipher, all_keys).tobytes() == all_plain


# --- unipotence: E^8 = I for every key ---------------------------------------

def _encrypt_times(states, session_keys, n):
    for _ in range(n):
        states = batch.encrypt_blocks(states, session_keys)
    return np.asarray(states).tobytes()


def _keyed_blocks(digits):
    # 1..8 blocks and one key per block, drawn from the given key digits.
    return st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.binary(min_size=64 * n, max_size=64 * n),
        st.lists(st.sampled_from(digits), min_size=64 * n, max_size=64 * n).map(bytes)))


@settings(max_examples=200, deadline=None)
@given(_keyed_blocks(range(8)))
def test_eight_encryptions_return_the_input(blocks):
    # Octets are elements of F2[x]/(x+1)^8 and E_k - I has every entry in
    # (x+1), so (E_k - I)^8 = E_k^8 - I = 0: see the cipher docstring.
    states, session_keys = blocks
    for keys in (session_keys[:64], session_keys):
        assert _encrypt_times(states, keys, 8) == states


@settings(max_examples=200, deadline=None)
@given(_keyed_blocks(range(8)))
def test_decryption_is_seven_encryptions(blocks):
    states, session_keys = blocks
    for keys in (session_keys[:64], session_keys):
        assert batch.decrypt_blocks(states, keys).tobytes() == _encrypt_times(states, keys, 7)


@pytest.mark.parametrize("digits, order", [((0, 2, 4, 6), 4), ((0, 4), 2)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_digit_restricted_keys_have_smaller_order(digits, order, data):
    # Even digits rotate by powers of x^2, the identity mod (x+1)^2, so
    # E_k^4 = I; digits 0 and 4 are the identity mod (x+1)^4, so E_k^2 = I.
    states, session_keys = data.draw(_keyed_blocks(digits))
    for keys in (session_keys[:64], session_keys):
        assert _encrypt_times(states, keys, order) == states


# --- R-linearity: E_k(x v) = x E_k(v) ----------------------------------------

def _times_x(data) -> bytes:
    # x v in R = F2[x]/(x^8 + 1), octet by octet: every octet rotated left one bit.
    return bytes(((b << 1) | (b >> 7)) & 0xFF for b in bytes(data))


@settings(max_examples=200, deadline=None)
@given(_keyed_blocks(range(8)))
def test_block_transform_is_r_linear(blocks):
    # Rotations are powers of x and the mix XORs whole octets, so E_k is a
    # matrix over R and commutes with multiplication by x (cipher docstring).
    states, session_keys = blocks
    state, key = states[:64], session_keys[:64]
    assert encrypt_block(_times_x(state), key) == _times_x(encrypt_block(state, key))
    assert decrypt_block(_times_x(state), key) == _times_x(decrypt_block(state, key))
    for keys in (key, session_keys):
        for op in (batch.encrypt_blocks, batch.decrypt_blocks):
            assert op(_times_x(states), keys).tobytes() == _times_x(op(states, keys).tobytes())


def test_scalar_decryption_is_seven_encryptions():
    rng = random.Random(44)
    s, k = random_state(rng), random_key(rng)
    powers = [s]
    for _ in range(8):
        powers.append(encrypt_block(powers[-1], k))
    assert powers[8] == s and powers[4] != s
    assert decrypt_block(s, k) == powers[7]


def test_default_analyze_key_has_order_exactly_8():
    # `rotoxor analyze` with no --key derives its key from Random(seed), seed 0.
    key = bytes(random.Random(0).choices(range(8), k=64))
    basis = np.packbits(np.eye(512, dtype=np.uint8), axis=1, bitorder="little").tobytes()
    assert _encrypt_times(basis, key, 8) == basis
    assert _encrypt_times(basis, key, 4) != basis
