"""Key parsing, round sub-keys, and the per-block session-key chain."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoxor import batch, codec, keys
from rotoxor.cipher import encrypt_block
from rotoxor.errors import DigitError, LengthError
from support import (IDENTITY_FORM_MASTER, block_12_master, chain_reference,
                     chain_step_reference, is_identity_form)

ROW_01234567 = bytes(range(8)) * 8


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


def test_parse_valid_key():
    assert keys.parse_master_key("0" * 64) == bytes(64)
    assert keys.parse_master_key("01234567" * 8) == ROW_01234567
    text = "7654321001234567" * 4
    assert keys.format_key(keys.parse_master_key(text)) == text


def test_parse_length_errors():
    for text in ("", "0" * 63, "0" * 65):
        with pytest.raises(LengthError) as err:
            keys.parse_master_key(text)
        assert err.value.length == len(text)


def test_parse_digit_errors_report_position():
    with pytest.raises(DigitError) as err:
        keys.parse_master_key("8" * 64)
    assert err.value.position == 0
    bad = "0" * 30 + "9" + "0" * 33
    with pytest.raises(DigitError) as err:
        keys.parse_master_key(bad)
    assert err.value.position == 30 and err.value.char == "9"
    with pytest.raises(DigitError):
        keys.parse_master_key("x" * 64)


def test_read_key_file(tmp_path):
    text = "01234567" * 8
    for raw in (text, text + "\n", text + "\r\n"):
        path = tmp_path / "key.txt"
        path.write_bytes(raw.encode())
        assert keys.read_key_file(path) == ROW_01234567
    (tmp_path / "bad.txt").write_bytes(b"0" * 64 + b"\n\n")
    with pytest.raises(LengthError):
        keys.read_key_file(tmp_path / "bad.txt")


def _whole_read_error(raw: bytes) -> str:
    # The message of a read that takes the whole file, the behaviour the
    # capped read keeps for files of up to 66 octets.
    text = raw.decode("latin-1")
    text = text[:-1] if text.endswith("\n") else text
    text = text[:-1] if text.endswith("\r") else text
    try:
        keys.parse_master_key(text)
    except (LengthError, DigitError) as err:
        return str(err)
    return ""


@settings(max_examples=200, deadline=None)
@given(st.integers(60, 70), st.sampled_from(b"07\n\rx"),
       st.sampled_from([b"", b"\n", b"\r\n", b"\n\n", b"\r\n\n"]))
def test_read_key_file_caps_the_read(tmp_path_factory, size, odd, ending):
    # size octets, one of them odd, then a line ending: 60 to 73 octets.
    raw = b"0" * (size // 2) + bytes([odd]) + b"0" * (size - size // 2 - 1) + ending
    path = tmp_path_factory.mktemp("key") / "key.txt"
    path.write_bytes(raw)
    try:
        keys.read_key_file(path)
        message = ""
    except (LengthError, DigitError) as err:
        message = str(err)
    expected = _whole_read_error(raw)
    if len(raw) <= 66:
        assert message == expected
    else:
        assert message == "key text must be exactly 64 characters, got at least 65"
        assert int(expected.rsplit(" ", 1)[1]) >= 65


def test_read_key_file_of_64_mib_fails_on_its_first_67_octets(tmp_path):
    path = tmp_path / "huge.txt"
    with open(path, "wb") as fh:
        fh.truncate(64 << 20)
    with pytest.raises(LengthError, match="got at least 65$") as err:
        keys.read_key_file(path)
    assert err.value.length == 65


def test_round_key_shift_zero_is_identity():
    rng = random.Random(20)
    k = random_key(rng)
    for key in (k, bytearray(k)):
        out = keys.derive_round_key(key, 1)
        assert out == k and type(out) is bytes


def test_round_key_worked_vectors():
    assert keys.derive_round_key(ROW_01234567, 2) == bytes([7, 0, 1, 2, 3, 4, 5, 6]) * 8
    assert keys.derive_round_key(ROW_01234567, 8) == bytes([1, 2, 3, 4, 5, 6, 7, 0]) * 8


def test_round_key_formula():
    # out[i][j] = key[i][(j - m + 1) mod 8] for every cell
    rng = random.Random(21)
    k = random_key(rng)
    for m in range(1, 9):
        out = keys.derive_round_key(k, m)
        for i in range(8):
            for j in range(8):
                assert out[i * 8 + j] == k[i * 8 + (j - m + 1) % 8]


def test_round_key_preserves_row_multisets():
    rng = random.Random(22)
    for _ in range(20):
        k = random_key(rng)
        m = rng.randrange(1, 9)
        out = keys.derive_round_key(k, m)
        for i in range(0, 64, 8):
            assert sorted(out[i:i + 8]) == sorted(k[i:i + 8])


def test_round_keys_distinct_when_columns_distinct():
    k = ROW_01234567  # all 8 columns distinct
    subs = {keys.derive_round_key(k, m) for m in range(1, 9)}
    assert len(subs) == 8


def test_round_key_rejects_bad_round():
    for m in (0, 9, -1):
        with pytest.raises(ValueError):
            keys.derive_round_key(ROW_01234567, m)


def test_chain_worked_vectors():
    # The chain's second key is block 2's: one step from the master.
    for master, second in ((ROW_01234567, bytes([1, 3, 5, 7, 1, 3, 5, 7]) * 8),
                           (bytes([7]) * 64, bytes([6]) * 64),
                           (bytes(64), bytes(64))):
        assert list(islice(keys.session_key_chain(master), 2))[1] == second


def test_chain_digits_stay_in_range():
    rng = random.Random(23)
    for master in [random_key(rng) for _ in range(5)] + [bytes([7]) * 64]:
        for k in islice(keys.session_key_chain(master), 50):
            assert type(k) is bytes and len(k) == 64 and max(k) <= 7


def test_session_key_for_block():
    # Block 1's session key is the master itself, as bytes whatever
    # bytes-like it came as; block n's is the chain's n-th key.
    k = random_key(random.Random(24))
    first = next(keys.session_key_chain(bytearray(k)))
    assert first == k and type(first) is bytes


@pytest.mark.parametrize("n", [1, 2, 20, 10**12])
def test_session_key_for_block_checks_the_master(n):
    # Asking for the keys up to block n checks the master before any key
    # comes out, however far n lies.
    with pytest.raises(ValueError, match="key digits must lie in 0..7"):
        list(islice(keys.session_key_chain(bytes([9]) * 64), n))
    with pytest.raises(ValueError, match="exactly 64 digits"):
        list(islice(keys.session_key_chain(bytes(63)), n))


def test_chain_step_matches_digit_loop():
    rng = random.Random(26)
    for k in [random_key(rng) for _ in range(50)] + [ROW_01234567, bytes([7]) * 64]:
        assert list(islice(keys.session_key_chain(k), 2))[1] == chain_step_reference(k)


def _with_examples(masters):
    def decorate(test):
        for master in masters:
            test = example(master)(test)
        return test
    return decorate


@settings(max_examples=200, deadline=None)
@_with_examples([bytes([d]) * 64 for d in range(8)]
                + [IDENTITY_FORM_MASTER, block_12_master(random.Random(30))])
@given(st.lists(st.integers(0, 7), min_size=64, max_size=64).map(bytes))
def test_chain_matches_step_by_step_reference(master):
    expected = chain_reference(master, 20)
    assert list(islice(keys.session_key_chain(master), 20)) == expected


def test_zero_key_is_chain_fixed_point():
    # One step maps ZERO_KEY to itself, so once the chain reaches it, by
    # block 17 at the latest, every later key is ZERO_KEY.
    assert chain_step_reference(keys.ZERO_KEY) == keys.ZERO_KEY
    rng = random.Random(29)
    for master in (random_key(rng), ROW_01234567, bytes([7]) * 64):
        assert list(islice(keys.session_key_chain(master), 16, 40)) == [keys.ZERO_KEY] * 24


def test_chain_stops_stepping_at_zero_key(monkeypatch):
    # A uniform 4 key doubles to all-zero in one step; zero is a fixed
    # point, so from there on the chain yields ZERO_KEY itself and computes
    # nothing more: one product for the uniform-4 master, none for zero.
    calls = []
    product = keys.session_keys
    monkeypatch.setattr(keys, "session_keys", lambda *a: calls.append(a) or product(*a))
    chain = list(islice(keys.session_key_chain(bytes([4]) * 64), 20))
    assert chain == [bytes([4]) * 64] + [keys.ZERO_KEY] * 19
    assert all(key is keys.ZERO_KEY for key in chain[1:])
    assert len(calls) == 1
    # the all-zero master is the fixed point already
    assert list(islice(keys.session_key_chain(bytes(64)), 20)) == [keys.ZERO_KEY] * 20
    assert len(calls) == 1


def test_chain_collapses_to_zero_by_step_16():
    # The chain map is I+S per row over Z8 (S = cyclic shift). (I+S)^8 is
    # even, (I+S)^16 vanishes mod 8, so every master key reaches the all-zero
    # session key by block 17 and the cipher degenerates to the identity
    # from there on.
    rng = random.Random(25)
    for _ in range(10):
        chain = list(islice(keys.session_key_chain(random_key(rng)), 17))
        assert all(d % 2 == 0 for d in chain[8])
        assert chain[16] == bytes(64)


# --- the identity from block 13 on ------------------------------------------

# The chain map on one row is I+S, with (S k)[j] = k[j+1].
_EYE = np.eye(8, dtype=np.int64)
_SHIFT = np.roll(_EYE, 1, axis=1)


def _chain_map_power(n):
    return np.linalg.matrix_power(_EYE + _SHIFT, n)


def test_chain_map_powers_mod_8():
    # Every key from block LIVE_BLOCKS + 1 on is (I+S)^LIVE_BLOCKS k: 4
    # times a vector whose rows have period 4. LIVE_BLOCKS is the smallest n
    # with (I+S)^n = 0 mod 4 and (I+S)^n (I+S^4) = 0 mod 8, so block 12 is
    # not forced into that form.
    period4 = _EYE + np.linalg.matrix_power(_SHIFT, 4)

    def collapses(n):
        p = _chain_map_power(n)
        return not (p % 4).any() and not (p @ period4 % 8).any()

    assert next(n for n in range(1, 17) if collapses(n)) == keys.LIVE_BLOCKS == 12
    assert (_chain_map_power(11) % 4).any()


def test_chain_table_rows_are_the_chain_map_powers():
    # Row n-1 of the table holds (I+S)^n mod 8 as coefficients of S^0..S^7,
    # for n = 1..15; (I+S)^16 = 0 mod 8, so the table needs no further row.
    table = keys._CHAIN_POWERS
    assert table.shape == (15, 8)
    for n, row in enumerate(table, 1):
        from_table = sum(int(c) * np.linalg.matrix_power(_SHIFT, r) for r, c in enumerate(row))
        assert np.array_equal(from_table, _chain_map_power(n) % 8)
    assert (_chain_map_power(15) % 8).any()
    assert not (_chain_map_power(16) % 8).any()


def _identity_form_key(rng):
    halves = [rng.choice((0, 4)) for _ in range(32)]
    return bytes(halves[r * 4 + c % 4] for r in range(8) for c in range(8))


def test_identity_form_keys_leave_every_basis_state_unchanged():
    basis = np.packbits(np.eye(512, dtype=np.uint8), axis=1, bitorder="little")
    rng = random.Random(27)
    for key in [_identity_form_key(rng) for _ in range(20)] + [bytes([4]) * 64]:
        assert is_identity_form(key)
        assert np.array_equal(batch.encrypt_blocks(basis, key), basis)
        assert np.array_equal(batch.decrypt_blocks(basis, key), basis)
    # a {0, 4} key without period 4 is not the identity
    key = bytearray(bytes([4]) * 64)
    key[0] = 0
    assert not is_identity_form(bytes(key))
    assert not np.array_equal(batch.encrypt_blocks(basis, bytes(key)), basis)


def test_chain_keys_have_identity_form_from_block_13():
    rng = random.Random(28)
    first = []
    for _ in range(300):
        chain = list(islice(keys.session_key_chain(random_key(rng)), 20))
        assert all(is_identity_form(k) for k in chain[keys.LIVE_BLOCKS:])
        first.append(next(n for n, k in enumerate(chain, 1) if is_identity_form(k)))
    assert set(first) <= {12, 13} and first.count(13) > 250


def test_weak_key_predicate():
    for d in range(8):
        assert keys.is_weak_key(bytes([d]) * 64)
    assert not keys.is_weak_key(ROW_01234567)


def test_uniform_masters_send_the_whole_message_in_clear():
    # A uniform key rotates every octet alike, which commutes with the mix,
    # and the chain keeps keys uniform: every block is the identity.
    rng = random.Random(32)
    message = rng.randbytes(1000)
    for d in range(8):
        master = bytes([d]) * 64
        for _ in range(5):
            state = rng.randbytes(64)
            assert encrypt_block(state, master) == state
        padded = codec.pad_message(message, random.Random(d))
        assert codec._encrypt_buffer(message, master, random.Random(d)) == padded


def test_chain_rejects_malformed_keys():
    # The chain checks the master when the first key is drawn.
    for master, message in ((bytes(63), "key must have exactly 64 digits, got 63"),
                            (bytes([8]) * 64, "key digits must lie in 0..7")):
        chain = keys.session_key_chain(master)
        with pytest.raises(ValueError) as err:
            next(chain)
        assert str(err.value) == message


# --- the chain as one array ---------------------------------------------------

def _session_key_masters():
    rng = random.Random(33)
    return ([random_key(rng) for _ in range(5)]
            + [bytes(64), bytes([4]) * 64, bytes([7]) * 64, IDENTITY_FORM_MASTER, ROW_01234567])


def test_session_keys_are_the_chain_rows():
    for master in _session_key_masters():
        for n in range(41):
            rows = keys.session_keys(master, n)
            assert rows.dtype == np.uint8 and rows.shape == (n, 64)
            assert [row.tobytes() for row in rows] == list(
                islice(keys.session_key_chain(master), n)), (master, n)


def test_session_keys_past_block_16_are_zero():
    for master in _session_key_masters():
        rows = keys.session_keys(master, 40)
        assert not rows[16:].any()
        assert np.array_equal(rows[:16], keys.session_keys(master, 16))


def test_one_session_key_computes_no_product(monkeypatch):
    products = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *a: products.append(a) or dot(*a))
    master = ROW_01234567
    assert keys.session_keys(bytearray(master), 1).tobytes() == master
    assert keys.session_keys(master, 0).shape == (0, 64)
    assert products == []
    keys.session_keys(master, 2)
    keys.session_keys(master, 40)
    assert len(products) == 2


@pytest.mark.parametrize("n", [1, 2, 16, 40])
@pytest.mark.parametrize("master", [bytes(63), bytes(65), bytes([8]) * 64, bytes([9]) * 64])
def test_session_keys_reject_the_chains_bad_keys(master, n):
    with pytest.raises(ValueError) as chain_error:
        list(islice(keys.session_key_chain(master), n))
    with pytest.raises(ValueError) as array_error:
        keys.session_keys(master, n)
    assert str(array_error.value) == str(chain_error.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=64, max_size=64).map(bytes), st.integers(0, 40))
def test_session_keys_match_step_by_step_reference(master, n):
    expected = chain_reference(master, n)
    assert [row.tobytes() for row in keys.session_keys(master, n)] == expected
