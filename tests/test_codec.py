"""Sentinel padding, message encryption orchestration, and serialization."""

import binascii
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoxor import batch, codec, keys
from rotoxor.codec import (
    decode_stream,
    decrypt_message,
    encode_stream,
    encrypt_message,
    pad_message,
    unpad_message,
)
from rotoxor.errors import BlockSizeError, DecodeError, PaddingError
from support import IDENTITY_FORM_MASTER, array_to_blocks, block_12_master


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


# --- padding -----------------------------------------------------------------

def test_pad_length_arithmetic():
    rng = random.Random(60)
    cases = {61: 64, 0: 64, 64: 128, 200: 256, 1: 64, 62: 128, 63: 128}
    for length, padded_len in cases.items():
        msg = bytes(rng.choices(range(ord("a"), ord("z") + 1), k=length))
        padded = pad_message(msg, random.Random(1))
        assert len(padded) == padded_len
        assert padded.startswith(msg + b"###")


def test_pad_61_bytes_exactly_fills_block():
    padded = pad_message(b"a" * 61, random.Random(2))
    assert padded == b"a" * 61 + b"###"


def test_pad_empty_message():
    padded = pad_message(b"", random.Random(3))
    assert len(padded) == 64
    assert padded[:3] == b"###"
    filler = padded[3:]
    assert all(0x20 <= b <= 0x7E and b != 0x23 for b in filler)


def test_pad_filler_never_contains_sentinel_byte():
    rng = random.Random(61)
    for _ in range(50):
        length = rng.randrange(300)
        padded = pad_message(b"\x00" * length, random.Random(rng.random()))
        filler = padded[length + 3:]
        assert b"#" not in filler


def test_pad_deterministic_under_seeded_source():
    msg = b"determinism"
    assert pad_message(msg, random.Random(9)) == pad_message(msg, random.Random(9))


def test_unpad_direct_scan():
    padded = b"abc###" + b"x" * 58
    assert unpad_message(padded) == b"abc"


def test_unpad_round_trip_random_messages():
    rng = random.Random(62)
    for length in list(range(0, 201)) + [1000, 4096]:
        msg = rng.randbytes(length)
        assert unpad_message(pad_message(msg, rng)) == msg


def test_unpad_sentinel_spanning_blocks():
    # Lengths 62 and 63 put part of the sentinel in the second-to-last block.
    for length in (62, 63):
        msg = b"m" * length
        padded = pad_message(msg, random.Random(4))
        assert len(padded) == 128
        assert unpad_message(padded) == msg


def test_unpad_recovers_hash_tails_too():
    # The contract: every message round-trips, '#' tails included. The
    # filler holds no '#', so the scan from the right stops at the
    # sentinel's last octet, and the three '#' before the filler are it.
    rng = random.Random(63)
    for tail in (b"#", b"##", b"###", b"x#", b"ab##"):
        assert unpad_message(pad_message(tail, rng)) == tail


def test_unpad_errors():
    with pytest.raises(PaddingError):
        unpad_message(b"")
    with pytest.raises(PaddingError):
        unpad_message(b"x" * 63)  # not a block multiple
    with pytest.raises(PaddingError):
        unpad_message(bytes(64))  # no sentinel byte anywhere
    with pytest.raises(PaddingError):
        unpad_message(b"a" * 64)
    # rightmost '#' present but not preceded by two more
    block = bytearray(b"."* 64)
    block[50] = 0x23
    with pytest.raises(PaddingError):
        unpad_message(bytes(block))
    block[49] = 0x23  # only "##"
    with pytest.raises(PaddingError):
        unpad_message(bytes(block))


def test_unpad_sentinel_at_very_start():
    assert unpad_message(b"###" + b"f" * 61) == b""
    with pytest.raises(PaddingError):
        unpad_message(b"##" + b"f" * 62)  # only two octets before filler


# --- message encryption ------------------------------------------------------

def test_message_round_trip():
    rng = random.Random(64)
    for _ in range(30):
        length = rng.randrange(500)
        msg = rng.randbytes(length)
        key = random_key(rng)
        stream = encrypt_message(msg, key, rng)
        assert all(len(b) == 64 for b in stream)
        assert len(stream) == (length + 3 + 63) // 64
        assert decrypt_message(stream, key) == msg


def test_empty_message_is_one_block():
    rng = random.Random(65)
    key = random_key(rng)
    stream = encrypt_message(b"", key, rng)
    assert len(stream) == 1
    assert decrypt_message(stream, key) == b""


def test_repeated_content_blocks_differ():
    rng = random.Random(66)
    key = random_key(rng)
    chunk = rng.randbytes(64)
    stream = encrypt_message(chunk + chunk, key, rng)
    assert len(stream) == 3
    assert stream[0] != stream[1]


def test_wrong_key_short_message():
    rng = random.Random(67)
    msg = rng.randbytes(100)
    key = random_key(rng)
    wrong = bytearray(key)
    wrong[0] = (wrong[0] + 1) % 8
    stream = encrypt_message(msg, key, rng)
    try:
        recovered = decrypt_message(stream, bytes(wrong))
    except PaddingError:
        return
    assert recovered != msg


def test_long_messages_leak_tail_blocks_verbatim():
    # The session-key chain hits the all-zero key at block 17 for every
    # master key, and the zero key makes the block transform the identity:
    # blocks 17+ of any ciphertext are the padded plaintext, unchanged.
    rng = random.Random(68)
    msg = rng.randbytes(20 * 64)
    key, other = random_key(rng), random_key(rng)
    assert key != other
    padded = pad_message(msg, random.Random(99))
    stream = encrypt_message(msg, key, random.Random(99))
    for n in range(16, len(stream)):
        assert stream[n] == padded[n * 64:(n + 1) * 64]
    # any key decrypts the tail, so unpadding succeeds and the tail matches
    garbled = decrypt_message(stream, other)
    assert len(garbled) == len(msg)
    assert garbled[16 * 64:] == msg[16 * 64:]
    assert garbled != msg


def test_decrypt_message_block_size_errors():
    rng = random.Random(69)
    key = random_key(rng)
    with pytest.raises(BlockSizeError):
        decrypt_message([], key)
    with pytest.raises(BlockSizeError):
        decrypt_message([bytes(63)], key)
    with pytest.raises(BlockSizeError, match="block 1 has 65 octets, expected 64"):
        decrypt_message([bytes(64), bytes(65)], key)
    with pytest.raises(BlockSizeError, match="block 2 has 0 octets"):
        decrypt_message([bytes(64), bytes(64), b"", bytes(7)], key)


# --- fast path against the full key chain ------------------------------------

def _reference_encrypt(message, master, filler_source):
    # Every block through the rounds under every key of the chain.
    padded = pad_message(message, filler_source)
    count = len(padded) // 64
    session_keys = b"".join(islice(keys.session_key_chain(master), count))
    return array_to_blocks(batch.encrypt_blocks(padded, session_keys))


def _reference_decrypt(stream, master):
    session_keys = b"".join(islice(keys.session_key_chain(master), len(stream)))
    return unpad_message(batch.decrypt_blocks(b"".join(stream), session_keys).tobytes())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PaddingError:
        return PaddingError


def test_message_paths_match_full_chain_reference():
    rng = random.Random(71)
    masters = [random_key(rng) for _ in range(3)]
    masters += [bytes([d]) * 64 for d in (1, 4, 6)] + [bytes(64)]
    lengths = (0, 61, 64, 12 * 64 - 3, 12 * 64, 13 * 64, 1021, 1024, 16 * 64 - 3, 16 * 64,
               17 * 64, 64 * 1024 + 1)
    for master in masters:
        other = random_key(rng)
        for length in lengths:
            msg = rng.randbytes(length)
            seed = rng.random()
            stream = encrypt_message(msg, master, random.Random(seed))
            assert stream == _reference_encrypt(msg, master, random.Random(seed))
            assert decrypt_message(stream, master) == _reference_decrypt(stream, master)
            assert _outcome(decrypt_message, stream, other) == _outcome(
                _reference_decrypt, stream, other)


def test_message_round_trip_sends_at_most_16_blocks(monkeypatch):
    sent = {"encrypt": [], "decrypt": []}

    def counting(op):
        fn = getattr(batch, f"{op}_blocks")

        def wrapper(states, session_keys):
            out = fn(states, session_keys)
            sent[op].append(len(out))
            return out
        return wrapper

    for op in sent:
        monkeypatch.setattr(batch, f"{op}_blocks", counting(op))
    rng = random.Random(72)
    masters = [random_key(rng), block_12_master(rng), IDENTITY_FORM_MASTER,
               bytes([4]) * 64, bytes(64)]
    # every chain reaches identity form by block LIVE_BLOCKS + 1, so the
    # rounds run on the first min(blocks, LIVE_BLOCKS) blocks, whatever the key
    for key in masters:
        for length in (1 << 20, 5 * 64 - 10):
            for calls in sent.values():
                calls.clear()
            msg = rng.randbytes(length)
            stream = encrypt_message(msg, key, rng)
            assert decrypt_message(stream, key) == msg
            expected = min(len(stream), keys.LIVE_BLOCKS)
            assert sent == {"encrypt": [expected], "decrypt": [expected]}, (key, length)


def test_each_message_direction_draws_its_head_keys_once(monkeypatch):
    # One session_keys call per direction, for the live head's blocks only;
    # no key is drawn from the session_key_chain generator.
    drawn = []
    draw = batch.session_keys
    monkeypatch.setattr(batch, "session_keys", lambda master, n: drawn.append(n)
                        or draw(master, n))
    monkeypatch.setattr(codec, "session_key_chain", None)
    rng = random.Random(73)
    key = random_key(rng)
    cases = ((0, 1), (61, 1), (62, 2), (5 * 64, 6), (12 * 64 - 3, 12), (1 << 16, 12))
    for length, blocks in cases:
        msg = rng.randbytes(length)
        stream = encrypt_message(msg, key, rng)
        assert drawn == [blocks]
        assert decrypt_message(stream, key) == msg
        assert drawn == [blocks, blocks]
        drawn.clear()


# --- serialization -----------------------------------------------------------

def test_encode_round_trips():
    rng = random.Random(70)
    stream = [rng.randbytes(64) for _ in range(3)]
    for encoding in codec.ENCODINGS:
        assert decode_stream(encode_stream(stream, encoding), encoding) == stream


def test_encode_hex_is_lowercase():
    stream = [bytes(64)]
    assert encode_stream(stream, "hex") == b"0" * 128
    data = encode_stream([bytes([0xAB]) * 64], "hex")
    assert data == b"ab" * 64


def test_decode_rejects_unknown_encoding():
    with pytest.raises(ValueError):
        encode_stream([bytes(64)], "rot13")
    with pytest.raises(ValueError):
        decode_stream(b"", "rot13")


def test_decode_hex_errors_carry_position():
    with pytest.raises(DecodeError) as err:
        decode_stream(b"0" * 10 + b"g" + b"0" * 117, "hex")
    assert err.value.position == 10
    with pytest.raises(DecodeError) as err:
        decode_stream(b"abc", "hex")  # odd length
    assert err.value.position == 3


def test_decode_base64_errors_carry_position():
    with pytest.raises(DecodeError) as err:
        decode_stream(b"AA$A", "base64")
    assert err.value.position == 2
    with pytest.raises(DecodeError):
        decode_stream(b"AAA", "base64")  # length not a multiple of 4
    with pytest.raises(DecodeError):
        decode_stream(b"A===", "base64")  # too much padding
    for data, position in ((b"AAAA===", 6), (b"=" * (1 << 20), 2)):
        with pytest.raises(DecodeError, match="more than two base64 padding") as err:
            decode_stream(data, "base64")
        assert err.value.position == position


_HEX = b"0123456789abcdefABCDEF"
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _reference_error_position(data, encoding):
    # Slow scan: where decode_stream must report a DecodeError, or None.
    if encoding == "hex":
        for pos, b in enumerate(data):
            if b not in _HEX:
                return pos
        return len(data) if len(data) % 2 else None
    if encoding == "base64":
        end = len(data.rstrip(b"="))
        if len(data) - end > 2:
            return end + 2
        for pos in range(end):
            if data[pos] not in _B64:
                return pos
        return len(data) if len(data) % 4 else None
    return None


def _splice(args):
    data, edits = args
    for pos, octets in edits:
        pos %= len(data) + 1
        data = data[:pos] + octets + data[pos:]
    return data


def _spliced(base):
    # Mostly well-formed input with a few arbitrary octets spliced in.
    edits = st.lists(st.tuples(st.integers(0, 400), st.binary(max_size=2)), max_size=3)
    return st.tuples(base, edits).map(_splice)


def _text(alphabet):
    return st.lists(st.sampled_from(alphabet), max_size=300).map(bytes)


def _encoded(encoding):
    blocks = st.lists(st.binary(min_size=64, max_size=64), max_size=3)
    return blocks.map(lambda b: encode_stream(b, encoding))


@settings(max_examples=300, deadline=None)
@given(encoding=st.sampled_from(codec.ENCODINGS),
       data=st.one_of(st.binary(max_size=300),
                      *(_spliced(base) for base in (_text(_HEX), _text(_B64 + b"="),
                                                     _encoded("hex"), _encoded("base64")))))
def test_decode_stream_fails_only_with_codec_errors(encoding, data):
    expected = _reference_error_position(data, encoding)
    # The CLI's buffer decode fails alike: same error, message and position.
    assert _failure(codec._decode_buffer, data, encoding) == _failure(
        decode_stream, data, encoding)
    try:
        blocks = decode_stream(data, encoding)
    except DecodeError as err:
        assert err.position == expected
        return
    except BlockSizeError:
        assert expected is None
        return
    assert expected is None
    assert all(len(b) == 64 for b in blocks)
    assert codec._decode_buffer(data, encoding) == b"".join(blocks)
    assert decode_stream(encode_stream(blocks, encoding), encoding) == blocks


@st.composite
def _faulted(draw, encoding):
    # A valid encoding of 0-3 blocks with one or two faults, each an octet
    # replaced by any byte, an '=' inserted anywhere, or 1-3 characters dropped.
    data = draw(_encoded(encoding))
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(("replace", "insert", "drop")))
        if fault == "insert" or not data:
            pos = draw(st.integers(0, len(data)))
            data = data[:pos] + b"=" + data[pos:]
        elif fault == "replace":
            pos = draw(st.integers(0, len(data) - 1))
            octet = draw(st.one_of(st.sampled_from(b"=\n\x80\xff"), st.integers(0, 255)))
            data = data[:pos] + bytes([octet]) + data[pos + 1:]
        else:
            count = draw(st.integers(1, min(3, len(data))))
            pos = draw(st.integers(0, len(data) - count))
            data = data[:pos] + data[pos + count:]
    return data


_BINASCII_DECODE = {"hex": binascii.unhexlify, "base64": binascii.a2b_base64}


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(("hex", "base64")).flatmap(
    lambda encoding: st.tuples(st.just(encoding), _faulted(encoding))))
@example(case=("base64", b"Y3SA="))
@example(case=("base64", b"yZPu=="))
@example(case=("base64", b"AA==AAAA"))
@example(case=("base64", b"AAAA\n"))
@example(case=("base64", b"=\xff=="))  # decodes to one octet fewer than its length allows
@example(case=("hex", b"0g"))
@example(case=("hex", b"abc"))
def test_decode_of_faulted_encoding_matches_reference(case):
    # Decoding validates in the decoding pass: faults anywhere must still
    # give the reference position, and fault-free input what binascii gives.
    encoding, data = case
    expected = _reference_error_position(data, encoding)
    if expected is not None:
        with pytest.raises(DecodeError) as err:
            codec._decode_buffer(data, encoding)
        assert err.value.position == expected
        return
    decoded = _BINASCII_DECODE[encoding](data)
    if len(decoded) % 64:
        with pytest.raises(BlockSizeError):
            codec._decode_buffer(data, encoding)
    else:
        assert codec._decode_buffer(data, encoding) == decoded


def _failure(fn, *args):
    # (type, message) of the codec error that fn raises, or None.
    try:
        fn(*args)
    except (DecodeError, BlockSizeError) as err:
        return type(err), str(err)
    return None


def test_decode_block_size_check():
    with pytest.raises(BlockSizeError):
        decode_stream(b"\x00" * 63, "raw")
    with pytest.raises(BlockSizeError):
        decode_stream(b"00" * 63, "hex")
    assert decode_stream(b"", "raw") == []


def test_decode_raw_splits_blocks():
    data = bytes(range(64)) + bytes(64)
    blocks = decode_stream(data, "raw")
    assert blocks == [bytes(range(64)), bytes(64)]


# --- the buffer core under the CLI -------------------------------------------

def _check_buffer_core(msg, master, seed, encoding):
    # The CLI's one-buffer path and the block-list API give the same octets,
    # and both match every block sent through the full key chain.
    stream = encrypt_message(msg, master, random.Random(seed))
    assert all(type(block) is bytes for block in stream)
    assert stream == _reference_encrypt(msg, master, random.Random(seed))
    data = bytes(codec._encode_buffer(
        codec._encrypt_buffer(msg, master, random.Random(seed)), encoding))
    assert data == encode_stream(stream, encoding)
    blocks = decode_stream(data, encoding)
    assert all(type(block) is bytes for block in blocks)
    decoded = codec._decode_buffer(data, encoding)
    assert decoded == b"".join(blocks)
    plain = codec._decrypt_buffer(decoded, master)
    assert bytes(plain) == msg
    assert plain == decrypt_message(blocks, master) == msg


@pytest.mark.parametrize("encoding", codec.ENCODINGS)
def test_buffer_core_matches_list_api_at_edge_lengths(encoding):
    rng = random.Random(73)
    masters = [random_key(rng) for _ in range(2)] + [bytes([4]) * 64, bytes(64)]
    masters += [block_12_master(rng), IDENTITY_FORM_MASTER]
    for master in masters:
        for length in (0, 61, 64, 767, 768, 1023, 1025):
            _check_buffer_core(rng.randbytes(length), master, rng.random(), encoding)


@settings(max_examples=100, deadline=None)
@given(encoding=st.sampled_from(codec.ENCODINGS),
       master=st.lists(st.integers(0, 7), min_size=64, max_size=64).map(bytes),
       length=st.integers(0, 2200), seed=st.integers(0, 2**32 - 1))
def test_buffer_core_matches_list_api(encoding, master, length, seed):
    _check_buffer_core(random.Random(seed).randbytes(length), master, seed, encoding)


@pytest.mark.parametrize("form", (bytes, bytearray, memoryview))
def test_public_decrypt_and_unpad_return_bytes(form):
    # The README contract: the library's edges return bytes whatever
    # bytes-like they are given; only the CLI's buffer path returns a view.
    key = bytes(range(8)) * 8
    msg = b"attack#at#dawn" * 70
    stream = encrypt_message(msg, key, random.Random(5))
    plain = decrypt_message([form(block) for block in stream], key)
    assert type(plain) is bytes and plain == msg
    padded = bytes(pad_message(msg, random.Random(5)))
    out = unpad_message(form(padded))
    assert type(out) is bytes and out == msg


def test_buffer_decrypt_rejects_empty_data():
    with pytest.raises(BlockSizeError, match="^ciphertext stream is empty$"):
        codec._decrypt_buffer(b"", bytes(range(8)) * 8)


def _reference_unpad(data):
    # Slow scan of the final block for the rightmost '#', or PaddingError.
    n = len(data)
    if n == 0 or n % 64:
        return PaddingError
    last = max((i for i in range(n - 64, n) if data[i] == 0x23), default=None)
    if last is None or last < 2 or data[last - 2:last + 1] != b"###":
        return PaddingError
    return data[:last - 2]


# Whole blocks drawn mostly from '#', so the sentinel checks are reached.
_HASHY_BLOCKS = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.sampled_from(b"#.x"), min_size=64 * n, max_size=64 * n).map(bytes))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), _HASHY_BLOCKS,
                      st.binary(max_size=130).map(lambda m: bytes(pad_message(m, random.Random(0))))))
def test_unpad_fails_only_with_padding_error(data):
    expected = _reference_unpad(data)
    for form in (data, bytearray(data), memoryview(data)):
        out = _outcome(unpad_message, form)
        assert out == expected
        assert out is PaddingError or type(out) is bytes

