"""Message framing: sentinel padding, 64-octet block segmentation, serialization.

Messages are padded with a three-octet '###' sentinel followed by random
printable filler (never containing '#'), split into 64-octet blocks, and each
block n is encrypted under the session key chained n-1 steps from the master
key. Ciphertext serializes as raw octets, lowercase hex, or standard base64.

The codec works on one contiguous buffer per message: the CLI calls the
buffer functions directly, and only the public block-list functions
(encrypt_message, decrypt_message, encode_stream, decode_stream) split a
buffer into 64-octet blocks or join blocks into one.
"""

from __future__ import annotations

import binascii
from typing import Sequence

from . import batch
from .cipher import BLOCK_SIZE
from .errors import BlockSizeError, DecodeError, PaddingError
from .keys import LIVE_BLOCKS, session_keys
# Unused here; perfbench/spans.py traces this name by lookup, so it stays.
from .keys import session_key_chain  # noqa: F401

SENTINEL = b"###"

# Printable ASCII filler alphabet, with '#' excluded so the sentinel stays
# the rightmost '#' run of the padded data.
_FILLER_ALPHABET = bytes(b for b in range(0x20, 0x7F) if b != 0x23)

_HEX_DIGITS = b"0123456789abcdefABCDEF"
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

ENCODINGS = ("raw", "hex", "base64")


def pad_message(message: bytes, filler_source) -> bytearray:
    """Append '###' plus random printable filler up to the next block boundary.

    The sentinel is always appended, so a message that already fills whole
    blocks grows by one block. ``filler_source`` is a random.Random-style
    source; only its choices() method is used. Returns a new bytearray, the
    message's one copy, which the encryption then overwrites in place.
    """
    fill = -(len(message) + len(SENTINEL)) % BLOCK_SIZE
    filler = bytes(filler_source.choices(_FILLER_ALPHABET, k=fill)) if fill else b""
    return bytearray().join((message, SENTINEL, filler))


def unpad_message(padded) -> bytes:
    """Strip the sentinel and filler appended by pad_message.

    Scans the final block right to left past filler octets to the last '#',
    requires the full three-octet sentinel there (it may begin in the
    previous block), and returns everything before it. ``padded`` may be any
    bytes-like; only the final block and the sentinel are read before the
    one copy of the result. Raises PaddingError when the sentinel is missing
    or malformed, which is the symptom of corrupted ciphertext or a wrong key.
    """
    data = memoryview(padded).cast("B")
    if not data or len(data) % BLOCK_SIZE:
        raise PaddingError(
            f"padded data must be a positive multiple of {BLOCK_SIZE} octets, got {len(data)}"
        )
    stop = len(data) - BLOCK_SIZE
    i = bytes(data[stop:]).rfind(b"#")
    if i < 0:
        raise PaddingError("no padding sentinel in the final block")
    i += stop
    if i < 2 or data[i - 2:i + 1] != SENTINEL:
        raise PaddingError("padding sentinel is malformed")
    return bytes(data[:i - 2])


def encrypt_message(message: bytes, master: bytes, filler_source) -> list[bytes]:
    """Pad, split into blocks, and encrypt block n under its chained session key.

    Only the first keys.LIVE_BLOCKS (12) blocks go through the rounds. Every
    later session key makes the block transform the identity, so later
    blocks are copied unchanged, exactly as the full transform would leave
    them.
    """
    return _split_blocks(_encrypt_buffer(message, master, filler_source))


def decrypt_message(stream: Sequence[bytes], master: bytes) -> bytes:
    """Decrypt each block under its chained session key, concatenate, unpad.

    As in encrypt_message, only the first keys.LIVE_BLOCKS blocks go
    through the inverse rounds; later blocks pass unchanged.
    """
    blocks = list(stream)
    if set(map(len, blocks)) - {BLOCK_SIZE}:
        idx, size = next((i, n) for i, n in enumerate(map(len, blocks)) if n != BLOCK_SIZE)
        raise BlockSizeError(f"block {idx} has {size} octets, expected {BLOCK_SIZE}")
    return bytes(_decrypt_buffer(b"".join(blocks), master))


def encode_stream(stream: Sequence[bytes], encoding: str = "raw") -> bytes:
    """Serialize ciphertext blocks as raw octets, lowercase hex, or base64."""
    return _encode_buffer(b"".join(bytes(b) for b in stream), encoding)


def decode_stream(data: bytes, encoding: str = "raw") -> list[bytes]:
    """Inverse of encode_stream; returns the list of 64-octet blocks.

    Raises DecodeError (with the offending position) for malformed hex or
    base64, BlockSizeError when the decoded length is not a multiple of 64.
    """
    return _split_blocks(_decode_buffer(bytes(data), encoding))


# The codec's one implementation, on whole buffers; the CLI calls it directly.

def _encrypt_buffer(message, master: bytes, filler_source) -> bytearray:
    # Pad, encrypt the live head in place, and leave the tail as padded.
    padded = pad_message(message, filler_source)
    blocks = min(len(padded) // BLOCK_SIZE, LIVE_BLOCKS)
    head = blocks * BLOCK_SIZE
    padded[:head] = batch.encrypt_blocks(padded[:head], session_keys(master, blocks)).tobytes()
    return padded


def _decrypt_buffer(data, master: bytes) -> memoryview:
    # Inverse of _encrypt_buffer; ``data`` is whole 64-octet blocks. Returns
    # a view of the one decrypted copy: the sentinel begins at most two
    # octets before the final block, so unpadding reads the last two blocks.
    if not data:
        raise BlockSizeError("ciphertext stream is empty")
    blocks = min(len(data) // BLOCK_SIZE, LIVE_BLOCKS)
    head = blocks * BLOCK_SIZE
    out = bytearray(data)
    out[:head] = batch.decrypt_blocks(out[:head], session_keys(master, blocks)).tobytes()
    start = max(0, len(out) - 2 * BLOCK_SIZE)
    cut = start + len(unpad_message(memoryview(out)[start:]))
    return memoryview(out)[:cut]


def _encode_buffer(data, encoding: str) -> bytes | bytearray:
    # ``data`` itself for raw, so a raw write makes no copy of it.
    if encoding == "raw":
        return data
    if encoding == "hex":
        return binascii.hexlify(data)
    if encoding == "base64":
        return binascii.b2a_base64(data, newline=False)
    raise ValueError(f"unknown encoding {encoding!r}")


def _decode_buffer(data: bytes, encoding: str) -> bytes:
    if encoding == "raw":
        decoded = data
    elif encoding == "hex":
        decoded = _decode_hex(data)
    elif encoding == "base64":
        decoded = _decode_base64(data)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    if len(decoded) % BLOCK_SIZE:
        raise BlockSizeError(
            f"decoded length {len(decoded)} is not a multiple of {BLOCK_SIZE}"
        )
    return decoded


def _split_blocks(data) -> list[bytes]:
    data = bytes(data)
    return [data[i:i + BLOCK_SIZE] for i in range(0, len(data), BLOCK_SIZE)]


def _decode_hex(data: bytes) -> bytes:
    # unhexlify accepts exactly even-length [0-9a-fA-F]; scan only on failure.
    try:
        return binascii.unhexlify(data)
    except binascii.Error:
        pass
    pos = _first_outside(data, _HEX_DIGITS)
    if pos is not None:
        raise DecodeError("invalid hex digit", pos)
    raise DecodeError("odd-length hex input", len(data))


def _decode_base64(data: bytes) -> bytes:
    tail = data[-3:]
    pads = len(tail) - len(tail.rstrip(b"="))
    if pads > 2:
        raise DecodeError("more than two base64 padding characters",
                          len(data.rstrip(b"=")) + 2)
    end = len(data) - pads
    if len(data) % 4 == 0:
        # Non-strict decoding skips octets outside the alphabet, stops at an
        # interior '=', and reads 6 bits per alphabet octet. A fault before
        # ``end`` leaves at most end - 1 alphabet octets, too few for this
        # length, so a full-length result is strictly valid base64.
        try:
            out = binascii.a2b_base64(data)
        except binascii.Error:
            pass
        else:
            if len(out) == len(data) // 4 * 3 - pads:
                return out
        # Otherwise there is a fault before ``end``; the scan below finds it.
    pos = _first_outside(data, _BASE64_ALPHABET)
    if pos is not None and pos < end:  # from end on there is only '=' padding
        raise DecodeError("invalid base64 character", pos)
    raise DecodeError("base64 length is not a multiple of 4", len(data))


def _first_outside(data: bytes, alphabet: bytes) -> int | None:
    """Position of the first octet of ``data`` not in ``alphabet``, or None."""
    rest = data.translate(None, alphabet)
    if not rest:
        return None
    # rest keeps the invalid octets in order, so rest[0] is the octet at the
    # first invalid position, and it occurs nowhere earlier in data.
    return data.index(rest[:1])
