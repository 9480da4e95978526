"""Message framing: sentinel padding, 64-octet block segmentation, serialization.

Messages are padded with a three-octet '###' sentinel followed by random
printable filler (never containing '#'), split into 64-octet blocks, and each
block n is encrypted under the session key chained n-1 steps from the master
key. Ciphertext serializes as raw octets, lowercase hex, or standard base64.
"""

from __future__ import annotations

import base64
from itertools import islice
from typing import Sequence

from . import batch
from .cipher import BLOCK_SIZE
from .errors import BlockSizeError, DecodeError, PaddingError
from .keys import _is_identity_key, session_key_chain

SENTINEL = b"###"

# Printable ASCII filler alphabet, with '#' excluded so the sentinel stays
# the rightmost '#' run of the padded data.
_FILLER_ALPHABET = bytes(b for b in range(0x20, 0x7F) if b != 0x23)

_HEX_DIGITS = b"0123456789abcdefABCDEF"
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

ENCODINGS = ("raw", "hex", "base64")


def pad_message(message: bytes, filler_source) -> bytes:
    """Append '###' plus random printable filler up to the next block boundary.

    The sentinel is always appended, so a message that already fills whole
    blocks grows by one block. ``filler_source`` is a random.Random-style
    source; only its choices() method is used.
    """
    message = bytes(message)
    fill = -(len(message) + len(SENTINEL)) % BLOCK_SIZE
    filler = bytes(filler_source.choices(_FILLER_ALPHABET, k=fill)) if fill else b""
    return message + SENTINEL + filler


def unpad_message(padded: bytes) -> bytes:
    """Strip the sentinel and filler appended by pad_message.

    Scans the final block right to left past filler octets to the last '#',
    requires the full three-octet sentinel there (it may begin in the
    previous block), and returns everything before it. Raises PaddingError
    when the sentinel is missing or malformed, which is the symptom of
    corrupted ciphertext or a wrong key.
    """
    data = bytes(padded)
    if not data or len(data) % BLOCK_SIZE:
        raise PaddingError(
            f"padded data must be a positive multiple of {BLOCK_SIZE} octets, got {len(data)}"
        )
    stop = len(data) - BLOCK_SIZE
    i = len(data) - 1
    while i >= stop and data[i] != 0x23:
        i -= 1
    if i < stop:
        raise PaddingError("no padding sentinel in the final block")
    if i < 2 or data[i - 2:i + 1] != SENTINEL:
        raise PaddingError("padding sentinel is malformed")
    return data[:i - 2]


def encrypt_message(message: bytes, master: bytes, filler_source) -> list[bytes]:
    """Pad, split into blocks, and encrypt block n under its chained session key.

    Only the blocks before the first identity session key (at most 12) go
    through the rounds. The chain map is I+S per key row over Z8, and
    (I+S)^12 = 0 mod 4 and (I+S)^12 (I+S^4) = 0 mod 8, so every key from
    block 13 on has digits 0 or 4 only and rows of period 4. Under such a
    key the block transform is the identity (see keys._is_identity_key).
    Those later blocks are copied unchanged, exactly as the full transform
    would leave them.
    """
    padded = pad_message(message, filler_source)
    live = _live_session_keys(master, len(padded) // BLOCK_SIZE)
    head = len(live) * BLOCK_SIZE
    out = batch.encrypt_blocks(padded[:head], b"".join(live)).tobytes()
    return _split_blocks(out + padded[head:])


def decrypt_message(stream: Sequence[bytes], master: bytes) -> bytes:
    """Decrypt each block under its chained session key, concatenate, unpad.

    As in encrypt_message, only the blocks before the first identity
    session key (at most 12) go through the inverse rounds; from block 13
    on the transform is the identity, so later blocks pass unchanged.
    """
    blocks = list(stream)
    if not blocks:
        raise BlockSizeError("ciphertext stream is empty")
    if set(map(len, blocks)) != {BLOCK_SIZE}:
        idx, size = next((i, n) for i, n in enumerate(map(len, blocks)) if n != BLOCK_SIZE)
        raise BlockSizeError(f"block {idx} has {size} octets, expected {BLOCK_SIZE}")
    data = b"".join(blocks)
    live = _live_session_keys(master, len(blocks))
    head = len(live) * BLOCK_SIZE
    out = batch.decrypt_blocks(data[:head], b"".join(live)).tobytes()
    return unpad_message(out + data[head:])


def _live_session_keys(master: bytes, count: int) -> list[bytes]:
    # Session keys of the first ``count`` blocks, up to the first identity key.
    live = []
    for key in islice(session_key_chain(master), count):
        if _is_identity_key(key):
            break
        live.append(key)
    return live


def _split_blocks(data: bytes) -> list[bytes]:
    return [data[i:i + BLOCK_SIZE] for i in range(0, len(data), BLOCK_SIZE)]


def encode_stream(stream: Sequence[bytes], encoding: str = "raw") -> bytes:
    """Serialize ciphertext blocks as raw octets, lowercase hex, or base64."""
    data = b"".join(bytes(b) for b in stream)
    if encoding == "raw":
        return data
    if encoding == "hex":
        return data.hex().encode("ascii")
    if encoding == "base64":
        return base64.b64encode(data)
    raise ValueError(f"unknown encoding {encoding!r}")


def decode_stream(data: bytes, encoding: str = "raw") -> list[bytes]:
    """Inverse of encode_stream; returns the list of 64-octet blocks.

    Raises DecodeError (with the offending position) for malformed hex or
    base64, BlockSizeError when the decoded length is not a multiple of 64.
    """
    data = bytes(data)
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
    return _split_blocks(decoded)


def _decode_hex(data: bytes) -> bytes:
    pos = _first_outside(data, _HEX_DIGITS)
    if pos is not None:
        raise DecodeError("invalid hex digit", pos)
    if len(data) % 2:
        raise DecodeError("odd-length hex input", len(data))
    return bytes.fromhex(data.decode("ascii"))


def _decode_base64(data: bytes) -> bytes:
    end = len(data)
    while end > 0 and data[end - 1] == 0x3D:  # '='
        end -= 1
    if len(data) - end > 2:
        raise DecodeError("more than two base64 padding characters", end + 2)
    pos = _first_outside(data, _BASE64_ALPHABET)
    if pos is not None and pos < end:  # from end on there is only '=' padding
        raise DecodeError("invalid base64 character", pos)
    if len(data) % 4:
        raise DecodeError("base64 length is not a multiple of 4", len(data))
    return base64.b64decode(data, validate=True)


def _first_outside(data: bytes, alphabet: bytes) -> int | None:
    """Position of the first octet of ``data`` not in ``alphabet``, or None."""
    rest = data.translate(None, alphabet)
    if not rest:
        return None
    # rest keeps the invalid octets in order, so rest[0] is the octet at the
    # first invalid position, and it occurs nowhere earlier in data.
    return data.index(rest[:1])
