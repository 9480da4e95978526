"""Key handling: master-key parsing, round sub-keys, per-block session-key chain.

A key is 64 base-8 digits arranged row-major on an 8x8 grid, stored as a
``bytes`` object of digit values 0..7. The master key doubles as the session
key of the first block; each later block's session key is chained from the
previous one, and each of the 8 rounds inside a block uses a sub-key obtained
by rotating the session key's columns.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add, itemgetter
from typing import Iterator

from .errors import DigitError, LengthError

KEY_DIGITS = 64
DIGIT_BASE = 8
ROUNDS = 8

# The only blocks the cipher changes are blocks 1..LIVE_BLOCKS. The chain
# map is I+S per key row over Z8 (S the cyclic shift), and (I+S)^12 = 0
# mod 4 and (I+S)^12 (I+S^4) = 0 mod 8, so every session key from block 13
# on has digits 0 or 4 only and rows of period 4. Each rotation is then a
# nibble swap or nothing, and the eight rounds cancel over GF(2): the block
# transform is the identity.
LIVE_BLOCKS = 12

# The chain's fixed point, reached by block 17 since (I+S)^16 = 0 mod 8.
ZERO_KEY = bytes(KEY_DIGITS)

# The row-rotated copy of a key: each digit's right neighbour, wrapping
# within its row of 8.
_RIGHT_NEIGHBOURS = itemgetter(*(r + (c + 1) % 8 for r in range(0, KEY_DIGITS, 8)
                                 for c in range(8)))
_MOD_BASE = bytes(i % DIGIT_BASE for i in range(256))


def parse_master_key(text: str) -> bytes:
    """Parse 64 row-major characters '0'..'7' into a key.

    Raises LengthError on wrong length, DigitError (with the offending
    position) on any character outside '0'..'7'.
    """
    if len(text) != KEY_DIGITS:
        raise LengthError(len(text))
    digits = bytearray(KEY_DIGITS)
    for pos, ch in enumerate(text):
        if not "0" <= ch <= "7":
            raise DigitError(pos, ch)
        digits[pos] = ord(ch) - ord("0")
    return bytes(digits)


def format_key(key: bytes) -> str:
    """Render a key back to its 64-character text form."""
    _check_key(key)
    return "".join(chr(d + ord("0")) for d in key)


def read_key_file(path) -> bytes:
    """Read a key file: one line of 64 digits, optional trailing newline."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("latin-1")
    if text.endswith("\n"):
        text = text[:-1]
    if text.endswith("\r"):
        text = text[:-1]
    return parse_master_key(text)


def derive_round_key(session_key: bytes, m: int) -> bytes:
    """Sub-key for round ``m`` (1..8): session-key columns rotated right m-1 places."""
    if not 1 <= m <= ROUNDS:
        raise ValueError(f"round index must be 1..{ROUNDS}, got {m}")
    shift = m - 1
    cut = 8 - shift
    rows = [session_key[i + cut:i + 8] + session_key[i:i + cut] for i in range(0, 64, 8)]
    return b"".join(rows)


def next_session_key(prev: bytes) -> bytes:
    """Chain step: each digit becomes (itself + right neighbour in its row) mod 8."""
    _check_key(prev)
    return _step(prev)


def session_key_for_block(master: bytes, n: int) -> bytes:
    """Session key of block ``n`` (1-based): the chain applied n-1 times to the master."""
    if n < 1:
        raise ValueError(f"block index must be >= 1, got {n}")
    return next(islice(session_key_chain(master), n - 1, None))


def session_key_chain(master: bytes) -> Iterator[bytes]:
    """Yield the session keys of blocks 1, 2, 3, ... incrementally.

    The chain is stepped only until it reaches ZERO_KEY, its fixed point.
    """
    key = bytes(master)
    _check_key(key)
    while key != ZERO_KEY:
        yield key
        key = _step(key)
    yield from repeat(key)


def is_weak_key(key: bytes) -> bool:
    """True when all 64 digits are identical.

    Such a master sends the whole message in the clear. A uniform key
    rotates every octet alike, which commutes with the XOR mix, so the
    eight rounds add up to a rotation by 8 times the digit and the mix
    applied eight times, both the identity (the mix has order 4). The
    chain maps a uniform key to the uniform key of twice its digit mod 8,
    so every session key is uniform too (all-zero within three steps).
    """
    return len(set(key)) == 1


def _step(key: bytes) -> bytes:
    # next_session_key without the check, for keys valid by construction.
    return bytes(map(add, key, _RIGHT_NEIGHBOURS(key))).translate(_MOD_BASE)


def _check_key(key: bytes) -> None:
    if len(key) != KEY_DIGITS:
        raise ValueError(f"key must have exactly {KEY_DIGITS} digits, got {len(key)}")
    if max(key) >= DIGIT_BASE:
        raise ValueError("key digits must lie in 0..7")
