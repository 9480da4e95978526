"""Key handling: master-key parsing, round sub-keys, per-block session-key chain.

A key is 64 base-8 digits arranged row-major on an 8x8 grid, stored as a
``bytes`` object of digit values 0..7. The master key doubles as the session
key of the first block; each later block's session key is chained from the
previous one. ``session_keys``, the chain's one implementation, returns the
keys of blocks 1..n as one (n, 64) array; ``session_key_chain`` yields its
rows as ``bytes`` in block order. Each of the 8 rounds inside a block uses a
sub-key obtained by rotating the session key's columns.
"""

from __future__ import annotations

from itertools import repeat, takewhile
from math import comb
from typing import Iterator

import numpy as np

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

# A key is valid when deleting these octets leaves nothing: one C pass,
# where max() compares 64 Python ints (0.3 against 2.0 µs).
_DIGIT_VALUES = bytes(range(DIGIT_BASE))

# The chain in closed form. Block n's session key is (I+S)^(n-1) applied to
# each row of the master, and S^8 = I, so (I+S)^t is the sum over r of
# c[t][r] S^r with c[t][r] the sum of C(t, i) over i = r (mod 8). Row t-1 of
# _CHAIN_POWERS holds c[t] mod 8 for t = 1..15; (I+S)^16 = 0 mod 8 ends the
# table, and from block LIVE_BLOCKS + 1 on the keys already make the block
# transform the identity (the lemma above). Row r of _ROW_ROTATIONS gathers
# S^r of a key: cell 8i+j reads digit 8i+(j+r)%8. Its second user is batch,
# which takes rows 1 and 7 (the next and the previous column) as the
# one-column grid shifts that it folds into its mix tables.
_CHAIN_POWERS = np.array([[sum(comb(t, i) for i in range(r, t + 1, 8)) % DIGIT_BASE
                           for r in range(8)] for t in range(1, 16)], dtype=np.float32)
_ROW_ROTATIONS = np.array([[i & ~7 | (i + r) & 7 for i in range(KEY_DIGITS)]
                           for r in range(8)])


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
    return "".join(chr(d + ord("0")) for d in _check_key(key))


def read_key_file(path) -> bytes:
    """Read a key file: one line of 64 digits, optional trailing newline.

    At most 67 octets are read: 64 digits, a CR LF ending, and one more to
    tell a longer file, which fails with LengthError without being read whole.
    """
    with open(path, "rb") as fh:
        raw = fh.read(KEY_DIGITS + 3)
    if len(raw) > KEY_DIGITS + 2:
        # Less a CR LF ending, 67 octets still leave 65 characters.
        raise LengthError(KEY_DIGITS + 1, at_least=True)
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


def session_keys(master: bytes, n: int) -> np.ndarray:
    """The session keys of blocks 1..n as one (n, 64) uint8 array.

    Row 1 is the checked master, so one block computes no other key. Rows
    2..min(n, 16) come from one product of the closed form; every later row
    is ZERO_KEY, the chain's fixed point. The product is in float32, since
    ``np.dot`` on integers skips BLAS and runs a slower loop; it is exact,
    as every sum is at most 8 * 7 * 7 = 392.
    """
    key = np.frombuffer(_check_key(master), dtype=np.uint8)
    keys = np.zeros((n, KEY_DIGITS), dtype=np.uint8)
    keys[:1] = key
    if n > 1:
        powers = _CHAIN_POWERS[:n - 1]
        keys[1:len(powers) + 1] = np.dot(powers, key.take(_ROW_ROTATIONS)).astype(np.uint16) & 7
    return keys


def session_key_chain(master: bytes) -> Iterator[bytes]:
    """Yield the session keys of blocks 1, 2, 3, ... as the rows of session_keys.

    The master is checked and yielded first, so a one-block message costs
    no other key. Asking for block 2 computes the keys of blocks 2..16 at
    once; from the first ZERO_KEY on, the chain's fixed point, the
    generator yields ZERO_KEY itself with no further work.
    """
    key = _check_key(master)
    yield key
    if key != ZERO_KEY:
        later = session_keys(key, len(_CHAIN_POWERS) + 1)[1:]
        yield from takewhile(ZERO_KEY.__ne__, map(bytes, later))
    yield from repeat(ZERO_KEY)


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


def _check_key(key: bytes) -> bytes:
    # The key as bytes, once its length and digits are checked.
    k = bytes(key)
    if len(k) != KEY_DIGITS:
        raise ValueError(f"key must have exactly {KEY_DIGITS} digits, got {len(k)}")
    if k.translate(None, _DIGIT_VALUES):
        raise ValueError("key digits must lie in 0..7")
    return k
