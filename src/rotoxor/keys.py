"""Key handling: master-key parsing, round sub-keys, per-block session-key chain.

A key is 64 base-8 digits arranged row-major on an 8x8 grid, stored as a
``bytes`` object of digit values 0..7. The master key doubles as the session
key of the first block; each later block's session key is chained from the
previous one. The chain's one implementation is ``batch.session_keys``, its
closed form on numpy arrays; ``session_key_chain`` yields its rows as
``bytes`` in block order, and imports it only when block 2 is asked for, so
this module loads without numpy. Each of the 8 rounds inside a block uses a
sub-key obtained by rotating the session key's columns.
"""

from __future__ import annotations

from itertools import repeat, takewhile
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

# The chain's fixed point, reached by block CHAIN_BLOCKS + 1 since
# (I+S)^16 = 0 mod 8, so only blocks 1..CHAIN_BLOCKS can have other keys.
ZERO_KEY = bytes(KEY_DIGITS)
CHAIN_BLOCKS = 16

# A key is valid when deleting these octets leaves nothing: one C pass,
# where max() compares 64 Python ints (0.3 against 2.0 µs).
_DIGIT_VALUES = bytes(range(DIGIT_BASE))

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


def session_key_chain(master: bytes) -> Iterator[bytes]:
    """Yield the session keys of blocks 1, 2, 3, ... as the rows of batch.session_keys.

    The master is checked and yielded first, so a one-block message costs
    no other key. Asking for block 2 computes the keys of blocks
    2..CHAIN_BLOCKS at once; from the first ZERO_KEY on, the chain's fixed
    point, the generator yields ZERO_KEY itself with no further work.
    """
    key = _check_key(master)
    yield key
    if key != ZERO_KEY:
        from .batch import session_keys
        later = session_keys(key, CHAIN_BLOCKS)[1:]
        yield from takewhile(ZERO_KEY.__ne__, map(bytes, later))
    yield from repeat(ZERO_KEY)


def is_weak_key(key: bytes) -> bool:
    """True when all 64 digits are identical, or the key has identity form.

    Such a master sends the whole message in the clear. A uniform key
    rotates every octet alike, which commutes with the XOR mix, so the
    eight rounds add up to a rotation by 8 times the digit and the mix
    applied eight times, both the identity (the mix has order 4). The
    chain maps a uniform key to the uniform key of twice its digit mod 8,
    so every session key is uniform too (all-zero within three steps).

    A key of identity form has digits 0 or 4 only and rows of period 4
    (digit i equals digit i ^ 4). Its transform is the identity by the
    lemma at LIVE_BLOCKS, and the chain keeps the form, since each digit
    becomes the sum of two such digits mod 8. Other identity keys exist
    (0,4,4,0,0,0,0,0 in every row is one); this test does not find them.
    """
    digits = set(key)
    return len(digits) == 1 or (digits <= {0, 4}
                                and all(key[i] == key[i ^ 4] for i in range(KEY_DIGITS)))


def keyspace_report() -> str:
    """Contrast the stated key count (64^8) with the structural count (8^64)."""
    stated = 64 ** 8
    structural = 8 ** 64
    lines = [
        "stated_keys=64^8",
        "stated_keys_pow2=2^48",
        f"stated_keys_value={stated}",
        "structural_keys=8^64",
        "structural_keys_pow2=2^192",
        f"structural_keys_value={structural}",
        "discrepancy=yes",
        "discrepancy_note=the stated count 2^48 and the structural count 2^192"
        " differ by a factor of 2^144; 64 positions over 8 digit values give"
        " 8^64 keys, not 64^8",
    ]
    return "\n".join(lines)


def _check_key(key: bytes) -> bytes:
    # The key as bytes, once its length and digits are checked.
    k = bytes(key)
    if len(k) != KEY_DIGITS:
        raise ValueError(f"key must have exactly {KEY_DIGITS} digits, got {len(k)}")
    return _check_digits(k)


def _check_digits(digits: bytes) -> bytes:
    # The digits of any number of keys, once each is checked to lie in 0..7.
    if digits.translate(None, _DIGIT_VALUES):
        raise ValueError("key digits must lie in 0..7")
    return digits
