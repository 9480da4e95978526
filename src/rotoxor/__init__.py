"""Rotation+XOR block cipher on an 8x8 octet grid, with an analysis harness.

An educational cipher: 8 rounds of keyed per-octet bit rotations and toroidal
plus-neighborhood XOR diffusion, a chained per-block key schedule, sentinel
padding, and a file CLI. The fixed-key transform is linear over GF(2), and
the analysis module demonstrates the resulting break: 512 chosen plaintexts
recover the full cipher matrix. Do not use this to protect real data.
"""

from .cipher import (
    BLOCK_SIZE,
    ROUNDS,
    decrypt_block,
    encrypt_block,
    rotate_layer_decrypt,
    rotate_layer_encrypt,
    xor_layer_decrypt,
    xor_layer_encrypt,
)
from .codec import (
    ENCODINGS,
    SENTINEL,
    decode_stream,
    decrypt_message,
    encode_stream,
    encrypt_message,
    pad_message,
    unpad_message,
)
from .errors import (
    BlockSizeError,
    CipherError,
    DecodeError,
    DigitError,
    LengthError,
    PaddingError,
    SingularMapError,
)
from .keys import (
    KEY_DIGITS,
    derive_round_key,
    format_key,
    is_weak_key,
    parse_master_key,
    read_key_file,
    session_key_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "ROUNDS",
    "KEY_DIGITS",
    "ENCODINGS",
    "SENTINEL",
    "encrypt_block",
    "decrypt_block",
    "rotate_layer_encrypt",
    "rotate_layer_decrypt",
    "xor_layer_encrypt",
    "xor_layer_decrypt",
    "parse_master_key",
    "format_key",
    "read_key_file",
    "derive_round_key",
    "session_key_chain",
    "is_weak_key",
    "pad_message",
    "unpad_message",
    "encrypt_message",
    "decrypt_message",
    "encode_stream",
    "decode_stream",
    "CipherError",
    "LengthError",
    "DigitError",
    "PaddingError",
    "BlockSizeError",
    "DecodeError",
    "SingularMapError",
]
