"""Exception types shared across the package."""


class CipherError(Exception):
    """Base class for every error this package raises deliberately."""


class LengthError(CipherError):
    """Key text is not exactly 64 characters long."""

    def __init__(self, length: int, at_least: bool = False):
        got = f"at least {length}" if at_least else length
        super().__init__(f"key text must be exactly 64 characters, got {got}")
        self.length = length


class DigitError(CipherError):
    """Key text contains a character outside '0'..'7'."""

    def __init__(self, position: int, char: str):
        super().__init__(f"invalid key digit {char!r} at position {position}")
        self.position = position
        self.char = char


class PaddingError(CipherError):
    """Padding sentinel missing or malformed (corrupt data or wrong key)."""


class BlockSizeError(CipherError):
    """Data does not form a whole number of 64-octet blocks."""


class DecodeError(CipherError):
    """Malformed hex or base64 ciphertext input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class SingularMapError(CipherError):
    """A recovered linear map has no inverse the attack can build.

    The attack accepts only a map that is R-linear with M^8 = I, as every
    key's block transform is (see ``analysis.LinearMap512``); a singular map
    fails that too. Either failure signals a broken cipher.
    """
