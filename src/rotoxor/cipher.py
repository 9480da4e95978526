"""8-round block transform on an 8x8 grid of octets.

Each round applies two bijective layers: a rotation layer that circularly
right-rotates every octet by its key digit, then a diffusion layer that XORs
every cell with its four toroidal neighbors. Rotations permute bit positions
and the diffusion layer is linear over GF(2), so the whole fixed-key block
transform is GF(2)-linear; the analysis module exploits that deliberately.

The transform is also unipotent: E_k^8 = I for every key k. Read each octet
as an element of R = F2[x]/(x^8 + 1) = F2[x]/(x + 1)^8, bit i the
coefficient of x^i. Rotating right by r is then multiplication by x^(8-r),
and the mix, which XORs whole octets, is R-linear, so E_k is a 64x64 matrix
over R. Modulo x + 1 every rotation is the identity and E_k reduces to the
mix applied eight times, which is I since the mix has order 4. So every
entry of E_k - I lies in (x + 1)R, and in characteristic 2
E_k^8 - I = (E_k - I)^8 = 0. Even digits rotate by powers of x^2, the
identity modulo (x + 1)^2, so then E_k^4 = I; digits 0 and 4 are the
identity modulo (x + 1)^4, so then E_k^2 = I. Whoever can encrypt under a
session key can therefore decrypt under it: D_k = E_k^7.
"""

from __future__ import annotations

from .keys import ROUNDS, _check_key, derive_round_key

BLOCK_SIZE = 64

# _ROTR[r][b]: octet b rotated right by r bit positions.
_ROTR = [[((b >> r) | (b << (8 - r))) & 0xFF for b in range(256)] for r in range(8)]


def _plus_neighborhood(dist: int):
    # Flat indices (cell, up, down, left, right) at the given toroidal distance.
    table = []
    for i in range(8):
        for j in range(8):
            table.append((
                i * 8 + j,
                ((i - dist) % 8) * 8 + j,
                ((i + dist) % 8) * 8 + j,
                i * 8 + (j - dist) % 8,
                i * 8 + (j + dist) % 8,
            ))
    return tuple(table)


_NEIGH_1 = _plus_neighborhood(1)
_NEIGH_2 = _plus_neighborhood(2)


def rotate_layer_encrypt(state: bytes, key: bytes) -> bytes:
    """Rotate every octet right by the key digit at its grid position."""
    s = _check_state(state)
    k = _check_key(key)
    return bytes([_ROTR[r][b] for b, r in zip(s, k)])


def rotate_layer_decrypt(state: bytes, key: bytes) -> bytes:
    """Rotate every octet left by its key digit; inverse of rotate_layer_encrypt.

    Left by d is right by -d mod 8. The key is checked first, since -d & 7
    would turn an out-of-range digit such as 9 into a valid one.
    """
    k = _check_key(key)
    return rotate_layer_encrypt(state, bytes([-d & 7 for d in k]))


def xor_layer_encrypt(state: bytes) -> bytes:
    """XOR every cell with its four toroidal neighbors, all updates simultaneous."""
    return _xor_pass(_check_state(state), _NEIGH_1)


def xor_layer_decrypt(state: bytes) -> bytes:
    """Invert xor_layer_encrypt.

    The forward layer is I+N over GF(2), N being the sum of the four unit
    shifts of the 8x8 torus. N is nilpotent here (N^4 = 0), so the inverse
    (I+N)(I+N^2)(I+N^4) collapses to two passes: in the distance-4 factor
    the +4 and -4 neighbors coincide and cancel, leaving the identity.
    """
    s = _check_state(state)
    return _xor_pass(_xor_pass(s, _NEIGH_1), _NEIGH_2)


def encrypt_block(state: bytes, session_key: bytes) -> bytes:
    """Run the 8 rounds; round m rotates by derive_round_key(session_key, m), then mixes."""
    state = _check_state(state)
    key = _check_key(session_key)
    for m in range(1, ROUNDS + 1):
        state = xor_layer_encrypt(rotate_layer_encrypt(state, derive_round_key(key, m)))
    return state


def decrypt_block(state: bytes, session_key: bytes) -> bytes:
    """Invert encrypt_block: rounds 8..1, each unmixing, then rotating back."""
    state = _check_state(state)
    key = _check_key(session_key)
    for m in range(ROUNDS, 0, -1):
        state = rotate_layer_decrypt(xor_layer_decrypt(state), derive_round_key(key, m))
    return state


def _xor_pass(s: bytes, table) -> bytes:
    return bytes([s[c] ^ s[u] ^ s[d] ^ s[l] ^ s[r] for c, u, d, l, r in table])


def _check_state(state: bytes) -> bytes:
    s = bytes(state)
    if len(s) != BLOCK_SIZE:
        raise ValueError(f"state must be exactly {BLOCK_SIZE} octets, got {len(s)}")
    return s

