"""GF(2) bit-matrix helpers: elimination, inversion, products."""

import random

import pytest

from rotoxor import gf2
from rotoxor.errors import SingularMapError
from support import identity, mat_mul


def _random_invertible(rng, n):
    # Random elementary row operations on I always yield an invertible matrix.
    rows = identity(n)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


def test_identity_is_identity():
    n = 16
    eye = identity(n)
    for x in (0, 1, 0b1010, (1 << n) - 1):
        assert gf2.mat_vec(eye, x) == x
    assert mat_mul(eye, eye) == eye


def test_transpose_involution():
    rng = random.Random(10)
    n = 32
    rows = [rng.getrandbits(n) for _ in range(n)]
    assert gf2.transpose(gf2.transpose(rows, n), n) == rows
    assert gf2.transpose(identity(n), n) == identity(n)


def test_transpose_entries():
    # 2x2: [[1,1],[0,1]] -> [[1,0],[1,1]]
    assert gf2.transpose([0b11, 0b10], 2) == [0b01, 0b11]


def test_mat_vec_is_row_parity():
    rows = [0b101, 0b011, 0b110]
    # x = 0b111: parities are 0, 0, 0 except row weights 2,2,2 -> all even
    assert gf2.mat_vec(rows, 0b111) == 0
    assert gf2.mat_vec(rows, 0b001) == 0b011


def test_mat_mul_matches_mat_vec():
    rng = random.Random(11)
    n = 24
    a = [rng.getrandbits(n) for _ in range(n)]
    b = [rng.getrandbits(n) for _ in range(n)]
    ab = mat_mul(a, b)
    bt = gf2.transpose(b, n)
    for _ in range(50):
        x = rng.getrandbits(n)
        assert gf2.mat_vec(ab, x) == gf2.mat_vec(a, gf2.mat_vec(b, x))
    # row i of a*b equals a[i] applied to the rows of b
    for i in range(n):
        assert gf2.mat_vec(bt, a[i]) == ab[i]


def test_rank_full_and_deficient():
    n = 20
    assert gf2.rank(identity(n), n) == n
    rows = identity(n)
    rows[3] = rows[7]  # duplicate row
    assert gf2.rank(rows, n) == n - 1
    assert gf2.rank([0] * n, n) == 0


def test_rank_does_not_modify_input():
    rng = random.Random(12)
    n = 16
    rows = [rng.getrandbits(n) for _ in range(n)]
    snapshot = list(rows)
    gf2.rank(rows, n)
    assert rows == snapshot


def test_invert_round_trip():
    rng = random.Random(13)
    for n in (1, 2, 8, 33):
        a = _random_invertible(rng, n)
        inv = gf2.invert(a, n)
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)


def test_invert_singular_raises():
    n = 8
    rows = identity(n)
    rows[0] = 0
    with pytest.raises(SingularMapError):
        gf2.invert(rows, n)
    with pytest.raises(SingularMapError):
        gf2.invert(identity(4), 5)

