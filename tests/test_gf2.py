"""GF(2) bit-matrix helpers: elimination, inversion, products.

``rotoxor.gf2`` works on packed uint64 rows; these tests write matrices as
int rows and convert with ``support.pack_rows``/``unpack_rows``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoxor import gf2
from rotoxor.errors import SingularMapError
from support import (
    identity,
    invert_reference,
    mat_mul,
    mat_vec_reference,
    pack_rows,
    rank_reference,
    transpose_reference,
    unpack_rows,
)

# Word boundaries of the packed rows: [A | I] is 2n bits wide, so n = 63
# fills two uint64 words, n = 65 spills into a third. 7, 9, 15 and 17 end
# inside an octet of the row, 8 and 16 on its edge.
SIZES = (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130, 512)


def _transpose(rows, n):
    return unpack_rows(gf2.transpose(pack_rows(rows, n), n))


def _rank(rows, n):
    return gf2.rank(pack_rows(rows, n), n)


def _mat_vec(rows, x, n):
    # The product of n-bit int rows and an int vector, through packed columns.
    columns = gf2.transpose(pack_rows(rows, n), n)
    return unpack_rows([gf2.mat_vec(columns, pack_rows([x], n)[0])])[0]


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
        assert _mat_vec(eye, x, n) == x
    assert mat_mul(eye, eye) == eye


def test_transpose_involution():
    rng = random.Random(10)
    n = 32
    rows = [rng.getrandbits(n) for _ in range(n)]
    a = pack_rows(rows, n)
    assert unpack_rows(gf2.transpose(gf2.transpose(a, n), n)) == rows
    assert _transpose(identity(n), n) == identity(n)


def test_transpose_entries():
    # 2x2: [[1,1],[0,1]] -> [[1,0],[1,1]]
    assert _transpose([0b11, 0b10], 2) == [0b01, 0b11]


def test_mat_vec_is_row_parity():
    rows = [0b101, 0b011, 0b110]
    # x = 0b111: parities are 0, 0, 0 except row weights 2,2,2 -> all even
    assert _mat_vec(rows, 0b111, 3) == 0
    assert _mat_vec(rows, 0b001, 3) == 0b011


def test_mat_mul_matches_mat_vec():
    rng = random.Random(11)
    n = 24
    a = [rng.getrandbits(n) for _ in range(n)]
    b = [rng.getrandbits(n) for _ in range(n)]
    ab = mat_mul(a, b)
    bt = _transpose(b, n)
    for _ in range(50):
        x = rng.getrandbits(n)
        assert _mat_vec(ab, x, n) == _mat_vec(a, _mat_vec(b, x, n), n)
    # row i of a*b equals a[i] applied to the rows of b
    for i in range(n):
        assert _mat_vec(bt, a[i], n) == ab[i]


def test_rank_full_and_deficient():
    n = 20
    assert _rank(identity(n), n) == n
    rows = identity(n)
    rows[3] = rows[7]  # duplicate row
    assert _rank(rows, n) == n - 1
    assert _rank([0] * n, n) == 0


def test_rank_does_not_modify_input():
    rng = random.Random(12)
    n = 16
    rows = pack_rows([rng.getrandbits(n) for _ in range(n)], n)
    snapshot = rows.copy()
    gf2.rank(rows, n)
    np.testing.assert_array_equal(rows, snapshot)


def test_invert_round_trip():
    rng = random.Random(13)
    for n in (1, 2, 8, 33):
        a = _random_invertible(rng, n)
        inv = unpack_rows(gf2.invert(pack_rows(a, n), n))
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)


def test_invert_singular_raises():
    n = 8
    rows = identity(n)
    rows[0] = 0
    with pytest.raises(SingularMapError):
        gf2.invert(pack_rows(rows, n), n)
    with pytest.raises(SingularMapError):
        gf2.invert(pack_rows(identity(4), 5), 5)

def _invert_or_error(invert, rows, n):
    try:
        return invert(rows, n)
    except SingularMapError as err:
        return str(err)


def _packed_invert(packed, n):
    inverse = gf2.invert(packed, n)
    assert inverse.shape == packed.shape
    return unpack_rows(inverse)


def _assert_matches_reference(rows, n):
    packed = pack_rows(rows, n)
    snapshot = packed.copy()
    transposed = gf2.transpose(packed, n)
    assert transposed.shape == packed.shape
    assert unpack_rows(transposed) == transpose_reference(rows, n)
    assert gf2.rank(packed, n) == rank_reference(rows, n)
    assert _invert_or_error(_packed_invert, packed, n) == \
        _invert_or_error(invert_reference, rows, n)
    np.testing.assert_array_equal(packed, snapshot)


@pytest.mark.parametrize("n", SIZES)
def test_packed_matches_reference_on_random_matrices(n):
    rng = random.Random(14 + n)
    _assert_matches_reference([rng.getrandbits(n) for _ in range(n)], n)
    _assert_matches_reference(_random_invertible(rng, n), n)


@pytest.mark.parametrize("n", SIZES)
def test_rank_matches_reference_for_other_row_counts(n):
    rng = random.Random(15 + n)
    for count in (0, n // 2, n + 3):
        rows = [rng.getrandbits(n) if rng.random() < 0.7 else 0 for _ in range(count)]
        packed = pack_rows(rows, n)
        snapshot = packed.copy()
        assert gf2.rank(packed, n) == rank_reference(rows, n)
        np.testing.assert_array_equal(packed, snapshot)


@pytest.mark.parametrize("n", SIZES)
def test_singular_names_the_reference_column(n):
    rng = random.Random(16 + n)
    rows = _random_invertible(rng, n)
    # row i becomes a sum of other rows (the empty sum when n = 1)
    i = rng.randrange(n)
    rows[i] = 0
    for j in rng.sample(range(n), n // 2):
        if j != i:
            rows[i] ^= rows[j]
    expected = _invert_or_error(invert_reference, rows, n)
    assert expected.startswith("matrix is singular (no pivot in column ")
    with pytest.raises(SingularMapError) as err:
        gf2.invert(pack_rows(rows, n), n)
    assert str(err.value) == expected
    # an all-zero column names that column
    col = rng.randrange(n)
    rows = [row & ~(1 << col) for row in _random_invertible(rng, n)]
    with pytest.raises(SingularMapError, match=rf"no pivot in column {col}\)"):
        gf2.invert(pack_rows(rows, n), n)
    if n > 1:
        # a column that is the sum of some earlier columns: the columns
        # before it stay independent
        col = rng.randrange(1, n)
        sources = sum(1 << c for c in rng.sample(range(col), rng.randint(1, col)))
        rows = [row & ~(1 << col) | ((row & sources).bit_count() & 1) << col
                for row in _random_invertible(rng, n)]
        expected = _invert_or_error(invert_reference, rows, n)
        assert expected == f"matrix is singular (no pivot in column {col})"
        with pytest.raises(SingularMapError) as err:
            gf2.invert(pack_rows(rows, n), n)
        assert str(err.value) == expected


def _square_matrices(n):
    return st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n).map(
        lambda rows: (rows, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70).flatmap(_square_matrices), st.integers(0, 70))
def test_packed_matches_reference_property(matrix, cut):
    rows, n = matrix
    _assert_matches_reference(rows, n)
    assert _rank(rows[:cut], n) == rank_reference(rows[:cut], n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70).flatmap(_square_matrices), st.data())
def test_bits_at_n_and_above_are_ignored_property(matrix, data):
    # Junk in the bits of each packed row at n and above, up to the end of
    # its last word, changes no result.
    rows, n = matrix
    width = -(-n // 64) * 64
    junk = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n))
    clean = pack_rows(rows, n)
    dirty = pack_rows([row | (extra >> n << n) for row, extra in zip(rows, junk)], width)
    assert gf2.rank(dirty, n) == gf2.rank(clean, n)
    np.testing.assert_array_equal(gf2.transpose(dirty, n), gf2.transpose(clean, n))
    assert _invert_or_error(_packed_invert, dirty, n) == \
        _invert_or_error(_packed_invert, clean, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.data())
def test_rank_of_more_rows_than_columns_property(n, data):
    # More rows than columns, so the rank is at most n; a mask shared by
    # all rows makes rank-deficient draws common.
    count = data.draw(st.integers(n + 1, 3 * n + 8))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1).map(mask.__and__),
                              min_size=count, max_size=count))
    assert gf2.rank(pack_rows(rows, n), n) == rank_reference(rows, n)


@pytest.mark.parametrize("n", SIZES)
def test_mat_vec_matches_reference(n):
    # The packed product is the row-by-row parity; packing x to the rows'
    # width drops its higher bits, which no row can select.
    rng = random.Random(17 + n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    packed = pack_rows(rows, n)
    for x in (0, 1, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n + 70)):
        expected = mat_vec_reference(rows, x)
        product = gf2.mat_vec(gf2.transpose(packed, n), pack_rows([x], n)[0])
        assert product.shape == packed.shape[1:]
        assert unpack_rows([product])[0] == expected
    assert _mat_vec([], 5, 3) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70).flatmap(_square_matrices), st.integers(0, (1 << 140) - 1))
def test_mat_vec_matches_reference_property(matrix, x):
    rows, n = matrix
    assert _mat_vec(rows, x, n) == mat_vec_reference(rows, x)


@pytest.mark.parametrize("n", SIZES)
def test_stacked_mat_vec_matches_reference(n):
    # A (k, w) stack gives one product per row; every bit of x is drawn,
    # and those at n and above, which pick no column, change nothing.
    rng = random.Random(18 + n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    columns = gf2.transpose(pack_rows(rows, n), n)
    words = columns.shape[1]
    for k in (0, 1, 5, 100):
        xs = np.frombuffer(rng.randbytes(8 * words * k), "<u8").reshape(k, words)
        product = gf2.mat_vec(columns, xs)
        assert product.shape == (k, words)
        assert unpack_rows(product) == [mat_vec_reference(rows, x) for x in unpack_rows(xs)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70), st.integers(1, 70), st.data())
def test_stacked_mat_vec_matches_reference_property(m, n, data):
    # An m x n matrix: n packed columns of m bits, applied to k n-bit vectors.
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    columns = gf2.transpose(pack_rows(rows, n), n)
    product = gf2.mat_vec(columns, pack_rows(xs, n))
    assert unpack_rows(product) == [mat_vec_reference(rows, x) for x in xs]
