"""Analysis harness: linearity, the matrix-recovery attack, reports."""

import random

import numpy as np
import pytest

from rotoxor import analysis, batch, gf2
from rotoxor.analysis import (
    LinearMap512,
    attack_report,
    avalanche_key,
    avalanche_plaintext,
    bench_throughput,
    kpa_decrypt,
    linearity_check,
    recover_linear_map,
    repeated_block_report,
)
from rotoxor.cipher import decrypt_block, encrypt_block, xor_layer_encrypt
from rotoxor.errors import SingularMapError
from rotoxor.keys import derive_round_key, keyspace_report
from support import (
    apply_columns,
    batched,
    blockwise,
    flip_bit,
    hamming_distance,
    identity,
    mat_mul,
    scalar_avalanche_plaintext_sweep,
    unpack_rows,
)


def random_key(rng):
    return bytes(rng.choices(range(8), k=64))


def broken_encrypt(state, key):
    # Rotation replaced by addition mod 256: no longer GF(2)-linear.
    from rotoxor.cipher import _NEIGH_1, _xor_pass

    cells = bytes(state)
    for m in range(1, 9):
        rk = derive_round_key(key, m)
        cells = bytes([(b + r) & 0xFF for b, r in zip(cells, rk)])
        cells = _xor_pass(cells, _NEIGH_1)
    return cells


def scaled_encrypt(state, key):
    # Multiplication keeps E(0)=0 but breaks additivity, exercising the
    # random-pair search rather than the zero-state check.
    from rotoxor.cipher import _NEIGH_1, _xor_pass

    cells = bytes(state)
    for m in range(1, 9):
        rk = derive_round_key(key, m)
        cells = bytes([(b * (r + 2)) & 0xFF for b, r in zip(cells, rk)])
        cells = _xor_pass(cells, _NEIGH_1)
    return cells


# --- small helpers -----------------------------------------------------------

def test_hamming_distance():
    assert hamming_distance(bytes(64), bytes(64)) == 0
    assert hamming_distance(bytes(64), bytes([0xFF]) * 64) == 512
    a = bytearray(64)
    a[10] = 0b101
    assert hamming_distance(bytes(64), bytes(a)) == 2


def test_flip_bit():
    for pos in (0, 7, 8, 511):
        flipped = flip_bit(bytes(64), pos)
        assert hamming_distance(bytes(64), flipped) == 1
        assert flipped[pos >> 3] == 1 << (pos & 7)
        assert flip_bit(flipped, pos) == bytes(64)


# --- linear map recovery -----------------------------------------------------

def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap512(np.ones((511, 8), "<u8"))
    with pytest.raises(ValueError):
        LinearMap512(np.ones((512, 7), "<u8"))


def _rows(linear_map):
    return unpack_rows(gf2.transpose(linear_map.columns, 512))


def test_recover_identity_oracle():
    lm = recover_linear_map(lambda b: b)
    assert unpack_rows(lm.columns) == [1 << c for c in range(512)]
    rng = random.Random(80)
    block = rng.randbytes(64)
    assert apply_columns(unpack_rows(lm.columns), block) == block
    assert kpa_decrypt(lm, block) == block


def test_recover_zero_key_oracle_matches_matrix_power():
    # Zero key: rotations vanish, leaving 8 diffusion passes. Compare the
    # recovered matrix with the independently computed 8th power of the
    # diffusion layer's own recovered matrix.
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, bytes(64))))
    xl = recover_linear_map(blockwise(xor_layer_encrypt))
    power = identity(512)
    rows = _rows(xl)
    for _ in range(8):
        power = mat_mul(rows, power)
    assert _rows(lm) == power
    # and that 8th power is the identity (the diffusion layer has order 4)
    assert power == identity(512)


def test_recover_and_apply_matches_cipher():
    rng = random.Random(81)
    key = random_key(rng)
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    assert gf2.rank(lm.columns, 512) == 512
    assert 0.0 < lm.mean_column_weight() < 1.0
    columns = unpack_rows(lm.columns)
    for _ in range(100):
        block = rng.randbytes(64)
        assert apply_columns(columns, block) == encrypt_block(block, key)


def test_kpa_decrypt_matches_decrypt_block():
    rng = random.Random(82)
    key = random_key(rng)
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    for _ in range(100):
        ciphertext = rng.randbytes(64)
        assert kpa_decrypt(lm, ciphertext) == decrypt_block(ciphertext, key)


def test_kpa_decrypt_of_many_blocks_matches_decrypt_block():
    rng = random.Random(96)
    key = random_key(rng)
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    scalar = blockwise(lambda c: decrypt_block(c, key))
    for blocks in (0, 1, 2, 5, 100):
        ciphertext = rng.randbytes(64 * blocks)
        assert kpa_decrypt(lm, ciphertext) == scalar(ciphertext)


def test_kpa_decrypt_rejects_partial_blocks():
    lm = recover_linear_map(lambda b: b)
    for length in (1, 63, 65, 130):
        with pytest.raises(ValueError, match=f"whole 64-octet blocks, got {length} octets"):
            kpa_decrypt(lm, bytes(length))


def test_kpa_uniform_block_zero_key():
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, bytes(64))))
    uniform = bytes([0x5C]) * 64
    assert kpa_decrypt(lm, uniform) == uniform


def test_recover_singular_oracle_raises():
    with pytest.raises(SingularMapError, match="recovered cipher matrix is singular") as err:
        recover_linear_map(lambda b: bytes(len(b)))
    # the zero map is R-linear, so the M^8 check is the one that fails
    assert str(err.value.__cause__) == "M^8 is not I: it moves basis state 0"


@pytest.mark.parametrize("reply", [0, 64, 32767, 32769, 65536])
def test_recover_rejects_reply_of_wrong_length(reply):
    with pytest.raises(ValueError, match=f"with 32768 octets, got {reply}"):
        recover_linear_map(lambda b: bytes(reply))


def test_attack_inverts_without_elimination(monkeypatch):
    # The inverse is M^7 on the 64 cell columns, by squaring: three
    # products give M^2, then M^3 and M^4, then M^7 and M^8, whose check
    # that M^8 = I rides along. kpa_decrypt reuses that inverse, one
    # product per call, and nothing eliminates.
    calls = []
    for name in ("rank", "invert", "mat_vec"):
        original = getattr(gf2, name)
        monkeypatch.setattr(gf2, name, lambda *a, _name=name, _f=original:
                            calls.append(_name) or _f(*a))
    rng = random.Random(84)
    key = random_key(rng)
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    assert calls == ["mat_vec"] * 3
    for _ in range(100):
        kpa_decrypt(lm, rng.randbytes(64))
    assert calls == ["mat_vec"] * 103


def _batch_oracle(key):
    return lambda blocks: batch.encrypt_blocks(blocks, key).tobytes()


def test_inverse_equals_elimination_for_cipher_keys():
    rng = random.Random(97)
    for _ in range(20):
        lm = recover_linear_map(_batch_oracle(random_key(rng)))
        np.testing.assert_array_equal(lm.inverse, gf2.invert(lm.columns, 512))


@pytest.mark.parametrize("oracle", [
    _batch_oracle(bytes(64)),
    lambda blocks: blocks,
    blockwise(xor_layer_encrypt),
], ids=["zero-key", "identity", "mix-layer"])
def test_inverse_equals_elimination_for_special_maps(oracle):
    lm = recover_linear_map(oracle)
    np.testing.assert_array_equal(lm.inverse, gf2.invert(lm.columns, 512))


def _swap01(blocks):
    # Swaps bits 0 and 1 of octet 0: rank 512 and M^2 = I, but not R-linear.
    a = np.frombuffer(blocks, np.uint8).reshape(-1, 64).copy()
    o = a[:, 0]
    a[:, 0] = o & 0xFC | (o & 1) << 1 | (o >> 1) & 1
    return a.tobytes()


def _cycle3(blocks):
    # Moves cell 0 to 1, 1 to 2 and 2 to 0: rank 512 and R-linear, but
    # M^3 = I, so M^8 = M^2 is not I.
    a = np.frombuffer(blocks, np.uint8).reshape(-1, 64).copy()
    a[:, [1, 2, 0]] = a[:, [0, 1, 2]]
    return a.tobytes()


@pytest.mark.parametrize("oracle, cause", [
    (_swap01, "not R-linear: column 1 is not column 0 rotated left by 1"),
    (_cycle3, "M^8 is not I: it moves basis state 0"),
], ids=["swap01", "cycle3"])
def test_nonsingular_maps_outside_the_contract_raise(oracle, cause):
    basis = b"".join((1 << c).to_bytes(64, "little") for c in range(512))
    assert gf2.rank(np.frombuffer(oracle(basis), "<u8").reshape(512, 8), 512) == 512
    with pytest.raises(SingularMapError, match=r"singular or not R-linear with M\^8 = I") as err:
        recover_linear_map(oracle)
    assert str(err.value.__cause__) == cause


# --- linearity check ---------------------------------------------------------

def test_linearity_holds_for_cipher():
    rng = random.Random(83)
    for _ in range(3):
        key = random_key(rng)
        ok, counterexample = linearity_check(key, 500, rng.randrange(2 ** 32))
        assert ok and counterexample is None


def test_linearity_scalar_path_agrees(monkeypatch):
    rng = random.Random(84)
    key = random_key(rng)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(encrypt_block))
    ok, _ = linearity_check(key, 50, 7)
    assert ok


def test_linearity_rejects_broken_cipher(monkeypatch):
    rng = random.Random(85)
    key = random_key(rng)
    assert any(d != 0 for d in key)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(broken_encrypt))
    ok, counterexample = linearity_check(key, 200, 9)
    assert not ok
    # addition moves the zero state, so the E(0)=0 probe already fails
    assert counterexample == (bytes(64), bytes(64))


def test_linearity_rejects_zero_fixing_nonlinear_cipher(monkeypatch):
    rng = random.Random(86)
    key = random_key(rng)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(scaled_encrypt))
    ok, counterexample = linearity_check(key, 200, 11)
    assert not ok
    x, y = counterexample
    assert (x, y) != (bytes(64), bytes(64))
    combined = bytes(a ^ b for a, b in zip(x, y))
    rebuilt = bytes(
        a ^ b for a, b in zip(scaled_encrypt(x, key), scaled_encrypt(y, key))
    )
    assert scaled_encrypt(combined, key) != rebuilt


def test_linearity_trials_validation():
    with pytest.raises(ValueError):
        linearity_check(bytes(64), 0, 1)


def test_attack_trials_validation():
    # Zero trials would read "verified on 0 blocks".
    with pytest.raises(ValueError, match="trials must be >= 1"):
        attack_report(bytes(64), 0, 1)


# --- avalanche reports -------------------------------------------------------

def test_avalanche_plaintext_deterministic():
    rng = random.Random(87)
    key = random_key(rng)
    a = avalanche_plaintext(key, 100, 55)
    b = avalanche_plaintext(key, 100, 55)
    assert a == b
    assert a.as_lines() == b.as_lines()
    assert avalanche_plaintext(key, 100, 56) != a


def test_avalanche_report_invariants():
    rng = random.Random(88)
    key = random_key(rng)
    report = avalanche_plaintext(key, 64, 3)
    assert report.trials == 64
    assert 0 <= report.flipped_ratio_min <= report.flipped_ratio_mean
    assert report.flipped_ratio_mean <= report.flipped_ratio_max <= 1
    assert report.flipped_ratio_stddev >= 0
    single = avalanche_plaintext(key, 1, 4)
    assert single.flipped_ratio_min == single.flipped_ratio_mean == single.flipped_ratio_max


def test_avalanche_sweep_equals_column_weights():
    rng = random.Random(89)
    key = random_key(rng)
    sweep = scalar_avalanche_plaintext_sweep(key, seed=21)
    lm = recover_linear_map(blockwise(lambda b: encrypt_block(b, key)))
    assert sweep.trials == 512
    assert sweep.flipped_ratio_mean == lm.mean_column_weight()


def test_avalanche_key_report():
    rng = random.Random(90)
    master = random_key(rng)
    a = avalanche_key(master, 80, 13)
    assert a == avalanche_key(master, 80, 13)
    assert a.flipped_ratio_mean > 0
    assert a.mode == "key-sample"


def test_avalanche_trials_validation():
    with pytest.raises(ValueError):
        avalanche_plaintext(bytes(64), 0, 1)


# --- repeated blocks ---------------------------------------------------------

def test_repeated_block_distinct_for_random_fixture():
    rng = random.Random(91)
    report = repeated_block_report(random_key(rng), rng.randbytes(64), 8)
    assert report.all_distinct and report.collisions == ()
    assert report.block_count == 8


def test_repeated_block_zero_content_all_collide():
    rng = random.Random(92)
    report = repeated_block_report(random_key(rng), bytes(64), 4)
    assert not report.all_distinct
    assert report.collisions == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_repeated_block_zero_master_all_collide():
    rng = random.Random(93)
    report = repeated_block_report(bytes(64), rng.randbytes(64), 5)
    assert not report.all_distinct
    assert len(report.collisions) == 10


def test_repeated_block_collides_past_chain_collapse():
    # Session keys are all-zero from block 17 on, so identical content in
    # blocks 17 and 18 always collides, whatever the master key.
    rng = random.Random(94)
    report = repeated_block_report(random_key(rng), rng.randbytes(64), 18)
    assert (17, 18) in report.collisions


def test_repeated_block_validation():
    with pytest.raises(ValueError):
        repeated_block_report(bytes(64), bytes(64), 1)


def _linearity_check_keyless_transform(key):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "encrypt_blocks", lambda states, _key: states)
        return linearity_check(key, 5, 1)


@pytest.mark.parametrize("report", [
    lambda key: avalanche_plaintext(key, 5, 1),
    # a substitute transform that never looks at the key
    lambda key: _linearity_check_keyless_transform(key),
    lambda key: avalanche_key(key, 5, 1),
    lambda key: linearity_check(key, 5, 1),
    lambda key: repeated_block_report(key, bytes(64), 3),
    # a digit of 8 would otherwise surface as a singular recovered map
    lambda key: attack_report(key, 5, 1),
])
def test_reports_reject_malformed_keys(report):
    with pytest.raises(ValueError, match="key digits must lie in 0..7"):
        report(bytes([8]) * 64)
    with pytest.raises(ValueError, match="exactly 64 digits"):
        report(bytes(63))


def test_repeated_block_rejects_short_content():
    with pytest.raises(ValueError, match="64 octets"):
        repeated_block_report(bytes(64), bytes(63), 3)


def test_repeated_block_report_lines():
    rng = random.Random(95)
    lines = repeated_block_report(random_key(rng), rng.randbytes(64), 3).as_lines()
    assert lines[0] == "block_count=3"
    assert lines[1].startswith("collisions=")
    assert lines[2] in ("all_distinct=True", "all_distinct=False")


# --- timing and keyspace -----------------------------------------------------

def test_bench_report_shape():
    report = bench_throughput(150)
    assert report.blocks_timed == 450
    assert report.min_ns <= report.mean_ns <= report.max_ns
    assert report.class_spread >= 0
    assert report.noise_threshold == 0.20
    lines = report.as_lines()
    assert any(line.startswith("mean_ns=") for line in lines)
    assert any(line.startswith("zero_mean_ns=") for line in lines)


def test_bench_validation():
    with pytest.raises(ValueError):
        bench_throughput(99)


def test_bench_times_the_batch_path(monkeypatch):
    # The bench times the path users run; the scalar cipher is only the
    # specification, so the bench runs with it out of reach.
    def scalar(*args):
        raise AssertionError("the bench called the scalar cipher")
    monkeypatch.setattr("rotoxor.cipher.encrypt_block", scalar)
    monkeypatch.setattr(analysis, "encrypt_block", scalar)
    assert bench_throughput(100).blocks_timed == 300


def test_keyspace_report_contents():
    text = keyspace_report()
    assert "2^48" in text
    assert "2^192" in text
    assert f"stated_keys_value={64 ** 8}" in text
    assert f"structural_keys_value={8 ** 64}" in text
    assert "discrepancy=yes" in text
    assert 64 ** 8 == 2 ** 48 and 8 ** 64 == 2 ** 192
