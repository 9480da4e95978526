"""Analysis reports stay bit-identical for identical seeds.

The reports run on the batch pipeline, in chunks of trials. These tests pin
them three ways: the sha256 of each `rotoxor analyze` report at its defaults
and across chunk seams, equality with a scalar restatement (encrypt_block
per block, one RNG per trial drawn in the documented order, statistics
computed on the list of distances) over several keys and seeds with short
chunks, and the stdlib RNG identities that let the reports draw in bulk.
Comparing the code with itself would miss a reordered RNG draw; these
checks would not. Three more pin what stays outside the bytes: the plaintext
avalanche encrypts only the 64 cell basis states, once per report, the
avalanche reports draw with getrandbits alone and, on 3.11+, take their
standard deviation without statistics.pstdev, and the benchmark checks the
same default digests as these tests.
"""

import hashlib
import importlib.util
import io
import random
import statistics
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoxor import analysis, batch, cli, keys
from rotoxor.cipher import decrypt_block, encrypt_block
from rotoxor.keys import session_key_chain
from support import (IDENTITY_FORM_MASTER, avalanche_report_reference, batched, blockwise,
                     flip_bit, hamming_distance)

# sha256 of the stdout of `rotoxor analyze <target>` with default options.
DEFAULT_REPORT_SHA256 = {
    "attack": "82e13873c7fe2a26be9fc5ad67850a243fe8fd2362059d24fc7b6161f82a28d1",
    "avalanche-plaintext": "a20641b28c25130d9078b21852932fc6978a55eb1789fac179f18d451d38f3be",
    "avalanche-key": "1ec9871ed9e773efcc91ac81d7526fe5f518e8c09c8a2922a3c9842acf6ee3eb",
    "linearity": "27acd6f4ca86cbe2946bacb2b237f9c733cf7613b08fc20c1b7fd042b3f110cd",
    "repeated-block": "b56a317dad16bc86693a72f5c525ede6ee3d30eb3560d58b972799923cfc6ce8",
}


@pytest.mark.parametrize("target", sorted(DEFAULT_REPORT_SHA256))
def test_default_report_digest(target):
    assert _report_sha256(["analyze", target]) == DEFAULT_REPORT_SHA256[target]


# sha256 of `rotoxor analyze <target> --seed 77 --trials 3001`, recorded before
# the reports ran in chunks: 3001 trials cross two 1024-trial seams.
SEAM_REPORT_SHA256 = {
    "attack": "ed9f12c1dad61fc9d99e54e462d32a93d8b69abf653b77c9065c20f8903daabf",
    "avalanche-plaintext": "bc72a3a9a5353cfbffabf5ac1683867ccfd7fd483e315834c1f847e3ce3e977b",
    "avalanche-key": "ed6a8addabc1a58d6a9b746c1898b3517d64fb0a78b10adfb07ea0019a8c5249",
    "linearity": "0fb79c5ec48fe84dc96edd3b1ef7212d2d597d18cb2ddaad4790b818275e5e07",
}


@pytest.mark.parametrize("target", sorted(SEAM_REPORT_SHA256))
def test_report_digest_across_chunk_seams(target):
    assert analysis._TRIAL_CHUNK == 1024
    digest = _report_sha256(["analyze", target, "--seed", "77", "--trials", "3001"])
    assert digest == SEAM_REPORT_SHA256[target]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_checks_the_same_default_digests():
    # perfbench's analyze workload checks each report against its own copy
    # of the table; the two must not drift apart.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.DEFAULT_REPORT_SHA256 == DEFAULT_REPORT_SHA256


def _report_sha256(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# --- the RNG identities the chunked reports rely on -------------------------

RNG_SEEDS = [0, 7, -3, 2 ** 64 + 5]
RNG_COUNTS = [1, 3, 7, 1000]


@pytest.mark.parametrize("seed", RNG_SEEDS)
@pytest.mark.parametrize("n", RNG_COUNTS)
def test_bulk_randbytes_equals_joined_blocks(seed, n):
    one, many = random.Random(seed), random.Random(seed)
    assert one.randbytes(64 * n) == b"".join(many.randbytes(64) for _ in range(n))
    assert one.getstate() == many.getstate()


@pytest.mark.parametrize("seed", RNG_SEEDS)
@pytest.mark.parametrize("n", RNG_COUNTS)
def test_getrandbits_skips_the_blocks_it_spans(seed, n):
    skipped, drawn = random.Random(seed), random.Random(seed)
    skipped.getrandbits(512 * n)
    for _ in range(n):
        drawn.randbytes(64)
    assert skipped.getstate() == drawn.getstate()
    assert skipped.randbytes(64) == drawn.randbytes(64)


@pytest.mark.parametrize("seed", RNG_SEEDS)
@pytest.mark.parametrize("n", RNG_COUNTS)
def test_bulk_getrandbits_splits_into_the_single_draws(seed, n, monkeypatch):
    single = random.Random(seed)
    singles = [single.getrandbits(64) for _ in range(n)]
    words = random.Random(seed).getrandbits(64 * n).to_bytes(8 * n, "little")
    assert [int.from_bytes(words[i:i + 8], "little") for i in range(0, 8 * n, 8)] == singles
    monkeypatch.setattr(analysis, "_TRIAL_CHUNK", 7)
    chunks = list(analysis._trial_seeds(seed, n))
    assert [len(c) for c in chunks] == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
    assert [sub for chunk in chunks for sub in chunk] == singles


def _restated_draws(rng):
    # A trial's draws as the avalanche reports make them, with getrandbits
    # alone: randbytes(64), randrange(512), randrange(64) and choice() of
    # seven digits, each randrange and choice as Random._randbelow's loop.
    getrandbits = rng.getrandbits

    def below(n):
        while (r := getrandbits(n.bit_length())) >= n:
            pass
        return r
    return (getrandbits(512).to_bytes(64, "little"), below(512), below(64),
            [0, 1, 2, 3, 5, 6, 7][below(7)], rng.getstate())


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_reseeded_generator_draws_as_a_fresh_one(seed):
    master = random.Random(seed)
    reused, seeded, restated = random.Random(), random.Random(), random.Random()
    reused.gauss(0, 1)  # leaves a cached second normal behind, which seed() clears
    reseed, reseed_restated = analysis._seeder(seeded), analysis._seeder(restated)
    for _ in range(20):
        sub = master.getrandbits(64)
        fresh = random.Random(sub)
        reused.seed(sub)
        reseed(sub)
        reseed_restated(sub)
        for rng in (reused, seeded, restated):
            assert rng.getstate() == fresh.getstate()
        draws = [(rng.randbytes(64), rng.randrange(512), rng.randrange(64),
                  rng.choice([0, 1, 2, 3, 5, 6, 7]), rng.getstate())
                 for rng in (fresh, reused, seeded)]
        assert draws[1] == draws[0] and draws[2] == draws[0]
        assert _restated_draws(restated) == draws[0]


# 3001 distances, spread as a report's are, and three edge cases: one bin,
# the extremes 0 and 512 alone, and both extremes in one report.
@settings(deadline=None)
@given(st.lists(st.integers(0, 512), min_size=1, max_size=3001), st.integers(), st.text())
@example([int(random.Random(i).gauss(256, 11)) for i in range(3001)], 77, "key-sample")
@example([300] * 3001, 0, "plaintext-sample")
@example([0], 0, "")
@example([512] * 2, 0, "")
@example([0] * 3000 + [512], 0, "")
def test_histogram_report_equals_list_statistics(distances, seed, mode):
    histogram = np.bincount(distances, minlength=513)
    reference = avalanche_report_reference(distances, seed, mode)
    # The integer square root, where the interpreter has it, and the
    # pstdev over the ratios that 3.10 runs.
    for exact in {analysis._EXACT_PSTDEV, False}:
        with mock.patch.object(analysis, "_EXACT_PSTDEV", exact):
            report = analysis._avalanche_report(histogram, seed, mode)
        assert report == reference
        assert report.as_lines() == reference.as_lines()


def _forbidden(*args, **kwargs):
    raise AssertionError("the avalanche reports restate this call")


@pytest.mark.parametrize("target", ["avalanche-key", "avalanche-plaintext"])
def test_avalanche_reports_draw_with_getrandbits_alone(target, monkeypatch):
    # Each trial makes only C calls after its re-seed, and on 3.11+ the
    # standard deviation comes from the histogram, not from pstdev.
    for name in ("randbytes", "randrange", "choice"):
        monkeypatch.setattr(random.Random, name, _forbidden)
    if analysis._EXACT_PSTDEV:
        monkeypatch.setattr(statistics, "pstdev", _forbidden)
    assert _report_sha256(["analyze", target]) == DEFAULT_REPORT_SHA256[target]
    digest = _report_sha256(["analyze", target, "--seed", "77", "--trials", "3001"])
    assert digest == SEAM_REPORT_SHA256[target]


# --- scalar restatements -----------------------------------------------------

def _trial_rngs(seed, trials):
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(trials)]


def scalar_avalanche_plaintext(key, trials, seed):
    distances = []
    for rng in _trial_rngs(seed, trials):
        state = rng.randbytes(64)
        position = rng.randrange(512)
        distances.append(hamming_distance(
            encrypt_block(state, key), encrypt_block(flip_bit(state, position), key)))
    return avalanche_report_reference(distances, seed, "plaintext-sample")


def scalar_avalanche_key(master, trials, seed):
    distances = []
    for rng in _trial_rngs(seed, trials):
        state = rng.randbytes(64)
        position = rng.randrange(64)
        mutated = bytearray(master)
        mutated[position] = rng.choice([d for d in range(8) if d != master[position]])
        distances.append(hamming_distance(
            encrypt_block(state, master), encrypt_block(state, bytes(mutated))))
    return avalanche_report_reference(distances, seed, "key-sample")


def scalar_repeated_block_collisions(master, content, block_count):
    chain = session_key_chain(master)
    ciphertexts = [encrypt_block(content, next(chain)) for _ in range(block_count)]
    return tuple((a + 1, b + 1) for a in range(block_count)
                 for b in range(a + 1, block_count) if ciphertexts[a] == ciphertexts[b])


def scalar_linearity_check(block_fn, key, trials, seed):
    rng = random.Random(seed)
    zero = bytes(64)
    if block_fn(zero, key) != zero:
        return False, (zero, zero)
    xs = [rng.randbytes(64) for _ in range(trials)]
    ys = [rng.randbytes(64) for _ in range(trials)]
    for x, y in zip(xs, ys):
        xy = bytes(a ^ b for a, b in zip(x, y))
        ex, ey = block_fn(x, key), block_fn(y, key)
        if block_fn(xy, key) != bytes(a ^ b for a, b in zip(ex, ey)):
            return False, (x, y)
    return True, None


def _scaled_encrypt(state, key):
    # Keeps E(0) = 0 but is not additive, so the pair search decides.
    return bytes((b * (k + 2)) & 0xFF for b, k in zip(encrypt_block(state, key), key))


def _pair_drawn(seed, trials, index):
    # The index-th (x, y) pair linearity_check draws: every x, then every y.
    rng = random.Random(seed)
    draws = [rng.randbytes(64) for _ in range(2 * trials)]
    return draws[index], draws[trials + index]


def _breaks_pair(x, y):
    # encrypt_block, except on x ^ y, so additivity fails on that pair alone.
    target = bytes(a ^ b for a, b in zip(x, y))

    def block_fn(state, key):
        out = encrypt_block(state, key)
        return flip_bit(out, 0) if state == target else out
    return block_fn


CASES = [(bytes(random.Random(k).choices(range(8), k=64)), seed)
         for k in (301, 302, 303) for seed in (0, 7)]
CASE_IDS = [f"key{k}-seed{seed}" for k in (301, 302, 303) for seed in (0, 7)]


@pytest.mark.parametrize("key,seed", CASES, ids=CASE_IDS)
def test_reports_match_scalar_restatement(key, seed, monkeypatch):
    # Chunks of 7 trials: 40 trials cross five seams.
    monkeypatch.setattr(analysis, "_TRIAL_CHUNK", 7)
    assert analysis.avalanche_plaintext(key, 40, seed) == \
        scalar_avalanche_plaintext(key, 40, seed)
    assert analysis.avalanche_key(key, 40, seed) == scalar_avalanche_key(key, 40, seed)
    content = random.Random(seed).randbytes(64)
    # 18 blocks cross the key chain's collapse to the all-zero key at 17.
    report = analysis.repeated_block_report(key, content, 18)
    assert report.collisions == scalar_repeated_block_collisions(key, content, 18)
    assert (17, 18) in report.collisions
    assert analysis.linearity_check(key, 40, seed) == scalar_linearity_check(
        encrypt_block, key, 40, seed)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(_scaled_encrypt))
    failed = analysis.linearity_check(key, 40, seed)
    assert not failed[0]
    assert failed == scalar_linearity_check(_scaled_encrypt, key, 40, seed)
    # A first failure in the second chunk: the pair drawn at index 10.
    pair = _pair_drawn(seed, 40, 10)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(_breaks_pair(*pair)))
    assert analysis.linearity_check(key, 40, seed) == (False, pair)
    assert scalar_linearity_check(_breaks_pair(*pair), key, 40, seed) == (False, pair)


# Keys whose transform is the identity (all-zero, uniform, identity form),
# and one of only even digits, whose transform is not but has E^4 = I. They
# are not in CASES: under the zero key _scaled_encrypt is additive, so the
# linearity half of that test would not fail.
DEGENERATE_KEYS = {
    "zero": bytes(64),
    "uniform": bytes([5]) * 64,
    "identity-form": IDENTITY_FORM_MASTER,
    "even-digits": bytes(random.Random(306).choices(range(0, 8, 2), k=64)),
}


@pytest.mark.parametrize("trials", [1, 40])
@pytest.mark.parametrize("name", sorted(DEGENERATE_KEYS))
def test_degenerate_keys_match_scalar_restatement(name, trials, monkeypatch):
    monkeypatch.setattr(analysis, "_TRIAL_CHUNK", 7)
    key = DEGENERATE_KEYS[name]
    plaintext = analysis.avalanche_plaintext(key, trials, 7)
    assert plaintext == scalar_avalanche_plaintext(key, trials, 7)
    assert analysis.avalanche_key(key, trials, 7) == scalar_avalanche_key(key, trials, 7)
    if name != "even-digits":
        assert plaintext.flipped_ratio_mean == plaintext.flipped_ratio_max == 1 / 512


def test_plaintext_avalanche_encrypts_the_cell_basis_once(monkeypatch):
    # By linearity the report needs only the 64 cell columns' weights: one
    # batch call of the cell basis states under the one key, whatever the
    # trial count, and no encryption per trial.
    encrypt, calls = batch.encrypt_blocks, []

    def spy(states, session_keys):
        calls.append((np.array(states, np.uint8), bytes(session_keys)))
        return encrypt(states, session_keys)
    monkeypatch.setattr(batch, "encrypt_blocks", spy)
    key = CASES[0][0]
    analysis.avalanche_plaintext(key, 3001, 77)
    assert len(calls) == 1
    states, used_key = calls[0]
    assert np.array_equal(states, np.eye(64, dtype=np.uint8))
    assert used_key == key


def scalar_attack_report(key, trials, seed):
    # The attack as it was first written: encrypt_block answers the 512
    # basis states one at a time, and each trial block is checked alone
    # against decrypt_block, in the same RNG order.
    calls = 0

    def oracle(block):
        nonlocal calls
        calls += 1
        return encrypt_block(block, key)

    linear_map = analysis.recover_linear_map(blockwise(oracle))
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        ciphertext = rng.randbytes(64)
        mismatches += analysis.kpa_decrypt(linear_map, ciphertext) != decrypt_block(ciphertext, key)
    verdict = "recovered map FAILED verification" if mismatches else \
        f"recovered map verified on {trials} blocks"
    return [
        f"oracle_calls={calls}",
        "matrix_nonsingular=yes",
        f"verified_blocks={trials}",
        f"mismatches={mismatches}",
        f"mean_column_weight={linear_map.mean_column_weight()}",
        f"seed={seed}",
        verdict,
    ]


# 2500 trials cross analysis's 1024-block check chunk twice.
@pytest.mark.parametrize("key_seed", [304, 305])
@pytest.mark.parametrize("seed,trials", [(0, 2500), (7, 37)])
def test_attack_matches_scalar_restatement(key_seed, seed, trials, tmp_path):
    assert analysis._TRIAL_CHUNK == 1024
    key = bytes(random.Random(key_seed).choices(range(8), k=64))
    expected = scalar_attack_report(key, trials, seed)
    assert analysis.attack_report(key, trials, seed).as_lines() == expected
    key_file = tmp_path / "key.txt"
    key_file.write_text(keys.format_key(key) + "\n")
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["analyze", "attack", "--key", str(key_file), "--seed", str(seed),
                         "--trials", str(trials)]) == 0
    assert buf.getvalue() == "".join(line + "\n" for line in expected)
