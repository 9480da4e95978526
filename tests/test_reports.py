"""Analysis reports stay bit-identical for identical seeds.

The reports run on the batch pipeline. These tests pin them two ways: the
sha256 of each `rotoxor analyze` report at its defaults, and equality with
a scalar restatement (encrypt_block per block, RNG draws in the documented
order) over several keys and seeds. Comparing the code with itself would
miss a reordered RNG draw; both checks here would not.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from rotoxor import analysis, batch, cli
from rotoxor.cipher import encrypt_block
from rotoxor.keys import session_key_chain
from support import batched, flip_bit, hamming_distance

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
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["analyze", target]) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256[target]


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
    return analysis._avalanche_report(distances, seed, "plaintext-sample")


def scalar_avalanche_key(master, trials, seed):
    distances = []
    for rng in _trial_rngs(seed, trials):
        state = rng.randbytes(64)
        position = rng.randrange(64)
        mutated = bytearray(master)
        mutated[position] = rng.choice([d for d in range(8) if d != master[position]])
        distances.append(hamming_distance(
            encrypt_block(state, master), encrypt_block(state, bytes(mutated))))
    return analysis._avalanche_report(distances, seed, "key-sample")


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


CASES = [(bytes(random.Random(k).choices(range(8), k=64)), seed)
         for k in (301, 302, 303) for seed in (0, 7)]


@pytest.mark.parametrize("key,seed", CASES)
def test_reports_match_scalar_restatement(key, seed, monkeypatch):
    assert analysis.avalanche_plaintext(key, 40, seed) == \
        scalar_avalanche_plaintext(key, 40, seed)
    assert analysis.avalanche_key(key, 40, seed) == scalar_avalanche_key(key, 40, seed)
    content = random.Random(seed).randbytes(64)
    # 18 blocks cross the key chain's collapse to the all-zero key at 17.
    report = analysis.repeated_block_report(key, content, 18)
    assert report.collisions == scalar_repeated_block_collisions(key, content, 18)
    assert (17, 18) in report.collisions
    assert analysis.linearity_check(key, 30, seed) == scalar_linearity_check(
        encrypt_block, key, 30, seed)
    monkeypatch.setattr(batch, "encrypt_blocks", batched(_scaled_encrypt))
    failed = analysis.linearity_check(key, 30, seed)
    assert not failed[0]
    assert failed == scalar_linearity_check(_scaled_encrypt, key, 30, seed)
