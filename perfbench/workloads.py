"""The three workloads and the checks that their outputs are correct.

Each workload is a fixed cycle of operations built from the workload seed;
a run repeats whole cycles, so every run sees the same mix of operations
however many cycles fit in it. Only the calls into the package are timed.
Every check below uses the scalar reference ``rotoxor.cipher`` and this
file's own restatement of the key chain, never the code path being timed.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import os
import random
import statistics
import time

MIB = 1 << 20
ENCODINGS = ("raw", "hex", "base64")
ANALYZE_TARGETS = ("attack", "avalanche-plaintext", "avalanche-key", "linearity",
                   "repeated-block")

# sha256 of the stdout of `rotoxor analyze <target>` at its defaults (seed 0,
# key derived from the seed, default trial counts). README promises
# bit-identical reports per seed, so these must never change.
DEFAULT_REPORT_SHA256 = {
    "attack": "82e13873c7fe2a26be9fc5ad67850a243fe8fd2362059d24fc7b6161f82a28d1",
    "avalanche-plaintext": "a20641b28c25130d9078b21852932fc6978a55eb1789fac179f18d451d38f3be",
    "avalanche-key": "1ec9871ed9e773efcc91ac81d7526fe5f518e8c09c8a2922a3c9842acf6ee3eb",
    "linearity": "27acd6f4ca86cbe2946bacb2b237f9c733cf7613b08fc20c1b7fd042b3f110cd",
    "repeated-block": "b56a317dad16bc86693a72f5c525ede6ee3d30eb3560d58b972799923cfc6ce8",
}

_now = time.perf_counter


# -- independent reference checks --------------------------------------------

def random_key(rng: random.Random) -> bytes:
    """A master key of 64 digits 0..7 that is not weak (not all one digit)."""
    while True:
        key = bytes(rng.choices(range(8), k=64))
        if len(set(key)) > 1:
            return key


def key_text(key: bytes) -> str:
    return "".join(str(d) for d in key)


def random_message(rng: random.Random, length: int) -> bytes:
    # A trailing '#' draws a warning from `encrypt`; keep messages clear of it.
    data = bytearray(rng.randbytes(length))
    if data and data[-1] == 0x23:
        data[-1] = 0x24
    return bytes(data)


def _chain_step(key: bytes) -> bytes:
    # Restated from the spec: each digit plus its right neighbour in the row, mod 8.
    return bytes((key[r + c] + key[r + (c + 1) % 8]) % 8 for r in range(0, 64, 8)
                 for c in range(8))


def session_keys(master: bytes, blocks) -> dict[int, bytes]:
    """Session key of each 1-based block index, stepped from the master key."""
    out = {}
    key, n = master, 1
    for idx in sorted(set(blocks)):
        while n < idx:
            if not any(key):  # the all-zero key maps to itself
                n = idx
                break
            key = _chain_step(key)
            n += 1
        out[idx] = key
    return out


def decode(data: bytes, encoding: str) -> bytes:
    if encoding == "hex":
        return bytes.fromhex(data.decode("ascii"))
    if encoding == "base64":
        return base64.b64decode(data, validate=True)
    return data


def _is_filler(data: bytes) -> bool:
    return all(0x20 <= b < 0x7F and b != 0x23 for b in data)


def ciphertext_ok(cipher, ct: bytes, message: bytes, master: bytes, sample) -> bool:
    """Compare sampled ciphertext blocks with the scalar reference cipher.

    A block that holds only message or sentinel octets must equal the scalar
    encryption of them; the final block, whose filler is random, must decrypt
    to the known octets followed by printable non-'#' filler.
    """
    count = -(-(len(message) + 3) // 64)
    if len(ct) != 64 * count:
        return False
    known_all = message + b"###"
    for n, key in session_keys(master, [b for b in sample if 1 <= b <= count]).items():
        block = ct[64 * (n - 1):64 * n]
        known = known_all[64 * (n - 1):64 * n]
        if len(known) == 64:
            if cipher.encrypt_block(known, key) != block:
                return False
        else:
            plain = cipher.decrypt_block(block, key)
            if plain[:len(known)] != known or not _is_filler(plain[len(known):]):
                return False
    return True


# -- statistics --------------------------------------------------------------

def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by the inclusive method; one value is its own."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- workloads ---------------------------------------------------------------

class Sample:
    """One timed call: its kind, seconds, units of work, cycle index, and
    ``op``, which names the operation of the cycle it was (each op recurs
    once per cycle with the same input)."""

    __slots__ = ("kind", "seconds", "units", "cycle", "op")

    def __init__(self, kind, seconds, units, cycle, op):
        self.kind, self.seconds, self.units = kind, seconds, units
        self.cycle, self.op = cycle, op


class Workload:
    """A fixed cycle of operations; subclasses define the cycle and its metrics."""

    unit = ""

    def __init__(self, rx, seed: int, tiny: bool, workdir: str):
        self.rx = rx
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._verified: dict = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def same_or_verified(self, key, output: bytes, verify) -> bool:
        """True when ``output`` equals the output verified for ``key`` earlier
        in this run, or, the first time, when ``verify()`` passes.

        Every cycle repeats the same inputs with the same filler seeds, so a
        correct program gives byte-identical ciphertexts each time; the
        scalar comparison runs once per input and later ones cost a hash.
        """
        digest = hashlib.sha256(output).digest()
        if key in self._verified:
            return digest == self._verified[key]
        ok = verify()
        if ok:
            self._verified[key] = digest
        return ok

    def run_cycle(self, index: int, tracer) -> list[Sample]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks run once per run, outside any timed region."""

    def report(self, samples: list[Sample]) -> list[tuple[str, float, str, int]]:
        """The workload's own metrics: (name, value, unit, sample count)."""
        raise NotImplementedError

    @staticmethod
    def units(samples: list[Sample]) -> list[Sample]:
        """The samples that carry units of work (the end-to-end metrics' base)."""
        return [s for s in samples if s.units]

    @classmethod
    def best_unit_ms(cls, samples: list[Sample]) -> float:
        """Milliseconds per unit of work over one cycle, each op at its fastest.

        Other tenants of a shared machine only ever add time, in spells of
        seconds to minutes, so the fastest of an op's repetitions is the
        steadiest estimate of its own cost; the run's median per unit moved
        by up to 40% between runs where this moved by a few percent.
        """
        best: dict = {}
        units: dict = {}
        for s in cls.units(samples):
            best[s.op] = min(best.get(s.op, s.seconds), s.seconds)
            units[s.op] = s.units
        return sum(best.values()) / sum(units.values()) * 1e3

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


class BulkFile(Workload):
    """`rotoxor encrypt` then `rotoxor decrypt` on files of 64 KiB to 4 MiB.

    Almost every block lies past block 16, where the session key is zero, so
    the key chain, large-N batch rounds, hex/base64 validation and whole-file
    I/O dominate, and the 4 MiB file sets peak RSS.
    """

    unit = "MiB through one CLI call"
    FILLER_SEED = "7"

    def __init__(self, rx, seed, tiny, workdir):
        super().__init__(rx, seed, tiny, workdir)
        self.key = random_key(self.rng)
        self.key_path = self._path("bulk.key")
        with open(self.key_path, "w") as fh:
            fh.write(key_text(self.key) + "\n")
        sizes = (1 << 10, 4 << 10, 16 << 10, 64 << 10) if tiny else \
            (64 << 10, 256 << 10, MIB, 4 * MIB)
        self.files = []
        for size in sizes:
            path = self._path(f"bulk-{size}.bin")
            data = random_message(self.rng, size)
            with open(path, "wb") as fh:
                fh.write(data)
            self.files.append((path, size, hashlib.sha256(data).digest()))
        # Every size below the largest in every encoding; the largest, which
        # takes half the bytes of a cycle as it is, raw only. A cycle then
        # fits about six times in a 25 s run, and the fastest of an op's
        # repetitions is a steady figure.
        self.schedule = [(f, enc) for f in self.files[:-1] for enc in ENCODINGS]
        self.schedule.append((self.files[-1], "raw"))

    def run_cycle(self, index, tracer):
        samples = []
        ct_path, out_path = self._path("bulk.ct"), self._path("bulk.out")
        for (path, size, digest), enc in self.schedule:
            if tracer is not None:
                tracer.request += 1
            rc, seconds = self._call(["encrypt", "--key", self.key_path, "--in", path,
                                      "--out", ct_path, "--encoding", enc,
                                      "--seed", self.FILLER_SEED], path, ct_path)
            samples.append(Sample("encrypt", seconds, size / MIB, index, ("encrypt", path, enc)))
            with _paused(tracer):
                self.check(rc == 0 and self._ciphertext_ok(ct_path, enc, path, size))
            if tracer is not None:
                tracer.request += 1
            rc, seconds = self._call(["decrypt", "--key", self.key_path, "--in", ct_path,
                                      "--out", out_path, "--encoding", enc], ct_path, out_path)
            samples.append(Sample("decrypt", seconds, size / MIB, index, ("decrypt", path, enc)))
            with _paused(tracer):
                self.check(rc == 0 and _sha256_file(out_path) == digest)
        return samples

    def _call(self, argv, in_path, out_path):
        t0 = _now()
        rc = self.rx.cli.main(argv)
        seconds = _now() - t0
        self.bytes_read += os.path.getsize(in_path)
        if rc == 0:
            self.bytes_written += os.path.getsize(out_path)
        return rc, seconds

    def _ciphertext_ok(self, ct_path, enc, path, size) -> bool:
        with open(ct_path, "rb") as fh:
            data = fh.read()

        def verify():
            with open(path, "rb") as fh:
                message = fh.read()
            count = -(-(size + 3) // 64)
            # Blocks 1..17 straddle the key-chain collapse; the rest lie past it.
            sample = set(range(1, 18)) | {count}
            if count >= 18:
                sample |= {self.rng.randrange(18, count + 1) for _ in range(8)}
            return ciphertext_ok(self.rx.cipher, decode(data, enc), message, self.key, sample)
        return self.same_or_verified((path, enc), data, verify)

    def report(self, samples):
        out = []
        for kind, name in (("encrypt", "enc_MBps"), ("decrypt", "dec_MBps")):
            mine = [s for s in samples if s.kind == kind]
            mb = sum(s.units for s in mine) * MIB / 1e6
            out.append((name, mb / sum(s.seconds for s in mine), "MB/s", len(mine)))
        return out


class ShortMessages(Workload):
    """Library round trips of 0..1020-byte messages, each under its own key.

    No message reaches block 17, so skipping the collapsed chain cannot help;
    per-call numpy overhead at N <= 16 and codec framing dominate. Every
    block count 1..16 appears equally often in a cycle.
    """

    unit = "message round trip"

    def __init__(self, rx, seed, tiny, workdir):
        super().__init__(rx, seed, tiny, workdir)
        per_count = 1 if tiny else 16
        self.messages = []
        i = 0
        for _ in range(per_count):
            for blocks in range(1, 17):
                # lengths that pad to exactly `blocks` blocks
                length = self.rng.randint(max(0, 64 * blocks - 66), 64 * blocks - 3)
                self.messages.append((
                    random_message(self.rng, length), random_key(self.rng),
                    ENCODINGS[i % 3], self.rng.getrandbits(32)))
                i += 1

    def run_cycle(self, index, tracer):
        codec, errors = self.rx.codec, self.rx.errors
        samples = []
        for i, (message, key, enc, filler_seed) in enumerate(self.messages):
            if tracer is not None:
                tracer.request += 1
            filler = random.Random(filler_seed)
            t0 = _now()
            try:
                stream = codec.encrypt_message(message, key, filler)
                data = codec.encode_stream(stream, enc)
                out = codec.decrypt_message(codec.decode_stream(data, enc), key)
            except errors.CipherError:
                stream, data, out = [], b"", None
            samples.append(Sample("round_trip", _now() - t0, 1, index, i))
            with _paused(tracer):
                self.check(out == message and self.same_or_verified(
                    i, data, lambda: self._ciphertext_ok(stream, data, enc, message, key)))
        return samples

    def _ciphertext_ok(self, stream, data, enc, message, key) -> bool:
        ct = b"".join(stream)
        if decode(data, enc) != ct:
            return False
        return ciphertext_ok(self.rx.cipher, ct, message, key, range(1, len(ct) // 64 + 1))

    def report(self, samples):
        trips = [s.seconds for s in samples]
        return [
            ("short_p50_us", statistics.median(trips) * 1e6, "us", len(trips)),
            ("short_p90_us", percentile(trips, 90) * 1e6, "us", len(trips)),
            ("short_msgs_per_s", len(trips) / sum(trips), "1/s", len(trips)),
        ]


class Analyze(Workload):
    """`rotoxor analyze` attack and the four other reports for one seed.

    The only traffic through the scalar cipher oracle, gf2 elimination and
    the analysis reports. The report seed and key come from the workload
    seed; every cycle repeats the five reports, whose stdout must then be
    identical each time.
    """

    unit = "analyze report"
    TINY_TRIALS = {"attack": "5", "avalanche-plaintext": "50", "avalanche-key": "50",
                   "linearity": "50", "repeated-block": "8"}

    def __init__(self, rx, seed, tiny, workdir):
        super().__init__(rx, seed, tiny, workdir)
        key_path = self._path("analyze.key")
        with open(key_path, "w") as fh:
            fh.write(key_text(random_key(self.rng)) + "\n")
        report_seed = str(self.rng.getrandbits(32))
        self.argvs = {
            target: ["analyze", target, "--seed", report_seed, "--key", key_path]
            + (["--trials", self.TINY_TRIALS[target]] if tiny else [])
            for target in ANALYZE_TARGETS}

    def run_cycle(self, index, tracer):
        samples = []
        for target, argv in self.argvs.items():
            if tracer is not None:
                tracer.request += 1
            rc, seconds, text = self._call(argv)
            samples.append(Sample(target, seconds, 1, index, target))
            self.check(rc == 0 and self.same_or_verified(
                target, text.encode(), lambda: _report_ok(rc, text)))
        return samples

    def _call(self, argv):
        buf = io.StringIO()
        t0 = _now()
        with contextlib.redirect_stdout(buf):
            rc = self.rx.cli.main(argv)
        return rc, _now() - t0, buf.getvalue()

    def finish(self):
        for target in ANALYZE_TARGETS:
            rc, _seconds, text = self._call(["analyze", target])
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.check(_report_ok(rc, text) and digest == DEFAULT_REPORT_SHA256[target])

    def report(self, samples):
        attack = [s.seconds for s in samples if s.kind == "attack"]
        per_cycle: dict[int, float] = {}
        for s in samples:
            if s.kind != "attack":
                per_cycle[s.cycle] = per_cycle.get(s.cycle, 0.0) + s.seconds
        reports = list(per_cycle.values())
        return [
            ("attack_ms", statistics.median(attack) * 1e3, "ms", len(attack)),
            ("report_ms", statistics.median(reports) * 1e3, "ms", len(reports)),
        ]


def _report_ok(rc: int, text: str) -> bool:
    lines = text.splitlines()
    return rc == 0 and "result=FAIL" not in lines and not any(
        line.startswith("mismatches=") and line != "mismatches=0" for line in lines)


def _sha256_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


WORKLOADS = {"bulk-file": BulkFile, "short-messages": ShortMessages, "analyze": Analyze}
