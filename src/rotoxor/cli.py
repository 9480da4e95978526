"""Command-line front end: key generation, file encryption, analysis reports.

Exit codes: 0 success, 1 usage, 2 bad key, 3 bad ciphertext data or padding
(wrong key), 4 I/O failure, 5 analysis verification failure. ``analyze`` and
``bench`` import ``analysis`` when they run, and ``encrypt`` and ``decrypt``
reach numpy through the codec's rounds, so ``keygen``, ``keyspace``,
``--help`` and every usage, key or data error start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import tempfile

from . import codec, keys
# Unused here; perfbench/spans.py traces these two names by lookup, so they stay.
from .cipher import decrypt_block, encrypt_block  # noqa: F401
from .errors import (
    BlockSizeError,
    DecodeError,
    DigitError,
    LengthError,
    PaddingError,
    SingularMapError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_KEY = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_VERIFY = 5

ANALYZE_TARGETS = (
    "avalanche-plaintext",
    "avalanche-key",
    "linearity",
    "attack",
    "repeated-block",
)

# Per-target --trials defaults: attack counts verification blocks and
# repeated-block counts block positions, so their natural scales differ.
_TRIAL_DEFAULTS = {"attack": 100, "repeated-block": 8}
_TRIAL_FALLBACK = 1000


class _Parser(argparse.ArgumentParser):
    # The documented usage exit code is 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LengthError, DigitError) as exc:
        return _fail(EXIT_KEY, f"key error: {exc}")
    except (DecodeError, PaddingError, BlockSizeError) as exc:
        return _fail(EXIT_DATA, f"data error: {exc}")
    except SingularMapError as exc:
        return _fail(EXIT_VERIFY, f"analysis error: {exc}")
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"usage error: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"io error: {exc}")


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls and
    # returns a fresh Namespace each time.
    parser = _Parser(prog="rotoxor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("keygen", help="generate a random 64-digit key file")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for reproducible keys (default: OS entropy)")
    p.add_argument("--out", required=True, metavar="KEY", help="key file to write")
    p.set_defaults(func=_run_keygen)

    p = _add_file_parser(sub, "encrypt", _run_encrypt, "plaintext", "ciphertext")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the padding filler (default: OS entropy)")
    p.add_argument("--force", action="store_true",
                   help="allow raw ciphertext on a terminal")
    _add_file_parser(sub, "decrypt", _run_decrypt, "ciphertext", "plaintext")

    p = sub.add_parser("analyze", help="run one empirical report")
    p.add_argument("target", choices=ANALYZE_TARGETS)
    p.add_argument("--trials", type=int, default=None,
                   help="trial count (default 1000; attack 100, repeated-block 8)")
    p.add_argument("--seed", type=int, default=0,
                   help="report seed (default 0 so reports are reproducible)")
    p.add_argument("--key", default=None, metavar="KEY",
                   help="key file (default: a key derived from the seed)")
    p.set_defaults(func=_run_analyze)

    p = sub.add_parser("bench", help="measure per-block encryption timing")
    p.add_argument("--blocks", type=int, default=10000,
                   help="blocks per content class (default 10000)")
    p.set_defaults(func=_run_bench)

    p = sub.add_parser("keyspace", help="report stated vs structural key counts")
    p.set_defaults(func=_run_keyspace)

    return parser


def _add_file_parser(sub, name, func, source, target) -> _Parser:
    # encrypt and decrypt share these options; only the file roles swap.
    p = sub.add_parser(name, help=f"{name} a file")
    p.add_argument("--key", required=True, metavar="KEY", help="key file")
    p.add_argument("--in", dest="in_", required=True, metavar="IN",
                   help=f"{source} file ('-' for stdin)")
    p.add_argument("--out", required=True, metavar="OUT",
                   help=f"{target} file ('-' for stdout)")
    p.add_argument("--encoding", choices=codec.ENCODINGS, default="raw")
    p.set_defaults(func=func)
    return p


def _run_keygen(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    key = bytes(rng.choices(range(8), k=keys.KEY_DIGITS))
    if keys.is_weak_key(key):
        _warn("generated key is weak (every block is sent unchanged)")
    _write_bytes(args.out, keys.format_key(key).encode("ascii") + b"\n")
    return EXIT_OK


def _run_encrypt(args) -> int:
    if args.encoding == "raw" and args.out == "-" and _stdout_is_tty() and not args.force:
        return _fail(EXIT_USAGE,
                     "refusing to write raw ciphertext to a terminal (use --force)")
    master = keys.read_key_file(args.key)
    if keys.is_weak_key(master):
        _warn("key is weak (every block is sent unchanged); ciphertext offers no protection")
    filler = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    ciphertext = codec._encrypt_buffer(_read_bytes(args.in_), master, filler)
    blocks = len(ciphertext) // codec.BLOCK_SIZE
    if blocks > keys.LIVE_BLOCKS:
        _warn(f"blocks {keys.LIVE_BLOCKS + 1}..{blocks} ({blocks - keys.LIVE_BLOCKS} of "
              f"{blocks}) are sent unchanged: key-schedule collapse")
    _write_bytes(args.out, codec._encode_buffer(ciphertext, args.encoding))
    return EXIT_OK


def _run_decrypt(args) -> int:
    master = keys.read_key_file(args.key)
    ciphertext = codec._decode_buffer(_read_bytes(args.in_), args.encoding)
    _write_bytes(args.out, codec._decrypt_buffer(ciphertext, master))
    return EXIT_OK


def _run_analyze(args) -> int:
    from . import analysis
    trials = args.trials
    if trials is None:
        trials = _TRIAL_DEFAULTS.get(args.target, _TRIAL_FALLBACK)
    key = keys.read_key_file(args.key) if args.key is not None \
        else bytes(random.Random(args.seed).choices(range(8), k=keys.KEY_DIGITS))

    if args.target == "avalanche-plaintext":
        _print_lines(analysis.avalanche_plaintext(key, trials, args.seed).as_lines())
        return EXIT_OK
    if args.target == "avalanche-key":
        _print_lines(analysis.avalanche_key(key, trials, args.seed).as_lines())
        return EXIT_OK
    if args.target == "linearity":
        ok, pair = analysis.linearity_check(key, trials, args.seed)
        counterexample = "none" if ok else ",".join(block.hex() for block in pair)
        _print_lines([f"trials={trials}", f"seed={args.seed}",
                      f"counterexample={counterexample}", f"result={'PASS' if ok else 'FAIL'}"])
        return EXIT_OK if ok else EXIT_VERIFY
    if args.target == "repeated-block":
        content = random.Random(args.seed).randbytes(64)
        _print_lines(analysis.repeated_block_report(key, content, trials).as_lines())
        return EXIT_OK
    report = analysis.attack_report(key, trials, args.seed)
    _print_lines(report.as_lines())
    return EXIT_VERIFY if report.mismatches else EXIT_OK


def _run_bench(args) -> int:
    from . import analysis
    report = analysis.bench_throughput(args.blocks)
    _print_lines(report.as_lines())
    print(f"data_independence={'PASS' if report.data_independent else 'FAIL'}")
    print("reference_ns_per_block=18000")
    print("reference_note=18 us/block is the original design's figure on a"
          " 4 GHz single core; informational only, not a pass/fail bound")
    return EXIT_OK


def _run_keyspace(args) -> int:
    print(keys.keyspace_report())
    return EXIT_OK


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    """Write via a temporary file and rename, so failures leave no partial file."""
    if path == "-":
        out = getattr(sys.stdout, "buffer", sys.stdout)
        out.write(data)
        sys.stdout.flush()
        return
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        # Devices, fifos, and symlinks must not be renamed over.
        with open(path, "wb") as fh:
            fh.write(data)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # Name the caller's path, not the temporary file's.
        raise OSError(exc.errno, exc.strerror, path) from exc


def _stdout_is_tty() -> bool:
    try:
        return sys.stdout.isatty()
    except (AttributeError, ValueError):
        return False


def _print_lines(lines) -> None:
    for line in lines:
        print(line)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
