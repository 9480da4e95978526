"""The package and the CLI's non-computing commands start without numpy.

Each check runs a fresh interpreter in which ``sys.modules["numpy"]`` is
None before rotoxor is imported, so any import of numpy raises. numpy may
load only in the commands that compute on arrays: encrypt, decrypt,
analyze and bench.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from rotoxor import cli, keys
from rotoxor.cipher import encrypt_block

SRC = Path(__file__).resolve().parents[1] / "src"
KEY = bytes(range(8)) * 8
BLOCK = bytes(range(64))


def _numpy_blocked(code: str, cwd: Path) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); sys.modules['numpy'] = None\n"
    return subprocess.run([sys.executable, "-c", prelude + code], cwd=cwd,
                          capture_output=True, text=True)


def _cli_numpy_blocked(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return _numpy_blocked(f"from rotoxor import cli; sys.exit(cli.main({argv!r}))", cwd)


def test_package_imports_and_round_trips_a_block_without_numpy(tmp_path):
    run = _numpy_blocked(
        "import rotoxor\n"
        f"key, block = {KEY!r}, {BLOCK!r}\n"
        "ciphertext = rotoxor.encrypt_block(block, key)\n"
        "assert rotoxor.decrypt_block(ciphertext, key) == block\n"
        "print(ciphertext.hex())\n", tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == encrypt_block(BLOCK, KEY).hex() + "\n"


def test_keyspace_and_keygen_run_without_numpy(tmp_path):
    run = _cli_numpy_blocked(["keyspace"], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, keys.keyspace_report() + "\n", "")
    run = _cli_numpy_blocked(["keygen", "--seed", "1", "--out", "blocked.key"], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert cli.main(["keygen", "--seed", "1", "--out", str(tmp_path / "here.key")]) == 0
    assert (tmp_path / "blocked.key").read_bytes() == (tmp_path / "here.key").read_bytes()


def test_help_and_usage_errors_run_without_numpy(tmp_path):
    run = _cli_numpy_blocked(["--help"], tmp_path)
    assert run.returncode == cli.EXIT_OK and run.stdout.startswith("usage: rotoxor")
    run = _cli_numpy_blocked(["frobnicate"], tmp_path)
    assert run.returncode == cli.EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in run.stderr


@pytest.mark.parametrize("direction, key_text, data, code, message", [
    ("encrypt", "0" * 63, b"hello", cli.EXIT_KEY, "key error: "),
    ("decrypt", "0" * 64, b"not hex at all", cli.EXIT_DATA, "data error: invalid hex digit"),
])
def test_key_and_data_errors_run_without_numpy(tmp_path, direction, key_text, data, code,
                                               message):
    (tmp_path / "k").write_text(key_text + "\n")
    (tmp_path / "in").write_bytes(data)
    run = _cli_numpy_blocked([direction, "--key", "k", "--in", "in", "--out", "out",
                              "--encoding", "hex"], tmp_path)
    assert (run.returncode, run.stdout) == (code, "")
    assert run.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_encrypting_a_file_needs_numpy_so_the_blocker_works(tmp_path):
    # The positive control: the rounds import numpy, and the blocker stops it.
    (tmp_path / "k").write_text(keys.format_key(KEY) + "\n")
    (tmp_path / "in").write_bytes(b"attack at dawn")
    run = _cli_numpy_blocked(["encrypt", "--key", "k", "--in", "in", "--out", "out",
                              "--encoding", "hex", "--seed", "1"], tmp_path)
    assert run.returncode != cli.EXIT_OK
    assert "import of numpy halted" in run.stderr
    assert not (tmp_path / "out").exists()
