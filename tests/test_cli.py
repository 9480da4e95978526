"""CLI behavior: subcommands, exit codes, determinism, stream handling."""

import argparse
import contextlib
import errno
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotoxor
from rotoxor import analysis, cli, codec, keys

# Child interpreters import the package from where this process found it,
# so the tests also run from a checkout where it is not installed.
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(rotoxor.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(argv):
    return cli.main(argv)


def write_key(tmp_path, seed=11, name="key.txt"):
    path = tmp_path / name
    assert run_cli(["keygen", "--seed", str(seed), "--out", str(path)]) == 0
    return path


# --- keygen ------------------------------------------------------------------

def test_keygen_file_format(tmp_path):
    path = write_key(tmp_path)
    raw = path.read_bytes()
    assert len(raw) == 65 and raw.endswith(b"\n")
    key = keys.read_key_file(path)
    assert len(key) == 64 and max(key) <= 7


def test_keygen_seed_determinism(tmp_path):
    a = write_key(tmp_path, seed=5, name="a.txt").read_bytes()
    b = write_key(tmp_path, seed=5, name="b.txt").read_bytes()
    c = write_key(tmp_path, seed=6, name="c.txt").read_bytes()
    assert a == b and a != c


def test_keygen_unseeded_uses_entropy(tmp_path):
    run_cli(["keygen", "--out", str(tmp_path / "x.txt")])
    run_cli(["keygen", "--out", str(tmp_path / "y.txt")])
    assert (tmp_path / "x.txt").read_bytes() != (tmp_path / "y.txt").read_bytes()


def test_keygen_warns_of_a_weak_key_and_still_writes_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(keys, "is_weak_key", lambda key: True)
    path = tmp_path / "key.txt"
    assert run_cli(["keygen", "--seed", "1", "--out", str(path)]) == 0
    assert "generated key is weak" in capsys.readouterr().err
    assert len(keys.read_key_file(path)) == keys.KEY_DIGITS


# --- encrypt / decrypt -------------------------------------------------------

def test_file_round_trip_all_encodings(tmp_path):
    key = write_key(tmp_path)
    msg = random.Random(7).randbytes(1000)
    src = tmp_path / "msg.bin"
    src.write_bytes(msg)
    for encoding in ("raw", "hex", "base64"):
        ct = tmp_path / f"ct.{encoding}"
        out = tmp_path / f"out.{encoding}"
        assert run_cli(["encrypt", "--key", str(key), "--in", str(src),
                        "--out", str(ct), "--encoding", encoding]) == 0
        assert run_cli(["decrypt", "--key", str(key), "--in", str(ct),
                        "--out", str(out), "--encoding", encoding]) == 0
        assert out.read_bytes() == msg


def test_encrypt_seed_determinism(tmp_path):
    key = write_key(tmp_path)
    src = tmp_path / "m.txt"
    src.write_bytes(b"same message")
    args = ["encrypt", "--key", str(key), "--in", str(src), "--encoding", "hex"]
    run_cli(args + ["--out", str(tmp_path / "a"), "--seed", "3"])
    run_cli(args + ["--out", str(tmp_path / "b"), "--seed", "3"])
    run_cli(args + ["--out", str(tmp_path / "c"), "--seed", "4"])
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_unseeded_filler_varies_but_decrypts(tmp_path):
    key = write_key(tmp_path)
    src = tmp_path / "m.txt"
    src.write_bytes(b"filler entropy")
    run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(tmp_path / "a")])
    run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a").read_bytes() != (tmp_path / "b").read_bytes()
    for name in ("a", "b"):
        assert run_cli(["decrypt", "--key", str(key), "--in", str(tmp_path / name),
                        "--out", str(tmp_path / "back")]) == 0
        assert (tmp_path / "back").read_bytes() == b"filler entropy"


def test_empty_file_encrypts_to_one_block(tmp_path):
    key = write_key(tmp_path)
    src = tmp_path / "empty"
    src.write_bytes(b"")
    ct = tmp_path / "ct"
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct)]) == 0
    assert len(ct.read_bytes()) == 64


def test_weak_key_warning(tmp_path, capsys):
    # A uniform master and one of identity form both send every block
    # unchanged; a key with distinct columns draws no warning.
    src = tmp_path / "m"
    src.write_bytes(b"hello#")
    for digits, weak in (("0" * 64, True), ("0440" * 16, True), ("01234567" * 8, False)):
        key = tmp_path / "key.txt"
        key.write_text(digits + "\n")
        ct = tmp_path / "ct"
        assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct)]) == 0
        assert ("weak" in capsys.readouterr().err) == weak
        assert ct.read_bytes().startswith(b"hello#") == weak


def test_hash_tail_warning(tmp_path, capsys):
    # Decryption finds the sentinel from the right and the filler holds no
    # '#', so messages ending in '#' round-trip and draw no warning.
    key = write_key(tmp_path)
    src, ct, out = tmp_path / "m", tmp_path / "ct", tmp_path / "out"
    for tail in (b"#", b"##", b"###"):
        src.write_bytes(b"ends with hash" + tail)
        for encoding in codec.ENCODINGS:
            assert run_cli(["encrypt", "--key", str(key), "--in", str(src),
                            "--out", str(ct), "--encoding", encoding]) == 0
            assert run_cli(["decrypt", "--key", str(key), "--in", str(ct),
                            "--out", str(out), "--encoding", encoding]) == 0
            assert out.read_bytes() == b"ends with hash" + tail
            assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("size, warning", [
    (2000, "warning: blocks 13..32 (20 of 32) are sent unchanged: key-schedule collapse\n"),
    (766, "warning: blocks 13..13 (1 of 13) are sent unchanged: key-schedule collapse\n"),
    (765, ""),
])
def test_key_schedule_leak_warning(tmp_path, capsys, size, warning):
    # The padded message has ceil((size + 3) / 64) blocks; blocks past
    # keys.LIVE_BLOCKS leave the rounds unchanged. The warning touches
    # neither stdout nor the ciphertext.
    key = write_key(tmp_path)
    src = tmp_path / "m"
    message = random.Random(size).randbytes(size)
    src.write_bytes(message)
    ct = tmp_path / "ct"
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct),
                    "--seed", "7"]) == 0
    assert capsys.readouterr() == ("", warning)
    filler = random.Random(7)
    assert ct.read_bytes() == codec._encrypt_buffer(message, keys.read_key_file(key), filler)


def test_wrong_key_decrypt_short_file_exits_3(tmp_path, capsys):
    key = write_key(tmp_path, seed=1, name="k1.txt")
    other = write_key(tmp_path, seed=2, name="k2.txt")
    src = tmp_path / "m"
    src.write_bytes(random.Random(8).randbytes(100))
    ct = tmp_path / "ct"
    run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct)])
    code = run_cli(["decrypt", "--key", str(other), "--in", str(ct),
                    "--out", str(tmp_path / "out")])
    assert code == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no partial output


def test_wrong_key_decrypt_long_file_leaks(tmp_path):
    # Past block 16 the session-key chain is all-zero for every key, so a
    # wrong key still unpads cleanly and returns the tail verbatim.
    key = write_key(tmp_path, seed=1, name="k1.txt")
    other = write_key(tmp_path, seed=2, name="k2.txt")
    msg = random.Random(9).randbytes(1300)
    src = tmp_path / "m"
    src.write_bytes(msg)
    ct = tmp_path / "ct"
    out = tmp_path / "out"
    run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct)])
    assert run_cli(["decrypt", "--key", str(other), "--in", str(ct),
                    "--out", str(out)]) == 0
    garbled = out.read_bytes()
    assert garbled != msg and garbled[1024:] == msg[1024:]


def test_corrupt_hex_exits_3(tmp_path, capsys):
    key = write_key(tmp_path)
    bad = tmp_path / "bad.hex"
    bad.write_bytes(b"zz")
    assert run_cli(["decrypt", "--key", str(key), "--in", str(bad),
                    "--out", str(tmp_path / "o"), "--encoding", "hex"]) == 3
    assert "data error" in capsys.readouterr().err


def test_bad_key_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    src = tmp_path / "m"
    src.write_bytes(b"x")
    bad.write_text("123\n")
    assert run_cli(["encrypt", "--key", str(bad), "--in", str(src),
                    "--out", str(tmp_path / "ct")]) == 2
    bad.write_text("x" * 64)
    assert run_cli(["encrypt", "--key", str(bad), "--in", str(src),
                    "--out", str(tmp_path / "ct")]) == 2
    assert "key error" in capsys.readouterr().err


def test_missing_input_exits_4(tmp_path, capsys):
    key = write_key(tmp_path)
    assert run_cli(["encrypt", "--key", str(key), "--in", str(tmp_path / "absent"),
                    "--out", str(tmp_path / "ct")]) == 4
    assert "io error" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path):
    key = write_key(tmp_path)
    src = tmp_path / "m"
    src.write_bytes(b"x")
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src),
                    "--out", str(tmp_path / "no" / "dir" / "ct")]) == 4


def test_failed_write_names_the_out_path(tmp_path, capsys):
    # The write goes through a temporary file beside --out; the message
    # names --out itself, with no temporary-name suffix.
    out = tmp_path / "missing" / "k"
    assert run_cli(["keygen", "--seed", "1", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error: ")
    assert f"'{out}'" in err
    assert f"{out}." not in err
    assert not out.parent.exists()


def test_out_symlink_is_written_through(tmp_path):
    # A symlink is not renamed over: its target receives the ciphertext.
    key = write_key(tmp_path)
    src, target, link = tmp_path / "m", tmp_path / "target", tmp_path / "link"
    src.write_bytes(b"through the link")
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert run_cli(["decrypt", "--key", str(key), "--in", str(target),
                    "--out", str(tmp_path / "back")]) == 0
    assert (tmp_path / "back").read_bytes() == b"through the link"


def test_out_devnull_is_written_in_place(tmp_path):
    key = write_key(tmp_path)
    src = tmp_path / "m"
    src.write_bytes(b"discarded")
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src),
                    "--out", os.devnull]) == 0


def test_failed_rename_keeps_out_and_removes_the_temporary_file(tmp_path, capsys, monkeypatch):
    key = write_key(tmp_path)
    src, out = tmp_path / "m", tmp_path / "ct"
    src.write_bytes(b"never lands")
    out.write_bytes(b"previous ciphertext")

    def full_disk(source, destination):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full_disk)
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"'{out}'" in err and f"{out}." not in err
    assert out.read_bytes() == b"previous ciphertext"
    assert list(tmp_path.glob("ct.*")) == []


def test_usage_errors_exit_1(capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["encrypt", "--key", "k"]) == 1
    assert run_cli(["analyze", "nonsense"]) == 1
    assert run_cli(["bench", "--blocks", "50"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("target", cli.ANALYZE_TARGETS)
def test_analyze_rejects_trials_below_one(capsys, target, trials):
    assert run_cli(["analyze", target, "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


# Each action of the file subcommands, as (option strings, dest, default,
# required, choices); encrypt and decrypt share their first five rows.
_FILE_OPTIONS = {
    "encrypt": [
        (("-h", "--help"), "help", argparse.SUPPRESS, False, None),
        (("--key",), "key", None, True, None),
        (("--in",), "in_", None, True, None),
        (("--out",), "out", None, True, None),
        (("--encoding",), "encoding", "raw", False, ("raw", "hex", "base64")),
        (("--seed",), "seed", None, False, None),
        (("--force",), "force", False, False, None),
    ],
    "decrypt": [
        (("-h", "--help"), "help", argparse.SUPPRESS, False, None),
        (("--key",), "key", None, True, None),
        (("--in",), "in_", None, True, None),
        (("--out",), "out", None, True, None),
        (("--encoding",), "encoding", "raw", False, ("raw", "hex", "base64")),
    ],
}


@pytest.mark.parametrize("name", sorted(_FILE_OPTIONS))
def test_file_subcommand_options(name):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [(tuple(a.option_strings), a.dest, a.default, a.required,
                None if a.choices is None else tuple(a.choices))
               for a in sub.choices[name]._actions]
    assert actions == _FILE_OPTIONS[name]


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["encrypt", "--help"]) == 0
    capsys.readouterr()


def test_tty_refusal_for_raw_stdout(tmp_path, capsys, monkeypatch):
    key = write_key(tmp_path)
    src = tmp_path / "m"
    src.write_bytes(b"secret")
    monkeypatch.setattr(cli, "_stdout_is_tty", lambda: True)
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", "-"]) == 1
    assert "--force" in capsys.readouterr().err
    # other encodings and file outputs stay allowed
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", "-",
                    "--encoding", "base64"]) == 0
    capsys.readouterr()


def test_stdin_stdout_pipeline(tmp_path):
    key = write_key(tmp_path)
    msg = random.Random(10).randbytes(300)
    enc = subprocess.run(
        [sys.executable, "-m", "rotoxor", "encrypt", "--key", str(key),
         "--in", "-", "--out", "-", "--seed", "2"],
        input=msg, stdout=subprocess.PIPE, check=True, env=_CHILD_ENV,
    )
    dec = subprocess.run(
        [sys.executable, "-m", "rotoxor", "decrypt", "--key", str(key),
         "--in", "-", "--out", "-"],
        input=enc.stdout, stdout=subprocess.PIPE, check=True, env=_CHILD_ENV,
    )
    assert dec.stdout == msg


def test_in_place_encrypt_then_decrypt_round_trips(tmp_path):
    key = write_key(tmp_path)
    msg = random.Random(12).randbytes(5000)
    path, other = tmp_path / "f", tmp_path / "other"
    for encoding in codec.ENCODINGS:
        path.write_bytes(msg)
        common = ["--key", str(key), "--in", str(path), "--encoding", encoding]
        assert run_cli(["encrypt", *common, "--out", str(other), "--seed", "3"]) == 0
        common += ["--out", str(path)]
        assert run_cli(["encrypt", *common, "--seed", "3"]) == 0
        assert path.read_bytes() == other.read_bytes() != msg
        assert run_cli(["decrypt", *common]) == 0
        assert path.read_bytes() == msg


@pytest.mark.parametrize("encoding, data, message", [
    ("raw", b"", "ciphertext stream is empty"),
    ("base64", b"zz", "(position 2)"),
])
def test_bad_stdin_exits_3(tmp_path, encoding, data, message):
    key = write_key(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "rotoxor", "decrypt", "--key", str(key),
         "--in", "-", "--out", "-", "--encoding", encoding],
        input=data, capture_output=True, env=_CHILD_ENV,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert message.encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_parser_is_built_once_and_each_call_parses_afresh(tmp_path, capsys):
    key = write_key(tmp_path)
    assert cli._build_parser() is cli._build_parser()
    src, ct, out = tmp_path / "m", tmp_path / "ct", tmp_path / "out"
    src.write_bytes(b"parse me afresh")
    assert run_cli(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct),
                    "--encoding", "hex", "--seed", "1"]) == 0
    assert run_cli(["decrypt", "--key", str(key), "--in", str(ct)]) == 1  # no --out
    assert "usage:" in capsys.readouterr().err
    # The first call's --encoding hex does not carry over: raw is the default,
    # and the hex text read as raw blocks fails the padding check.
    assert run_cli(["decrypt", "--key", str(key), "--in", str(ct), "--out", str(out)]) == 3
    assert "data error" in capsys.readouterr().err
    assert run_cli(["decrypt", "--key", str(key), "--in", str(ct), "--out", str(out),
                    "--encoding", "hex"]) == 0
    assert out.read_bytes() == b"parse me afresh"


@pytest.fixture(scope="module")
def fuzz_key(tmp_path_factory):
    return write_key(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=150, deadline=None)
@given(encoding=st.sampled_from(codec.ENCODINGS),
       source=st.one_of(st.binary(max_size=300).map(lambda b: (b, False)),
                        st.binary(max_size=200).map(lambda b: (b, True))),
       edits=st.lists(st.tuples(st.integers(0, 600), st.binary(max_size=2)), max_size=2))
def test_decrypt_of_arbitrary_file_exits_0_or_3(fuzz_key, encoding, source, edits):
    data, encrypt = source
    if encrypt:  # a real ciphertext, perhaps with a few octets spliced in
        key = keys.read_key_file(fuzz_key)
        data = bytes(codec.encode_stream(codec.encrypt_message(data, key, random.Random(1)),
                                         encoding))
    for pos, octets in edits:
        pos %= len(data) + 1
        data = data[:pos] + octets + data[pos:]
    path = fuzz_key.parent / "ct"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run_cli(["decrypt", "--key", str(fuzz_key), "--in", str(path),
                      "--out", str(fuzz_key.parent / "out"), "--encoding", encoding])
    assert rc in (0, 3)
    assert "Traceback" not in err.getvalue()
    assert (rc == 3) == err.getvalue().startswith("data error: ")


# --- analyze -----------------------------------------------------------------

def test_analyze_reports_deterministic(capsys):
    for target in ("avalanche-plaintext", "avalanche-key", "linearity",
                   "repeated-block"):
        outputs = []
        for _ in range(2):
            assert run_cli(["analyze", target, "--trials", "8", "--seed", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "=" in outputs[0]


def test_analyze_linearity_passes(capsys):
    assert run_cli(["analyze", "linearity", "--trials", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out and "counterexample=none" in out


def test_analyze_linearity_failure_exits_5(capsys, monkeypatch):
    x, y = bytes(range(64)), bytes(range(64, 128))
    monkeypatch.setattr(analysis, "linearity_check", lambda key, trials, seed: (False, (x, y)))
    assert run_cli(["analyze", "linearity", "--trials", "9", "--seed", "4"]) == 5
    assert capsys.readouterr() == (
        f"trials=9\nseed=4\ncounterexample={x.hex()},{y.hex()}\nresult=FAIL\n", "")


def test_analyze_attack_default_trials(capsys):
    assert run_cli(["analyze", "attack", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "recovered map verified on 100 blocks" in out
    assert "oracle_calls=512" in out
    assert "matrix_nonsingular=yes" in out


def test_analyze_attack_reports_counted_oracle_calls(capsys, monkeypatch):
    recover = analysis.recover_linear_map

    def two_extra_queries(oracle):
        oracle(bytes(64))
        oracle(bytes(64))
        return recover(oracle)

    monkeypatch.setattr(analysis, "recover_linear_map", two_extra_queries)
    assert run_cli(["analyze", "attack", "--trials", "5", "--seed", "1"]) == 0
    assert "oracle_calls=514" in capsys.readouterr().out.splitlines()


def test_analyze_attack_respects_trials(capsys):
    assert run_cli(["analyze", "attack", "--trials", "10", "--seed", "1"]) == 0
    assert "recovered map verified on 10 blocks" in capsys.readouterr().out


def test_analyze_attack_mismatch_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(analysis, "kpa_decrypt", lambda lm, c: bytes(len(c)))
    assert run_cli(["analyze", "attack", "--trials", "5", "--seed", "1"]) == 5
    assert "FAILED" in capsys.readouterr().out


def test_analyze_attack_checks_trials_in_chunks_and_counts_rows(capsys, monkeypatch):
    # 2500 trial blocks go through kpa_decrypt 1024 at a time; two flipped
    # octets in one block of each chunk count as one mismatch per chunk.
    kpa = analysis.kpa_decrypt
    sizes = []

    def corrupt_first_block(linear_map, ciphertext):
        sizes.append(len(ciphertext) // 64)
        out = bytearray(kpa(linear_map, ciphertext))
        out[0] ^= 1
        out[63] ^= 1
        return bytes(out)

    monkeypatch.setattr(analysis, "kpa_decrypt", corrupt_first_block)
    assert run_cli(["analyze", "attack", "--trials", "2500", "--seed", "1"]) == 5
    assert sizes == [1024, 1024, 452]
    assert "mismatches=3" in capsys.readouterr().out.splitlines()


def _child_peak_rss_mib(argv, status=0):
    # The child's own peak RSS after cli.main(argv) returns status, and its stdout. Linux
    # carries ru_maxrss across exec, so a child of this (larger) test
    # process would report at least our RSS; VmHWM belongs to the child's
    # fresh address space alone.
    code = ("import sys\n"
            "from rotoxor import cli\n"
            f"assert cli.main({argv!r}) == {status}\n"
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "print(hwm.split()[1], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=_CHILD_ENV)
    return int(proc.stderr.split()[-1]) / 1024, proc.stdout


def _attack_peak_rss_mib(trials):
    peak, out = _child_peak_rss_mib(["analyze", "attack", "--trials", str(trials)])
    assert f"recovered map verified on {trials} blocks" in out
    return peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_analyze_attack_memory_does_not_grow_with_trials():
    # The check runs in fixed chunks, so 200 times the trials costs at most
    # a few MiB more (20000 blocks are 1.2 MiB of ciphertext alone).
    small = _attack_peak_rss_mib(100)
    large = _attack_peak_rss_mib(20000)
    assert large - small < 4, f"peak RSS {small:.1f} MiB at 100 trials, {large:.1f} MiB at 20000"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("target,done", [("avalanche-plaintext", "trials={}"),
                                         ("avalanche-key", "trials={}"),
                                         ("linearity", "result=PASS")],
                         ids=["avalanche-plaintext", "avalanche-key", "linearity"])
def test_analyze_report_memory_does_not_grow_with_trials(target, done):
    # Trials run in fixed chunks into a histogram, so 50 times the trials
    # costs at most a few MiB more; holding every trial's 64-octet state as
    # bytes would add 4.6 MiB alone.
    peaks = {}
    for trials in (1000, 50000):
        peaks[trials], out = _child_peak_rss_mib(["analyze", target, "--trials", str(trials)])
        assert done.format(trials) in out.splitlines()
    assert peaks[50000] - peaks[1000] < 4, f"peak RSS {peaks} MiB by trial count"


def _decrypt_peak_rss_mib(tmp_path, size):
    # A raw `rotoxor decrypt` of a size-octet message, as the child's VmHWM.
    key = write_key(tmp_path)
    ct, out = tmp_path / f"{size}.ct", tmp_path / f"{size}.out"
    master = keys.read_key_file(key)
    ct.write_bytes(codec._encrypt_buffer(bytes(size), master, random.Random(0)))
    peak, _ = _child_peak_rss_mib(["decrypt", "--key", str(key), "--in", str(ct),
                                   "--out", str(out), "--encoding", "raw"])
    assert out.stat().st_size == size
    ct.unlink()
    out.unlink()
    return peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_raw_decrypt_holds_two_copies_of_the_file(tmp_path):
    # The file as read and the one decrypted copy: 16 MiB more input costs
    # about 32 MiB more peak. A third whole copy (the unpadded plaintext as
    # new bytes) would add about 48 MiB.
    small = _decrypt_peak_rss_mib(tmp_path, 1 << 20)
    large = _decrypt_peak_rss_mib(tmp_path, 17 << 20)
    assert large - small < 40, f"peak RSS {small:.1f} MiB at 1 MiB, {large:.1f} MiB at 17 MiB"


def _encrypt_peak_rss_mib(tmp_path, size, encoding):
    # A `rotoxor encrypt` of a size-octet message, as the child's VmHWM.
    key = write_key(tmp_path)
    pt, out = tmp_path / f"{size}.pt", tmp_path / f"{size}.{encoding}"
    pt.write_bytes(bytes(size))
    peak, _ = _child_peak_rss_mib(["encrypt", "--key", str(key), "--in", str(pt),
                                   "--out", str(out), "--encoding", encoding, "--seed", "0"])
    assert out.stat().st_size > size
    pt.unlink()
    out.unlink()
    return peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("encoding,bound", [("hex", 56), ("base64", 45)])
def test_encoded_encrypt_drops_the_plaintext(tmp_path, encoding, bound):
    # The padded copy and the encoded text (2x or 4/3x): 16 MiB more input
    # costs about 48 (hex) or 37 (base64) MiB more peak. Holding the message
    # through the encode step as well would add 16 MiB to that.
    small = _encrypt_peak_rss_mib(tmp_path, 1 << 20, encoding)
    large = _encrypt_peak_rss_mib(tmp_path, 17 << 20, encoding)
    assert large - small < bound, f"peak RSS {small:.1f} MiB at 1 MiB, {large:.1f} MiB at 17 MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_oversized_key_file_is_not_read_whole(tmp_path, capsys):
    # A 64 MiB sparse key file fails as a 3-octet one does, on its first 67
    # octets: reading it whole took the child's peak from 29 to 157 MiB.
    (tmp_path / "in.txt").write_bytes(b"x")
    peaks = {}
    for size in (3, 64 << 20):
        key = tmp_path / f"{size}.key"
        with open(key, "wb") as fh:
            fh.truncate(size)
        peaks[size], _ = _child_peak_rss_mib(["encrypt", "--key", str(key), "--in",
                                              str(tmp_path / "in.txt"), "--out",
                                              str(tmp_path / "out.ct")], status=2)
    assert not (tmp_path / "out.ct").exists()
    assert peaks[64 << 20] - peaks[3] < 4, f"peak RSS {peaks} MiB by key file size"
    assert run_cli(["encrypt", "--key", str(key), "--in", str(tmp_path / "in.txt"),
                    "--out", str(tmp_path / "out.ct")]) == 2
    assert capsys.readouterr().err == \
        "key error: key text must be exactly 64 characters, got at least 65\n"


def test_analyze_singular_map_exits_5(capsys, monkeypatch):
    def boom(oracle):
        from rotoxor.errors import SingularMapError
        raise SingularMapError("recovered cipher matrix is singular")

    monkeypatch.setattr(analysis, "recover_linear_map", boom)
    assert run_cli(["analyze", "attack", "--seed", "1"]) == 5
    assert "analysis error" in capsys.readouterr().err


def test_analyze_accepts_key_file(tmp_path, capsys):
    key = write_key(tmp_path)
    assert run_cli(["analyze", "linearity", "--trials", "50", "--seed", "3",
                    "--key", str(key)]) == 0
    assert "result=PASS" in capsys.readouterr().out


def test_analyze_repeated_block_default(capsys):
    assert run_cli(["analyze", "repeated-block", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "block_count=8" in out
    assert "all_distinct=True" in out


def test_analyze_avalanche_lines(capsys):
    assert run_cli(["analyze", "avalanche-plaintext", "--trials", "16",
                    "--seed", "2"]) == 0
    out = capsys.readouterr().out
    for field in ("trials=16", "flipped_ratio_mean=", "flipped_ratio_min=",
                  "flipped_ratio_max=", "flipped_ratio_stddev=", "seed=2"):
        assert field in out


# --- bench / keyspace --------------------------------------------------------

def test_bench_output(capsys):
    assert run_cli(["bench", "--blocks", "100"]) == 0
    out = capsys.readouterr().out
    for field in ("blocks_timed=300", "mean_ns=", "stddev_ns=", "min_ns=",
                  "max_ns=", "zero_mean_ns=", "uniform_mean_ns=",
                  "random_mean_ns=", "reference_ns_per_block=18000"):
        assert field in out
    assert "data_independence=" in out
    assert "18 us/block" in out


def test_bench_prints_its_fields_in_order(capsys):
    # Only the timing values change from run to run: every line, its name
    # and its place stay, and the reference lines are fixed text.
    assert run_cli(["bench", "--blocks", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.partition("=")[0] for line in lines] == [
        "blocks_timed", "mean_ns", "stddev_ns", "min_ns", "max_ns", "zero_mean_ns",
        "uniform_mean_ns", "random_mean_ns", "class_spread", "noise_threshold",
        "data_independent", "data_independence", "reference_ns_per_block", "reference_note"]
    assert lines[-2:] == [
        "reference_ns_per_block=18000",
        "reference_note=18 us/block is the original design's figure on a 4 GHz single core;"
        " informational only, not a pass/fail bound"]
    verdict = {"data_independent=True": "data_independence=PASS",
               "data_independent=False": "data_independence=FAIL"}
    assert verdict[lines[10]] == lines[11]


def test_keyspace_output(capsys):
    assert run_cli(["keyspace"]) == 0
    out = capsys.readouterr().out
    assert "2^48" in out and "2^192" in out and "discrepancy=yes" in out
