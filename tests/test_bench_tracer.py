"""The benchmark's tracer still finds every package name it patches.

perfbench/spans.py wraps module attributes by name for traced runs. A name
the package drops or renames would otherwise break only `--trace 1` runs.
"""

import ast
import importlib.util
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from rotoxor import analysis, batch, cipher, cli, codec, gf2, keys

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Names a package module imports only so that the tracer can patch them
# there, each with the reason no call goes through it. The list must match
# exactly, so a name that gains a use or goes leaves it.
TRACER_ONLY = {
    "cli.encrypt_block": "the attack's chosen-plaintext oracle is analysis.attack_report's, "
                         "on batch",
    "cli.decrypt_block": "the attack's check is analysis.attack_report's, on batch",
    "codec.session_key_chain": "the codec takes the head's keys as one batch.session_keys "
                               "array",
}


def _load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _tracer():
    rx = SimpleNamespace(analysis=analysis, batch=batch, cipher=cipher, cli=cli,
                         codec=codec, gf2=gf2, keys=keys)
    return _load_tracer_class()(rx)


def test_tracer_installs_and_restores():
    tracer = _tracer()
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracer.patches]
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for m, a, f in originals)
        # The reports look batch.encrypt_blocks up when they run, so their
        # batches show in the trace, and no report block goes through the
        # scalar cipher.
        analysis.linearity_check(bytes(range(8)) * 8, 10, 1)
        analysis.avalanche_key(bytes(range(8)) * 8, 10, 1)
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for m, a, f in originals)
    names = [span[1] for span in tracer.spans]
    assert names.count("batch.encrypt_blocks") == 4 + 2
    assert "cipher.encrypt_block" not in names


def test_tracer_counts_the_attack(capsys):
    # One recovery (one batched query of the 512 basis states, and three
    # products that build the inverse as M^7 by squaring, with no
    # elimination), then one batched check and one product over the 5 trial
    # blocks; the scalar cipher is not called.
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main(["analyze", "attack", "--trials", "5"]) == 0
    finally:
        tracer.uninstall()
    assert "oracle_calls=512" in capsys.readouterr().out.splitlines()
    names = Counter(span[1] for span in tracer.spans)
    blocks = {name: [span[6]["blocks"] for span in tracer.spans if span[1] == name]
              for name in ("batch.encrypt_blocks", "batch.decrypt_blocks")}
    assert blocks == {"batch.encrypt_blocks": [512], "batch.decrypt_blocks": [5]}
    # the tracer counts oracle calls, and the attack makes one
    assert tracer.counts["analysis.oracle_calls"] == 1
    assert names["cipher.encrypt_block"] == 0
    assert names["cipher.decrypt_block"] == 0
    assert names["gf2.transpose"] == 0
    assert names["gf2.invert"] == 0
    assert names["gf2.rank"] == 0
    assert names["gf2.mat_vec"] == 4


def test_tracer_sees_one_buffer_on_the_cli_file_path(tmp_path, monkeypatch):
    # `rotoxor encrypt`/`decrypt` run the codec on one buffer: one batch call
    # each way, pad/unpad looked up by name, and none of the block-list
    # functions (whose tracer attributes expect a list). The head's keys
    # come from one batch.session_keys call each way, counted at the name the
    # codec looks up, and none through the traced codec.session_key_chain.
    drawn = []
    draw = batch.session_keys
    monkeypatch.setattr(batch, "session_keys", lambda master, n: drawn.append(n)
                        or draw(master, n))
    key, src, ct, out = (tmp_path / name for name in ("key", "m", "ct", "out"))
    assert cli.main(["keygen", "--seed", "4", "--out", str(key)]) == 0
    msg = random.Random(8).randbytes(2000)
    src.write_bytes(msg)
    tracer = _tracer()
    tracer.install()
    try:
        for encoding in codec.ENCODINGS:
            tracer.request += 1
            assert cli.main(["encrypt", "--key", str(key), "--in", str(src), "--out", str(ct),
                             "--encoding", encoding, "--seed", "7"]) == 0
            assert cli.main(["decrypt", "--key", str(key), "--in", str(ct), "--out", str(out),
                             "--encoding", encoding]) == 0
            assert out.read_bytes() == msg
    finally:
        tracer.uninstall()
    for request in (1, 2, 3):
        names = Counter(span[1] for span in tracer.spans if span[5] == request)
        assert names["cli.main"] == 2
        assert names["batch.encrypt_blocks"] == names["batch.decrypt_blocks"] == 1
        assert names["codec.pad_message"] == names["codec.unpad_message"] == 1
        assert names["keys.session_key_chain"] == 0
        for fn in ("encrypt_message", "decrypt_message", "encode_stream", "decode_stream"):
            assert names[f"codec.{fn}"] == 0
    # the 32-block file draws the live head's keys only, each way
    assert drawn == [keys.LIVE_BLOCKS] * 2 * len(codec.ENCODINGS)
    metrics = tracer.metrics(3)
    assert metrics["batch.encrypt_blocks.calls"] == metrics["batch.decrypt_blocks.calls"] == 1
    assert metrics["cli.main.self_ms.encrypt"] > 0


def test_tracer_only_imports_are_listed():
    # A patched (module, attr) that the module imports but never loads is
    # kept for the tracer alone; its patch records nothing.
    tracer_only = set()
    for module, attr, _original, _wrapper in _tracer().patches:
        tree = ast.parse(Path(module.__file__).read_text())
        imported = any(isinstance(node, ast.ImportFrom) and attr in (a.name for a in node.names)
                       for node in tree.body)
        loaded = any(isinstance(node, ast.Name) and node.id == attr
                     and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))
        if imported and not loaded:
            tracer_only.add(f"{module.__name__.rpartition('.')[2]}.{attr}")
    assert tracer_only == set(TRACER_ONLY)
    assert all(TRACER_ONLY.values())
