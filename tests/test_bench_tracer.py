"""The benchmark's tracer still finds every package name it patches.

perfbench/spans.py wraps module attributes by name for traced runs. A name
the package drops or renames would otherwise break only `--trace 1` runs.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from rotoxor import analysis, batch, cipher, cli, codec, gf2, keys

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_restores():
    rx = SimpleNamespace(analysis=analysis, batch=batch, cipher=cipher, cli=cli,
                         codec=codec, gf2=gf2, keys=keys)
    tracer = _load_tracer_class()(rx)
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
