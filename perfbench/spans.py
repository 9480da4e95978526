"""Spans and counts recorded around the package's public functions.

The package is not edited: each traced function is replaced, for the length
of a traced cycle, by a wrapper installed on the module attribute that its
callers look up at call time (``rotoxor.codec.pad_message`` is what
``encrypt_message`` calls, ``rotoxor.cli.encrypt_block`` is what the CLI's
attack oracle calls, and so on). A span is
``(id, name, start_ns, end_ns, parent_id, request_id, attrs)``; self time is a
span's duration minus the durations of its direct children, which nest inside
it because the package is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """In-memory span and count recorder; install() patches, uninstall() restores."""

    def __init__(self, rx):
        """``rx`` holds the package's modules as attributes (``rx.codec``, ...)."""
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self.patches = self._patches(rx)

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.spans)
            record = [sid, name, 0, 0, stack[-1] if stack else -1, tracer.request,
                      attrs(args, kwargs) if attrs else None]
            tracer.spans.append(record)
            stack.append(sid)
            record[2] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = _now()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _chain(self, fn):
        # session_key_chain returns a generator; time each step it is asked
        # for. The caller drains it in one go, so one span from the first to
        # the last step covers it, and its busy time sums the steps.
        tracer = self

        @functools.wraps(fn)
        def wrapper(master):
            return _TimedChain(tracer, fn(master))
        return wrapper

    def _oracle_counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(oracle, *args, **kwargs):
            def counted(block):
                counts["analysis.oracle_calls"] += 1
                return oracle(block)
            return fn(counted, *args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------

    def _patches(self, rx) -> list[tuple[object, str, object, object]]:
        keys, batch, cipher, codec, gf2, analysis, cli = (
            rx.keys, rx.batch, rx.cipher, rx.codec, rx.gf2, rx.analysis, rx.cli)
        span = self._span
        plan = [
            (codec, "session_key_chain", self._chain),
            (keys, "read_key_file", lambda f: span("keys.read_key_file", f)),
            (cipher, "derive_round_key", lambda f: self._count("keys.derive_round_key.calls", f)),
            (batch, "encrypt_blocks", lambda f: span("batch.encrypt_blocks", f, _block_attrs)),
            (batch, "decrypt_blocks", lambda f: span("batch.decrypt_blocks", f, _block_attrs)),
            (analysis, "encrypt_block", lambda f: span("cipher.encrypt_block", f)),
            (cli, "encrypt_block", lambda f: span("cipher.encrypt_block", f)),
            (cli, "decrypt_block", lambda f: span("cipher.decrypt_block", f)),
            (codec, "pad_message", lambda f: span("codec.pad_message", f, _message_bytes)),
            (codec, "unpad_message", lambda f: span("codec.unpad_message", f)),
            (codec, "encrypt_message", lambda f: span("codec.encrypt_message", f)),
            (codec, "decrypt_message", lambda f: span("codec.decrypt_message", f)),
            (codec, "encode_stream", lambda f: span("codec.encode_stream", f, _encode_attrs)),
            (codec, "decode_stream", lambda f: span("codec.decode_stream", f, _decode_attrs)),
            (gf2, "rank", lambda f: span("gf2.rank", f)),
            (gf2, "invert", lambda f: span("gf2.invert", f)),
            (gf2, "transpose", lambda f: span("gf2.transpose", f)),
            (gf2, "mat_vec", lambda f: span("gf2.mat_vec", f)),
            (analysis, "recover_linear_map",
             lambda f: span("analysis.recover_linear_map", self._oracle_counting(f))),
            (analysis, "kpa_decrypt", lambda f: span("analysis.kpa_decrypt", f)),
            (analysis, "avalanche_plaintext", lambda f: span("analysis.avalanche_plaintext", f)),
            (analysis, "avalanche_key", lambda f: span("analysis.avalanche_key", f)),
            (analysis, "linearity_check", lambda f: span("analysis.linearity_check", f)),
            (analysis, "repeated_block_report",
             lambda f: span("analysis.repeated_block_report", f)),
            (cli, "main", lambda f: span("cli.main", f, _argv_attrs)),
        ]
        return [(module, attr, getattr(module, attr), make(getattr(module, attr)))
                for module, attr, make in plan]

    def install(self) -> None:
        for module, attr, _original, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self.patches:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks with the package unpatched."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- per-layer metrics -----------------------------------------------

    def metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics; counts are per cycle of the workload."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, name, t0, t1, parent, _req, _attrs in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        dur: dict[str, list[int]] = defaultdict(list)
        self_ns: dict[str, list[int]] = defaultdict(list)
        amount: Counter = Counter()
        for sid, name, t0, t1, parent, _req, attrs in self.spans:
            d = t1 - t0
            key = name
            if name in ("codec.encode_stream", "codec.decode_stream"):
                key = f"{name}.{attrs['encoding']}"
                amount[key] += attrs["bytes"]
            elif name == "cli.main":
                key = f"cli.main.{attrs['command']}"
            elif name.startswith("batch."):
                amount[name] += attrs["blocks"]
                amount["useful_blocks"] += attrs["useful"]
            elif name == "codec.pad_message":
                amount[name] += attrs["bytes"]
            elif name == "keys.session_key_chain":
                d = attrs["busy_ns"]
                amount[name] += attrs["keys"]
            dur[key].append(d)
            self_ns[key].append(d - child_ns[sid])

        def per_cycle(n):
            return n / cycles if cycles else 0.0

        def med_ns(values, scale):
            return statistics.median(values) / scale if values else 0.0

        def rate(key):
            return sum(dur[key]) / amount[key] if amount[key] else 0.0

        out = {
            "keys.chain.keys": per_cycle(amount["keys.session_key_chain"]),
            "keys.chain.ns_per_key": rate("keys.session_key_chain"),
            "keys.read_key_file.us": med_ns(dur["keys.read_key_file"], 1e3),
            "keys.derive_round_key.calls": per_cycle(self.counts["keys.derive_round_key.calls"]),
        }
        for op in ("encrypt", "decrypt"):
            key = f"batch.{op}_blocks"
            out[f"{key}.calls"] = per_cycle(len(dur[key]))
            out[f"{key}.blocks"] = per_cycle(amount[key])
            out[f"{key}.ns_per_block"] = rate(key)
        all_blocks = amount["batch.encrypt_blocks"] + amount["batch.decrypt_blocks"]
        out["batch.useful_block_ratio"] = amount["useful_blocks"] / all_blocks if all_blocks else 0.0
        for op in ("encrypt", "decrypt"):
            key = f"cipher.{op}_block"
            out[f"{key}.calls"] = per_cycle(len(dur[key]))
            out[f"{key}.us"] = med_ns(dur[key], 1e3)
        out["codec.pad_message.ns_per_byte"] = rate("codec.pad_message")
        out["codec.unpad_message.us"] = med_ns(dur["codec.unpad_message"], 1e3)
        for op in ("encode", "decode"):
            for enc in ("raw", "hex", "base64"):
                out[f"codec.{op}_stream.ns_per_byte.{enc}"] = rate(f"codec.{op}_stream.{enc}")
        for op in ("encrypt", "decrypt"):
            out[f"codec.{op}_message.self_ms"] = med_ns(self_ns[f"codec.{op}_message"], 1e6)
        for fn in ("rank", "invert", "transpose"):
            out[f"gf2.{fn}.ms"] = med_ns(dur[f"gf2.{fn}"], 1e6)
            out[f"gf2.{fn}.calls"] = per_cycle(len(dur[f"gf2.{fn}"]))
        out["gf2.mat_vec.us"] = med_ns(dur["gf2.mat_vec"], 1e3)
        out["gf2.mat_vec.calls"] = per_cycle(len(dur["gf2.mat_vec"]))
        out["analysis.recover_linear_map.self_ms"] = med_ns(
            self_ns["analysis.recover_linear_map"], 1e6)
        out["analysis.oracle_calls"] = per_cycle(self.counts["analysis.oracle_calls"])
        out["analysis.kpa_decrypt.us"] = med_ns(dur["analysis.kpa_decrypt"], 1e3)
        for fn in ("avalanche_plaintext", "avalanche_key", "linearity_check",
                   "repeated_block_report"):
            out[f"analysis.{fn}.self_ms"] = med_ns(self_ns[f"analysis.{fn}"], 1e6)
        for command in ("encrypt", "decrypt", "analyze"):
            out[f"cli.main.self_ms.{command}"] = med_ns(self_ns[f"cli.main.{command}"], 1e6)
        return out


class _TimedChain:
    """Generator proxy that times each key the caller draws."""

    def __init__(self, tracer: Tracer, gen):
        self._gen = gen
        self._tracer = tracer
        self._record = None

    def __iter__(self):
        return self

    def __next__(self):
        t0 = _now()
        key = next(self._gen)
        t1 = _now()
        record = self._record
        if record is None:
            tracer = self._tracer
            stack = tracer._stack
            record = [len(tracer.spans), "keys.session_key_chain", t0, t1,
                      stack[-1] if stack else -1, tracer.request, {"keys": 0, "busy_ns": 0}]
            tracer.spans.append(record)
            self._record = record
        record[3] = t1
        attrs = record[6]
        attrs["keys"] += 1
        attrs["busy_ns"] += t1 - t0
        return key


def _block_attrs(args, kwargs):
    # useful = blocks sent through the rounds under a non-zero session key
    blocks, keys = _rows(args[0]), _rows(args[1])
    nonzero = keys.any(axis=1)
    useful = int(nonzero.sum()) if len(keys) == len(blocks) else len(blocks) * bool(nonzero[0])
    return {"blocks": len(blocks), "useful": useful}


def _rows(x) -> np.ndarray:
    if isinstance(x, (bytes, bytearray, memoryview)):
        x = np.frombuffer(x, dtype=np.uint8)
    return np.asarray(x, dtype=np.uint8).reshape(-1, 64)


def _message_bytes(args, kwargs):
    return {"bytes": len(args[0])}


def _encode_attrs(args, kwargs):
    encoding = args[1] if len(args) > 1 else kwargs.get("encoding", "raw")
    return {"encoding": encoding, "bytes": sum(len(b) for b in args[0])}


def _decode_attrs(args, kwargs):
    encoding = args[1] if len(args) > 1 else kwargs.get("encoding", "raw")
    return {"encoding": encoding, "bytes": len(args[0])}


def _argv_attrs(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else ""}
