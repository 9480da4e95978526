"""Benchmark for the rotoxor package: end-to-end metrics or per-layer traces.

One workload per run, from the root of a source checkout:

    python3 perfbench/run.py --workload bulk-file --seed 1 --seconds 30 --trace 0

drives the package in ``src/`` from this one process and thread, as a closed
loop (each call waits for the previous one), and prints ``metric`` lines
followed by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics plus the
tracing overhead. ``--all`` runs every workload in its own interpreter,
``--repeat`` times with seeds seed, seed+1, ..., alternating the workload
order so that machine drift shows as spread, and prints each metric's median
and quartiles. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS, Sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 8  # before the workload, and as many again after it
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import rotoxor.cli; "
              "rotoxor.cli.main(['keyspace'])")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one cycle, for the smoke test")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    rx = _import_package()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine(rx).items()), flush=True)
    if args.all:
        return run_all(args)
    return run_one(rx, args)


def _import_package() -> SimpleNamespace:
    """The rotoxor modules the benchmark drives, imported from ``src/``."""
    src = ROOT / "src"
    if not (src / "rotoxor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rotoxor package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import rotoxor
    from rotoxor import analysis, batch, cipher, cli, codec, errors, gf2, keys
    if Path(rotoxor.__file__).resolve().parent != src / "rotoxor":
        sys.exit(f"perfbench: imported rotoxor from {rotoxor.__file__}, not {src}")
    return SimpleNamespace(rotoxor=rotoxor, analysis=analysis, batch=batch, cipher=cipher,
                           cli=cli, codec=codec, errors=errors, gf2=gf2, keys=keys)


def machine(rx) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "rotoxor": rx.rotoxor.__version__,
            "cpu": json.dumps(cpu)}


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh interpreters importing rotoxor and running keyspace."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_one(rx, args) -> int:
    measure_setup(1)  # the first start writes bytecode caches, which users pay once
    setup_times = measure_setup(SETUP_RUNS)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](rx, args.seed, args.tiny, str(workdir))
        tracer = Tracer(rx) if args.trace else None
        template, times, cycles, overhead = _measure(workload, args.seconds, args.tiny, tracer)
        workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = _expand(template, times)
    # Start-ups before and after the workload, so one slow spell of a shared
    # machine moves the median less.
    setup_s = statistics.median(setup_times + measure_setup(SETUP_RUNS))

    spec = _spec()
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_unit_ms = [s.seconds / s.units * 1e3 for s in workload.units(samples)]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cycles={cycles} unit={json.dumps(workload.unit)}")
    failed_ratio = workload.failed / max(1, workload.attempted)
    lines = [("setup_s", setup_s, "s", 2 * SETUP_RUNS),
             ("unit_p50_ms", statistics.median(per_unit_ms), "ms", len(per_unit_ms))]
    lines += workload.report(samples) + [
        ("peak_rss_mib", peak_rss_mib, "MiB", 1),
        ("failed_ratio", failed_ratio, "ratio", workload.attempted),
    ]
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "best_unit_ms": workload.best_unit_ms(samples),
            "peak_rss_mib": peak_rss_mib,
        }
        lines.append(("best_unit_ms", metrics["best_unit_ms"], "ms", len(per_unit_ms)))
    else:
        traced_cycles = cycles // 2
        metrics = tracer.metrics(traced_cycles)
        metrics["cli.bytes_read"] = workload.bytes_read / cycles
        metrics["cli.bytes_written"] = workload.bytes_written / cycles
        metrics["failed_ratio"] = failed_ratio
        metrics["trace.overhead_ratio"] = overhead
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        lines += [(name, value, units_of[name], traced_cycles)
                  for name, value in metrics.items() if name != "failed_ratio"]
    for name, value, unit, n in lines:
        print(f"metric {name}={value:.6g} {unit} n={n}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _measure(workload, seconds, tiny, tracer):
    """Run whole cycles until ``seconds`` of timed calls; return the samples.

    With a tracer, odd cycles are traced and even ones not, ending on a
    traced one; samples come from the untraced cycles, and the overhead is
    the sum of each op's fastest traced time over the sum of its fastest
    untraced time, minus one.
    """
    template, times = None, array("d")
    spent = 0.0
    best: list[dict] = [{}, {}]  # op -> fastest seconds: untraced, traced
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            cycle = workload.run_cycle(index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for s in workload.units(cycle):
            spent += s.seconds
            best[traced][s.op] = min(best[traced].get(s.op, s.seconds), s.seconds)
        if not traced:
            # Every cycle runs the same ops in the same order, so keep the
            # first cycle's samples and only the seconds of later ones: the
            # harness's own memory then stays flat however many cycles fit.
            template = template or cycle
            times.extend(s.seconds for s in cycle)
        index += 1
        if (tiny or spent >= seconds) and (tracer is None or traced):
            break
    overhead = sum(best[1].values()) / sum(best[0].values()) - 1 if tracer else 0.0
    return template, times, index, overhead


def _expand(template, times):
    n = len(template)
    return [Sample(t.kind, sec, t.units, i // n, t.op)
            for i, (t, sec) in enumerate(zip(itertools.cycle(template), times))]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_all(args) -> int:
    names = list(WORKLOADS)
    results: dict[str, list[dict]] = {n: [] for n in names}
    status = 0
    for r in range(args.repeat):
        for name in (names if r % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if not line.startswith("machine "):
                    print(f"[{name} #{r}] {line}")
            sys.stdout.flush()
            if proc.returncode != 0 or not lines:
                print(f"[{name} #{r}] exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            results[name].append(result)
    print("summary workload metric unit median q1 q3 spread n")
    for name in names:
        for metric in (results[name][0]["metrics"] if results[name] else {}):
            values = [r["metrics"][metric]["value"] for r in results[name]]
            unit = results[name][0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"summary {name} {metric} {unit} {med:.6g} {q1:.6g} {q3:.6g} "
                  f"{spread:.4f} {len(values)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
