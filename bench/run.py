"""chainbench benchmark: verified operations on seeded workloads.

    python3 bench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up imports chainbench and generates the workload's inputs from the
seed (the cli workload also writes them as JSON files).  The timed loop
is closed and single-threaded: one operation at a time, each a library
call or one CLI child process, each checked as it completes.  Whole
cycles over the workload's operations repeat until --seconds have
passed and at least MIN_OPS operations ran.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics.  Their times are measured against a reference
computation timed after every operation (see probe()), which cancels
the drift of a shared host's speed: latencies in units of one probe
("ref"), set-up in seconds on a host where one probe takes
PROBE_NOMINAL_S.  The wall-clock figures are printed above that line.  With --trace 1 the run
makes one untraced and one traced cycle over the same operations and
reports per-layer metrics, the tracing overhead and per-rank latency
rows instead; the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import workloads  # noqa: E402  (lives next to this file)

MIN_OPS = 100
SETUP_REPEATS = 3
SETUP_PROBES = 25
IMPORT_PROBES = 5


def forget_chainbench() -> None:
    for name in [n for n in sys.modules if n == "chainbench" or n.startswith("chainbench.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: str):
    """Import chainbench and build the inputs SETUP_REPEATS times from a clean import.

    Like an operation, each set-up is measured against the probe (see
    probe()): it is divided by the median of SETUP_PROBES probe times
    taken just before and just after it, and reported in seconds on a
    host where one probe takes PROBE_NOMINAL_S.  Returns the operations
    of the last build, the median set-up time so measured, the median
    wall set-up time and the median wall generation time (set-up
    without the import).
    """
    scaled, totals, gens = [], [], []
    ops = None
    for _ in range(SETUP_REPEATS):
        forget_chainbench()
        probes = [timed(probe) for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        importlib.import_module("chainbench.cli")
        t1 = time.perf_counter()
        ops = workloads.build(workload, seed, workdir)
        t2 = time.perf_counter()
        probes += [timed(probe) for _ in range(SETUP_PROBES)]
        scaled.append((t2 - t0) / statistics.median(probes) * PROBE_NOMINAL_S)
        totals.append(t2 - t0)
        gens.append(t2 - t1)
    return ops, statistics.median(scaled), statistics.median(totals), statistics.median(gens)


def run_op(op, call=None, tracer=None) -> tuple:
    """(latency in seconds, passed) for one operation and its check.

    A tracer, if given, is paused while the result is checked.
    """
    t = time.perf_counter()
    try:
        result = (call or op.call)()
        with tracer.pause() if tracer is not None else contextlib.nullcontext():
            ok = op.verify(result)
    except Exception:  # a raising operation is a failed one; the loop goes on
        traceback.print_exc(file=sys.stderr)
        ok = False
    return time.perf_counter() - t, ok


# On a virtual machine shared with other tenants (measured on a 2-vCPU
# x86_64 VM), the speed of fixed work drifts by up to a third within tens
# of seconds, in phases longer than a run, so wall latencies of runs made
# a few minutes apart differ by more than a change worth detecting.  The
# end-to-end times are therefore measured against a reference: a fixed
# pure-Python computation, independent of chainbench, timed after every
# operation.  Each latency is divided by the median of the probe times
# around it, and is reported in units of one probe ("ref").  The cli
# workload's operations are child processes, whose cost is mostly
# interpreter start-up, so its probe is a bare interpreter start.
PROBE_SIZE = 12
PROBE_WINDOW = 4
# About the median probe time on the 2-vCPU VM the benchmark was tuned on.
PROBE_NOMINAL_S = 2e-4
_PROBE_RNG = random.Random("probe")
_PROBE_ROWS = [[_PROBE_RNG.randint(-9, 9) for _ in range(PROBE_SIZE)] for _ in range(PROBE_SIZE)]


def probe() -> int:
    """Fraction-free (Bareiss) elimination of a fixed integer matrix.

    The same kind of work as the library's own elimination loops: Python
    integers in lists of lists.  Returns the last pivot.
    """
    a = [row[:] for row in _PROBE_ROWS]
    n, prev = PROBE_SIZE, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            continue
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return a[n - 1][n - 1]


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def interpreter_start() -> None:
    """The probe of the cli workload: a child interpreter that does nothing."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


REFERENCES = {"cli": interpreter_start}  # default: probe


def in_probe_units(lat, probes, window: int = PROBE_WINDOW) -> list:
    """Each latency over the median of the probes within `window` operations of it."""
    return [
        dt / statistics.median(probes[max(0, i - window): i + window + 1])
        for i, dt in enumerate(lat)
    ]


def timed_loop(ops, seconds: float, min_ops: int, reference=probe):
    """Whole cycles until both limits are met.

    Returns latencies, failures, wall time and the times of the
    reference probe, run once after each operation.
    """
    lat, failed, probes = [], 0, []
    start = time.perf_counter()
    while True:
        cycle_lat, cycle_failed, _ = one_cycle(ops, probes=probes, reference=reference)
        lat += cycle_lat
        failed += cycle_failed
        wall = time.perf_counter() - start
        if wall >= seconds and len(lat) >= min_ops:
            return lat, failed, wall, probes


def one_cycle(ops, call_of=None, tracer=None, probes=None, reference=probe):
    """One pass over the operations; returns latencies, failures and wall time.

    Given a list of probes, a timed reference() follows each operation.
    """
    lat, failed = [], 0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        dt, ok = run_op(op, call_of(op) if call_of else None, tracer)
        lat.append(dt)
        failed += not ok
        if probes is not None:
            probes.append(timed(reference))
    return lat, failed, time.perf_counter() - start


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, ops, seconds, setup_s):
    lat, failed, wall, probes = timed_loop(ops, seconds, MIN_OPS, REFERENCES.get(workload, probe))
    ref = in_probe_units(lat, probes)
    p90 = statistics.quantiles(ref, n=10)[8]
    beyond = sum(1 for x in ref if x > p90)
    metrics = {
        "ops_per_kref": ((len(ref) - failed) / sum(ref) * 1e3, "1/kref"),
        "op_p50_ref": (statistics.median(ref), "ref"),
        "op_p90_ref": (p90, "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    notes = [
        f"operations {len(lat)} in {wall:.2f} s ({len(ops)} per cycle)",
        f"op_p90_ref sample count {len(ref)}, {beyond} beyond it",
        f"failed_ratio {failed / len(lat):.6f} ratio",
        f"probe median {statistics.median(probes) * 1e3:.4f} ms,"
        f" quartiles {' '.join(f'{q * 1e3:.4f}' for q in statistics.quantiles(probes, n=4))} ms",
        f"ops_per_s {(len(lat) - failed) / sum(lat):.6g} 1/s (wall time in operations, probes excluded)",
        f"op_p50_ms {statistics.median(lat) * 1e3:.6g} ms (wall)",
        f"op_p90_ms {statistics.quantiles(lat, n=10)[8] * 1e3:.6g} ms (wall), sample count {len(lat)}",
    ]
    return metrics, len(lat), failed, notes


def import_ms() -> float:
    """Median cost of importing chainbench.cli in a fresh interpreter, over a bare one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        for code, sink in (("pass", bare), ("import chainbench.cli", loaded)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append(time.perf_counter() - t)
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


def scaling_rows(ops, lat) -> dict:
    """Median latency per total-rank bucket.

    Every traced run reports every row, as the result line must hold
    every per-layer metric; a bucket the workload does not run reads 0.
    """
    rows = {}
    for rank in workloads.SCALING_RANKS:
        got = [dt for op, dt in zip(ops, lat) if op.bucket == rank]
        rows[f"rank{rank}.op_p50_ms"] = (statistics.median(got) * 1e3 if got else 0.0, "ms")
    return rows


def traced_cycle(ops, call_of=None):
    """An untraced cycle, then a traced one over the same operations.

    The first cycle also fills any lazy state, so both see the same
    program; returns both cycles' (latencies, failures, wall) and the tracer.
    """
    from tracing import Tracer

    untraced = one_cycle(ops, call_of)
    with Tracer() as tracer:
        traced = one_cycle(ops, call_of, tracer)
    return untraced, traced, tracer


def in_process(op):
    """The traced cli pass runs each invocation through cli.main in this process."""
    return lambda: workloads.cli_in_process(op.argv)


def per_layer(workload, seed, ops, gen_s):
    from tracing import LAYERS, NAMED

    notes = []
    extra = {"cli.import_ms": (0.0, "ms"), "cli.process_ms": (0.0, "ms")}
    call_of = None
    child_lat, child_failed = [], 0
    if workload == "cli":
        child_lat, child_failed, child_wall = one_cycle(ops)
        extra["cli.process_ms"] = (statistics.median(child_lat) * 1e3, "ms")
        extra["cli.import_ms"] = (import_ms(), "ms")
        notes.append(f"cli child processes: {len(child_lat)}, failed {child_failed}")
        call_of = in_process

    (lat_u, failed_u, wall_u), (lat_t, failed_t, wall_t), tracer = traced_cycle(ops, call_of)
    metrics = tracer.summary(wall_t)
    metrics.update(extra)
    metrics["fuzz.generate_s"] = (gen_s, "s")
    metrics.update(scaling_rows(ops, lat_u))
    metrics["trace.untraced_ops_per_s"] = (len(ops) / wall_u, "1/s")
    metrics["trace.ops_per_s"] = (len(ops) / wall_t, "1/s")
    metrics["trace.overhead_x"] = (wall_t / wall_u, "ratio")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"trace-{workload}-{seed}.json"))
    named = [f"{layer}.{fn}" for layer, fns in NAMED.items() for fn in fns]
    inclusive = tracer.inclusive()
    for name in sorted(named, key=lambda n: -inclusive[n])[:6]:
        notes.append(f"inclusive {name:<40} {inclusive[name]:9.4f} s  {inclusive[name] / wall_t:7.2%}")
    for layer in (*LAYERS, "unattributed"):
        self_s = metrics[f"{layer}.self_s"][0]
        share = metrics[f"{layer}.share"][0]
        notes.append(f"layer {layer:<13} self {self_s:9.4f} s  share {share:7.2%}")
    notes.append(
        f"tracing overhead {wall_t / wall_u:.2f}x: traced {len(ops) / wall_t:.2f} ops/s"
        f" against untraced {len(ops) / wall_u:.2f} ops/s over the same {len(ops)} operations"
    )
    if workload == "cli":
        notes.append(
            f"cli wall per operation: {child_wall / len(ops) * 1e3:.1f} ms in a child process,"
            f" {wall_u / len(ops) * 1e3:.1f} ms through cli.main in this process"
        )
    attempted = len(child_lat) + len(lat_u) + len(lat_t)
    return metrics, attempted, child_failed + failed_u + failed_t, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainbench" / "__init__.py").is_file():
        sys.exit(f"chainbench sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        ops, setup_s, setup_wall_s, gen_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, notes = per_layer(args.workload, args.seed, ops, gen_s)
        else:
            metrics, attempted, failed, notes = end_to_end(args.workload, ops, args.seconds, setup_s)
            notes.append(f"setup {setup_wall_s:.6g} s (wall)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
