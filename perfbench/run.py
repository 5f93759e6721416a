"""symgraph benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  Set-up (importing symgraph afresh, generating
inputs, writing input files, warm-up) runs SETUP_RUNS times and reports
the median.  The measured run then issues ops one after another until
--seconds have passed, finishing the current cycle of ops, and checks
every op against an independent answer.  Latencies and ok_per_s count
time inside the program only: input generation and checks are not
timed.

Every reported time is scaled to a reference machine speed.  A shared
host's speed drifts: on a 2-core VM, the same Python loop ran anywhere
from 33 to 53 ms within one minute, and scan op latency in 2 s bins had
a coefficient of variation of 23%.  A fixed calibration kernel, timed
between ops at least every CALIBRATE_EVERY_S, drifts with it; dividing
by its time left 6%.  A time t is reported as t * KERNEL_REF_S / k, with
k the kernel's latest median time, i.e. as it would read on a machine
where the kernel takes KERNEL_REF_S.  Raw times are printed alongside.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics.  Its "failed" counts the ops that failed for a reason
outside the workload's allowed failures: a wrong answer or an unexpected
error.  The allowed ones (the known numerical errors on analyze) are
printed as failures above it and lower ok_ratio and ok_per_s.  With --trace 1 a fixed number of ops, set by
--seconds, runs with every public function of the package wrapped; the
same ops then run again unwrapped, and the last line carries the
per-layer metrics and trace.overhead_s.  Spans go to
.perfbench-work/<workload>/spans.csv.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 3
KERNEL_REF_S = 0.001
CALIBRATE_EVERY_S = 0.25
MIN_BEYOND = 10


def fresh_import():
    """Import symgraph from ./src with no module cached from an earlier import."""
    for name in [m for m in sys.modules if m == "symgraph" or m.startswith("symgraph.")]:
        del sys.modules[name]
    sg = importlib.import_module("symgraph")
    importlib.import_module("symgraph.cli")
    if Path(sg.__file__).resolve().parent != SRC / "symgraph":
        raise ImportError(f"symgraph imported from {sg.__file__}, not from {SRC}")
    return sg


def calibration_kernel():
    """Fixed work like the program's: small tuples, dicts, big integers, sets, numpy calls."""
    rows = [tuple((i * j) % 5 for j in range(4)) for i in range(200)]
    counts: dict = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    acc = sum(sum(x * y for x, y in zip(row, rows[1])) for row in rows)
    x = 3 ** 400
    for _ in range(50):
        x = x * x % (10 ** 300 + 7)
    codes = {(i * 2654435761) % (1 << 40) for i in range(2000)}
    parts = [np.arange(v, 400, 4, dtype=np.int64) * 4 + v for v in range(4)]
    for _ in range(4):
        merged = np.unique(np.concatenate(parts))
    return len(counts), acc, x, len(codes), int(np.searchsorted(merged, 777))


class Clock:
    """Scale factor from this machine's current speed to the reference speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self.kernel_s: list[float] = []
        self._last = -math.inf

    def calibrate(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            calibration_kernel()
            times.append(perf_counter() - t0)
        self.kernel_s.append(statistics.median(times))
        self.factor = KERNEL_REF_S / self.kernel_s[-1]
        self._last = perf_counter()
        return self.factor

    def tick(self) -> float:
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()
        return self.factor


class Tally:
    """Outcome of a sequence of ops; latencies scaled to the reference speed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.ok = 0
        self.reasons: Counter[str] = Counter()
        self.first_traceback = ""
        self.wall_s = 0.0

    @property
    def failed(self) -> int:
        return len(self.latencies) - self.ok

    def unexpected(self, allowed: frozenset[str]) -> int:
        """Failed ops whose reason is not among the workload's allowed failures."""
        return sum(n for r, n in self.reasons.items() if r not in allowed)


def run_ops(workload, keep_going, clock: Clock, tracer=None) -> Tally:
    """Issue ops 0, 1, ... while keep_going(i, elapsed) holds at each cycle boundary."""
    tally = Tally()
    start = perf_counter()
    i = 0
    while i % workload.cycle or keep_going(i, perf_counter() - start):
        x = workload.make(i)
        factor = clock.tick()
        if tracer:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = workload.op(x)
        except Exception as exc:
            dt = perf_counter() - t0
            reason = f"raised:{type(exc).__name__}"
            if not tally.first_traceback:
                tally.first_traceback = traceback.format_exc()
        else:
            dt = perf_counter() - t0
            reason = workload.check(x, out)
        tally.raw_latencies.append(dt)
        tally.latencies.append(dt * factor)
        if reason is None:
            tally.ok += 1
        else:
            tally.reasons[reason] += 1
        i += 1
    tally.wall_s = perf_counter() - start
    return tally


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(value at the pct-th percentile by nearest rank, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={np.__version__}")


def report_tally(label: str, tally: Tally) -> None:
    n = len(tally.latencies)
    print(f"{label}: ops={n} ok={tally.ok} failed={tally.failed} "
          f"fail_ratio={tally.failed / n:.4f} wall_s={tally.wall_s:.3f} "
          f"op_time_s={sum(tally.latencies):.3f} raw_op_time_s={sum(tally.raw_latencies):.3f}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  failure {reason}: {count}")
    if tally.first_traceback:
        print("  first exception:\n" + tally.first_traceback, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symgraph" / "__init__.py").is_file():
        print(f"perfbench: no symgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(machine())
    workload = WORKLOADS[args.workload]()
    clock = Clock()
    setup_times = []
    for _ in range(SETUP_RUNS):
        before = clock.calibrate()
        t0 = perf_counter()
        sg = fresh_import()
        workload.setup(sg, args.seed, workdir)
        raw = perf_counter() - t0
        setup_times.append(raw * (before + clock.calibrate()) / 2)
        print(f"setup: raw_s={raw:.4f} scaled_s={setup_times[-1]:.4f}")
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, tallies = traced_run(sg, workload, args.seconds, workdir, clock)
    else:
        tally = run_ops(workload, lambda i, elapsed: elapsed < args.seconds, clock)
        tallies = [tally]
        report_tally("run", tally)
        metrics = end_to_end(workload, tally, setup_times)
    kernel = clock.kernel_s
    print(f"calibration: {len(kernel)} samples, kernel median {statistics.median(kernel) * 1e3:.4f} ms, "
          f"min {min(kernel) * 1e3:.4f} ms, max {max(kernel) * 1e3:.4f} ms, reference "
          f"{KERNEL_REF_S * 1e3:g} ms")

    result = {
        "correct": correct(workload, tallies),
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(t.unexpected(workload.allowed_failures) for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def correct(workload, tallies: list[Tally]) -> bool:
    """No op failed for a reason outside the workload's allowed failures."""
    unexpected = sum(t.unexpected(workload.allowed_failures) for t in tallies)
    if unexpected:
        print(f"incorrect: {unexpected} ops failed for reasons outside "
              f"{sorted(workload.allowed_failures)}")
    return unexpected == 0


def end_to_end(workload, tally: Tally, setup_times: list[float]) -> dict:
    lat = tally.latencies
    pct = workload.tail_pct
    tail_value, beyond = tail(lat, pct)
    raw = tally.raw_latencies
    print(f"op_tail_ms is p{pct:g} of {len(lat)} op latencies, {beyond} samples beyond it"
          + ("" if beyond >= MIN_BEYOND else f" (WARNING: fewer than {MIN_BEYOND})"))
    print(f"fail_ratio: {tally.failed / len(lat)!r} failed/attempted")
    print(f"raw: ok_per_s={tally.ok / sum(raw):.4f} op_p50_ms={statistics.median(raw) * 1e3:.4f} "
          f"op_tail_ms={tail(raw, pct)[0] * 1e3:.4f}")
    return {
        "ok_per_s": (tally.ok / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "ok_ratio": (tally.ok / len(lat), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(sg, workload, seconds: float, workdir: Path, clock: Clock):
    cycles = max(1, round(seconds * workload.trace_cycles_per_s / 2))
    n_ops = cycles * workload.cycle
    workload.bytes_written = 0
    tracer = Tracer(sg)
    first_kernel = len(clock.kernel_s) - 1  # the calibration in force when tracing starts
    tracer.install()
    try:
        traced = run_ops(workload, lambda i, elapsed: i < n_ops, clock, tracer)
    finally:
        tracer.uninstall()
    factor = KERNEL_REF_S / statistics.median(clock.kernel_s[first_kernel:])
    bytes_written = workload.bytes_written
    untraced = run_ops(workload, lambda i, elapsed: i < n_ops, clock)
    report_tally("traced", traced)
    report_tally("untraced", untraced)
    tracer.write_spans(workdir / "spans.csv")
    print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} beyond the limit, "
          f"{len(tracer.calls)} traced names called")
    scale = {"s": factor, "1/s": 1 / factor}
    metrics = {name: (read(tracer) * scale.get(unit, 1), unit) for name, unit, read in PER_LAYER}
    metrics["cli.bytes_written"] = (bytes_written, "bytes")
    metrics["trace.overhead_s"] = (sum(traced.latencies) - sum(untraced.latencies), "s")
    return metrics, [traced, untraced]


if __name__ == "__main__":
    try:
        code = main()
    except ImportError as exc:
        print(f"perfbench: cannot import symgraph: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
