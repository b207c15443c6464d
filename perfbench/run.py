"""fmlab benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fmlab is imported from ``src/``.
One caller starts each operation when the previous one ends, and only
the operation itself is timed (host time, ``time.perf_counter``).  Every
reported host time is scaled to the host's nominal speed by a reference
loop sampled while the timed region runs (see ``hostspeed.py``); raw host
times of the end-to-end metrics are printed beside them.
Inputs come from ``--seed``.  Output checks, golden export hashes and
the kernel-vs-reference comparison run outside every timed region.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced operations with operations whose
calls into fmlab are recorded as spans (see ``tracing.py``), prints the
per-layer metrics, the trace coverage and the tracing overhead, and
writes the spans to ``.perfbench/``.  The last stdout line is always the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def _percentile_tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no such percentile exists; the maximum
    (rank 100) is reported instead.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    from fmlab import netcore

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": netcore.HAVE_NUMBA,
    }


class Phase:
    """Samples, failures and work counts of one closed-loop measurement."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[float] = []  # scaled to nominal host speed
        self.raw: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.work: dict[str, float] = {}
        # per completed op: scaled host seconds per wall second, for its spans
        self.span_scale: dict[str, float] = {}

    def step(self, wl, tracer=None) -> None:
        """Run and check one operation; only ``wl.op`` is timed."""
        inp = wl.input()
        op_id = f"op{self.attempted}"
        self.attempted += 1
        run = (lambda: tracer.run_op(op_id, lambda: wl.op(inp))) if tracer else (lambda: wl.op(inp))
        try:
            out, wall, raw, scaled = self.clock.time(run)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.raw.append(raw)
        self.samples.append(scaled)
        self.span_scale[op_id] = scaled / wall
        ok, work = wl.check(inp, out)
        if not ok:
            self.failed += 1
            print(f"operation {op_id}: output check failed for input {inp!r}", file=sys.stderr)
        for key, value in work.items():
            self.work[key] = self.work.get(key, 0) + value


def closed_loop(wl, seconds: float, untraced: Phase, traced: Phase | None = None, tracer=None):
    """One caller: each operation starts when the previous one ends.

    With a tracer, untraced and traced operations alternate, so both
    phases see the same host conditions and their medians give the
    tracing overhead.
    """
    gc.collect()
    start = time.perf_counter()
    while not untraced.attempted or time.perf_counter() - start < seconds:
        untraced.step(wl)
        if traced is not None:
            tracing.install(tracer)
            try:
                traced.step(wl, tracer)
            finally:
                tracer.unpatch()


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, list[str]]:
    tail, rank = _percentile_tail(phase.samples)
    values = {
        "op_p50_s": statistics.median(phase.samples),
        "op_tail_s": tail,
        "net_cycles_per_s": phase.work.get("net_cycles", 0) / sum(phase.samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_tail, _ = _percentile_tail(phase.raw)
    notes = [
        f"op_tail_s is p{rank:.1f} of {len(phase.samples)} samples",
        f"raw host time: op_p50_s {statistics.median(phase.raw):.6g} s, op_tail_s {raw_tail:.6g} s, "
        f"net_cycles_per_s {phase.work.get('net_cycles', 0) / sum(phase.raw):.6g} 1/s; "
        f"host speed factor median {statistics.median(phase.clock.factors):.4f}",
    ]
    return values, notes


def per_layer(phase: Phase, tracer, names: list[str]) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.op_counts()
    ops = phase.span_scale
    n = max(len(ops), 1)

    def layer(name: str, i: int) -> float:
        """Summed self seconds (scaled to nominal host speed) or calls."""
        return sum(
            totals.get(op, {}).get(name, (0.0, 0))[i] * (f if i == 0 else 1) for op, f in ops.items()
        )

    def counter(key: str) -> float:
        return sum(counts.get(op, {}).get(key, 0.0) for op in ops)

    values = {}
    for metric in names:
        if metric == "unaccounted_s":
            values[metric] = layer("op", 0) / n
        elif metric == "netcore.simulate.ns_per_net_cycle":
            cells = counter("netcore.simulate.net_cycles")
            values[metric] = layer("netcore.simulate", 0) / cells * 1e9 if cells else 0.0
        elif metric == "netcore.simulate.read_ratio":
            recorded = phase.work.get("recorded", 0)
            values[metric] = phase.work.get("consumed", 0) / recorded if recorded else 0.0
        elif metric.endswith(".self_s"):
            values[metric] = layer(metric[: -len(".self_s")], 0) / n
        elif metric.endswith(".calls"):
            values[metric] = layer(metric[: -len(".calls")], 1) / n
        else:
            values[metric] = counter(metric) / n
    return values


def coverage_report(
    tracer, phase: Phase, untraced: Phase, workload: str, setup_scale: float
) -> list[str]:
    totals = tracer.layer_totals()
    walls = tracer.op_walls()
    ops = [op for op in phase.span_scale if op in walls]
    wall = sum(walls[op] for op in ops)
    unaccounted = sum(totals[op]["op"][0] for op in ops)
    layers = sum(v[0] for op in ops for k, v in totals[op].items() if k != "op")
    overhead = statistics.median(phase.samples) / statistics.median(untraced.samples) - 1.0
    lines = [
        f"trace coverage [{workload}]: {len(ops)} traced operations, wall {wall / len(ops):.6f} s/op, "
        f"layer self {layers / len(ops):.6f} s/op + unaccounted {unaccounted / len(ops):.6f} s/op "
        f"= {(layers + unaccounted) / wall:.4%} of wall; layers cover {layers / wall:.2%}",
        f"tracing overhead [{workload}]: op_p50_s traced {statistics.median(phase.samples):.6f} s "
        f"vs untraced {statistics.median(untraced.samples):.6f} s ({overhead:+.2%})",
    ]
    setup = totals.get("setup", {})
    if setup:
        parts = ", ".join(
            f"{k} {v[0] * setup_scale:.6f}" for k, v in sorted(setup.items(), key=lambda kv: -kv[1][0])
        )
        lines.append(f"traced set-up [{workload}] self s: {parts}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fmlab" / "__init__.py").is_file():
        print(f"error: no fmlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    # one thread: the benchmark times a single caller
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports numpy and fmlab
    import fmlab

    import_s = time.perf_counter() - t0
    from hostspeed import HostClock

    clock = HostClock()
    import_scaled = clock.scale_now(import_s)
    if not Path(fmlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: fmlab imported from {fmlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        problems: list[str] = []
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setup_times.append(clock.time(wl.setup)[3])
            problems += wl.after_setup()
        problems += wl.verify()
        setup_s = import_scaled + statistics.median(setup_times)

        untraced = Phase(clock)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                _, wall, _, scaled = clock.time(lambda: tracer.run_op("setup", wl.setup))
            finally:
                tracer.unpatch()
            traced = Phase(clock)
            closed_loop(wl, args.seconds, untraced, traced, tracer)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
            values = per_layer(traced, tracer, list(units))
            notes = coverage_report(tracer, traced, untraced, args.workload, scaled / wall)
            failed = untraced.failed + traced.failed
            attempted = untraced.attempted + traced.attempted
        else:
            closed_loop(wl, args.seconds, untraced)
            values, notes = end_to_end(untraced, setup_s)
            failed = untraced.failed
            attempted = untraced.attempted
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(
        f"workload {args.workload} seed {args.seed}: {attempted} operations attempted, "
        f"{failed} failed; set-up {SETUP_REPEATS}x median {statistics.median(setup_times):.4f} s "
        f"+ import {import_scaled:.4f} s (scaled; raw import {import_s:.4f} s)"
    )
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("correctness: " + ("ok" if not problems else f"{len(problems)} check(s) failed")
          + f"; {failed}/{attempted} operations failed")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
