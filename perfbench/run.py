"""streamsim benchmark: time one workload end to end, or trace it per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 30 --trace 0

--trace 0 times passes with tracing off and reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics.  --short runs 60 s streams and a single pass (for the self-test).
All times are host time (what the simulator costs), not simulated time,
rescaled to a reference host speed (see reference.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it starts with
"report: " and holds the details as JSON; the lines above are for people.
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
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"   # scratch space and span dumps, inside the checkout

SETUP_REPEATS = 11              # fresh interpreters per run; the median is reported

sys.path.insert(0, str(SRC))
from checks import Checker  # noqa: E402  (these import streamsim from SRC)
from reference import SpeedSampler  # noqa: E402
from tracing import (COUNT_METRICS, FRONTEND_TIME_METRICS,  # noqa: E402
                     ROOT as ROOT_SPAN, SELF_TIME_METRICS, STREAMS_METRIC,
                     Tracer, instrumented)
from workloads import SHORT_SCALE, WORKLOADS  # noqa: E402


class Pass(NamedTuple):
    wall_s: float               # pass time minus the benchmark's own work
    speed: float                # rescaling factor for this pass (reference.py)
    self_s: dict                # span name -> self seconds
    streams_s: float
    counts: dict
    digest: str
    sim_s: float                # simulated session seconds in the pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long to keep running timed passes (0: one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="60 s streams, one set-up probe, no warm-up pass")
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def env_info() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def measure_setup(workload: str, inputs: dict, work_dir: str,
                  repeats: int) -> tuple[float, float]:
    """Median (rescaled, raw) seconds to import streamsim and parse the
    inputs, each time in a fresh interpreter.  One extra unmeasured probe
    fills the bytecode cache.
    """
    spec_path = os.path.join(work_dir, "setup.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "src": str(SRC), "inputs": inputs}, fh)
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), spec_path]
    raw, rescaled = [], []
    for _ in range(repeats + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        setup_s, speed = map(float, done.stdout.split()[-2:])
        raw.append(setup_s)
        rescaled.append(setup_s * speed)
    return statistics.median(rescaled[1:]), statistics.median(raw[1:])


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    passes above it, or None when that percentile would not exceed the median.
    """
    n = len(values)
    k = n - 11
    if k < n // 2:
        return None
    return 100 * (k + 1) // n, sorted(values)[k]


def run_pass(pass_fn, inputs, checker, tracer, sampler) -> Pass:
    gc.collect()
    tracer.reset()
    checker.begin_pass()
    sampler.reset()
    sampler.sample()   # at least one speed sample, however short the pass
    with tracer.span(ROOT_SPAN):
        pass_fn(inputs, checker)
    wall, selfs, streams_s = tracer.self_times()
    return Pass(wall, sampler.speed(), selfs, streams_s,
                dict(tracer.counts), checker.digest.hexdigest(), checker.sim_s)


def median_s(passes: list[Pass], seconds) -> float:
    """Median over passes of seconds(pass), rescaled to the reference speed."""
    return statistics.median(seconds(p) * p.speed for p in passes)


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    wall = median_s(passes, lambda p: p.wall_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": (wall, "s"),
            "sim_x": (passes[0].sim_s / wall, "sim-s/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (setup_s, "s")}


def layer_ms(traced: list[Pass], names: dict) -> dict:
    return {metric: (median_s(traced, lambda p: p.self_s.get(span, 0.0)) * 1e3,
                     "ms") for span, metric in names.items()}


def per_layer_metrics(untraced: list[Pass], traced: list[Pass]) -> dict:
    out = layer_ms(traced, SELF_TIME_METRICS)
    out[STREAMS_METRIC] = (median_s(traced, lambda p: p.streams_s) * 1e3, "ms")
    for metric, unit in COUNT_METRICS.items():
        out[metric] = (traced[0].counts.get(metric, 0), unit)
    traced_wall = median_s(traced, lambda p: p.wall_s)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (
        traced_wall - median_s(untraced, lambda p: p.wall_s), "s")
    return out


def timed_passes(args, pass_fn, inputs, sink):
    """Warm up, then run whole rounds (an untraced pass, plus a traced one
    with --trace 1) while another round still fits in --seconds."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    span_dumps = []
    with SpeedSampler() as sampler:
        tracer = Tracer(clock=sampler.now)
        checker = Checker(tracer, sink)
        with checker.checking():
            if not args.short:
                run_pass(pass_fn, inputs, checker, tracer, sampler)
            start = time.perf_counter()
            rounds = []
            while True:
                t0 = time.perf_counter()
                untraced.append(
                    run_pass(pass_fn, inputs, checker, tracer, sampler))
                if args.trace:
                    with instrumented(tracer):
                        traced.append(
                            run_pass(pass_fn, inputs, checker, tracer, sampler))
                    span_dumps.append(tracer.dump())
                now = time.perf_counter()
                rounds.append(now - t0)
                if (args.short or now - start + statistics.median(rounds)
                        > args.seconds):
                    break
    return untraced, traced, span_dumps, checker, now - start


def measure(args, work_dir: str) -> int:
    prepare, pass_fn = WORKLOADS[args.workload]
    inputs = prepare(str(SRC), work_dir, args.seed,
                     SHORT_SCALE if args.short else 1.0)
    setup_s = raw_setup_s = None
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(
            args.workload, inputs, work_dir, 1 if args.short else SETUP_REPEATS)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        untraced, traced, span_dumps, checker, elapsed = timed_passes(
            args, pass_fn, inputs, sink)

    digests = sorted({p.digest for p in untraced + traced})
    counts_repeat = all(p.counts == traced[0].counts for p in traced)
    correct = checker.failed == 0 and len(digests) == 1 and counts_repeat
    frontend = {}
    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        frontend = layer_ms(traced, FRONTEND_TIME_METRICS)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "streams_s"], "passes": span_dumps}, fh)
    else:
        metrics = end_to_end_metrics(untraced, setup_s)

    walls = [p.wall_s * p.speed for p in untraced]
    raw_walls = [p.wall_s for p in untraced]
    tail_pct = tail(walls)
    error_rate = checker.failed / max(checker.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "short": args.short, "elapsed_s": elapsed, "passes": len(untraced),
        "traced_passes": len(traced), "pass_wall_s": walls,
        "raw_pass_wall_s": raw_walls, "speed": [p.speed for p in untraced],
        "raw_setup_s": raw_setup_s,
        "tail": None if tail_pct is None else {"percentile": tail_pct[0],
                                               "wall_s": tail_pct[1]},
        "error_rate": error_rate, "errors": checker.errors,
        "digests": digests, "counts_repeat": counts_repeat,
        "frontend_layers": {k: v for k, (v, _) in frontend.items()},
        "env": env_info(),
    }

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes in {elapsed:.1f} s; "
          f"{checker.attempted} sessions attempted, {checker.failed} failed "
          f"(error_rate {error_rate:.3g})")
    for err in checker.errors:
        print(f"  error: {err}")
    print(f"digest: {' '.join(digests)}")
    print(f"wall_s: median {statistics.median(walls):.4f} s over "
          f"{len(walls)} passes; " + (
              f"p{tail_pct[0]} {tail_pct[1]:.4f} s (10 passes slower)"
              if tail_pct else "too few passes for a tail above the median")
          + f"; raw median {statistics.median(raw_walls):.4f} s, median "
          f"rescaling {statistics.median(p.speed for p in untraced):.3f}")
    if args.trace:
        layers = {**metrics, **frontend}
        total = sum(v for v, unit in layers.values() if unit == "ms")
        print(f"trace: layer self times sum to {total:.1f} ms of a "
              f"{metrics['trace.wall_s'][0] * 1e3:.1f} ms traced pass; "
              f"tracing overhead {metrics['trace.overhead_s'][0] * 1e3:.1f} ms")
    for name, (value, unit) in {**metrics, **frontend}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "streamsim" / "__init__.py").is_file():
        print(f"perfbench: no streamsim sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
