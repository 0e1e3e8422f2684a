"""Run every workload with tracing off and on, print every metric by name and
unit, and record the results as the baseline in perfbench/baseline.json.

Usage (from the repository root):  python3 perfbench/baseline.py [--seed N]

Each run is the same command the benchmark contract names, in its own
process; --seconds defaults to run_seconds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=True)
    lines = done.stdout.splitlines()
    report = json.loads(lines[-2].removeprefix("report: "))
    return report, json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        timed_report, timed = run(name, args.seed, args.seconds, 0)
        traced_report, traced = run(name, args.seed, args.seconds, 1)
        ok &= timed["correct"] and traced["correct"]
        baseline["env"] = timed_report["env"]
        baseline["workloads"][name] = {
            "why": w["why"],
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"], "failed": timed["failed"],
            "error_rate": timed_report["error_rate"],
            "digest": timed_report["digests"],
            "passes": timed_report["passes"],
            "tail": timed_report["tail"],
            "raw_setup_s": timed_report["raw_setup_s"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
            "frontend_layers_ms": traced_report["frontend_layers"],
        }
        print(f"{name}: correct={timed['correct'] and traced['correct']} "
              f"error_rate={timed_report['error_rate']:.3g} "
              f"passes={timed_report['passes']} "
              f"digest={timed_report['digests'][0][:16]}")
        for metric, v in {**timed["metrics"], **traced["metrics"]}.items():
            print(f"  {metric:26s} {v['value']:14.6g} {v['unit']}")
        for metric, value in traced_report["frontend_layers"].items():
            print(f"  {metric:26s} {value:14.6g} ms")
    out = HERE / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
