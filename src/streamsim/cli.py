"""Command-line entry point.

Subcommands:
  simulate       run one scenario, write summary and per-layer CSVs
                 (--stats: also a run report, run_stats.json)
  sweep-abandon  abandonment-penalty curves (per technique)
  sweep-buffer   buffer-size/power curves (per bandwidth ratio)
  analyze        classify a flow-record CSV, JSON on stdout
  profiles       list built-in power profiles

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from . import analysis, traces
from .profiles import BUILTIN_PROFILES
from .scenario import ConfigError, load_scenario
from .session import run_session
from .svgplot import line_plot_svg


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    res = run_session(sc)
    out = args.out
    write_t0 = time.perf_counter()
    _write_atomic(os.path.join(out, "session_summary.json"),
                  res.summary.to_json() + "\n")
    _write_atomic(os.path.join(out, "buffer.csv"),
                  "\n".join(res.buffer.to_csv_lines()) + "\n")
    rt_lines = ["t_start_s,t_end_s,state,current_mA"]
    for t0, t1, state, ma in res.radio.to_csv_rows():
        rt_lines.append(f"{t0:.6f},{t1:.6f},{state},{ma:.3f}")
    _write_atomic(os.path.join(out, "radio_timeline.csv"),
                  "\n".join(rt_lines) + "\n")
    _write_atomic(os.path.join(out, "delivery_log.csv"),
                  "\n".join(res.dlog.to_csv_lines()) + "\n")
    if args.stats:
        # timings vary run to run, so they go here and never into the four
        # deterministic artifacts
        stats = res.stats
        stats["compute_ms"]["write_artifacts"] = (time.perf_counter()
                                                  - write_t0) * 1e3
        _write_atomic(os.path.join(out, "run_stats.json"),
                      json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"wrote session artifacts to {out}")
    return 0


def _parse_grid(raw: str) -> list[float]:
    try:
        vals = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--grid", f"not a number list: {raw!r}") from None
    if not vals:
        raise ConfigError("--grid", "grid must not be empty")
    return vals


def cmd_sweep_abandon(args) -> int:
    sc = load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    results = analysis.abandonment_sweep(sc, grid)
    series = {}
    for name, sweep in results.items():
        path = os.path.join(args.out, f"abandon_{name}.csv")
        _write_atomic(path, "\n".join(sweep.to_csv_lines()) + "\n")
        series[name] = [(p.x, p.avg_current_ma) for p in sweep.points]
    _write_atomic(os.path.join(args.out, "abandon_plot.svg"),
                  line_plot_svg(series, "Average current vs watched fraction",
                                "watched fraction", "avg current (mA)"))
    print(f"wrote abandonment sweep for {len(results)} techniques to {args.out}")
    return 0


def cmd_sweep_buffer(args) -> int:
    sc = load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    ratios = _parse_grid(args.ratios) if args.ratios else [2.0, 4.0, 8.0]
    results = analysis.buffer_size_sweep(sc, grid, ratios)
    series = {}
    for ratio, sweep in results.items():
        path = os.path.join(args.out, f"buffer_c{ratio:g}x.csv")
        _write_atomic(path, "\n".join(sweep.to_csv_lines()) + "\n")
        series[f"C={ratio:g}x"] = [(p.x, p.relative_power)
                                   for p in sweep.points]
        for note in sweep.notes:
            print(f"note (C={ratio:g}x): {note}", file=sys.stderr)
    _write_atomic(os.path.join(args.out, "buffer_plot.svg"),
                  line_plot_svg(series, "Relative power vs dynamic buffer",
                                "dynamic buffer (s)", "relative power"))
    print(f"wrote buffer-size sweep for {len(results)} ratios to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    records = traces.ingest(args.trace)
    cls = traces.classify(records, encoding_rate_bps=args.rate)
    if args.format == "json":
        print(cls.to_json())
    else:
        print("technique,confidence")
        print(f"{cls.technique},{cls.confidence:.3f}")
    return 0


def cmd_profiles(args) -> int:
    if args.format == "json":
        print(json.dumps({name: vars(p) for name, p in
                          sorted(BUILTIN_PROFILES.items())}, indent=2))
        return 0
    for name, p in sorted(BUILTIN_PROFILES.items()):
        print(f"{name}: wifi {p.wifi_active:g} mA, hspa dch {p.hspa_dch:g} mA, "
              f"lte rx {p.lte_rx:g} mA, playback {p.playback_ma:g} mA")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="streamsim",
        description="Mobile video streaming QoE and energy simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--scenario", required=True, help="scenario file path")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--stats", action="store_true",
                     help="also write run_stats.json: per-layer compute "
                          "times and counts")
    sim.set_defaults(func=cmd_simulate)

    swa = sub.add_parser("sweep-abandon", help="abandonment-penalty sweep")
    swa.add_argument("--scenario", required=True)
    swa.add_argument("--out", default="out")
    swa.add_argument("--grid", default="0.2,0.4,0.6,0.8,1.0",
                     help="watched fractions, comma separated")
    swa.set_defaults(func=cmd_sweep_abandon)

    swb = sub.add_parser("sweep-buffer", help="buffer-size/power sweep")
    swb.add_argument("--scenario", required=True)
    swb.add_argument("--out", default="out")
    swb.add_argument("--grid", default="10,20,30,40,50,100,150,200",
                     help="dynamic buffer sizes in seconds")
    swb.add_argument("--ratios", default="",
                     help="bandwidth/encoding-rate ratios (default 2,4,8)")
    swb.set_defaults(func=cmd_sweep_buffer)

    an = sub.add_parser("analyze", help="classify a flow-record CSV")
    an.add_argument("trace", help="CSV with t_s,bytes,connection_id,direction,flags")
    an.add_argument("--rate", type=float, default=None,
                    help="encoding rate in bps, enables factor estimation")
    an.add_argument("--format", choices=("json", "csv"), default="json")
    an.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("profiles", help="list built-in power profiles")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=cmd_profiles)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
