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
import math
import os
import sys
import time

from .profiles import BUILTIN_PROFILES
from .scenario import ConfigError, _number, load_scenario
from .session import run_session


def _write_atomic(path: str, text: str) -> None:
    """text into path, whose directory exists, through a rename."""
    d = os.path.dirname(path) or "."
    # open() gives the file the umask's mode, where mkstemp's would be 0600
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
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
    os.makedirs(out, exist_ok=True)
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


def _parse_grid(raw: str, flag: str, top: float = math.inf) -> list[float]:
    """flag's comma-separated values: finite numbers > 0 and <= top."""
    vals = [_number(v, flag) for v in raw.split(",") if v.strip()]
    if not vals:
        raise ConfigError(flag, "grid must not be empty")
    for v in vals:
        if not (0 < v <= top and math.isfinite(v)):
            limit = f" and <= {top:g}" if top < math.inf else ""
            raise ConfigError(flag, f"{v:g} is out of range, want a finite "
                              f"number > 0{limit}")
    return vals


def cmd_sweep_abandon(args) -> int:
    from . import analysis, svgplot
    sc = load_scenario(args.scenario)
    grid = _parse_grid(args.grid, "--grid", top=1.0)
    results = analysis.abandonment_sweep(sc, grid)
    os.makedirs(args.out, exist_ok=True)
    series = {}
    for name, sweep in results.items():
        path = os.path.join(args.out, f"abandon_{name}.csv")
        _write_atomic(path, "\n".join(sweep.to_csv_lines()) + "\n")
        series[name] = [(p.x, p.avg_current_ma) for p in sweep.points]
    svg = svgplot.line_plot_svg(series, "Average current vs watched fraction",
                                "watched fraction", "avg current (mA)")
    _write_atomic(os.path.join(args.out, "abandon_plot.svg"), svg)
    print(f"wrote abandonment sweep for {len(results)} techniques to {args.out}")
    return 0


def cmd_sweep_buffer(args) -> int:
    from . import analysis, svgplot
    sc = load_scenario(args.scenario)
    grid = _parse_grid(args.grid, "--grid")
    ratios = (_parse_grid(args.ratios, "--ratios") if args.ratios
              else [2.0, 4.0, 8.0])
    rate = sc.stream.encoding_rate_bps
    for ratio in ratios:
        if not math.isfinite(ratio * rate):
            raise ConfigError("--ratios", f"{ratio:g} times the encoding rate "
                              f"({rate:g} bps) is past the largest float")
    results = analysis.buffer_size_sweep(sc, grid, ratios)
    os.makedirs(args.out, exist_ok=True)
    series = {}
    for ratio, sweep in results.items():
        path = os.path.join(args.out, f"buffer_c{ratio:g}x.csv")
        _write_atomic(path, "\n".join(sweep.to_csv_lines()) + "\n")
        series[f"C={ratio:g}x"] = [(p.x, p.relative_power)
                                   for p in sweep.points]
        for note in sweep.notes:
            print(f"note (C={ratio:g}x): {note}", file=sys.stderr)
    svg = svgplot.line_plot_svg(series, "Relative power vs dynamic buffer",
                                "dynamic buffer (s)", "relative power")
    _write_atomic(os.path.join(args.out, "buffer_plot.svg"), svg)
    print(f"wrote buffer-size sweep for {len(results)} ratios to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from . import traces
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


# command -> (help, handler, ((flag, add_argument keywords), ...))
_SWEEP = (("--scenario", {"required": True}), ("--out", {"default": "out"}))
_COMMANDS = {
    "simulate": ("run one scenario", cmd_simulate, (
        ("--scenario", {"required": True, "help": "scenario file path"}),
        ("--out", {"default": "out", "help": "output directory"}),
        ("--stats", {"action": "store_true", "help": "also write run_stats"
                     ".json: per-layer compute times and counts"}))),
    "sweep-abandon": ("abandonment-penalty sweep", cmd_sweep_abandon, _SWEEP + (
        ("--grid", {"default": "0.2,0.4,0.6,0.8,1.0",
                    "help": "watched fractions, comma separated"}),)),
    "sweep-buffer": ("buffer-size/power sweep", cmd_sweep_buffer, _SWEEP + (
        ("--grid", {"default": "10,20,30,40,50,100,150,200",
                    "help": "dynamic buffer sizes in seconds"}),
        ("--ratios", {"default": "", "help": "bandwidth/encoding-rate "
                      "ratios (default 2,4,8)"}))),
    "analyze": ("classify a flow-record CSV", cmd_analyze, (
        ("trace", {"help": "CSV with t_s,bytes,connection_id,direction,flags"}),
        ("--rate", {"type": float, "default": None,
                    "help": "encoding rate in bps, enables factor estimation"}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}))),
    "profiles": ("list built-in power profiles", cmd_profiles, (
        ("--format", {"choices": ("text", "json"), "default": "text"}),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command alone if it names one."""
    ap = argparse.ArgumentParser(prog="streamsim", description="Mobile video "
                                 "streaming QoE and energy simulator")
    names = (command,) if command in _COMMANDS else tuple(_COMMANDS)
    # one command's usage line still lists all five; the full parser keeps
    # no metavar, so its errors name the action "command"
    sub = ap.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
        cmd.set_defaults(func=handler)
    return ap


# command, or None for the full parser -> the parser main reuses for it
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse spends far longer building a parser than parsing with it, so
    # in-process callers build each once; parse_args leaves it unchanged
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    ap = _PARSERS.get(command)
    if ap is None:
        ap = _PARSERS[command] = build_parser(command)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
