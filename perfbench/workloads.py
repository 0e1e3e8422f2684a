"""The benchmark's workloads: their inputs, made from a seed, and one pass each.

A pass drives streamsim from outside, through its public entry points only:
``cli.main`` in-process, ``session.run_session`` and, through the CLI, the
``analysis`` sweeps.  Every workload runs in one process on one thread; a
pass is a closed loop (each session starts when the previous one returns).
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

from streamsim import scenario
from streamsim.streams import LinkModel, StreamSpec

FULL_DURATION_S = 600.0     # stream length of every bundled scenario
SHORT_SCALE = 0.1           # --short runs 60 s streams instead of 600 s

BASE = "youtube_onoffm_hspa"
BUNDLED = ("youtube_onoffm_hspa", "encoding_rate_lte", "fast_caching_wifi")
# The base scenario re-run with another technique: scenario keys to set,
# None drops the key.
VARIANTS = {
    "hls": {"technique.preset": None, "technique.kind": "hls"},
    "mss": {"technique.preset": None, "technique.kind": "mss"},
    "throttling": {"technique.preset": None, "technique.kind": "throttling"},
    "vimeo_onoffs": {"technique.preset": "vimeo_onoffs"},
}

LINK_SEGMENT_S = 0.2            # 3,000 link segments over 600 s
VBR_BREAKPOINT_S = 1.0          # 600 VBR breakpoints over 600 s
LINK_BPS_RANGE = (2e6, 12e6)    # around the base scenario's 8 Mbps
VBR_RATE_SPREAD = (0.5, 1.5)    # breakpoint rate / encoding rate


def rewrite_scenario(text: str, changes: dict) -> str:
    """Scenario text with the keys in `changes` set (a None value drops one)."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in changes:
            seen.add(key)
            if changes[key] is not None:
                lines.append(f"{key} = {changes[key]}")
            continue
        lines.append(line)
    lines += [f"{k} = {v}" for k, v in changes.items()
              if k not in seen and v is not None]
    return "\n".join(lines) + "\n"


def _write_scenarios(src: str, work_dir: str, scale: float,
                     cases: list[tuple[str, str, dict]]) -> list[str]:
    """Write (name, bundled base, changes) cases as .scn files; return paths."""
    bundled = os.path.join(src, "streamsim", "scenarios")
    paths = []
    for name, base, changes in cases:
        with open(os.path.join(bundled, base + ".scn"), encoding="utf-8") as fh:
            text = fh.read()
        changes = dict(changes, name=name)
        if scale != 1.0:
            changes["stream.duration_s"] = f"{FULL_DURATION_S * scale:g}"
        path = os.path.join(work_dir, name + ".scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rewrite_scenario(text, changes))
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# sessions: seven full `streamsim simulate` runs, artifacts written
# --------------------------------------------------------------------------

def prepare_sessions(src, work_dir, seed, scale):
    cases = [(name, name, {}) for name in BUNDLED]
    cases += [(f"{BASE}_{v}", BASE, ch) for v, ch in VARIANTS.items()]
    return {"scenarios": _write_scenarios(src, work_dir, scale, cases),
            "out_dir": os.path.join(work_dir, "out")}


def pass_sessions(inputs, ctx):
    out = inputs["out_dir"]
    for path in inputs["scenarios"]:
        ctx.cli(["simulate", "--scenario", path, "--out", out])
        ctx.digest_files(out)


# --------------------------------------------------------------------------
# sweeps: default sweep-buffer and sweep-abandon on the base scenario
# --------------------------------------------------------------------------

def prepare_sweeps(src, work_dir, seed, scale):
    return {"scenarios": _write_scenarios(src, work_dir, scale,
                                          [(BASE, BASE, {})]),
            "out_dir": os.path.join(work_dir, "out")}


def pass_sweeps(inputs, ctx):
    for command in ("sweep-buffer", "sweep-abandon"):
        out = os.path.join(inputs["out_dir"], command)
        ctx.cli([command, "--scenario", inputs["scenarios"][0], "--out", out])
        ctx.digest_files(out)


# --------------------------------------------------------------------------
# long_inputs: the base scenario on a seeded 3,000-segment link, and with a
# seeded 600-breakpoint VBR stream
# --------------------------------------------------------------------------

def _shuffled_levels(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n evenly spaced levels in (lo, hi), in seeded order.

    Every seed gets the same levels, so the seed changes where the link is
    fast and the video is dense, but not how much work there is in total.
    """
    levels = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
    rng.shuffle(levels)
    return levels


def prepare_long_inputs(src, work_dir, seed, scale):
    rng = random.Random(seed)
    duration = FULL_DURATION_S * scale
    n_seg = round(duration / LINK_SEGMENT_S)
    segments = tuple((round(i * LINK_SEGMENT_S, 6), bw) for i, bw in
                     enumerate(_shuffled_levels(rng, n_seg, *LINK_BPS_RANGE)))
    n_bp = round(duration / VBR_BREAKPOINT_S)
    weights = _shuffled_levels(rng, n_bp, *VBR_RATE_SPREAD)
    # Scale the weights to mean 1 so the trace integrates to size_bytes.
    norm = n_bp / sum(weights)
    vbr_weights = tuple((i * VBR_BREAKPOINT_S, w * norm)
                        for i, w in enumerate(weights))
    return {"scenarios": _write_scenarios(src, work_dir, scale,
                                          [(BASE, BASE, {})]),
            "link_segments": segments, "vbr_weights": vbr_weights}


def long_scenarios(inputs) -> list:
    """The two long-input scenarios, built through the program's own types."""
    base = scenario.load_scenario(inputs["scenarios"][0])
    link = LinkModel(inputs["link_segments"], base.link.rtt_ms)
    rate = base.stream.encoding_rate_bps
    stream = StreamSpec(base.stream.duration_s, rate,
                        vbr_trace=[(t, w * rate) for t, w in inputs["vbr_weights"]])
    return [replace(base, link=link, name=f"{BASE}_link{len(link.segments)}"),
            replace(base, stream=stream,
                    name=f"{BASE}_vbr{len(stream.vbr_trace)}")]


def pass_long_inputs(inputs, ctx):
    with ctx.span("scenario.parse"):
        scenarios = long_scenarios(inputs)
    for sc in scenarios:
        res = ctx.session(sc)
        if res is not None:
            ctx.digest_artifacts(res)


# --------------------------------------------------------------------------

def parse_inputs(name: str, inputs: dict) -> None:
    """What set-up costs in a fresh interpreter: parse the workload's inputs."""
    if name == "long_inputs":
        long_scenarios(inputs)
    else:
        for path in inputs["scenarios"]:
            scenario.load_scenario(path)


WORKLOADS = {
    "sessions": (prepare_sessions, pass_sessions),
    "sweeps": (prepare_sweeps, pass_sweeps),
    "long_inputs": (prepare_long_inputs, pass_long_inputs),
}
