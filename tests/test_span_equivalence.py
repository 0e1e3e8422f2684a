"""The event-driven delivery path against the frozen per-tick engine.

tick_reference holds the delivery engine and buffer model as they were
when every 50 ms tick was stepped.  Each scenario runs through both, and
the outputs must agree tick for tick: events, decision records, log
totals, playback start, stalls, radio states and the session summary.
The event-driven engine reports its own playback; the per-tick engine's
events are replayed through the engine's buffer and playback clock
(playback.compute_buffer) from the start it recorded.  A replay reads every byte as the stream's, so for a
rate-adaptive technique only the engines' own stall totals are compared.

The event-driven engine meets a driver's buffer threshold within
THRESHOLD_TOL_S, where the per-tick engine compared exactly.  So the two
may part by one tick where the per-tick buffer fell short of a threshold
by float noise alone; each such case is checked to be exactly that.
"""

import importlib.resources as ir
import math
from bisect import bisect_right
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

import tick_reference as ref
from tick_reference import expand_ticks, log_tick
from test_acceptance import _random_scenario
from streamsim import (EncodingRate, FastCaching, Hls, HspaRrcConfig,
                       LinkModel, LteDrxConfig, Mss, OnOffM, PacketEvent,
                       StreamSpec, Throttling, WifiPsmConfig, analysis,
                       delivery, detect_stalls, get_profile, playback,
                       simulate_radio, summarize)
from streamsim.delivery import THRESHOLD_TOL_S
from streamsim.playback import JOIN_FAILURE_S
from streamsim.radio import promotion_latency
from streamsim.scenario import load_scenario, parse_scenario_text
from streamsim.techniques import FASTSTART_TARGET_S, RESUME_THRESHOLD_S
from streamsim.session import run_session
from streamsim.streams import ChunkTrain, TransferSpan

SCENARIOS = ir.files("streamsim") / "scenarios"
BASE = "youtube_onoffm_hspa"

# the default grids of `streamsim sweep-buffer` and `sweep-abandon`
SWEEP_BUFFER_GRID = [10.0, 20.0, 30.0, 40.0, 50.0, 100.0, 150.0, 200.0]
SWEEP_RATIOS = [2.0, 4.0, 8.0]
SWEEP_ABANDON_GRID = [0.2, 0.4, 0.6, 0.8, 1.0]


def _thresholds_s(tech, stream) -> list[float]:
    """The technique's buffer thresholds, in content seconds."""
    out = []
    for name in ("faststart_target_s", "upper_s"):
        v = getattr(tech, name, None)
        if v is not None:
            out += [v, v - 0.5]      # stop and receive-window thresholds
    if getattr(tech, "upper_bytes", None) is not None:
        out.append(tech.upper_bytes / stream.bytes_per_second)
    return out


def _close(a, b, tol):
    return abs(a - b) <= tol


def _same_records(ra, rb, tech, stream, t_tol=1e-9) -> bool:
    """Assert the logs agree record for record; False when they part after
    a buffer threshold that the per-tick engine missed by float noise."""
    for i, (x, y) in enumerate(zip(ra, rb)):
        if not ((x.event, x.connection_id) == (y.event, y.connection_id)
                and _close(x.t_s, y.t_s, t_tol)
                and _close(x.bytes, y.bytes, 1e-6 * max(x.bytes, 1.0))):
            # The per-tick engine moved one more tick than the new one at a
            # threshold tick of the data run before i.  The new one's next
            # record is a decision, or a tick of the next phase, which can
            # look like the per-tick engine's extra tick for a while (a
            # chunk sent at link speed after a fast start).
            assert x.event == "data", (i, x, y)
            run = []
            for r in reversed(ra[:i]):
                if r.event != "data":
                    break
                run.append(r)
            assert any(th - THRESHOLD_TOL_S <= r.buffer_s_after < th
                       for r in run for th in _thresholds_s(tech, stream)), \
                (i, ra[i - 1], y)
            return False
        assert _close(x.buffer_s_after, y.buffer_s_after, 1e-6), (i, x, y)
    assert len(ra) == len(rb)
    return True


def _start_and_stalls(log) -> tuple:
    """A log's playback start (None: it never started) and stall total:
    the per-tick engine's log holds them, the engine's its playback."""
    if not hasattr(log, "playback"):
        return log.playback_start_s, log.stall_total_s
    join = log.playback.joining_time_s
    return (None if join == JOIN_FAILURE_S else join,
            sum(d for _, d in log.playback.stall_events))


def _same_delivery(ev_a, log_a, ev_b, log_b, tech, stream,
                   t_tol=1e-9) -> bool:
    """Assert the events, records and log totals agree, times within
    t_tol; False for a threshold tick shift."""
    if not _same_records(expand_ticks(log_a.records, log_tick),
                         expand_ticks(log_b.records, log_tick), tech,
                         stream, t_tol):
        return False
    ev_a, ev_b = expand_ticks(ev_a), expand_ticks(ev_b)
    assert len(ev_a) == len(ev_b)
    for i, (x, y) in enumerate(zip(ev_a, ev_b)):
        assert (x.kind, x.connection_id, x.bytes) == \
            (y.kind, y.connection_id, y.bytes), (i, x, y)
        assert _close(x.t_s, y.t_s, t_tol), (i, x, y)
    # totals within 1e-6 of the bytes delivered, or of a content second
    byte_tol = 1e-6 * max(log_a.bytes_delivered, 1.0)
    for name in ("bytes_delivered", "bytes_consumed", "bytes_buffered_end",
                 "bytes_wasted", "overhead_bytes"):
        assert _close(getattr(log_a, name), getattr(log_b, name),
                      byte_tol), name
    for name in ("content_delivered_s", "content_consumed_s"):
        assert _close(getattr(log_a, name), getattr(log_b, name),
                      1e-6), name
    (start_a, stalled_a), (start_b, stalled_b) = map(_start_and_stalls,
                                                     (log_a, log_b))
    assert (start_a is None) == (start_b is None)
    if start_a is not None:
        assert _close(start_a, start_b, t_tol)
        # the per-tick engine counts a stall it never left up to its last
        # event, not to the watch's horizon
        if "session ends stalled: content underrun" not in log_a.notes:
            assert _close(stalled_a, stalled_b, 1e-6)
    assert log_a.connections_opened == log_b.connections_opened
    assert log_a.notes == log_b.notes
    for name in ("on_spans", "off_spans", "quality_switches"):
        assert len(getattr(log_a, name)) == len(getattr(log_b, name)), name
        for x, y in zip(getattr(log_a, name), getattr(log_b, name)):
            assert _close(x[0], y[0], t_tol), (name, x, y)
            if name == "quality_switches":
                assert x[1:] == y[1:], (name, x, y)
            else:
                assert _close(x[1], y[1], t_tol), (name, x, y)
    return True


def _wall(buffer, events) -> float:
    ticks = expand_ticks(events)
    return max(buffer.playback_end_s, ticks[-1].t_s if ticks else 0.0)


def _compare(a, b, tech, stream) -> bool:
    """a, b: (events, dlog, buffer, qoe, radio) of the per-tick and the
    event-driven run.  Returns False for a threshold tick shift."""
    ev_a, log_a, tl_a, qoe_a, radio_a = a
    ev_b, log_b, tl_b, qoe_b, radio_b = b
    if not _same_delivery(ev_a, log_a, ev_b, log_b, tech, stream):
        return False
    if not isinstance(tech, (Hls, Mss)):
        assert tl_a.completed == tl_b.completed
        assert _close(tl_a.playback_end_s, tl_b.playback_end_s, 1e-9)
        assert len(qoe_a.stall_events) == len(qoe_b.stall_events)
        for (s1, d1), (s2, d2) in zip(qoe_a.stall_events,
                                      qoe_b.stall_events):
            assert _close(s1, s2, 1e-9) and _close(d1, d2, 1e-9)
    assert [iv.state for iv in radio_a.intervals] == \
        [iv.state for iv in radio_b.intervals]
    for x, y in zip(radio_a.intervals, radio_b.intervals):
        assert _close(x.t_start_s, y.t_start_s, 1e-9), (x, y)
        assert _close(x.t_end_s, y.t_end_s, 1e-9), (x, y)
    return True


def _replayed(dlog, stream, threshold_s=RESUME_THRESHOLD_S,
              watch_end_s=None):
    """The playback of a per-tick run: its data ticks replayed one by one
    from the start its engine recorded.  The replay reads the log's exact
    bytes; the events round them to whole bytes."""
    join = dlog.playback_start_s
    ticks = [PacketEvent(r.t_s, r.bytes, r.connection_id)
             for r in dlog.records if r.event == "data"]
    join = JOIN_FAILURE_S if join is None else join
    tl = playback.compute_buffer(ticks, stream, join,
                                 resume_threshold_s=threshold_s,
                                 watch_end_s=watch_end_s)
    qoe = detect_stalls(tl, resume_threshold_s=threshold_s)
    # the timeline carries the replay's own stalls, which the frozen walk
    # over its samples finds too
    assert tl.stall_events == delivery.replay_arrivals(
        ticks, stream, join, threshold_s, watch_end_s).playback.stall_events
    assert qoe.stall_events == ref.detect_stalls(tl, threshold_s).stall_events
    return tl, qoe


def _pipeline(simulate, stream, link, tech, radio_tech, cfg, threshold_s=1.0,
              wall=None):
    """Criterion 10's pipeline: 1 s start and resume thresholds, and the
    radio's promotion latency as the start delay.  The radio covers the
    playback, or wall seconds when given."""
    events, dlog = simulate(stream, link, tech, start_threshold_s=threshold_s,
                            resume_threshold_s=threshold_s,
                            start_delay_s=promotion_latency(radio_tech, cfg))
    if simulate is ref.simulate_session:
        tl, qoe = _replayed(dlog, stream, threshold_s)
    else:
        tl = dlog.playback
        qoe = detect_stalls(tl)
    radio = simulate_radio(radio_tech, events, cfg, get_profile("gs3-lte"),
                           wall or _wall(tl, events))
    return events, dlog, tl, qoe, radio


def _both(stream, link, tech, radio_tech, cfg, threshold_s=1.0):
    """The per-tick and the event-driven pipeline; a rate-adaptive run's
    radio covers the event-driven playback in both, as its replay cannot
    tell where playback ends."""
    b = _pipeline(delivery.simulate_session, stream, link, tech, radio_tech,
                  cfg, threshold_s)
    wall = _wall(b[2], b[0]) if isinstance(tech, (Hls, Mss)) else None
    a = _pipeline(ref.simulate_session, stream, link, tech, radio_tech, cfg,
                  threshold_s, wall)
    return a, b


def test_criterion10_generator_matches_tick_engine():
    rng = random.Random(2026)
    shifted = 0
    for i in range(300):
        stream, link, tech, radio_tech, cfg = _random_scenario(rng)
        shifted += not _compare(*_both(stream, link, tech, radio_tech, cfg),
                                tech, stream)
    assert shifted == 5


def test_keyframe_waste_matches_tick_engine():
    size = 76 * 1024 * 1024
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=size * 8 / 600.0,
                        size_bytes=size, keyframe_interval_bytes=2.4e6)
    link = LinkModel.constant(4 * stream.encoding_rate_bps, rtt_ms=70)
    kw = dict(buffer_bytes=25 * 1024 * 1024, reopen_free_bytes=0.10e6,
              throttle_factor=3.0)
    thresholds = SimpleNamespace(faststart_target_s=FASTSTART_TARGET_S,
                                 upper_bytes=kw["buffer_bytes"])
    # each of the ~66 drain waits ends at a level read from the buffered
    # bytes, so both engines' round-off compounds to about 1e-9 s
    assert _same_delivery(
        *ref.simulate_multi_connection_waste(stream, link, **kw),
        *delivery.simulate_multi_connection_waste(stream, link, **kw),
        thresholds, stream, t_tol=1e-8)


def _ref_session(sc, wall=None):
    """run_session on the per-tick engine, its playback replayed; the radio
    covers wall seconds when given."""
    events, dlog = ref.simulate_session(
        sc.stream, sc.link, sc.technique, abandon_at_s=sc.abandon_at_s,
        seed=sc.seed,
        start_delay_s=promotion_latency(sc.radio_tech, sc.radio_cfg))
    buffer, qoe = _replayed(dlog, sc.stream,
                            watch_end_s=sc.abandon_at_s)
    wall = wall or _wall(buffer, events)
    radio = simulate_radio(sc.radio_tech, events, sc.radio_cfg, sc.profile,
                           wall)
    return SimpleNamespace(
        scenario=sc, events=events, dlog=dlog, buffer=buffer, qoe=qoe,
        radio=radio, summary=summarize(dlog, qoe, radio, sc.profile, wall))


def _run_both(sc):
    b = run_session(sc)
    ladder = isinstance(sc.technique, (Hls, Mss))
    return _ref_session(sc, b.summary.wall_time_s if ladder else None), b


def _sessions_match(a, b) -> bool:
    """Assert two SessionResults agree; False for a threshold tick shift,
    after which the summaries need only agree to 1e-3.  Of a rate-adaptive
    session's summary, the fields its replay cannot read are left out."""
    parts = ("events", "dlog", "buffer", "qoe", "radio")
    exact = _compare([getattr(a, p) for p in parts],
                     [getattr(b, p) for p in parts],
                     a.scenario.technique, a.scenario.stream)
    want, got = a.summary.to_json_dict(), b.summary.to_json_dict()
    assert set(want) == set(got)
    if isinstance(a.scenario.technique, (Hls, Mss)):
        want = {k: want[k] for k in ("joining_time_s", "bytes_downloaded",
                                     "bytes_consumed", "bytes_wasted")}
    rel = 1e-9 if exact else 1e-3
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=rel), key
    return exact


def _text(name):
    return (SCENARIOS / f"{name}.scn").read_text(encoding="utf-8")


def _session_variants():
    out = [load_scenario(str(SCENARIOS / f"{name}.scn"))
           for name in (BASE, "encoding_rate_lte", "fast_caching_wifi")]
    base = _text(BASE).replace("technique.preset = youtube_onoffm\n", "")
    for kind in ("hls", "mss", "throttling"):
        out.append(parse_scenario_text(base + f"technique.kind = {kind}\n",
                                       f"{BASE}_{kind}"))
    out.append(parse_scenario_text(base + "technique.preset = vimeo_onoffs\n",
                                   f"{BASE}_vimeo_onoffs"))
    return out


def test_session_variants_match_tick_engine():
    scenarios = _session_variants()
    assert len(scenarios) == 7
    shifted = [sc.name for sc in scenarios
               if not _sessions_match(*_run_both(sc))]
    assert shifted == []


def _sweep_points():
    base = load_scenario(str(SCENARIOS / f"{BASE}.scn"))
    upper = base.technique.upper_s
    out = []
    for ratio in SWEEP_RATIOS:
        link = LinkModel.constant(ratio * base.stream.encoding_rate_bps,
                                  base.link.rtt_ms)
        for size in SWEEP_BUFFER_GRID:
            if size <= upper:
                tech = replace(base.technique, lower_s=upper - size,
                               off_fixed_s=None)
                out.append(replace(base, technique=tech, link=link,
                                   name=f"buffer_c{ratio:g}_{size:g}"))
    for tech in (base.technique, FastCaching()):
        for w in SWEEP_ABANDON_GRID:
            out.append(replace(base, technique=tech,
                               abandon_at_s=w * base.stream.duration_s,
                               name=f"abandon_{type(tech).__name__}_{w:g}"))
    return out


def test_sweep_points_are_the_cli_defaults(monkeypatch):
    seen = []

    def record(sc):
        seen.append(sc)
        return run_session(sc)

    monkeypatch.setattr(analysis, "run_session", record)
    base = load_scenario(str(SCENARIOS / f"{BASE}.scn"))
    analysis.buffer_size_sweep(base, SWEEP_BUFFER_GRID, SWEEP_RATIOS)
    analysis.abandonment_sweep(base, SWEEP_ABANDON_GRID)
    points = _sweep_points()
    assert len(seen) == len(points) == 28
    assert [s.fingerprint() for s in seen] == \
        [p.fingerprint() for p in points]


def test_sweep_points_match_tick_engine():
    shifted = [sc.name for sc in _sweep_points()
               if not _sessions_match(*_run_both(sc))]
    # refills that the per-tick engine ends a few ulps short of upper_s
    assert shifted == ["buffer_c2_10", "buffer_c2_20", "buffer_c2_30",
                       "buffer_c2_40", "buffer_c2_50", "buffer_c2_100",
                       "buffer_c8_100"]


# The base scenario with throttling, and variants that put each decision
# point of a chunk train inside one: keys to set (None drops a key).
THROTTLING_CASES = {
    "base": {},
    "jitter": {"technique.chunk_jitter": "true"},
    "link_steps": {"link.bandwidth_bps": None,
                   "link.segments": "0:8000000,200.123:5000000,400:8000000"},
    "abandon": {"abandon_at_s": 300},
    # a 52 ms period, below the 70 ms rtt
    "coalesce": {"technique.chunk_bytes": 16384},
    # below 1.25 x 2 Mbps: each chunk starts when the last one ends
    "back_to_back": {"link.bandwidth_bps": 2400000},
    "back_to_back_stalls": {"link.bandwidth_bps": 1900000,
                            "technique.faststart_target_s": 4},
    # the fast start ends a tick before the per-tick engine's, whose
    # buffer is 2e-12 s short of 40 s; the chunks after it are sent at
    # the same link speed, so the logs part only at a chunk's last tick
    "back_to_back_shift": {"link.bandwidth_bps": 2200000},
    "lte": {"radio.technology": "lte"},
    "wifi": {"radio.technology": "wifi"},
}


def _edited(name, kind, keys):
    """The base scenario with technique.kind = kind and keys set."""
    changes = {"name": name, "technique.preset": None,
               "technique.kind": kind, **keys}
    lines = [line for line in _text(BASE).splitlines()
             if line.partition("=")[0].strip() not in changes]
    lines += [f"{k} = {v}" for k, v in changes.items() if v is not None]
    return parse_scenario_text("\n".join(lines) + "\n")


def _throttling(name):
    return _edited(f"throttling_{name}", "throttling", THROTTLING_CASES[name])


def _throttled_below_rate(factor, **fields):
    """Throttling below the encoding rate.  The technique's validator
    rejects a factor <= 1; the engine runs any factor, and below 1 the
    buffer drains into stalls between chunks."""
    tech = Throttling(**fields)
    object.__setattr__(tech, "factor", factor)
    return tech


def _trains(events):
    return [it for it in events if isinstance(it, ChunkTrain)]


@pytest.mark.parametrize("name", list(THROTTLING_CASES) + ["factor_0.8"])
def test_throttling_matches_tick_engine(name):
    if name == "factor_0.8":
        sc = replace(_throttling("base"), technique=_throttled_below_rate(0.8))
    else:
        sc = _throttling(name)
    a, b = _run_both(sc)
    assert _sessions_match(a, b) == (name != "back_to_back_shift")
    trains = _trains(b.events)
    # a jittered chunk never repeats; coalesced chunks are one transfer
    assert bool(trains) == (name not in ("jitter", "coalesce"))
    for tr in trains:
        assert tr.m >= 2
        assert not any(tr.t_s < t0 <= tr.t_end_s
                       for t0, _ in sc.link.segments)
    if name in ("factor_0.8", "back_to_back_stalls"):
        # stalls cut the trains: some run while playing, some while stalled
        assert len(b.qoe.stall_events) >= 5
        assert len(trains) > 2 * len(b.qoe.stall_events)


def test_throttling_whole_tick_chunks_match_tick_engine():
    """A 64 KiB chunk is eight whole ticks on a 1.31 Mbps link, sent back
    to back: each cycle would continue the last one's span tick for tick,
    and is still a cycle of its own.  The link is below the encoding rate,
    so trains alternate between playing and stalled."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    link = LinkModel.constant(1310720.0)
    tech = Throttling(faststart_target_s=4.0)
    a, b = _both(stream, link, tech, "hspa", HspaRrcConfig(), threshold_s=4.0)
    assert _compare(a, b, tech, stream)
    trains = _trains(b[0])
    assert len(trains) > 20 and len(b[3].stall_events) > 20
    assert all([s.n for s in tr.cycle] == [8] for tr in trains)


def test_throttling_train_before_playback_matches_tick_engine():
    """With a 45 s start threshold, chunks keep coming after the 40 s fast
    start and before playback starts."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    link = LinkModel.constant(8e6)
    tech = Throttling()
    a, b = _both(stream, link, tech, "hspa", HspaRrcConfig(),
                 threshold_s=45.0)
    assert _compare(a, b, tech, stream)
    start = b[1].playback.joining_time_s
    assert any(tr.t_s < tr.t_end_s < start for tr in _trains(b[0]))


# HLS and MSS variants whose drain-gated steady state forms trains, and
# ones that cut a train: the technique and the keys to set.
LINK_DROP = {"link.bandwidth_bps": None,
             "link.segments": "0:8000000,300:3000000"}
LADDER_CASES = {
    "hls_split": ("hls", {"technique.audio_video_split": "true"}),
    "hls_link_drop": ("hls", LINK_DROP),
    "mss_link_drop": ("mss", LINK_DROP),
    # down to SD for good: the HD seconds still buffered drain first
    "hls_link_drop_below_hd": ("hls", {**LINK_DROP, "link.segments":
                                       "0:8000000,200:1500000"}),
    "hls_abandon": ("hls", {"abandon_at_s": 333}),
    "mss_abandon": ("mss", {"abandon_at_s": 333}),
    # the first up-switches come in the steady state: cycles that count
    # towards one repeat the last one's runs, but not its decision state
    "hls_slow_up": ("hls", {"technique.up_consecutive": 10}),
    # below the drain level each chunk gains 1.3 s on this link: a train
    # of requests that need no drain stops before the buffer reaches it
    "hls_catch_up": ("hls", {"link.bandwidth_bps": 2300000}),
}


@pytest.mark.parametrize("name", list(LADDER_CASES))
def test_ladder_trains_match_tick_engine(name, monkeypatch):
    sc = _edited(name, *LADDER_CASES[name])
    a, b = _run_both(sc)
    assert _sessions_match(a, b)
    trains = _trains(b.events)
    assert trains and all(tr.m >= 2 for tr in trains)
    for tr in trains:
        assert not any(tr.t_s < t0 <= tr.t_end_s
                       for t0, _ in sc.link.segments)
    # the repeats a train jumps leave the buffer timeline, bytes too, that
    # stepping each of them leaves
    monkeypatch.setattr(delivery._Engine, "_whole_cycles", lambda *a: 0)
    stepped = run_session(sc).buffer.samples
    for t in [s.t_s for s in stepped + b.buffer.samples]:
        assert _reads(b.buffer.samples, t) == pytest.approx(
            _reads(stepped, t), rel=1e-9, abs=1e-6), t


# On/off variants whose cycles form trains, and ones that cut a train: the
# technique and the keys to set.
ONOFF_CASES = {
    # drain-gated 10 s refills, capped at 4 Mbps, then link-bound at 3 Mbps
    "onoffm_link_drop": ("on_off_m", {**LINK_DROP, "technique.lower_s": 90}),
    "onoffm_abandon": ("on_off_m", {**LINK_DROP, "technique.lower_s": 90,
                                    "abandon_at_s": 333}),
    # fixed 5 MiB chunks, each once the buffer drains by one, until a
    # drain would empty it
    "onoffm_fixed_chunks": ("on_off_m",
                            {"technique.preset": "vimeo_iphone5"}),
    # probes only: the OFF period's one persist timer doubles to its cap
    "onoffs_no_keepalive": ("on_off_s",
                            {"technique.keepalive_interval_s": 0}),
    # a 100 s outage stalls playback between two trains of 32 s cycles
    "onoffs_outage_stall": ("on_off_s", {
        "technique.lower_s": 60, "link.bandwidth_bps": None,
        "link.segments": "0:8000000,300:0,400:8000000"}),
    # a fixed OFF period: the refills repeat at any buffer level
    "onoffs_fixed_off": ("on_off_s", {"technique.off_fixed_s": 30,
                                      "technique.keepalive_interval_s": 0}),
}


@pytest.mark.parametrize("name", list(ONOFF_CASES))
def test_onoff_trains_match_tick_engine(name, monkeypatch):
    """Each ON/OFF cycle's request or probes ride in its train; the
    repeats a train jumps leave the buffer timeline that stepping each of
    them leaves."""
    sc = _edited(name, *ONOFF_CASES[name])
    a, b = _run_both(sc)
    assert _sessions_match(a, b)
    trains = _trains(b.events)
    assert trains and all(tr.m >= 2 for tr in trains)
    assert any(not isinstance(e, TransferSpan) for e in trains[0].cycle)
    for tr in trains:
        assert not any(tr.t_s < t0 <= tr.t_end_s
                       for t0, _ in sc.link.segments)
    if name == "onoffs_outage_stall":
        assert len(trains) == 2 and len(b.qoe.stall_events) == 1
    monkeypatch.setattr(delivery._Engine, "_whole_cycles", lambda *a: 0)
    stepped = run_session(sc).buffer.samples
    for t in [s.t_s for s in stepped + b.buffer.samples]:
        assert _reads(b.buffer.samples, t) == pytest.approx(
            _reads(stepped, t), rel=1e-9, abs=1e-6), t


def _fixed_chunk_case(rng):
    """A seeded fixed-chunk OnOffM session: chunks of 0.5-2 s of content
    after a 2-5 s fast start, on a link at 1.5-8x the encoding rate, on
    one of the three radios."""
    rate = rng.choice([400_000.0, 1_000_000.0, 2_000_000.0])
    stream = StreamSpec(duration_s=rng.uniform(20.0, 60.0),
                        encoding_rate_bps=rate)
    link = LinkModel.constant(rate * rng.uniform(1.5, 8.0), rtt_ms=70)
    tech = OnOffM(chunk_bytes=rng.uniform(0.5, 2.0) * rate / 8.0,
                  faststart_bytes=rng.uniform(2.0, 5.0) * rate / 8.0)
    radio_tech, cfg = rng.choice([("wifi", WifiPsmConfig()),
                                  ("hspa", HspaRrcConfig()),
                                  ("lte", LteDrxConfig())])
    return stream, link, tech, radio_tech, cfg


def test_onoff_m_fixed_chunks_match_tick_engine():
    """60 seeded fixed-chunk sessions, tick for tick.  A cycle drains a
    chunk's content and refills it, losing the request and transfer time
    to playback; its trains run while a drain ends above an empty buffer,
    and the stalls that follow cut them."""
    rng = random.Random(20)
    with_trains = stalled = 0
    for _ in range(60):
        stream, link, tech, radio_tech, cfg = _fixed_chunk_case(rng)
        a, b = _both(stream, link, tech, radio_tech, cfg)
        assert _compare(a, b, tech, stream)
        with_trains += bool(_trains(b[0]))
        stalled += bool(b[3].stall_events)
    assert with_trains >= 40 and stalled == 60


_STEPPED_CASES = ([(sc.name, sc) for sc in _sweep_points()]
                  + [(f"session{i}", sc)
                     for i, sc in enumerate(_session_variants())])


@pytest.mark.parametrize("sc", [sc for _, sc in _STEPPED_CASES],
                         ids=[name for name, _ in _STEPPED_CASES])
def test_trains_match_the_session_with_every_repeat_stepped(sc,
                                                            monkeypatch):
    """Every sweep point and session variant, its trains' repeats jumped
    and each stepped: the same ticks, decision records, log totals,
    playback, radio, summary and buffer timeline, where the per-tick
    engine leaves some sweep points a tick apart at their shift.  A
    clocked train keeps the trend of the buffer, not its ripple, so there
    the timelines agree at the jumped one's samples."""
    b = run_session(sc)
    with monkeypatch.context() as mp:
        mp.setattr(delivery._Engine, "_whole_cycles", lambda *a: 0)
        a = run_session(sc)
    parts = ("events", "dlog", "buffer", "qoe", "radio")
    assert _compare([getattr(a, p) for p in parts],
                    [getattr(b, p) for p in parts], sc.technique, sc.stream)
    assert a.qoe.stall_events == pytest.approx(b.qoe.stall_events, abs=1e-9)
    want, got = a.summary.to_json_dict(), b.summary.to_json_dict()
    assert set(want) == set(got)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-9), key
    times = b.buffer.samples
    if not isinstance(sc.technique, Throttling):
        times = times + a.buffer.samples
    for t in [s.t_s for s in times]:
        assert _reads(b.buffer.samples, t) == pytest.approx(
            _reads(a.buffer.samples, t), rel=1e-9, abs=1e-6), t


def test_hls_discard_empties_the_buffer_timeline():
    """An up-switch that discards the buffer leaves it empty until the
    re-fetch's first tick: the timeline reads 0 at each discard and, up
    to that tick, no more than the tick brings (it read 12.2 s at 1.60 s
    when only a stall sampled a discard).  The 9.07 s discard starts a
    stall, which shares the discard's sample."""
    res = run_session(_session_variants()[3])
    records = expand_ticks(res.dlog.records, log_tick)
    discards = [r for r in records if r.event == "discard"]
    assert [round(r.t_s, 2) for r in discards] == [1.57, 9.07]
    for d in discards:
        tick = next(r for r in records
                    if r.event == "data" and r.t_s > d.t_s + 1e-9)
        assert res.buffer.value_at(d.t_s) == 0.0
        for w in (0.2, 0.5, 0.8):
            t = d.t_s + w * (tick.t_s - d.t_s)
            assert res.buffer.value_at(t) == pytest.approx(
                w * tick.buffer_s_after, abs=1e-9)
    assert res.buffer.value_at(1.60) < 0.4
    at_stall = [s for s in res.buffer.samples if abs(s.t_s - 9.07) <= 1e-9]
    assert [s.buffered_seconds for s in at_stall] == [
        pytest.approx(53.2), 0.0]


def _reads(samples, t):
    """The seconds and bytes a buffer timeline reads at time t: linear
    between samples, the last one at a tie."""
    i = bisect_right([s.t_s for s in samples], t + 1e-9)
    a = samples[i - 1]
    if i == len(samples) or t <= a.t_s:
        return a[1:]
    w = (t - a.t_s) / (samples[i].t_s - a.t_s)
    return tuple(x + w * (y - x) for x, y in zip(a[1:], samples[i][1:]))


@pytest.mark.parametrize("variant", [3, 4], ids=["hls", "mss"])
def test_ladder_buffer_timeline_keeps_every_drain(variant):
    """The buffer timeline of a drain-gated train keeps each cycle's
    breakpoints, so it reads the per-tick engine's buffer at every data
    tick: the 10 s HLS and 16 s MSS sawtooth.  The per-tick run's replay
    reads every byte at the stream's rate, which a ladder's rungs are
    not, so the reference is that engine's own log.  Where a discard
    empties the buffer at a tick's time, either side of the drop counts."""
    a, b = _run_both(_session_variants()[variant])
    assert _trains(b.events)
    records = list(a.dlog.records)
    for i, r in enumerate(records):
        if r.event != "data":
            continue
        j = i      # the last record at the tick's time
        while j + 1 < len(records) and records[j + 1].t_s <= r.t_s + 1e-9:
            j += 1
        got = b.buffer.value_at(r.t_s)
        assert min(abs(got - r.buffer_s_after),
                   abs(got - records[j].buffer_s_after)) <= 1e-6, (r, got)


# Link boundaries.  On a link whose boundaries fall on the 50 ms tick grid,
# the two engines cannot be compared tick for tick: a per-tick clock that
# reaches a boundary a few ulps short of it steps a 1 us hop tick to cross
# it (at t = 0.400001 s, say), which the event-driven engine, meeting the
# boundary within TIE_S, never emits.  Off the grid, a boundary cuts a tick
# in both engines, so there they must agree.

GRID_STREAM = StreamSpec(duration_s=60.0, encoding_rate_bps=2e6)
GRID_CAP_BPS = 3e6


def _grid_link(step_s, lo_bps=2e6, n=1000):
    rng = random.Random(13)
    return LinkModel(tuple((round(step_s * i, 6), rng.uniform(lo_bps, 12e6))
                           for i in range(n)), rtt_ms=70.0)


def _capped_delivery(engine, link, cap_bps=GRID_CAP_BPS, **kw):
    """The whole stream from t = 0 on one connection, at cap_bps."""
    eng = engine._Engine(GRID_STREAM, link, None)
    conn = eng.open_connection()
    eng.deliver(conn, cap_bps, **kw)
    eng.close_connection(conn)
    return eng.finalize()


def test_boundaries_the_cap_hides_on_the_tick_grid_are_no_decisions():
    """Every segment at or above the cap, every boundary on a tick edge:
    the same spans, ticks, records and buffer as on a constant link."""
    link = _grid_link(0.2, lo_bps=GRID_CAP_BPS)
    link = LinkModel(link.segments[:7] + ((1.4, GRID_CAP_BPS),)
                     + link.segments[8:], link.rtt_ms)
    events, dlog = _capped_delivery(delivery, link)
    want_events, want_log = _capped_delivery(delivery,
                                             LinkModel.constant(12e6))
    assert events == want_events
    assert dlog.records == want_log.records
    assert dlog.playback.samples == want_log.playback.samples
    assert len(events) <= 4
    # an open receive window lifts the cap: each boundary is a decision
    events, _ = _capped_delivery(delivery, link, window_s=1e9)
    assert events == _capped_delivery(delivery, link, math.inf)[0]
    assert len(events) > 50


def test_boundaries_off_the_tick_grid_cut_a_tick():
    """A 0.13 s grid puts every boundary off the tick grid: each one cuts
    a tick, tick for tick as the per-tick engine does."""
    link = _grid_link(0.13, lo_bps=GRID_CAP_BPS)
    ev_b, log_b = _capped_delivery(delivery, link)
    assert _same_delivery(*_capped_delivery(ref, link), ev_b, log_b,
                          SimpleNamespace(), GRID_STREAM)
    ticks = [e.t_s for e in expand_ticks(ev_b) if e.kind == "data"]
    crossed = [t0 for t0, _ in link.segments if 0.0 < t0 < ticks[-1]]
    assert len(crossed) > 200
    assert all(min(abs(t - t0) for t in ticks) <= 1e-9 for t0 in crossed)


@pytest.mark.parametrize("variant", range(7))
def test_sessions_on_an_off_grid_link_match_tick_engine(variant):
    """Every session variant on a 0.13 s-segment link from 2 to 12 Mbps:
    boundaries the fast start crosses, boundaries below the refill cap and
    boundaries above it."""
    sc = replace(_session_variants()[variant], link=_grid_link(0.13, n=5000))
    assert _sessions_match(*_run_both(sc))


# The engine's walk over link segments: it keeps the segment holding its
# clock and seeks again only once the clock reaches that segment's end.

def _tick_grid_link(rates, t0, every=4):
    """A link whose boundaries fall on the per-tick engine's own clock,
    every `every` ticks of 50 ms from t0.  Each rate is a multiple of
    250 kbps, at which a tick takes exactly 50 ms, so that engine reaches
    each boundary exactly and steps no hop tick before it."""
    t, segs = t0, [(0.0, rates[0])]
    for bw in rates[1:]:
        for _ in range(every):
            t += 0.05
        segs.append((t, bw))
    return LinkModel(tuple(segs), rtt_ms=70.0)


def _tick_grid_rates(cap_bps, n):
    """n seeded segment rates: two in seven at exactly cap_bps, one in
    seven below it."""
    rng = random.Random(14)
    return [rng.choice([cap_bps, cap_bps, 3.5e6, 5e6, 8e6, 12e6, 2e6])
            for _ in range(n)]


def test_boundaries_the_cap_hides_are_never_sought(monkeypatch):
    """A capped transfer from t = 0 on a link whose boundaries are on the
    tick grid: the engine seeks the link once, at t = 0, and walks on from
    there.  Its runs start at t = 0 and at boundaries next to a segment
    below the cap, besides the playback start's stepped ticks.  Every other
    boundary, even one next to a segment at exactly the cap, is a step to
    the next segment inside the run, and the ticks are the per-tick
    engine's."""
    link = _tick_grid_link(_tick_grid_rates(GRID_CAP_BPS, 400), 0.0)
    ev_a, log_a = _capped_delivery(ref, link)
    seeks, runs = [], []
    index, fill = LinkModel.segment_index, delivery._Engine._fill
    monkeypatch.setattr(LinkModel, "segment_index",
                        lambda lk, t: seeks.append(t) or index(lk, t))
    # a run's _fill gets its tick count, n, with the clock at its start
    monkeypatch.setattr(delivery._Engine, "_fill", lambda eng, *a: (
        runs.append(eng.t) if len(a) == 4 else None) or fill(eng, *a))
    ev_b, log_b = _capped_delivery(delivery, link)
    assert _same_delivery(ev_a, log_a, ev_b, log_b, SimpleNamespace(),
                          GRID_STREAM)
    end = expand_ticks(ev_b)[-1].t_s
    segs = link.segments
    below = [t0 for (t0, bw), (_, prev) in zip(segs[1:], segs)
             if t0 < end and min(bw, prev) < GRID_CAP_BPS]
    assert seeks == [0.0]
    assert runs[0] == 0.0
    on_boundaries = [t for t in runs
                     if any(abs(t - t0) <= 1e-9 for t0, _ in segs)]
    assert on_boundaries[1:] == pytest.approx(below, abs=1e-9)
    # and one run after the playback start's stepped ticks
    assert len(runs) == len(on_boundaries) + 1
    hidden = sum(1 for t0, _ in segs[1:] if t0 < end) - len(below)
    assert hidden > 100


@pytest.mark.parametrize("tech", [Throttling(chunk_bytes=16384),
                                  EncodingRate()],
                         ids=["throttling_coalesced", "encoding_rate"])
def test_capped_sessions_on_a_tick_grid_link_match_tick_engine(tech):
    """Throttling whose 16 KiB chunks coalesce into one transfer capped
    at 2.5 Mbps, and the encoding-rate window, on 0.2 s segments that
    start on the tick grid from the 70 ms request, two in seven of them
    at exactly the throttled rate."""
    stream = StreamSpec(duration_s=120.0, encoding_rate_bps=2e6)
    link = _tick_grid_link(_tick_grid_rates(2.5e6, 1000), 0.07)
    a, b = _both(stream, link, tech, "hspa", HspaRrcConfig())
    assert _compare(a, b, tech, stream)
    assert len(a[0]) > 1000


@pytest.mark.parametrize("tech", [FastCaching(), EncodingRate()],
                         ids=["fast_caching", "encoding_rate"])
def test_zero_bandwidth_then_recovery_matches_tick_engine(tech):
    """The link dies mid-transfer for two 0 bps segments in a row, then
    recovers: delivery waits out both and resumes at the new rate."""
    stream = StreamSpec(duration_s=120.0, encoding_rate_bps=2e6)
    link = LinkModel(((0.0, 8e6), (20.013, 0.0), (25.0171, 0.0),
                      (35.017, 6e6)), rtt_ms=70.0)
    a, b = _both(stream, link, tech, "hspa", HspaRrcConfig())
    assert _compare(a, b, tech, stream)
    ticks = [e.t_s for e in expand_ticks(b[0]) if e.kind == "data"]
    assert not any(20.013 < t < 35.017 for t in ticks)
    assert min(t for t in ticks if t > 20.013) == pytest.approx(
        35.017 + 0.05, abs=1e-9)
    assert b[1].notes == []


@pytest.mark.parametrize("tech", [FastCaching(), Throttling(),
                                  EncodingRate()],
                         ids=["fast_caching", "throttling", "encoding_rate"])
def test_link_ending_at_zero_is_noted_starved_once(tech):
    """A link whose last segment is 0 bps starves delivery for good.
    Fast caching meets it in its one transfer, throttling inside a chunk
    and the encoding-rate window in its transfer after the fast start:
    each notes it once, and the session ends stalled."""
    stream = StreamSpec(duration_s=120.0, encoding_rate_bps=2e6)
    link = LinkModel(((0.0, 8e6), (20.0331, 0.0)), rtt_ms=70.0)
    a, b = _both(stream, link, tech, "hspa", HspaRrcConfig())
    assert _compare(a, b, tech, stream)
    assert b[1].notes == ["link starved with no recovery",
                          "session ends stalled: content underrun"]
    assert len(b[3].stall_events) == 1


def test_off_wait_across_dozens_of_segments_matches_tick_engine():
    """Fixed 30 s OFF periods on a 0.13 s-segment link: each refill's
    transfer starts over 200 segments after the last one ended."""
    sc = replace(_edited("onoffs_fixed_off_grid", "on_off_s",
                         {"technique.off_fixed_s": 30,
                          "technique.keepalive_interval_s": 0}),
                 link=_grid_link(0.13, n=5000))
    a, b = _run_both(sc)
    assert _sessions_match(a, b)
    starts = [t0 for t0, _ in sc.link.segments]
    crossed = [bisect_right(starts, t1) - bisect_right(starts, t0)
               for t0, t1 in b.dlog.off_spans]
    assert len(crossed) >= 5 and min(crossed) > 200


@pytest.mark.parametrize("shift_s", [-5e-10, 5e-10])
def test_a_boundary_within_tie_of_the_clock_is_reached(shift_s):
    """A boundary within TIE_S of a tick's end counts as reached there:
    the next tick runs at the new rate.  Half a TIE_S before the tick's
    end, the per-tick engine cuts the tick at the boundary; half a TIE_S
    after it, that engine would step a 1 us hop tick, so there the
    reference is the boundary exactly on the tick's end."""
    t = 0.0
    for _ in range(37):
        t += 0.05
    link, exact = (LinkModel(((0.0, 8e6), (t + d, 2e6), (t + 2.013, 5e6)),
                             rtt_ms=70.0) for d in (shift_s, 0.0))
    ev_b, log_b = _capped_delivery(delivery, link, math.inf)
    ev_a, log_a = _capped_delivery(ref, exact if shift_s > 0 else link,
                                   math.inf)
    assert _same_delivery(ev_a, log_a, ev_b, log_b, SimpleNamespace(),
                          GRID_STREAM)
    ticks = [e for e in expand_ticks(ev_b) if e.kind == "data"]
    k = min(i for i, e in enumerate(ticks) if e.t_s > t + 1e-9)
    assert ticks[k - 1].t_s == pytest.approx(t, abs=1e-9)
    assert ticks[k].bytes == 2e6 * 0.05 / 8
