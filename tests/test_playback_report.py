"""The reported playback is the delivery engine's.

A session's join, stalls, buffer timeline and wall time come from the
playback that drove its delivery.  For a technique that fetches the
stream's own bytes, that playback must agree with the frozen per-event
buffer model (tick_reference.compute_buffer) replayed over the session's
own data ticks from the reported start: the same stalls, and the same
buffer at every reported sample.  A rate-adaptive technique fetches
ladder rungs, discards and audio, which a replay reads as the stream's
bytes, so there the report must simply be the engine's.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

import tick_reference as ref
from streamsim import (EncodingRate, FastCaching, Hls, LinkModel, Mss,
                       PacketEvent, StreamSpec, Throttling, compute_buffer,
                       detect_stalls, playback, simulate_session)
from streamsim.cli import main
from streamsim.scenario import default_radio_config, parse_scenario_text
from streamsim.session import run_session
from streamsim.streams import TickSeq
from test_span_equivalence import (_session_variants, _text,
                                   _throttled_below_rate, _throttling)

ROOT = Path(__file__).resolve().parent.parent


def exact_ticks(events) -> TickSeq:
    """A session's events with each data tick's exact bytes (the wire
    events round them to whole bytes)."""
    return TickSeq(events.items, lambda sp, k: PacketEvent(
        sp.tick_t(k), sp.nbytes, sp.connection_id))


def assert_engine_playback(tech, stream, events, dlog, watched,
                           model=ref.compute_buffer):
    """Assert the playback a delivery log reports is the engine's own and,
    for the stream's own bytes, the per-event model's."""
    got = dlog.playback
    qoe = detect_stalls(got)
    assert qoe.stall_events == got.stall_events
    assert got.duration_s == watched
    if isinstance(tech, (Hls, Mss)):
        # the engine's buffer after every tick and decision peaks where
        # the report does
        peak = max(r.buffer_s_after for r in dlog.records)
        assert max(s.buffered_seconds for s in got.samples) == \
            pytest.approx(peak, abs=1e-9)
        return
    want = model(exact_ticks(events), stream, got.joining_time_s,
                 watch_end_s=watched)
    assert got.completed == want.completed
    q_want = ref.detect_stalls(want)
    assert len(qoe.stall_events) == len(q_want.stall_events)
    for (s1, d1), (s2, d2) in zip(q_want.stall_events, qoe.stall_events):
        assert s2 == pytest.approx(s1, abs=1e-6)
        if got.completed or s1 != q_want.stall_events[-1][0]:
            assert d2 == pytest.approx(d1, abs=1e-6)
    samples = got.samples
    if got.completed:
        assert got.playback_end_s == pytest.approx(want.playback_end_s,
                                                   abs=1e-6)
    else:
        # a stall playback never leaves runs to the watch's horizon: the
        # start plus the watch plus the stalls before it
        earlier = sum(d for _, d in qoe.stall_events[:-1])
        assert got.playback_end_s == pytest.approx(
            got.joining_time_s + watched + earlier, abs=1e-6)
        if samples[-1].t_s == got.playback_end_s:
            samples = samples[:-1]
    by_time = iter(want.samples)
    for s in samples:
        match = next((w for w in by_time if abs(w.t_s - s.t_s) <= 1e-9
                      and abs(w.buffered_seconds - s.buffered_seconds)
                      <= 1e-6), None)
        assert match is not None, s
        assert s.buffered_bytes == pytest.approx(match.buffered_bytes,
                                                 rel=1e-6, abs=1e-3)


def assert_session_playback(res):
    sc = res.scenario
    watched = sc.stream.duration_s if sc.abandon_at_s is None else min(
        sc.abandon_at_s, sc.stream.duration_s)
    assert_engine_playback(sc.technique, sc.stream, res.events, res.dlog,
                           watched)
    assert res.buffer is res.dlog.playback
    assert res.summary.joining_time_s == res.dlog.playback.joining_time_s
    assert res.summary.stall_total_s == sum(
        d for _, d in res.dlog.playback.stall_events)
    assert res.summary.wall_time_s == max(res.dlog.playback.playback_end_s,
                                          res.events[-1].t_s)


def _on_radio(sc, radio_tech):
    return replace(sc, radio_tech=radio_tech,
                   radio_cfg=default_radio_config(radio_tech, sc.profile.name),
                   name=f"{sc.name}_{radio_tech}")


@pytest.mark.parametrize("radio_tech", ["wifi", "hspa", "lte"])
@pytest.mark.parametrize("variant", range(7))
def test_session_variants_report_the_engine_playback(variant, radio_tech):
    res = run_session(_on_radio(_session_variants()[variant], radio_tech))
    assert_session_playback(res)


def test_ladder_sessions_report_the_engine_buffer():
    """On the base HSPA scenario a ladder-blind replay of an HLS session
    peaks at 95.7 s and shows no stall; the engine, which buffers each
    rung at its own rate, peaks at 67.5 s and stalls for 1 s.  For MSS the
    replay peaks at 67.8 s and the engine at 61.1 s."""
    hls, mss = (res for res in map(run_session, _session_variants())
                if isinstance(res.scenario.technique, (Hls, Mss)))
    for res, peak, blind_peak in ((hls, 67.5, 95.7), (mss, 61.1, 67.8)):
        blind = ref.compute_buffer(
            exact_ticks(res.events), res.scenario.stream,
            res.summary.joining_time_s)
        assert max(s.buffered_seconds for s in blind.samples) == \
            pytest.approx(blind_peak, abs=0.05)
        assert max(s.buffered_seconds for s in res.buffer.samples) == \
            pytest.approx(peak, abs=0.05)
        if res is hls:
            assert ref.detect_stalls(blind).stall_events == []
    assert hls.summary.stall_count == 1
    assert hls.summary.stall_total_s == pytest.approx(1.0, abs=1e-9)
    assert mss.summary.stall_count == 0


def _long_inputs(seed, tmp_path):
    """The benchmark's long-input scenarios for a seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.prepare_long_inputs(str(ROOT / "src"), str(tmp_path),
                                           seed, 1.0)
    return workloads.long_scenarios(inputs)


def test_long_inputs_report_the_engine_playback(tmp_path):
    for sc in _long_inputs(1, tmp_path):
        assert_session_playback(run_session(sc))


def test_long_link_has_no_sliver_stall(tmp_path):
    """The seed-3 3,000-segment link plays through without a stall; a
    replay of its ticks from a closed-form start reported one of 44 us."""
    link_sc = _long_inputs(3, tmp_path)[0]
    assert len(link_sc.link.segments) == 3000
    res = run_session(link_sc)
    assert res.summary.stall_count == 0
    assert res.qoe.stall_events == []


def _base_with(*lines):
    return parse_scenario_text(_text("youtube_onoffm_hspa")
                               + "".join(f"{line}\n" for line in lines))


def test_join_uses_the_configured_promotion_latency():
    """The fast start holds the 4 s start threshold 1.07 s in; playback
    starts the scenario's promotion latency later."""
    assert run_session(_base_with()).summary.joining_time_s == \
        pytest.approx(3.07, abs=1e-9)
    fast = run_session(_base_with("radio.promotion_latency_s = 0.5"))
    assert fast.summary.joining_time_s == pytest.approx(1.57, abs=1e-9)
    text = _text("youtube_onoffm_hspa").replace("radio.technology = hspa",
                                                "radio.technology = lte")
    lte = run_session(parse_scenario_text(
        text + "radio.promotion_latency_ms = 300\n"))
    assert lte.summary.joining_time_s == pytest.approx(1.37, abs=1e-9)


def _strict(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_join_failure_summary_is_strict_json(tmp_path):
    """The link dies before the start threshold is buffered: the join
    fails, which the summary writes as null, with one stall over the
    whole watch."""
    scn = tmp_path / "dead.scn"
    scn.write_text(_text("youtube_onoffm_hspa").replace(
        "link.bandwidth_bps = 8000000",
        "link.segments = 0:8000000, 0.5:0"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
    got = _strict((out / "session_summary.json").read_text())
    assert got["joining_time_s"] is None
    assert got["stall_count"] == 1
    assert got["stall_total_s"] == pytest.approx(600.0)
    assert got["wall_time_s"] == pytest.approx(600.0)


def test_buffer_replay_ties_like_the_engine():
    """Throttling at 0.8 of the encoding rate can empty the buffer
    exactly on an arrival, a tie.  compute_buffer decides those ties with
    the engine's tolerances, so its replay of the session's own ticks
    from the reported start gives the report's stalls; the per-event model
    as it was, with a 1e-12 s tie, opens stalls at ties where the engine
    plays on."""
    sc = replace(_throttling("base"), technique=_throttled_below_rate(0.8))
    res = run_session(sc)
    join = res.summary.joining_time_s
    replay = detect_stalls(compute_buffer(exact_ticks(res.events),
                                          sc.stream, join))
    assert len(replay.stall_events) == len(res.qoe.stall_events) >= 5
    for (s1, d1), (s2, d2) in zip(replay.stall_events,
                                  res.qoe.stall_events):
        assert s2 == pytest.approx(s1, abs=1e-9)
        assert d2 == pytest.approx(d1, abs=1e-9)
    old = ref.detect_stalls(ref.compute_buffer(exact_ticks(res.events),
                                               sc.stream, join))
    assert [round(t, 3) for t, _ in old.stall_events[:3]] == \
        [212.64, 237.258, 261.834]
    assert [round(t, 3) for t, _ in res.qoe.stall_events[:3]] == \
        [212.64, 237.521, 262.424]


def test_short_stream_starts_once_delivered(hd_stream, link4):
    """Content shorter than the start threshold starts playing once it is
    all delivered, the radio's promotion latency later."""
    stream = replace(hd_stream, duration_s=3.0, size_bytes=None)
    events, dlog = simulate_session(stream, link4, FastCaching(),
                                    start_delay_s=2.0)
    assert dlog.playback.joining_time_s == pytest.approx(events[-1].t_s + 2.0)
    assert dlog.playback.completed and dlog.playback.stall_events == []


def test_stall_at_the_end_of_the_content_resumes_once_it_is_delivered():
    """On a 1.9 Mbps link a 2 Mbps stream stalls for the last time at
    628.47 s.  The rest of the content, 3.07 s of it, arrives 3.18 s later,
    below the 4 s resume threshold.  All of the content counts as holding
    the threshold, so playback resumes at the last arrival and completes;
    the stall used to last to the horizon, with the content left buffered."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    events, dlog = simulate_session(stream, LinkModel.constant(1.9e6),
                                    FastCaching(), start_delay_s=2.0)
    played = dlog.playback
    assert played.completed and dlog.notes == []
    assert len(played.stall_events) == 7
    since, duration = played.stall_events[-1]
    assert since == pytest.approx(628.4675, abs=1e-9)
    assert since + duration == pytest.approx(events[-1].t_s, abs=1e-9)
    assert duration == pytest.approx(3.1814, abs=1e-4)
    assert played.playback_end_s == pytest.approx(since + duration + 3.0675,
                                                  abs=1e-6)
    assert dlog.bytes_buffered_end == 0.0
    # the per-event model and the stall detector resume by the same rule
    replay = compute_buffer(exact_ticks(events), stream,
                            played.joining_time_s)
    assert replay.completed
    stalls = detect_stalls(replay).stall_events
    assert len(stalls) == len(played.stall_events)
    for got, want in zip(stalls, played.stall_events):
        assert got == pytest.approx(want, abs=1e-6)


def test_content_within_a_millisecond_of_its_end_plays_out():
    """Delivery ends with 8e-5 s of this stream's content unsent, which
    counts as delivered.  Playback used to stall on that sliver at the end
    and never leave the stall; now an empty buffer has played it all."""
    stream = StreamSpec(duration_s=16.100081500129118,
                        encoding_rate_bps=2e6)
    tech = Throttling(factor=2.0, chunk_bytes=16384, faststart_target_s=4.0)
    _, dlog = simulate_session(stream, LinkModel.constant(16e6), tech,
                               start_threshold_s=1.0, resume_threshold_s=1.0)
    assert 0 < stream.duration_s - dlog.content_delivered_s <= 1e-3
    played = dlog.playback
    assert played.completed and played.stall_events == []
    assert "session ends stalled: content underrun" not in dlog.notes
    assert played.playback_end_s == pytest.approx(
        played.joining_time_s + dlog.content_consumed_s, abs=1e-9)


def test_report_is_labelled_with_the_engine_resume_threshold():
    """A session run at a 1 s resume threshold reports a timeline labelled
    1 s, so its stalls can be asked for at the threshold they were decided
    at, and at no other."""
    stream = StreamSpec(duration_s=60.0, encoding_rate_bps=2e6)
    _, dlog = simulate_session(stream, LinkModel.constant(1.8e6, rtt_ms=70),
                               EncodingRate(), resume_threshold_s=1.0)
    tl = dlog.playback
    qoe = detect_stalls(tl)
    assert tl.resume_threshold_s == 1.0
    assert detect_stalls(tl, resume_threshold_s=1.0) == qoe
    assert len(qoe.stall_events) == 3
    with pytest.raises(ValueError, match="resume threshold of 1.0 s"):
        detect_stalls(tl, resume_threshold_s=4.0)


@pytest.mark.parametrize("join", [0.0, 2.0, 7.5, playback.JOIN_FAILURE_S])
def test_compute_buffer_reports_the_join_it_was_given(join):
    """compute_buffer returns its replay's own timeline, labelled with the
    start it was given, a join failure included."""
    stream = StreamSpec(duration_s=60.0, encoding_rate_bps=2e6)
    events, _ = simulate_session(stream, LinkModel.constant(4e6),
                                 FastCaching())
    tl = compute_buffer(exact_ticks(events), stream, joining_time_s=join)
    assert tl.joining_time_s == join
    assert tl.duration_s == stream.duration_s


def test_run_session_calls_detect_stalls_once_through_its_module(
        monkeypatch):
    """run_session looks detect_stalls up on the playback module, as a
    timing wrapper set on that attribute sees it, and calls it once, on
    the timeline it reports."""
    calls = []
    real = playback.detect_stalls

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(playback, "detect_stalls", counting)
    res = run_session(_base_with())
    assert len(calls) == 1
    assert calls[0][0] is res.buffer is res.dlog.playback
