import math
import random

import pytest

from streamsim import (EncodingRate, FastCaching, LinkModel, OnOffS,
                       PacketEvent, StreamSpec, compute_buffer, detect_stalls,
                       joining_time, preset, simulate_session)
from streamsim.delivery import replay_arrivals
from streamsim.playback import JOIN_FAILURE_S
from streamsim.streams import ChunkTrain, TransferSpan
from tick_reference import expand_ticks


def test_no_arrivals_one_stall_spanning_playback(hd_stream):
    tl = compute_buffer([], hd_stream, joining_time_s=2.0)
    assert all(s.buffered_seconds == 0.0 for s in tl.samples)
    assert not tl.completed
    qoe = detect_stalls(tl)
    assert len(qoe.stall_events) == 1
    start, dur = qoe.stall_events[0]
    assert start == pytest.approx(2.0)
    assert dur == pytest.approx(hd_stream.duration_s)


def test_encoding_rate_buffer_plateau(hd_stream, link4):
    events = expand_ticks(simulate_session(hd_stream, link4, EncodingRate())[0])
    join = joining_time(EncodingRate(), hd_stream, link4, "wifi")
    tl = compute_buffer(events, hd_stream, join)
    vals = [tl.value_at(t) for t in range(100, 500, 25)]
    assert all(25.0 <= v <= 45.0 for v in vals)


def test_fast_caching_buffer_at_50s_of_playback(hd_stream):
    """Content sized to drain in 120 s: at 50 s of playback roughly 200 s
    of content sit in the buffer."""
    link = LinkModel.constant(hd_stream.size_bytes * 8 / 120.0, rtt_ms=70)
    events = expand_ticks(simulate_session(hd_stream, link, FastCaching())[0])
    join = joining_time(FastCaching(), hd_stream, link, "wifi")
    tl = compute_buffer(events, hd_stream, join)
    assert tl.value_at(join + 50.0) == pytest.approx(200.0, abs=15.0)


def test_joining_time_radio_ordering(hd_stream, link4):
    tech = EncodingRate()
    j = {rt: joining_time(tech, hd_stream, link4, rt)
         for rt in ("wifi", "lte", "hspa")}
    assert j["wifi"] < j["lte"] < j["hspa"]
    assert j["lte"] - j["wifi"] >= 0.12 - 1e-9
    assert j["hspa"] - j["wifi"] >= 1.88


def test_joining_time_ld_before_hd(ld_stream, hd_stream):
    link = LinkModel.constant(8_000_000, rtt_ms=70)
    tech = EncodingRate()
    assert (joining_time(tech, ld_stream, link, "wifi")
            < joining_time(tech, hd_stream, link, "wifi"))


def test_joining_time_zero_threshold_is_promo_plus_rtt(hd_stream, link4):
    j = joining_time(EncodingRate(), hd_stream, link4, "hspa",
                     start_threshold_s=0.0)
    assert j == pytest.approx(2.0 + link4.rtt_s)


def test_joining_time_dead_link_is_failure_sentinel(hd_stream):
    link = LinkModel.constant(0.0, rtt_ms=70)
    assert joining_time(EncodingRate(), hd_stream, link, "wifi") is JOIN_FAILURE_S
    assert math.isinf(JOIN_FAILURE_S)


def test_buffer_never_negative(hd_stream, link4):
    events = expand_ticks(simulate_session(hd_stream, link4,
                                           preset("youtube_onoffm"))[0])
    join = joining_time(preset("youtube_onoffm"), hd_stream, link4, "hspa")
    tl = compute_buffer(events, hd_stream, join)
    assert all(s.buffered_seconds >= 0.0 for s in tl.samples)
    assert all(s.buffered_bytes >= 0.0 for s in tl.samples)


def test_outage_stall_duration_hand_computed(ld_stream):
    """Hand-built trace: 30 s of content arrives instantly, then nothing
    until t=60, when 4 s (the resume threshold) arrives at once.  Playback
    joins at t=1, drains by t=31, stalls until the refill at 60."""
    bps = ld_stream.bytes_per_second
    events = [PacketEvent(0.5, int(30 * bps), 0),
              PacketEvent(60.0, int(4 * bps), 0),
              PacketEvent(61.0, int(566 * bps), 0)]
    tl = compute_buffer(events, ld_stream, joining_time_s=1.0)
    qoe = detect_stalls(tl)
    assert len(qoe.stall_events) == 1
    start, dur = qoe.stall_events[0]
    assert start == pytest.approx(31.0, abs=1e-6)
    assert dur == pytest.approx(29.0, abs=1e-6)
    assert qoe.stall_ratio == pytest.approx(29.0 / 600.0, rel=1e-6)


def test_stall_never_left_ends_with_the_content_still_buffered(ld_stream):
    """Hand-built trace: 10 s of content arrive at once, playback joins at
    t=1 and stalls at 11; 2 s more arrive at 20, below the 4 s resume
    threshold, and nothing after.  The stall lasts as long as the rest of
    the watch would have, and the last sample holds the 2 s still
    buffered, as a simulated session's does; the replay used to write an
    empty buffer there."""
    bps = ld_stream.bytes_per_second
    events = [PacketEvent(0.5, int(10 * bps), 0),
              PacketEvent(20.0, int(2 * bps), 0)]
    tl = compute_buffer(events, ld_stream, joining_time_s=1.0)
    assert not tl.completed
    assert tl.playback_end_s == pytest.approx(601.0)
    last = tl.samples[-1]
    assert last.t_s == pytest.approx(601.0)
    assert last.buffered_seconds == pytest.approx(2.0)
    assert last.buffered_bytes == pytest.approx(2 * bps)
    qoe = detect_stalls(tl)
    assert qoe.stall_events == [(pytest.approx(11.0), pytest.approx(590.0))]


def test_onoff_s_dip_at_off_end_stalls_only_with_dried_buffer(ld_stream):
    """A bandwidth hole placed where the legacy player's buffer runs dry
    causes a stall; a 40 s lower threshold rides the same hole out."""
    legacy = OnOffS(upper_bytes=5 * 1024 * 1024, lower_s=0.5,
                    keepalive_interval_s=16.0)
    base = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    _, dlog = simulate_session(ld_stream, base, legacy)
    dip_at = dlog.off_spans[0][1] - 2.0    # just before the first refill
    link = LinkModel(((0.0, base.segments[0][1]), (dip_at, 0.0),
                      (dip_at + 30.0, base.segments[0][1])), 70)

    ev1, _ = simulate_session(ld_stream, link, legacy)
    q1 = detect_stalls(compute_buffer(
        expand_ticks(ev1), ld_stream, joining_time(legacy, ld_stream, link, "hspa")))
    assert q1.stall_total_s > 5.0

    safe = OnOffS(upper_bytes=5 * 1024 * 1024, lower_s=40.0,
                  keepalive_interval_s=16.0)
    ev2, _ = simulate_session(ld_stream, link, safe)
    q2 = detect_stalls(compute_buffer(
        expand_ticks(ev2), ld_stream, joining_time(safe, ld_stream, link, "hspa")))
    assert q2.stall_total_s == 0.0


def test_stall_complementarity(ld_stream):
    """Total playback wall time equals watch duration plus stall time."""
    link = LinkModel(((0.0, 1_600_000.0), (50.0, 0.0), (80.0, 1_600_000.0)), 70)
    events = expand_ticks(simulate_session(ld_stream, link, EncodingRate())[0])
    join = joining_time(EncodingRate(), ld_stream, link, "hspa")
    tl = compute_buffer(events, ld_stream, join)
    qoe = detect_stalls(tl)
    assert tl.completed
    assert tl.playback_end_s == pytest.approx(
        join + ld_stream.duration_s + qoe.stall_total_s, abs=0.2)


def test_more_bandwidth_never_hurts(ld_stream):
    """Raising the link pointwise never increases joining time or total
    stall time (random dip profiles)."""
    rng = random.Random(31)
    tech = EncodingRate()
    for _ in range(10):
        base_bw = ld_stream.encoding_rate_bps * rng.uniform(1.2, 3.0)
        dip_start = rng.uniform(20.0, 300.0)
        dip_len = rng.uniform(5.0, 60.0)
        dip_bw = base_bw * rng.choice([0.0, 0.2, 0.5])
        lo = LinkModel(((0.0, base_bw), (dip_start, dip_bw),
                        (dip_start + dip_len, base_bw)), 70)
        hi = LinkModel(((0.0, base_bw * 1.5), (dip_start, dip_bw * 1.5 + 1e5),
                        (dip_start + dip_len, base_bw * 1.5)), 70)
        j_lo = joining_time(tech, ld_stream, lo, "hspa")
        j_hi = joining_time(tech, ld_stream, hi, "hspa")
        assert j_hi <= j_lo + 1e-9
        ev_lo, _ = simulate_session(ld_stream, lo, tech)
        ev_hi, _ = simulate_session(ld_stream, hi, tech)
        s_lo = detect_stalls(compute_buffer(expand_ticks(ev_lo), ld_stream,
                                            j_lo))
        s_hi = detect_stalls(compute_buffer(expand_ticks(ev_hi), ld_stream,
                                            j_hi))
        assert s_hi.stall_total_s <= s_lo.stall_total_s + 0.5


def test_flat_vbr_matches_cbr_exactly():
    stream = StreamSpec(duration_s=300, encoding_rate_bps=1_000_000,
                        vbr_trace=[(0.0, 1_000_000.0)])
    link = LinkModel.constant(4_000_000, rtt_ms=70)
    events, _ = simulate_session(stream, link, EncodingRate())
    tl = compute_buffer(expand_ticks(events), stream, 2.0)
    for s in tl.samples:
        assert s.buffered_bytes == pytest.approx(
            s.buffered_seconds * stream.bytes_per_second, abs=1e-6)


def test_vbr_two_rate_buffer_accounting():
    """With a real VBR trace the same bytes cover different spans of
    content depending on position."""
    stream = StreamSpec(duration_s=100, encoding_rate_bps=1_000_000,
                        size_bytes=100 * 125_000,
                        vbr_trace=[(0.0, 500_000.0), (50.0, 1_500_000.0)])
    # 25 s of cheap content arrive as one blob
    blob = stream.bytes_for_content(0, 25.0)
    tl = compute_buffer([PacketEvent(0.0, int(blob), 0)], stream, 1.0)
    first = next(s for s in tl.samples if s.t_s == 0.0 and s.buffered_seconds)
    assert first.buffered_seconds == pytest.approx(25.0, rel=1e-6)


def test_abandoned_session_watch_end(hd_stream, link4):
    events, _ = simulate_session(hd_stream, link4, EncodingRate(),
                                 abandon_at_s=120.0)
    join = joining_time(EncodingRate(), hd_stream, link4, "hspa")
    tl = compute_buffer(expand_ticks(events), hd_stream, join,
                        watch_end_s=120.0)
    assert tl.completed
    assert tl.playback_end_s == pytest.approx(join + 120.0, abs=0.2)
    assert detect_stalls(tl).stall_events == []


@pytest.mark.parametrize("join", [1.0, math.inf])
def test_zero_length_watch_has_a_zero_stall_ratio(join):
    """A watch of no content, as a session abandoned at 0 s, has no stall
    ratio to take; the timeline keeps the joining time it was given,
    where its replay's log starts at 0 s."""
    tl = compute_buffer([PacketEvent(0.5, 10000, 0)], StreamSpec(600, 2e6),
                        join, watch_end_s=0.0)
    qoe = detect_stalls(tl)
    assert qoe.stall_ratio == 0.0
    assert qoe.joining_time_s == tl.joining_time_s == join


def test_detect_stalls_rejects_another_resume_threshold(hd_stream):
    """The stalls were decided at the timeline's resume threshold: naming
    it is allowed, naming another raises."""
    tl = compute_buffer([], hd_stream, joining_time_s=2.0,
                        resume_threshold_s=1.0)
    assert detect_stalls(tl, resume_threshold_s=1.0) == detect_stalls(tl)
    with pytest.raises(ValueError, match="resume threshold of 1.0 s"):
        detect_stalls(tl, resume_threshold_s=4.0)


def _value_at_by_scan(tl, t):
    """Linear-scan reference: interpolate between the samples around t."""
    prev = nxt = None
    for s in tl.samples:
        if s.t_s > t + 1e-9:
            nxt = s
            break
        prev = s
    if prev is None:
        return 0.0
    if nxt is None or t <= prev.t_s:
        return prev.buffered_seconds
    w = (t - prev.t_s) / (nxt.t_s - prev.t_s)
    return prev.buffered_seconds + w * (nxt.buffered_seconds
                                        - prev.buffered_seconds)


def test_value_at_bisects_like_a_linear_scan(hd_stream, link4):
    events = expand_ticks(simulate_session(hd_stream, link4,
                                           preset("youtube_onoffm"))[0])
    join = joining_time(preset("youtube_onoffm"), hd_stream, link4, "hspa")
    # a plain event list is replayed event by event: one sample per arrival
    tl = compute_buffer(events, hd_stream, join)
    assert len(tl.samples) > 5000
    rng = random.Random(11)
    times = [rng.uniform(-1.0, tl.playback_end_s + 5.0) for _ in range(300)]
    times += [s.t_s for s in tl.samples[::50]]
    for t in times:
        assert tl.value_at(t) == pytest.approx(_value_at_by_scan(tl, t),
                                               abs=1e-12), t


def test_replay_refuses_stored_runs(hd_stream, link4):
    """A stored run stands for many packets but reads as one data packet
    of one tick's bytes, so replaying a session's runs as they are would
    buffer a tick per run: they are refused, and their ticks replay."""
    runs, _ = simulate_session(hd_stream, link4, preset("vimeo_onoffs"))
    train = next(it for it in runs if isinstance(it, ChunkTrain))
    for events in (runs, [train]):
        with pytest.raises(TypeError, match="per-packet PacketEvents"):
            compute_buffer(events, hd_stream, 2.0)
        with pytest.raises(TypeError, match="per-packet PacketEvents"):
            replay_arrivals(events, hd_stream, 2.0)
    assert any(isinstance(it, TransferSpan) for it in runs)
    assert compute_buffer(expand_ticks(runs), hd_stream, 2.0).completed

