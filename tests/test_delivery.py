import math
import statistics

import pytest

from conftest import link_capacity, steady_off_durations
from streamsim import (EncodingRate, FastCaching, Hls, LinkModel, Mss, OnOffM,
                       OnOffS, StreamSpec, Throttling, preset,
                       simulate_multi_connection_waste, simulate_session)
from streamsim.delivery import EVENT_TICK_S
from streamsim.streams import event_order


def _data(events):
    return [e for e in events if e.kind == "data"]


def _cum_at(events, t):
    return sum(e.bytes for e in _data(events) if e.t_s <= t)


def _chunk_starts(events, gap=0.12):
    data = _data(events)
    starts = [data[0].t_s]
    for a, b in zip(data, data[1:]):
        if b.t_s - a.t_s > gap:
            starts.append(b.t_s)
    return starts


def assert_conservation(dlog):
    total = dlog.bytes_consumed + dlog.bytes_buffered_end + dlog.bytes_wasted
    assert dlog.bytes_delivered == pytest.approx(total, abs=2.0)


# --------------------------------------------------------------------------
# fast caching
# --------------------------------------------------------------------------

def test_fast_caching_drains_in_120s(hd_stream):
    """A 10 minute 720p stream sized so the link drains it in 120 s."""
    link = LinkModel.constant(hd_stream.size_bytes * 8 / 120.0, rtt_ms=70)
    events, dlog = simulate_session(hd_stream, link, FastCaching())
    assert _data(events)[-1].t_s == pytest.approx(120.0, abs=0.5)
    assert dlog.bytes_delivered == pytest.approx(hd_stream.size_bytes, abs=2)
    assert_conservation(dlog)


# --------------------------------------------------------------------------
# throttling
# --------------------------------------------------------------------------

def test_throttling_completion_matches_closed_form(hd_stream, link4):
    """Delivery completes at about faststart_time plus the throttled
    drain of the remaining bytes."""
    tech = Throttling(factor=2.0, chunk_bytes=192 * 1024)
    events, dlog = simulate_session(hd_stream, link4, tech)
    r = hd_stream.encoding_rate_bps
    c = link4.bandwidth_at(0.0)
    # fast start fills the 40 s target net of concurrent playback
    start_fill = 4.0 * r / c                     # playback threshold
    fs_wall = start_fill + (40.0 - 4.0) * r / (c - r)
    fs_bytes = hd_stream.bytes_for_content(0, 40.0 + fs_wall - start_fill)
    expect = link4.rtt_s + fs_wall + (hd_stream.size_bytes - fs_bytes) * 8 / (2 * r)
    assert _data(events)[-1].t_s == pytest.approx(expect, rel=0.02)
    assert_conservation(dlog)


@pytest.mark.parametrize("rate,chunk,factor", [
    (400_000.0, 64 * 1024, 1.25),     # LD served in 64 KB chunks
    (2_000_000.0, 192 * 1024, 1.25),  # HD chunk size grows to 192 KB
])
def test_throttling_chunk_period(rate, chunk, factor):
    stream = StreamSpec(duration_s=600, encoding_rate_bps=rate)
    link = LinkModel.constant(8 * rate, rtt_ms=70)
    events, _ = simulate_session(stream, link, Throttling(factor=factor,
                                                          chunk_bytes=chunk))
    starts = _chunk_starts(events)
    steady = [b - a for a, b in zip(starts[2:], starts[3:])][:-2]
    want = chunk * 8.0 / (factor * rate)
    assert statistics.median(steady) == pytest.approx(want, rel=0.02)


def test_throttling_long_run_rate(ld_stream):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    tech = Throttling(factor=2.0)
    events, _ = simulate_session(ld_stream, link, tech)
    data = _data(events)
    # measure after the fast start settles
    t0, t1 = 60.0, data[-1].t_s
    got = sum(e.bytes for e in data if t0 < e.t_s <= t1) * 8 / (t1 - t0)
    assert got == pytest.approx(2.0 * ld_stream.encoding_rate_bps, rel=0.02)


def test_throttling_infinite_factor_equals_fast_caching(hd_stream, link4):
    ev_inf, _ = simulate_session(hd_stream, link4, Throttling(factor=math.inf))
    ev_fc, _ = simulate_session(hd_stream, link4, FastCaching())
    assert [(e.t_s, e.bytes) for e in _data(ev_inf)] == \
           [(e.t_s, e.bytes) for e in _data(ev_fc)]


def test_throttling_chunks_coalesce_below_rtt(hd_stream):
    link = LinkModel.constant(8_000_000, rtt_ms=300)
    tech = Throttling(factor=2.0, chunk_bytes=64 * 1024)   # period 0.13 s
    _, dlog = simulate_session(hd_stream, link, tech)
    assert any("coalesce" in n for n in dlog.notes)


# --------------------------------------------------------------------------
# encoding rate
# --------------------------------------------------------------------------

def test_encoding_rate_steady_arrival_tracks_consumption(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, EncodingRate())
    data = _data(events)
    got = sum(e.bytes for e in data if 100 < e.t_s <= 400) * 8 / 300.0
    assert got == pytest.approx(hd_stream.encoding_rate_bps, rel=0.01)
    # radio never idles between packets: steady gaps stay below 100 ms
    steady = [b.t_s - a.t_s for a, b in zip(data, data[1:])
              if 100 < a.t_s < 400]
    assert max(steady) <= 2 * EVENT_TICK_S
    assert_conservation(dlog)


def test_encoding_rate_buffer_plateaus_at_target(hd_stream, link4):
    _, dlog = simulate_session(hd_stream, link4, EncodingRate())
    mid = [r.buffer_s_after for r in dlog.records
           if r.event == "data" and 100 < r.t_s < 500]
    assert min(mid) >= 39.0 and max(mid) <= 41.0


def test_encoding_rate_bandwidth_cap_carries_deficit(hd_stream):
    """When the link drops below the encoding rate, arrivals are limited
    to the link and the shortfall shows up as a drained buffer."""
    link = LinkModel(((0.0, 8_000_000.0), (100.0, 1_000_000.0),
                      (160.0, 8_000_000.0)), 70)
    events, dlog = simulate_session(hd_stream, link, EncodingRate())
    in_dip = sum(e.bytes for e in _data(events) if 100 < e.t_s <= 160)
    assert in_dip * 8 / 60.0 <= 1_000_000 * 1.02
    assert_conservation(dlog)


# --------------------------------------------------------------------------
# ON-OFF over a single connection
# --------------------------------------------------------------------------

def _probe_timer_gaps(events):
    """Gaps between consecutive probes with no data in between: these are
    realised persist-timer values."""
    probes = [e.t_s for e in events if e.kind == "persist_probe"]
    datas = [e.t_s for e in _data(events)]
    gaps = []
    for a, b in zip(probes, probes[1:]):
        if not any(a < t < b for t in datas):
            gaps.append(b - a)
    return gaps


def test_onoff_s_vimeo_probe_cap_exactly_5s(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("vimeo_onoffs"))
    gaps = _probe_timer_gaps(events)
    assert max(gaps) == pytest.approx(5.0, abs=1e-6)
    # keepalives: 64 KB reads every 16 s during OFF
    assert dlog.connections_opened == 1
    assert_conservation(dlog)


def test_onoff_s_netflix_probe_cap_exactly_10s(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("netflix_onoffs"))
    gaps = _probe_timer_gaps(events)
    assert max(gaps) == pytest.approx(10.0, abs=1e-6)
    offs = steady_off_durations(dlog)
    assert all(abs(o - 30.0) < 0.5 for o in offs[:-1])


def test_onoff_s_probes_only_during_off(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("vimeo_onoffs"))
    for e in events:
        if e.kind == "persist_probe":
            assert any(a - 1e-6 <= e.t_s <= b + 1e-6
                       for a, b in dlog.off_spans), e
    assert dlog.overhead_bytes > 0


def test_onoff_s_off_duration_tracks_upper(ld_stream):
    """Legacy 5 MB player: OFF lasts about upper/encoding-rate."""
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    tech = OnOffS(upper_bytes=5 * 1024 * 1024, lower_s=0.5,
                  keepalive_interval_s=16.0)
    _, dlog = simulate_session(ld_stream, link, tech)
    offs = steady_off_durations(dlog)[:-1]
    want = 5 * 1024 * 1024 * 8 / ld_stream.encoding_rate_bps
    assert statistics.median(offs) == pytest.approx(want, rel=0.10)


def test_onoff_s_no_keepalives_in_netflix_mode(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("netflix_onoffs"))
    for a, b in dlog.off_spans:
        mid_data = [e for e in _data(events) if a + 1 < e.t_s < b - 1]
        assert not mid_data


# --------------------------------------------------------------------------
# ON-OFF over sequential connections
# --------------------------------------------------------------------------

def test_onoff_m_fixed_mode_off_is_60s(hd_stream, link4):
    _, dlog = simulate_session(hd_stream, link4, preset("youtube_onoffm"))
    offs = steady_off_durations(dlog)
    assert offs and all(abs(o - 60.0) <= 1.0 for o in offs)
    # 100 s upper and 40 s lower translate to a 60 s dynamic buffer
    closes = [r.buffer_s_after for r in dlog.records if r.event == "close"]
    opens = [r.buffer_s_after for r in dlog.records if r.event == "open"][1:]
    assert max(closes) == pytest.approx(100.0, abs=1.0)
    assert min(opens) == pytest.approx(40.0, abs=1.0)


def test_onoff_m_threshold_mode_refills_at_lower(hd_stream, link4):
    _, dlog = simulate_session(hd_stream, link4, OnOffM(upper_s=100, lower_s=40))
    opens = [r.buffer_s_after for r in dlog.records if r.event == "open"][1:]
    assert opens and all(abs(v - 40.0) <= 1.0 for v in opens)


def test_onoff_m_steady_cycles_are_periodic(hd_stream, link4):
    """Steady-state ON/OFF cycle lengths stay constant to within one
    event quantum."""
    _, dlog = simulate_session(hd_stream, link4, preset("youtube_onoffm"))
    ons = [b - a for a, b in dlog.on_spans[1:-1]]
    offs = steady_off_durations(dlog)[:-1]
    for seq in (ons, offs):
        if len(seq) >= 2:
            assert max(seq) - min(seq) <= 5 * EVENT_TICK_S


@pytest.mark.parametrize("name", ["vimeo_iphone5", "legacy_onoffs",
                                  "vimeo_onoffs"])
def test_on_off_periods_begin_at_the_logs_rows(name):
    """Each ON and OFF period begins exactly at an on or off row of the
    delivery log, those of a train's jumped repeats included."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    _, dlog = simulate_session(stream, LinkModel.constant(8e6), preset(name))
    assert any(getattr(it, "m", 0) > 2 for it in dlog.records.items)
    rows = {(r.event, r.t_s) for r in dlog.records if r.event in ("on", "off")}
    assert dlog.on_spans and dlog.off_spans
    for event, spans in (("on", dlog.on_spans), ("off", dlog.off_spans)):
        for start, _ in spans:
            assert (event, start) in rows, (event, start)


def test_onoff_m_chunked_vimeo_iphone5_off_duration(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("vimeo_iphone5"))
    offs = steady_off_durations(dlog)[:-1]
    want = 5 * 1024 * 1024 * 8 / hd_stream.encoding_rate_bps
    assert statistics.median(offs) == pytest.approx(want, rel=0.05)
    # 30 MB fast start on the first connection
    first_close = next(r for r in dlog.records if r.event == "close")
    first_bytes = sum(e.bytes for e in _data(events)
                      if e.t_s <= first_close.t_s and e.connection_id == 0)
    assert first_bytes == pytest.approx(30 * 1024 * 1024, rel=0.01)


def test_onoff_m_collapsed_thresholds_equal_encoding_rate(hd_stream, link4):
    """upper == lower degenerates to continuous window-clocked delivery."""
    ev_deg, _ = simulate_session(hd_stream, link4, OnOffM(upper_s=40, lower_s=40))
    ev_enc, _ = simulate_session(hd_stream, link4, EncodingRate())
    chunk = 64 * 1024
    for t in (50.0, 150.0, 300.0, 550.0):
        assert abs(_cum_at(ev_deg, t) - _cum_at(ev_enc, t)) <= chunk


def test_onoff_m_refills_open_new_connections(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, preset("youtube_onoffm"))
    assert dlog.connections_opened >= 3
    reqs = [e for e in events if e.kind == "request"]
    assert len(reqs) == dlog.connections_opened


# --------------------------------------------------------------------------
# multi-connection keyframe waste
# --------------------------------------------------------------------------

def _waste_stream(kf_bytes):
    size = 76 * 1024 * 1024
    return StreamSpec(duration_s=600, encoding_rate_bps=size * 8 / 600,
                      size_bytes=size, keyframe_interval_bytes=kf_bytes)


def test_waste_zero_when_buffer_holds_everything():
    stream = _waste_stream(2e6)
    link = LinkModel.constant(4 * stream.encoding_rate_bps, rtt_ms=70)
    _, dlog = simulate_multi_connection_waste(stream, link,
                                              buffer_bytes=stream.size_bytes * 2)
    assert dlog.bytes_wasted == 0.0
    assert dlog.connections_opened == 1


def test_waste_requires_keyframe_interval(hd_stream, link4):
    with pytest.raises(ValueError, match="keyframe"):
        simulate_multi_connection_waste(hd_stream, link4)


def test_waste_ends_when_the_link_dies():
    """The reopen loop stops once the link starves, where it used to
    reopen a connection and wait for the buffer to drain for ever."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6,
                        keyframe_interval_bytes=2.4e6)
    link = LinkModel(((0.0, 8e6), (5.0, 0.0)), rtt_ms=70)
    _, dlog = simulate_multi_connection_waste(stream, link)
    assert "link starved with no recovery" in dlog.notes
    assert not dlog.playback.completed
    assert_conservation(dlog)


def test_waste_books_the_bytes_moved_when_the_link_dies_mid_refetch():
    """A re-fetched keyframe fragment that the dying link cuts short is
    wasted only as far as it was moved; booking the whole fragment broke
    byte conservation (45.90 MB accounted for 45.65 MB delivered)."""
    stream = StreamSpec(600, 2e6, keyframe_interval_bytes=3e6)
    link = LinkModel(((0.0, 8e6), (94.24, 0.0)))
    _, dlog = simulate_multi_connection_waste(stream, link,
                                              reopen_free_bytes=4e6)
    assert "link starved with no recovery" in dlog.notes
    assert 0 < dlog.bytes_wasted < 3e6
    assert_conservation(dlog)


@pytest.mark.parametrize("run", [
    lambda stream, link: simulate_session(stream, link, EncodingRate()),
    lambda stream, link: simulate_session(stream, link, Hls()),
    lambda stream, link: simulate_session(stream, link, Mss()),
    simulate_multi_connection_waste,
], ids=["encoding_rate", "hls", "mss", "waste"])
def test_a_starved_link_is_noted_once(run):
    """Delivery on a link that has died returns at once, so the session
    notes the starved link once; each later request used to note it
    again (2, 8, 2 and 2 times), with every other figure the same."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6,
                        keyframe_interval_bytes=2.4e6)
    link = LinkModel(((0.0, 8e6), (5.0, 0.0)), rtt_ms=70)
    _, dlog = run(stream, link)
    assert dlog.notes == ["link starved with no recovery",
                          "session ends stalled: content underrun"]


def test_waste_tuned_scenario_reproduces_observed_overhead():
    """25 MB player buffer with eager re-requests: about 66 connections
    and roughly 2.1x the content size on the wire."""
    stream = _waste_stream(2.4e6)
    link = LinkModel.constant(4 * stream.encoding_rate_bps, rtt_ms=70)
    _, dlog = simulate_multi_connection_waste(
        stream, link, buffer_bytes=25 * 1024 * 1024,
        reopen_free_bytes=0.10e6, throttle_factor=3.0)
    assert 50 <= dlog.connections_opened <= 82          # 66 +- 25%
    ratio = dlog.bytes_delivered / stream.size_bytes
    assert 2.1 * 0.75 <= ratio <= 2.1 * 1.25
    assert_conservation(dlog)


def test_waste_monotone_in_keyframe_interval():
    wastes = []
    for kf in (0.5e6, 1e6, 2e6, 4e6):
        stream = _waste_stream(kf)
        link = LinkModel.constant(4 * stream.encoding_rate_bps, rtt_ms=70)
        _, dlog = simulate_multi_connection_waste(stream, link,
                                                  reopen_free_bytes=0.4e6)
        wastes.append(dlog.bytes_wasted)
    assert wastes == sorted(wastes)
    assert all(w >= 0 for w in wastes)


# --------------------------------------------------------------------------
# rate-adaptive: HLS and smooth streaming
# --------------------------------------------------------------------------

def test_hls_steady_buffer_60_to_70s(hd_stream):
    link = LinkModel.constant(20_000_000, rtt_ms=30)
    _, dlog = simulate_session(hd_stream, link, Hls())
    mid = [r.buffer_s_after for r in dlog.records
           if r.event == "data" and 200 < r.t_s < 500]
    assert min(mid) >= 55.0 and max(mid) <= 75.0


def test_hls_upswitch_discards_buffered_lower_quality(hd_stream):
    """Quality steps up once the measured bandwidth clears the next rung
    for three chunks; the buffered lower-quality span is wasted and
    re-fetched."""
    hls = Hls(ladder=(("sd", 1_000_000.0), ("hd", 2_000_000.0)))
    link = LinkModel(((0.0, 1_600_000.0), (200.0, 20_000_000.0)), 70)
    events, dlog = simulate_session(hd_stream, link, hls)
    assert dlog.quality_switches and dlog.quality_switches[0][1:] == ("sd", "hd")
    t_switch = dlog.quality_switches[0][0]
    # three consecutive fast chunks after the 200 s bandwidth step
    assert 200.0 + 2 * 10.0 <= t_switch <= 200.0 + 4.5 * 10.0
    recs = dlog.records
    idx = next(i for i, r in enumerate(recs) if r.event == "discard")
    # discarded bytes equal the buffered sd seconds right before the switch
    buffered_before = recs[idx - 1].buffer_s_after
    assert recs[idx].bytes == pytest.approx(dlog.bytes_wasted, abs=2.0)
    assert dlog.bytes_wasted == pytest.approx(buffered_before * 1_000_000 / 8,
                                              rel=0.01)
    assert_conservation(dlog)


def test_hls_no_discard_without_flag(hd_stream):
    hls = Hls(ladder=(("sd", 1_000_000.0), ("hd", 2_000_000.0)),
              discard_on_upswitch=False)
    link = LinkModel(((0.0, 1_600_000.0), (200.0, 20_000_000.0)), 70)
    _, dlog = simulate_session(hd_stream, link, hls)
    assert dlog.quality_switches
    assert dlog.bytes_wasted == 0.0


def test_hls_audio_split_offset(hd_stream):
    hls = Hls(audio_video_split=True, av_offset_s=5.0)
    link = LinkModel.constant(20_000_000, rtt_ms=30)
    events, _ = simulate_session(hd_stream, link, hls)
    video = [e for e in _data(events) if e.connection_id == 0]
    audio = [e for e in _data(events) if e.connection_id == 1]
    assert audio, "split mode must emit audio chunks"
    # steady-state audio chunks sit about av_offset after a video chunk start
    v_starts = _chunk_starts(video)
    mid_audio = [a for a in audio if 200 < a.t_s < 500]
    for a in mid_audio[:10]:
        prev_v = max(t for t in v_starts if t <= a.t_s)
        assert 3.0 <= a.t_s - prev_v <= 7.0


def test_mss_audio_after_every_four_video_chunks(hd_stream):
    link = LinkModel.constant(20_000_000, rtt_ms=30)
    events, _ = simulate_session(hd_stream, link, Mss())
    # separate audio (aux) from video by size at the steady rung
    starts = _chunk_starts(_data(events))
    assert len(starts) > 20


def test_mss_startup_buffers_60s(hd_stream):
    link = LinkModel.constant(20_000_000, rtt_ms=30)
    _, dlog = simulate_session(hd_stream, link, Mss())
    peak_early = max(r.buffer_s_after for r in dlog.records if r.t_s < 30)
    assert peak_early == pytest.approx(60.0, abs=4.5)


def test_mss_stays_on_lowest_rung_when_starved(hd_stream):
    link = LinkModel.constant(300_000, rtt_ms=30)   # below the lowest rung
    _, dlog = simulate_session(hd_stream, link,
                               Mss(ladder=(("ld", 400_000.0),
                                           ("sd", 1_000_000.0))))
    assert not dlog.quality_switches


def test_mss_ends_when_the_link_dies_before_its_startup_buffer(hd_stream):
    """The startup loop stops once the link starves: the session ends in
    a stall playback never leaves, where it used to request for ever."""
    link = LinkModel(((0.0, 8e6), (5.0, 0.0)), rtt_ms=70)
    _, dlog = simulate_session(hd_stream, link, Mss())
    assert "link starved with no recovery" in dlog.notes
    assert dlog.notes[-1] == "session ends stalled: content underrun"
    assert not dlog.playback.completed
    assert len(dlog.playback.stall_events) == 1


def test_mss_switches_to_max_sustainable_within_first_chunks(hd_stream):
    link = LinkModel.constant(20_000_000, rtt_ms=30)
    _, dlog = simulate_session(hd_stream, link, Mss())
    assert dlog.quality_switches
    t, frm, to = dlog.quality_switches[0]
    assert to == "hd" and t < 20.0


# --------------------------------------------------------------------------
# cross-cutting
# --------------------------------------------------------------------------

def test_abandon_at_zero_gives_empty_event_list(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, FastCaching(),
                                    abandon_at_s=0.0)
    assert events == []
    assert dlog.bytes_delivered == 0.0


def test_abandon_truncates_delivery(hd_stream, link4):
    events, dlog = simulate_session(hd_stream, link4, EncodingRate(),
                                    abandon_at_s=100.0)
    assert dlog.content_consumed_s == pytest.approx(100.0, abs=0.1)
    assert _data(events)[-1].t_s < 110.0
    assert_conservation(dlog)


def test_events_sorted_with_deterministic_tiebreak(hd_stream, link4):
    events, _ = simulate_session(hd_stream, link4, preset("vimeo_onoffs"))
    assert events == sorted(events, key=event_order)


def test_determinism_same_inputs_same_events(hd_stream, link4):
    tech = preset("youtube_onoffm")
    a, _ = simulate_session(hd_stream, link4, tech)
    b, _ = simulate_session(hd_stream, link4, tech)
    assert a == b


def test_link_respected_per_segment(hd_stream):
    link = LinkModel(((0.0, 8e6), (30.0, 1e6), (60.0, 4e6)), 70)
    for tech in (FastCaching(), EncodingRate(), Throttling(factor=2.0),
                 preset("youtube_onoffm"), Hls(), Mss()):
        events, _ = simulate_session(hd_stream, link, tech)
        segs = list(link.segments) + [(math.inf, 0.0)]
        for (a, _bw), (b, _) in zip(segs, segs[1:]):
            got = sum(e.bytes for e in _data(events) if a < e.t_s <= b)
            assert got <= link_capacity(link, a, min(b, 1e7)) + 64 * 1024, \
                (type(tech).__name__, a)


def test_throttling_jittered_chunks_deterministic_by_seed(ld_stream):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    tech = Throttling(factor=1.25, chunk_jitter=True)
    a, _ = simulate_session(ld_stream, link, tech, seed=5)
    b, _ = simulate_session(ld_stream, link, tech, seed=5)
    c, _ = simulate_session(ld_stream, link, tech, seed=6)
    assert a == b and a != c
    # jitter varies sizes but preserves the long-run throttled pace
    t0, t1 = 60.0, 400.0
    got = sum(e.bytes for e in a if e.kind == "data" and t0 < e.t_s <= t1)
    want = 1.25 * ld_stream.encoding_rate_bps * (t1 - t0) / 8
    assert got == pytest.approx(want, rel=0.05)
    sizes = {e.bytes for e in a if e.kind == "data" and e.t_s > t0}
    assert len(sizes) > 10


def test_onoff_m_fixed_off_longer_than_buffer_stalls_downstream(ld_stream):
    """An OFF period long enough to drain the buffer is not a delivery
    error; the underrun surfaces as a playback stall."""
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    tech = OnOffM(upper_s=50.0, lower_s=10.0, off_fixed_s=80.0)
    events, dlog = simulate_session(ld_stream, link, tech)
    assert sum(d for _, d in dlog.playback.stall_events) > 10.0
    assert_conservation(dlog)


# --------------------------------------------------------------------------
# engine guards
# --------------------------------------------------------------------------

@pytest.mark.parametrize("tech,abandon_at_s,message", [
    # 0.4 s of buffer never reaches the 4 s start: each turn records only
    # an off and an on, and sends nothing
    (OnOffS(upper_bytes=1e5, lower_s=0.1), None, "moved neither the clock"),
    (Hls(chunk_s=1e-9), None, "moved neither the clock"),
    (OnOffS(off_fixed_s=1e-9), None, "moved neither the clock"),
    (EncodingRate(), 601.0, "abandon_at_s exceeds the stream duration"),
], ids=["onoff_s_below_start", "hls_1e-9_chunks", "onoff_s_1e-9_off",
        "abandon_past_the_end"])
def test_engine_guards_raise(tech, abandon_at_s, message):
    """A loop turn that moves neither the clock nor a byte, and a watch
    longer than the stream, are errors, not a hang or a silent clip."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    with pytest.raises(ValueError, match=message):
        simulate_session(stream, LinkModel.constant(8e6), tech,
                         abandon_at_s=abandon_at_s)
