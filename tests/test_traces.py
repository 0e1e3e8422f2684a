import random
from itertools import accumulate

import pytest

from streamsim import (EncodingRate, FastCaching, Hls, LinkModel, Mss,
                       PacketEvent, StreamSpec, Throttling, classify,
                       detect_stalls, estimate_buffer, preset,
                       simulate_session)
from streamsim.techniques import START_THRESHOLD_S
from streamsim.traces import (FlowRecord, ingest_text, records_from_events,
                              records_to_csv, records_to_events)
import tick_reference as ref
from test_acceptance import _random_scenario


def test_ingest_three_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t_s,bytes,connection_id,direction,flags\n"
                 "0.5,1000,0,down,\n"
                 "1.0,60,0,down,persist_probe\n"
                 "1.5,500,1,up,\n")
    from streamsim import ingest
    recs = ingest(str(p))
    assert len(recs) == 3
    assert recs[1].flags == "persist_probe"
    assert recs[2].direction == "up"


def test_ingest_sorts_unsorted_with_warning(caplog):
    import logging
    text = ("t_s,bytes,connection_id,direction,flags\n"
            "2.0,10,0,down,\n"
            "1.0,10,0,down,\n")
    with caplog.at_level(logging.WARNING):
        recs = ingest_text(text)
    assert [r.t_s for r in recs] == [1.0, 2.0]
    assert any("sort" in r.message for r in caplog.records)


def test_ingest_malformed_row_names_line():
    text = ("t_s,bytes,connection_id,direction,flags\n"
            "1.0,10,0,down,\n"
            "oops,10,0,down,\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_text(text)
    with pytest.raises(ValueError, match="line 1"):
        ingest_text("wrong,header\n1,2\n")


def test_ingest_empty_file_gives_empty_list():
    assert ingest_text("") == []


def test_delivery_log_roundtrip(hd_stream, link4):
    events, _ = simulate_session(hd_stream, link4, preset("vimeo_onoffs"))
    recs = records_from_events(events)
    back = ingest_text(records_to_csv(recs))
    assert back == recs
    again = records_to_events(back)
    assert [(e.t_s, e.bytes, e.connection_id, e.kind) for e in again] == \
           [(e.t_s, e.bytes, e.connection_id, e.kind) for e in events]


LADDER = (("ld", 200_000.0), ("sd", 400_000.0))


@pytest.mark.parametrize("name,tech,want", [
    ("encoding_rate", EncodingRate(), "encoding_rate"),
    ("throttling", Throttling(), "throttling"),
    ("vimeo_onoffs", preset("vimeo_onoffs"), "on_off_s"),
    ("netflix_onoffs", preset("netflix_onoffs"), "on_off_s"),
    ("youtube_onoffm", preset("youtube_onoffm"), "on_off_m"),
    ("fast_caching", FastCaching(), "fast_caching"),
    ("hls", Hls(ladder=LADDER), "rate_adaptive"),
    ("mss", Mss(ladder=LADDER), "rate_adaptive"),
])
def test_closed_loop_classification(ld_stream, name, tech, want):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    events, _ = simulate_session(ld_stream, link, tech)
    cls = classify(records_from_events(events))
    assert cls.technique == want, (name, cls)
    assert cls.confidence >= 0.8


@pytest.mark.parametrize("factor", [1.25, 2.0])
def test_throttle_factor_estimation_within_10pct(ld_stream, factor):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    events, _ = simulate_session(ld_stream, link, Throttling(factor=factor))
    cls = classify(records_from_events(events),
                   encoding_rate_bps=ld_stream.encoding_rate_bps)
    assert cls.technique == "throttling"
    est = cls.evidence["estimated_factor"]
    assert abs(est - factor) / factor <= 0.10


def test_constant_rate_trace_with_hint_is_encoding_rate():
    rate = 400_000.0
    recs = [FlowRecord(t * 0.1, int(rate * 0.1 / 8), 0, "down")
            for t in range(600)]
    cls = classify(recs, encoding_rate_bps=rate)
    assert cls.technique == "encoding_rate"


def test_onoffm_median_off_evidence(ld_stream):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    events, _ = simulate_session(ld_stream, link, preset("youtube_onoffm"))
    cls = classify(records_from_events(events))
    assert cls.technique == "on_off_m"
    assert cls.evidence["median_off_s"] == pytest.approx(60.0, abs=2.0)


def test_short_trace_rejected():
    recs = [FlowRecord(0.0, 100, 0, "down"), FlowRecord(5.0, 100, 0, "down")]
    with pytest.raises(ValueError, match="at least"):
        classify(recs)


def test_estimate_buffer_reconstructs_plateau(ld_stream):
    link = LinkModel.constant(4 * ld_stream.encoding_rate_bps, rtt_ms=70)
    events, _ = simulate_session(ld_stream, link, EncodingRate())
    recs = records_from_events(events)
    tl = estimate_buffer(recs, ld_stream.encoding_rate_bps)
    vals = [tl.value_at(t) for t in range(100, 400, 50)]
    assert all(30.0 <= v <= 45.0 for v in vals)
    assert all(s.buffered_seconds >= 0 for s in tl.samples)
    # by default playback starts at the first arrival by which the trace
    # has brought the start threshold
    data = [r for r in recs if r.direction == "down" and not r.flags]
    need = START_THRESHOLD_S * ld_stream.bytes_per_second
    assert tl.joining_time_s == next(
        r.t_s for r, total in zip(data, accumulate(r.bytes for r in data))
        if total >= need)


def test_estimate_buffer_rejects_a_trace_without_data():
    """A trace with no downlink data has no stream to replay; it used to
    get an invented 1 ms stream and a stall over all of it."""
    control = [FlowRecord(0.0, 300, 0, "up"),
               FlowRecord(1.0, 60, 0, "down", "persist_probe")]
    for recs in ([], control):
        with pytest.raises(ValueError,
                           match="trace has no downlink data records"):
            estimate_buffer(recs, 2e6)


def test_ambiguous_trace_lowers_confidence():
    """Probes plus fresh connections after gaps fire two rules at once."""
    recs = []
    t, conn = 0.0, 0
    for cycle in range(6):
        for k in range(20):
            recs.append(FlowRecord(t, 64000, conn, "down"))
            t += 0.2
        recs.append(FlowRecord(t + 2.0, 60, conn, "down", "persist_probe"))
        t += 20.0
        conn += 1
    cls = classify(recs)
    assert cls.technique == "on_off_s"
    assert cls.confidence < 0.8
    assert cls.evidence.get("also_matched") == "on_off_m"


def test_replayed_records_add_no_stall_to_the_sessions_own():
    """Every non-ladder session of the criterion-10 generator, replayed
    from its own flow records from the engine's join, stalls where the
    engine did and nowhere else.  Each record rounds its tick to whole
    bytes, but estimate_buffer sizes the stream from those rounded bytes,
    so the replay still ends with the content complete."""
    rng = random.Random(2026)
    replayed = 0
    for i in range(1000):
        stream, link, tech, _, _ = _random_scenario(rng)
        if isinstance(tech, (Hls, Mss)):
            continue    # a replay reads every byte at one rate
        events, dlog = simulate_session(stream, link, tech)
        played = dlog.playback
        tl = estimate_buffer(records_from_events(events),
                             stream.encoding_rate_bps, played.joining_time_s)
        stalls = detect_stalls(tl).stall_events
        assert stalls == ref.detect_stalls(tl).stall_events, i
        assert len(stalls) == len(played.stall_events), i
        for (a, _), (b, _) in zip(stalls, played.stall_events):
            assert a == pytest.approx(b, abs=1e-4), i
        assert tl.completed == played.completed, i
        replayed += 1
    assert replayed == 749
