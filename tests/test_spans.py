"""Transfer spans: the cost model and the per-tick views built on them."""

import importlib.resources as ir
import random

import pytest

from streamsim import (EncodingRate, FastCaching, Hls, HspaRrcConfig,
                       LinkModel, LteDrxConfig, OnOffM, PacketEvent,
                       StreamSpec, Throttling, WifiPsmConfig, compute_buffer,
                       preset, simulate_radio, simulate_session)
from streamsim.delivery import LogRecord, _data_record
from streamsim.scenario import load_scenario, parse_scenario_text
from streamsim.session import run_session
from streamsim.streams import ChunkTrain, TickSeq, TransferSpan
from test_playback_report import assert_engine_playback
from test_span_equivalence import _session_variants, _throttled_below_rate

SCENARIOS = ir.files("streamsim") / "scenarios"


def test_encoding_rate_lte_cost_follows_state_changes():
    """11,221 per-tick events come from a handful of spans, and the
    buffer keeps samples only at span ends and state changes."""
    res = run_session(load_scenario(str(SCENARIOS / "encoding_rate_lte.scn")))
    spans = [it for it in res.events.items if isinstance(it, TransferSpan)]
    assert len(res.events) == 11_221
    assert len(spans) <= 20
    assert len(res.buffer.samples) <= 50


def test_throttling_cost_follows_state_changes():
    """The bundled base scenario re-run with throttling: about 2,090 chunk
    cycles, each a repeat of the one before, are one ChunkTrain."""
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text(encoding="utf-8")
    text = text.replace("technique.preset = youtube_onoffm",
                        "technique.kind = throttling")
    res = run_session(parse_scenario_text(text))
    assert len(res.events) == 4_449
    assert len(res.events.items) <= 20
    assert len(res.buffer.samples) <= 50
    # the buffer keeps the ticks of the train's first and last cycle
    (train,) = [it for it in res.events.items if isinstance(it, ChunkTrain)]
    for j in (0, train.m - 1):
        for sp in train.repeats(j, j + 1):
            for t in (sp.t_s, sp.t_end_s):
                assert any(abs(s.t_s - t) <= 1e-9 for s in res.buffer.samples)


def _seq():
    span = TransferSpan(1.0, 0.5, 3, 0, 1000.4)
    items = [PacketEvent(0.0, 500, 0, "request"), span,
             PacketEvent(2.5, 60, 0, "persist_probe")]
    ticks = [PacketEvent(0.0, 500, 0, "request"), PacketEvent(1.0, 1000, 0),
             PacketEvent(1.5, 1000, 0), PacketEvent(2.0, 1000, 0),
             PacketEvent(2.5, 60, 0, "persist_probe")]
    return TickSeq(items, TransferSpan.event), ticks


def test_tick_seq_reads_like_the_expanded_list():
    seq, ticks = _seq()
    assert len(seq) == 5
    assert list(seq) == ticks
    assert seq == ticks and ticks == seq
    assert seq != ticks[:-1]
    assert [seq[i] for i in range(-5, 5)] == ticks + ticks
    assert seq[1:4] == ticks[1:4]
    with pytest.raises(IndexError):
        seq[5]
    with pytest.raises(IndexError):
        seq[-6]
    assert sorted(seq, key=PacketEvent.sort_key) == ticks
    assert TickSeq([], TransferSpan.event) == []


def test_tick_seq_expands_chunk_trains():
    cycle = (TransferSpan(1.0, 0.5, 2, 0, 1000.0, 3.0, 0.25),
             TransferSpan(1.75, 0.25, 1, 0, 400.0, 3.5))
    train = ChunkTrain(cycle, 3, 2.0, 0.1)
    seq = TickSeq([PacketEvent(0.0, 500, 0, "request"), train],
                  _data_record)
    want = [PacketEvent(0.0, 500, 0, "request")]
    for j in range(3):
        want += [LogRecord(1.0 + 2 * j, "data", 0, 1000.0, 3.0 + 0.1 * j),
                 LogRecord(1.5 + 2 * j, "data", 0, 1000.0, 3.25 + 0.1 * j),
                 LogRecord(1.75 + 2 * j, "data", 0, 400.0, 3.5 + 0.1 * j)]
    assert train.n == len(seq) - 1 == 9
    assert train.t_end_s == 5.75
    assert train.gaps() == {0.5, 0.25, 1.25}
    assert len(list(seq)) == len(want)
    for i in range(-len(want), len(want)):
        got = seq[i]
        assert type(got) is type(want[i])
        assert got.t_s == pytest.approx(want[i].t_s, abs=1e-12)
        if isinstance(got, LogRecord):
            assert (got.bytes, got.buffer_s_after) == pytest.approx(
                (want[i].bytes, want[i].buffer_s_after), abs=1e-12)
    assert [r.t_s for r in seq] == [seq[i].t_s for i in range(len(want))]
    with pytest.raises(IndexError):
        seq[len(want)]


def test_delivery_log_rows_are_runs_and_decisions(hd_stream, link4):
    """Four decision records and three spans are seven rows; the in-memory
    log still reads per tick."""
    _, dlog = simulate_session(hd_stream, link4, EncodingRate())
    rows = dlog.to_csv_lines()
    assert len(rows) == len(dlog.records.items) + 1 == 8
    assert sum(r.event == "data" for r in dlog.records) == 11_220


def assert_log_rows_are_its_runs(dlog):
    """Each row of the written log stands for one stored entry: a data row
    is its span's last tick and a repeat row its train's, with the buffer
    the per-tick log holds there and the bytes of the ticks it covers."""
    ticks = list(dlog.records)
    want = []      # (the tick a row is written at, event, ticks it covers)
    i = 0          # index of the entry's first tick in the per-tick log
    for it in dlog.records.items:
        if isinstance(it, TransferSpan):
            want.append((ticks[i + it.n - 1], "data", ticks[i:i + it.n]))
            i += it.n
        elif isinstance(it, ChunkTrain):
            k = i
            for s in it.cycle:
                want.append((ticks[k + s.n - 1], "data", ticks[k:k + s.n]))
                k += s.n
            if it.m > 1:
                want.append((ticks[i + it.n - 1], "repeat",
                             ticks[k:i + it.n]))
            i += it.n
        else:
            want.append((it, it.event, []))
            i += 1
    assert i == len(ticks)
    rows = list(dlog.rows())
    assert len(rows) == len(want)
    for row, (tick, event, covered) in zip(rows, want):
        assert (row.t_s, row.event, row.connection_id, row.buffer_s_after) \
            == (tick.t_s, event, tick.connection_id, tick.buffer_s_after)
        if covered:
            assert all(r.event == "data" and r.connection_id
                       == row.connection_id for r in covered)
            assert row.bytes == pytest.approx(
                sum(r.bytes for r in covered), rel=1e-12)
    data = [r.bytes for r in rows if r.event in ("data", "repeat")]
    assert sum(data) == pytest.approx(dlog.bytes_delivered,
                                      abs=1e-6 * len(rows))
    assert all(a.t_s <= b.t_s for a, b in zip(rows, rows[1:]))
    # at most one row per entry, plus a train's other cycle spans and its
    # repeat row
    trains = [it for it in dlog.records.items if isinstance(it, ChunkTrain)]
    assert len(rows) <= len(dlog.records.items) + sum(
        len(t.cycle) for t in trains)
    lines = dlog.to_csv_lines()
    assert len(lines) == len(rows) + 1
    assert lines[0] == "t_s,event,connection_id,bytes,buffer_s_after"
    return rows


@pytest.mark.parametrize("variant", range(7))
def test_session_logs_write_one_row_per_run(variant):
    sc = _session_variants()[variant]
    rows = assert_log_rows_are_its_runs(run_session(sc).dlog)
    repeats = [r for r in rows if r.event == "repeat"]
    assert len(repeats) == (1 if isinstance(sc.technique, Throttling) else 0)


def _vbr_stream():
    rng = random.Random(5)
    rates = [rng.uniform(0.5, 1.5) for _ in range(120)]
    norm = len(rates) / sum(rates)
    return StreamSpec(duration_s=120.0, encoding_rate_bps=2e6, vbr_trace=[
        (float(i), 2e6 * w * norm) for i, w in enumerate(rates)])


HD = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
BUFFER_CASES = [
    ("encoding_rate", HD, LinkModel.constant(8e6), EncodingRate()),
    # the link dies for good: the session ends in an unresolved stall
    ("link_dies", HD, LinkModel(((0.0, 8e6), (100.0, 0.0)), 70),
     EncodingRate()),
    ("long_off_stalls", HD, LinkModel.constant(8e6),
     OnOffM(upper_s=50.0, lower_s=10.0, off_fixed_s=80.0)),
    ("slow_link_stalls", HD, LinkModel.constant(1.9e6), FastCaching()),
    ("hls", HD, LinkModel.constant(20e6, 30), Hls()),
    ("vbr_onoffm", _vbr_stream(), LinkModel.constant(8e6),
     preset("youtube_onoffm")),
    ("vbr_slow", _vbr_stream(), LinkModel.constant(2.2e6), EncodingRate()),
    # dense second half: the buffer built on the sparse first half runs out
    ("vbr_stalls", StreamSpec(duration_s=120.0, encoding_rate_bps=2e6,
                              vbr_trace=[(0.0, 1e6), (60.0, 3e6)]),
     LinkModel.constant(1.8e6), FastCaching()),
    ("throttling", HD, LinkModel.constant(8e6), Throttling()),
    # At a factor p / q the buffer empties exactly on an arrival after p
    # cycles of playback, a tie that round-off decides differently for
    # the two replays; these factors have p far beyond the session.
    ("throttling_stalls", HD, LinkModel.constant(8e6),
     _throttled_below_rate(0.8731)),
    ("throttling_vbr", _vbr_stream(), LinkModel.constant(8e6),
     Throttling(faststart_target_s=10.0)),
    ("throttling_vbr_stalls", _vbr_stream(), LinkModel.constant(8e6),
     _throttled_below_rate(0.8731, faststart_target_s=5.0)),
]


@pytest.mark.parametrize("stream,link,tech",
                         [c[1:] for c in BUFFER_CASES],
                         ids=[c[0] for c in BUFFER_CASES])
def test_span_buffer_samples_are_breakpoints_of_the_tick_model(stream, link,
                                                               tech):
    """The engine's buffer samples, kept at span ends and state changes,
    are a subset of the per-event model's on the same ticks from the
    same start, with the same end, completion and stalls.  The slow links
    drain the buffer to exactly one tick's playback before an arrival, a
    tie that compute_buffer decides as the engine does."""
    events, dlog = simulate_session(stream, link, tech, start_delay_s=2.0)
    assert_engine_playback(tech, stream, events, dlog, stream.duration_s,
                           model=compute_buffer)


@pytest.mark.parametrize("stream,link,tech",
                         [c[1:] for c in BUFFER_CASES],
                         ids=[c[0] for c in BUFFER_CASES])
def test_engine_logs_write_one_row_per_run(stream, link, tech):
    """Stalls, VBR and link deaths: trains cut by a stall each get their
    own repeat row."""
    _, dlog = simulate_session(stream, link, tech, start_delay_s=2.0)
    assert_log_rows_are_its_runs(dlog)


RADIO_CONFIGS = [
    ("wifi", WifiPsmConfig()),
    ("wifi", WifiPsmConfig(tail_ms=30.0)),          # tail below the tick
    ("hspa", HspaRrcConfig()),
    ("hspa", HspaRrcConfig(t1_s=0.04, t2_s=0.02, fd_timer_s=None)),
    ("lte", LteDrxConfig()),
    ("lte", LteDrxConfig(drx_inactivity_ms=20.0)),  # DRX between ticks
    ("lte", LteDrxConfig(drx_enabled=False)),
]


@pytest.mark.parametrize("tech", [preset("youtube_onoffm"), EncodingRate(),
                                  preset("vimeo_onoffs"), Throttling(),
                                  Throttling(chunk_bytes=40_000)],
                         ids=["onoffm", "encoding_rate", "onoffs",
                              "throttling", "throttling_small_tail"])
@pytest.mark.parametrize("radio_tech,cfg", RADIO_CONFIGS)
def test_radio_on_spans_equals_radio_on_ticks(radio_tech, cfg, tech, gs3):
    """A span is one burst only when its tick spacing is within the
    machine's shortest inactivity timer; otherwise its ticks are walked.
    So is a chunk train, by every spacing between its ticks."""
    stream = StreamSpec(duration_s=120.0, encoding_rate_bps=2e6)
    events, _ = simulate_session(stream, LinkModel.constant(8e6), tech)
    end = events[-1].t_s + 30.0
    got = simulate_radio(radio_tech, events, cfg, gs3, end).intervals
    want = simulate_radio(radio_tech, list(events), cfg, gs3, end).intervals
    assert [iv.state for iv in got] == [iv.state for iv in want]
    for a, b in zip(got, want):
        assert a.t_start_s == pytest.approx(b.t_start_s, abs=1e-9)
        assert a.t_end_s == pytest.approx(b.t_end_s, abs=1e-9)


@pytest.mark.parametrize("first_bytes", [50_000.0, 500.0])
@pytest.mark.parametrize("radio_tech,cfg", RADIO_CONFIGS + [
    ("hspa", HspaRrcConfig(fd_timer_s=None))])
def test_radio_on_a_train_equals_radio_on_its_ticks(radio_tech, cfg,
                                                     first_bytes, gs3):
    """A train whose first tick is small finds an HSPA radio left in FACH
    and stays there until its large tick, so it cannot be one burst."""
    cycle = (TransferSpan(9.0, 0.01, 1, 0, first_bytes),
             TransferSpan(9.05, 0.05, 3, 0, 20_000.0))
    events = TickSeq([PacketEvent(0.0, 50_000, 0),
                      ChunkTrain(cycle, 40, 0.3, 0.0),
                      PacketEvent(40.0, 500, 0, "request")],
                     TransferSpan.event)
    got = simulate_radio(radio_tech, events, cfg, gs3, 60.0).intervals
    want = simulate_radio(radio_tech, list(events), cfg, gs3, 60.0).intervals
    assert [iv.state for iv in got] == [iv.state for iv in want]
    for a, b in zip(got, want):
        assert a.t_start_s == pytest.approx(b.t_start_s, abs=1e-9)
        assert a.t_end_s == pytest.approx(b.t_end_s, abs=1e-9)


def test_link_boundaries_on_the_tick_grid_leave_no_slivers():
    """Ticks that meet a boundary up to round-off meet it exactly: no
    1 us hop ticks carrying a byte or two."""
    rng = random.Random(3)
    link = LinkModel(tuple((round(0.2 * i, 6), rng.uniform(2e6, 12e6))
                           for i in range(300)), rtt_ms=70.0)
    stream = StreamSpec(duration_s=60.0, encoding_rate_bps=2e6)
    events, dlog = simulate_session(stream, link, FastCaching())
    data = [e for e in events if e.kind == "data"][:-1]   # not the last
    assert min(e.bytes for e in data) >= 0.2 * 2e6 * 0.05 / 8
    assert dlog.bytes_delivered == pytest.approx(stream.size_bytes, abs=2.0)
