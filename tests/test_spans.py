"""Transfer spans: the cost model, and the per-tick view of them."""

import collections
import functools
import hashlib
import importlib
import importlib.resources as ir
import math
import operator
import pkgutil
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import streamsim
import tick_reference as ref
from streamsim import (EncodingRate, FastCaching, Hls, HspaRrcConfig,
                       LinkModel, LteDrxConfig, Mss, OnOffM, OnOffS,
                       PacketEvent, StreamSpec, Throttling, WifiPsmConfig,
                       compute_buffer, delivery, preset, radio,
                       simulate_radio, simulate_session)
from streamsim.delivery import LogRecord
from streamsim.energy import integrate_energy
from streamsim.radio import promotion_latency
from streamsim.scenario import load_scenario, parse_scenario_text
from streamsim.session import run_session
from streamsim.streams import ChunkTrain, TransferSpan, event_order
from test_cli import VARIANTS
from test_playback_report import assert_engine_playback
from tick_reference import expand_ticks, log_tick
from test_span_equivalence import (_session_variants, _sweep_points,
                                   _throttled_below_rate)

SCENARIOS = ir.files("streamsim") / "scenarios"


def test_encoding_rate_lte_cost_follows_state_changes():
    """11,221 per-tick events come from a handful of spans, and the
    buffer keeps samples only at span ends and state changes."""
    res = run_session(load_scenario(str(SCENARIOS / "encoding_rate_lte.scn")))
    spans = [it for it in res.events if isinstance(it, TransferSpan)]
    assert len(expand_ticks(res.events)) == 11_221
    assert len(spans) <= 20
    assert len(res.buffer.samples) <= 50


def test_throttling_cost_follows_state_changes():
    """The bundled base scenario re-run with throttling: about 2,090 chunk
    cycles, each a repeat of the one before, are one ChunkTrain."""
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text(encoding="utf-8")
    text = text.replace("technique.preset = youtube_onoffm",
                        "technique.kind = throttling")
    res = run_session(parse_scenario_text(text))
    assert len(expand_ticks(res.events)) == 4_449
    assert len(res.events) <= 20
    assert len(res.buffer.samples) <= 50
    # the buffer keeps the ticks of the train's first and last cycle
    (train,) = [it for it in res.events if isinstance(it, ChunkTrain)]
    for j in (0, train.m - 1):
        for sp in train.repeats(j, j + 1):
            for t in (sp.t_s, sp.t_end_s):
                assert any(abs(s.t_s - t) <= 1e-9 for s in res.buffer.samples)


@pytest.mark.parametrize("kind,entries,lines,samples",
                         [("hls", 30, 35, 122), ("mss", 80, 90, 391)])
def test_ladder_steady_state_is_a_train(kind, entries, lines, samples):
    """The bundled base scenario re-run with HLS or MSS: the steady state
    requests a chunk, or an audio group, each time the buffer drains to
    its level, and those cycles are one train (60 and 214 stored entries
    when each was stepped).  The buffer keeps every cycle's breakpoints,
    and HLS's the empty buffer after each discard."""
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text(encoding="utf-8")
    text = text.replace("technique.preset = youtube_onoffm",
                        f"technique.kind = {kind}")
    res = run_session(parse_scenario_text(text))
    assert len(res.events) <= entries
    assert len(res.dlog.to_csv_lines()) <= lines
    assert len(res.buffer.samples) == samples


def test_onoff_steady_state_is_a_train():
    """A sweep-buffer point (C = 2x, a 10 s buffer: 22 connections) and
    the base scenario with vimeo_onoffs: each ON/OFF cycle, with its
    request or its probes and keepalives, repeats the one before, and the
    cycles are one train (46 and 269 stored entries when each was
    stepped).  The drain-gated buffer keeps every cycle's breakpoints.  Of
    the 51 the sweep point had with every cycle stepped, the one that went
    was a tick of its own at the content's end, 2e-7 B short of a whole
    one by the round-off of 21 stepped refills."""
    buffer_c2_10 = {sc.name: sc for sc in _sweep_points()}["buffer_c2_10"]
    res = run_session(buffer_c2_10)
    assert res.dlog.connections_opened == 22
    assert len(res.events) <= 16
    assert len(res.dlog.to_csv_lines()) <= 45
    assert len(res.buffer.samples) == 50
    res = run_session(_session_variants()[6])
    assert len(res.events) <= 120
    assert len(res.dlog.to_csv_lines()) <= 130


def test_fixed_chunk_refills_are_a_train():
    """The base scenario with vimeo_iphone5: after its 30 MiB fast start,
    each 5 MiB chunk's OFF drain, request and transfer repeats the one
    before while the buffer stays above empty (57 stored runs and 176 log
    rows when each was stepped).  With 1,000-byte chunks (118,544
    connections, 111 stalls), a train runs while playing and another
    while stalled between each two stalls: under 500 stored runs, where
    stepping each chunk stored 118,546."""
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text(encoding="utf-8")
    text = text.replace("technique.preset = youtube_onoffm",
                        "technique.preset = vimeo_iphone5")
    counts = run_session(parse_scenario_text(text)).stats["counts"]
    assert counts["connections"] == 24
    assert counts["stored_runs"] <= 28
    assert counts["log_rows"] <= 79
    res = run_session(parse_scenario_text(
        text + "technique.chunk_bytes = 1000\n"))
    assert res.dlog.connections_opened == 118_544
    assert res.stats["counts"]["stored_runs"] < 500


def _turn(t0, conn, probe_at=15.0):
    """An OnOffM-like turn from t0: OFF, a request on conn, ON, a refill
    span, a persist probe, close."""
    return (LogRecord(t0, "off", -1, 0.0, 100.0),
            LogRecord(t0 + 10.0, "request", conn, 500.0, 90.0),
            LogRecord(t0 + 10.07, "on", -1, 0.0, 89.93),
            TransferSpan(t0 + 10.12, 0.05, 200, conn, 25_000.0, 89.98, 0.05),
            LogRecord(t0 + probe_at, "persist_probe", conn, 60.0, 95.0),
            LogRecord(t0 + 20.0, "close", conn, 0.0, 100.0))


def _cycle(t0, last_conn, records):
    return delivery._Cycle(
        t0, 100.0, (True, False), SimpleNamespace(conn=last_conn),
        records=records, period_s=20.0,
        spans=tuple(r for r in records if isinstance(r, TransferSpan)))


def test_a_turn_repeats_the_last_only_if_every_log_entry_does():
    """Spans alike are not enough: each decision record must come at the
    same offset, and each connection be as many on from the last one
    opened before the turn."""
    playing = (True, False)
    prev = _cycle(100.0, 1, _turn(100.0, 2))
    assert _cycle(120.0, 2, _turn(120.0, 3)).repeats(prev, playing)
    # the probe 10 ms later
    assert not _cycle(120.0, 2, _turn(120.0, 3, 15.01)).repeats(prev,
                                                                 playing)
    # a turn on the connection opened before it, where prev opened one
    assert not _cycle(120.0, 3, _turn(120.0, 3)).repeats(prev, playing)


def test_expand_ticks_reads_a_span_as_its_ticks():
    span = TransferSpan(1.0, 0.5, 3, 0, 1000.4)
    runs = [PacketEvent(0.0, 500, 0, "request"), span,
            PacketEvent(2.5, 60, 0, "persist_probe")]
    ticks = [PacketEvent(0.0, 500, 0, "request"), PacketEvent(1.0, 1000, 0),
             PacketEvent(1.5, 1000, 0), PacketEvent(2.0, 1000, 0),
             PacketEvent(2.5, 60, 0, "persist_probe")]
    assert expand_ticks(runs) == ticks
    assert sorted(expand_ticks(runs), key=event_order) == ticks
    assert expand_ticks([]) == []


def test_expand_ticks_expands_chunk_trains():
    cycle = (TransferSpan(1.0, 0.5, 2, 0, 1000.0, 3.0, 0.25),
             TransferSpan(1.75, 0.25, 1, 0, 400.0, 3.5))
    train = ChunkTrain(cycle, 3, 2.0, 0.1)
    got = expand_ticks([PacketEvent(0.0, 500, 0, "request"), train],
                       log_tick)
    want = [PacketEvent(0.0, 500, 0, "request")]
    for j in range(3):
        want += [LogRecord(1.0 + 2 * j, "data", 0, 1000.0, 3.0 + 0.1 * j),
                 LogRecord(1.5 + 2 * j, "data", 0, 1000.0, 3.25 + 0.1 * j),
                 LogRecord(1.75 + 2 * j, "data", 0, 400.0, 3.5 + 0.1 * j)]
    assert train.t_end_s == 5.75
    assert len(got) == len(want) == 10
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert a.t_s == pytest.approx(b.t_s, abs=1e-12)
        if isinstance(a, LogRecord):
            assert (a.bytes, a.buffer_s_after) == pytest.approx(
                (b.bytes, b.buffer_s_after), abs=1e-12)


def test_expand_ticks_expands_trains_of_packets():
    """A train whose cycle opens a connection: its request and its span
    move to the next connection each repeat."""
    cycle = (PacketEvent(10.0, 500, 1, "request"),
             TransferSpan(10.12, 0.05, 2, 1, 25_000.0, 90.0, 0.05))
    train = ChunkTrain(cycle, 3, 20.0, 0.0, dconn=1)
    got = expand_ticks([PacketEvent(0.0, 500, 0, "request"), train,
                        PacketEvent(80.0, 500, 4, "request")])
    ticks = [PacketEvent(0.0, 500, 0, "request")]
    for j in range(3):
        t = 10.0 + 20.0 * j
        ticks += [PacketEvent(t, 500, 1 + j, "request"),
                  PacketEvent(t + 0.12, 25_000, 1 + j),
                  PacketEvent(t + 0.17, 25_000, 1 + j)]
    ticks.append(PacketEvent(80.0, 500, 4, "request"))
    assert len(got) == len(ticks) == 11
    assert all((a.kind, a.connection_id, a.bytes)
               == (b.kind, b.connection_id, b.bytes)
               and a.t_s == pytest.approx(b.t_s, abs=1e-12)
               for a, b in zip(got, ticks))


# The per-tick view of the seven sessions `simulate` writes pinned bytes
# for, as the package's own view read it when it still kept one: the
# SHA-256 of a line per event, (repr(t_s), bytes, connection_id, kind),
# and of a line per log record, (repr(t_s), event, connection_id,
# repr(bytes), repr(buffer_s_after)), with the number of each.
PINNED_TICKS = {
    "youtube_onoffm_hspa": (
        5358, "70b1334ab3fde0a5f689c32815d7b45fa2cef7e911bc353938ebb66fd6113c7f",
        5377, "35bfe3327f77bcec7511aad870bdb020cd6b88e3ae29cc7a2b156684ab21381b"),
    "encoding_rate_lte": (
        11221, "e52f5a1292f26bc827e7354cc820aca8b17b4d2089e16918d700cd96915791a5",
        11224, "963407424e312c58e283f23b411b633c76b577f344d67f5ff0abbc00f9af6eb2"),
    "fast_caching_wifi": (
        2401, "ece69682a297ba3cd5b213ab6c26ab3e5089f726fe0af997a86c854b83e42367",
        2404, "ad5bd00b72f88439aba24b1db61ca1d8c4c49d575348a2710bac7e439315ad51"),
    "hls": (
        3147, "51e508ba35eaa0bd029adf937924930faa483c35f47fa1ea6b65bc8ca38cae3d",
        3152, "3d41e8e7e6900177ea629a43d30f9229f24439793e52620c51f7db4f1469ac20"),
    "mss": (
        3064, "8667acc000e0739f97d2de7c01134f617b7614177a7265a626946a7f3094ca60",
        3067, "79aea8199ac4545e5d6129dcfbfc3d5b14eb4d8c7f78e457bd09254b74ea93b3"),
    "throttling": (
        4449, "11b9a540c6d52cde911d9b5d27c4832d52b674e9255c4e5e4d33528c825e5601",
        4452, "af8ad5ba17508e9fb46f07877c905ccc668a4c39a7d0e071125a3bfb58703066"),
    "vimeo_onoffs": (
        3229, "baad4cbba39f9aa36cc1254dfcafa086621fbc8b81800f8ef71fcf8548ff4e14",
        3242, "4d69cb3ac2afee7870bf58f49732c75b9c247aa5a282891a92ff6812888c9870"),
}


def _rows_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", PINNED_TICKS)
def test_expand_ticks_reads_the_pinned_ticks(name):
    """expand_ticks reads a session's stored runs and log as the ticks
    the engine's own per-tick view read, down to the last bit."""
    scn = "youtube_onoffm_hspa" if name in VARIANTS else name
    text = (SCENARIOS / f"{scn}.scn").read_text(encoding="utf-8")
    if name in VARIANTS:
        text = text.replace("technique.preset = youtube_onoffm",
                            VARIANTS[name])
    res = run_session(parse_scenario_text(text, name))
    events = expand_ticks(res.events)
    records = expand_ticks(res.dlog.records, log_tick)
    assert (len(events), _rows_digest(
                (repr(e.t_s), e.bytes, e.connection_id, e.kind)
                for e in events),
            len(records), _rows_digest(
                (repr(r.t_s), r.event, r.connection_id, repr(r.bytes),
                 repr(r.buffer_s_after)) for r in records)) \
        == PINNED_TICKS[name]


def test_delivery_log_rows_are_runs_and_decisions(hd_stream, link4):
    """Four decision records and three spans are seven rows, for the
    11,220 data ticks of the per-tick log."""
    _, dlog = simulate_session(hd_stream, link4, EncodingRate())
    rows = dlog.to_csv_lines()
    assert len(rows) == len(dlog.records) + 1 == 8
    assert sum(r.event == "data"
               for r in expand_ticks(dlog.records, log_tick)) == 11_220


def assert_log_rows_are_its_runs(dlog):
    """Each row of the written log stands for one stored entry: a data row
    is its span's last tick and a repeat row its train's, with the buffer
    the per-tick log holds there and the bytes of the ticks it covers."""
    ticks = expand_ticks(dlog.records, log_tick)
    want = []      # (the tick a row is written at, event, ticks it covers)
    i = 0          # index of the entry's first tick in the per-tick log
    for it in dlog.records:
        if isinstance(it, TransferSpan):
            want.append((ticks[i + it.n - 1], "data", ticks[i:i + it.n]))
            i += it.n
        elif isinstance(it, ChunkTrain):
            k, n = i, len(expand_ticks([it], log_tick))
            for s in it.cycle:
                if isinstance(s, TransferSpan):
                    want.append((ticks[k + s.n - 1], "data",
                                 ticks[k:k + s.n]))
                    k += s.n
                else:
                    want.append((ticks[k], s.event, []))
                    k += 1
            if it.m > 1:
                # the later cycles' data ticks; their records have no row
                data = [r for r in ticks[k:i + n] if r.event == "data"]
                want.append((data[-1], "repeat", data))
            i += n
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
            # a repeat row's cycles may each have opened a connection
            assert all(r.event == "data" and (event == "repeat" or
                       r.connection_id == row.connection_id) for r in covered)
            assert row.bytes == pytest.approx(
                sum(r.bytes for r in covered), rel=1e-12)
    data = [r.bytes for r in rows if r.event in ("data", "repeat")]
    assert sum(data) == pytest.approx(dlog.bytes_delivered,
                                      abs=1e-6 * len(rows))
    assert all(a.t_s <= b.t_s for a, b in zip(rows, rows[1:]))
    # at most one row per entry, plus a train's other cycle spans and its
    # repeat row
    trains = [it for it in dlog.records if isinstance(it, ChunkTrain)]
    assert len(rows) <= len(dlog.records) + sum(
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
    # one train each: the throttled chunk cycles, the drain-gated steady
    # state of HLS and MSS, and vimeo_onoffs's ON/OFF cycles; the base
    # scenario's fixed OFF periods leave the buffer a little lower each
    # cycle, so its refills never repeat
    assert len(repeats) == (1 if isinstance(sc.technique, (
        Hls, Mss, Throttling, OnOffS)) else 0)


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


def _assert_same_timeline(got, want):
    assert [iv.state for iv in got.intervals] == [
        iv.state for iv in want.intervals]
    for a, b in zip(got.intervals, want.intervals):
        assert a.t_start_s == pytest.approx(b.t_start_s, abs=1e-9)
        assert a.t_end_s == pytest.approx(b.t_end_s, abs=1e-9)


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
    ticks = expand_ticks(events)
    end = ticks[-1].t_s + 30.0
    _assert_same_timeline(
        simulate_radio(radio_tech, events, cfg, gs3, end),
        ref.simulate_radio_per_packet(radio_tech, ticks, cfg, gs3, end))


def _fach_train(first_bytes):
    """A train whose first tick may be small, between a large packet and
    a request."""
    cycle = (TransferSpan(9.0, 0.01, 1, 0, first_bytes),
             TransferSpan(9.05, 0.05, 3, 0, 20_000.0))
    return [PacketEvent(0.0, 50_000, 0), ChunkTrain(cycle, 40, 0.3, 0.0),
            PacketEvent(40.0, 500, 0, "request")]


@pytest.mark.parametrize("first_bytes", [50_000.0, 500.0])
@pytest.mark.parametrize("radio_tech,cfg", RADIO_CONFIGS + [
    ("hspa", HspaRrcConfig(fd_timer_s=None))])
def test_radio_on_a_train_equals_radio_on_its_ticks(radio_tech, cfg,
                                                     first_bytes, gs3):
    """A train whose first tick is small finds an HSPA radio left in FACH
    and stays there until its large tick, which promotes it to DCH inside
    the burst."""
    events = _fach_train(first_bytes)
    _assert_same_timeline(
        simulate_radio(radio_tech, events, cfg, gs3, 60.0),
        ref.simulate_radio_per_packet(radio_tech, expand_ticks(events), cfg,
                                      gs3, 60.0))


@functools.lru_cache(maxsize=None)
def _radio_session(name):
    """One of the radio tests' sessions, run once per test process: the
    seeded 3,000-segment link and 600-breakpoint VBR stream, and the base
    scenario re-run with HLS, MSS, throttling and vimeo_onoffs."""
    variants = dict(zip(("hls", "mss", "throttling", "vimeo_onoffs"),
                        _session_variants()[3:]))
    link3000, vbr600 = _long_inputs(1)
    return run_session({"link3000": link3000, "vbr600": vbr600,
                        **variants}[name])


@pytest.mark.parametrize("case", ["link3000", "vbr600", "hls", "mss",
                                  "throttling", "vimeo_onoffs"])
@pytest.mark.parametrize("radio_tech,cfg", RADIO_CONFIGS)
def test_radio_equals_the_per_packet_walk(radio_tech, cfg, case, gs3):
    """Coalesced bursts, spans and trains give the radio timeline that
    walking every packet as a run of its own gives."""
    res = _radio_session(case)
    end = res.summary.wall_time_s
    _assert_same_timeline(
        simulate_radio(radio_tech, res.events, cfg, gs3, end),
        ref.simulate_radio_per_packet(radio_tech, expand_ticks(res.events),
                                      cfg, gs3, end))


def _bursts_walked(monkeypatch, res):
    """Bursts the session's own radio machine walks, and its intervals."""
    walked = []
    bursts = radio._bursts

    def counting(*args):
        out = bursts(*args)
        walked.append(len(out))
        return out

    monkeypatch.setattr(radio, "_bursts", counting)
    sc = res.scenario
    tl = simulate_radio(sc.radio_tech, res.events, sc.radio_cfg, sc.profile,
                        res.summary.wall_time_s)
    return walked[-1], len(tl.intervals)   # the outermost call ends last


@pytest.mark.parametrize("case,bursts,intervals", [
    ("link3000", 5, 10), ("throttling", 1, 2), ("mss", 99, 2),
    ("vimeo_onoffs", 76, 2)])
def test_radio_walks_a_burst_per_radio_burst(case, bursts, intervals,
                                             monkeypatch):
    """The HSPA machine walks one burst per gap its timers can see, not
    one per stored run: 656, 5, 214 and 269 before runs coalesced.  A
    burst carries the time its first large packet promotes the radio
    from FACH, so that packet splits no burst."""
    res = _radio_session(case)
    assert res.scenario.radio_tech == "hspa"
    walked, n_intervals = _bursts_walked(monkeypatch, res)
    assert walked <= bursts
    assert n_intervals == intervals


@pytest.mark.parametrize("technique,counts", [
    ("technique.kind = throttling",
     {"rx": 2092, "drx_on": 4304, "drx_sleep": 2214, "idle": 1}),
    ("technique.preset = youtube_onoffm",
     {"rx": 10, "drx_on": 625, "drx_sleep": 620, "idle": 5})])
def test_lte_carves_every_drx_cycle(technique, counts):
    """The base scenario on LTE costs an interval per DRX on-period and
    sleep: 8,611 intervals for 2,092 throttling bursts and 1,260 for 10
    ON/OFF bursts.  Pinned, so that a change to how gaps are carved moves
    them only on purpose."""
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text().replace(
        "technique.preset = youtube_onoffm", technique).replace(
        "radio.technology = hspa", "radio.technology = lte")
    res = run_session(parse_scenario_text(text))
    got: dict[str, int] = {}
    for iv in res.radio.intervals:
        got[iv.state] = got.get(iv.state, 0) + 1
    assert got == counts


def _base_scenario_on(technique, technology):
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text().replace(
        "technique.preset = youtube_onoffm", technique).replace(
        "radio.technology = hspa", f"radio.technology = {technology}")
    return run_session(parse_scenario_text(text))


@pytest.mark.parametrize("technique,technology,rows,digest,residency", [
    ("technique.kind = throttling", "lte", 8611,
     "9a110696f2fb20578c94f3d69a83862b27d9682338e08dedfcff5db0b0f8a1b8",
     {"rx": 254.6702400000145, "drx_on": 129.2703488000056,
      "drx_sleep": 77.46393919997985, "idle": 139.78547200000008}),
    ("technique.preset = youtube_onoffm", "lte", 1260,
     "f046dbfe7107c936373402c5e0a5fd6ae0a697bb7f1ef52c875a3b0482042e31",
     {"rx": 268.23, "drx_on": 28.000000000001467,
      "drx_sleep": 21.59999999999844, "idle": 283.3599999999999}),
    ("technique.kind = mss", "hspa", 2,
     "5478dd0af36b8a2dbb817a1896962738f4621cc40f80b1d302f8396db3cd1520",
     {"dch": 548.2700000000003, "idle": 53.999999999999886}),
    ("technique.kind = hls", "hspa", 102,
     "9278f635959418a57b80a5650b17f0197ad360ad286caf2026c3037c268b42a7",
     {"dch": 513.2699999999994, "idle": 90.00000000000044}),
    ("technique.preset = vimeo_onoffs", "hspa", 2,
     "bfaa48f68b2aa7d66391e2337f1cb6a1be8df2d3dc8b91f9b035d60b564924ff",
     {"dch": 569.5852, "idle": 33.48479999999995})],
    ids=["throttling_lte", "onoff_lte", "mss_hspa", "hls_hspa",
         "vimeo_onoffs_hspa"])
def test_radio_outputs_are_pinned(technique, technology, rows, digest,
                                  residency):
    """The radio_timeline.csv rows (as written, without the header) and
    the exact state residency of five sessions, so that a change to how
    a timeline is stored or read moves neither."""
    res = _base_scenario_on(technique, technology)
    lines = res.radio.to_csv_lines()[1:]
    assert len(lines) == rows
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
    assert res.summary.state_residency == residency
    assert res.radio.residency() == residency


@pytest.mark.parametrize("technique,technology,intervals,runs", [
    ("technique.kind = throttling", "lte", 8611, 8369),
    ("technique.preset = youtube_onoffm", "lte", 1260, 50),
    ("technique.kind = mss", "hspa", 2, 2),
    ("technique.kind = hls", "hspa", 102, 102),
    ("technique.preset = vimeo_onoffs", "hspa", 2, 2)],
    ids=["throttling_lte", "onoff_lte", "mss_hspa", "hls_hspa",
         "vimeo_onoffs_hspa"])
def test_radio_stores_runs_not_drx_cycles(technique, technology, intervals,
                                          runs):
    """A gap's whole DRX cycles are one periodic run: the ON/OFF
    session's 124 DRX cycles per 10 s RRC tail are stored as 50 runs,
    not 1,260 intervals.  A train's repeats are walked one by one, so the
    throttling session, about two DRX cycles per repeat, stores 8,369.
    Pinned, so that a change to how runs are stored moves them only on
    purpose; the run report counts both."""
    res = _base_scenario_on(technique, technology)
    assert res.radio.n_runs == runs
    counts = res.stats["counts"]
    assert (counts["radio_intervals"], counts["radio_runs"]) == (intervals,
                                                                 runs)
    assert len(res.radio.intervals) == intervals


def test_radio_runs_do_not_grow_with_drx_cycles():
    """ON/OFF on LTE carves four times the DRX intervals with the default
    80 ms DRX cycle as with a 320 ms one, and stores as many runs."""
    fast = _base_scenario_on("technique.preset = youtube_onoffm", "lte")
    text = (SCENARIOS / "youtube_onoffm_hspa.scn").read_text().replace(
        "radio.technology = hspa",
        "radio.technology = lte\nradio.drx_cycle_ms = 320")
    slow = run_session(parse_scenario_text(text))
    assert len(fast.radio.spans()) > 3 * len(slow.radio.spans())
    assert fast.radio.n_runs == slow.radio.n_runs


@pytest.mark.parametrize("name", ["buffer_c2_10", "buffer_c4_10",
                                  "buffer_c8_10"])
@pytest.mark.parametrize("radio_tech,cfg", RADIO_CONFIGS)
def test_radio_on_sweep_trains_equals_the_per_packet_walk(radio_tech, cfg,
                                                          name, gs3):
    """The sweep points with the longest ON/OFF trains (19 to 21 cycles,
    each gap long enough for every timer): the stored runs give the
    per-packet walk's states and times, and its residency and energy to
    1e-9."""
    res = run_session({sc.name: sc for sc in _sweep_points()}[name])
    end = res.summary.wall_time_s
    got = simulate_radio(radio_tech, res.events, cfg, gs3, end)
    want = ref.simulate_radio_per_packet(radio_tech, expand_ticks(res.events),
                                         cfg, gs3, end)
    _assert_same_timeline(got, want)
    residency = got.residency()
    assert residency.keys() == want.residency().keys()
    for state, seconds in want.residency().items():
        assert residency[state] == pytest.approx(seconds, rel=1e-9)
    assert integrate_energy(got, gs3, end) == pytest.approx(
        integrate_energy(want, gs3, end), rel=1e-9)


def test_link_boundaries_on_the_tick_grid_leave_no_slivers():
    """Ticks that meet a boundary up to round-off meet it exactly: no
    1 us hop ticks carrying a byte or two."""
    rng = random.Random(3)
    link = LinkModel(tuple((round(0.2 * i, 6), rng.uniform(2e6, 12e6))
                           for i in range(300)), rtt_ms=70.0)
    stream = StreamSpec(duration_s=60.0, encoding_rate_bps=2e6)
    events, dlog = simulate_session(stream, link, FastCaching())
    data = [e for e in expand_ticks(events)
            if e.kind == "data"][:-1]   # not the last
    assert min(e.bytes for e in data) >= 0.2 * 2e6 * 0.05 / 8
    assert dlog.bytes_delivered == pytest.approx(stream.size_bytes, abs=2.0)
    # a run meets a boundary on its tick grid with a whole tick: the one
    # tick a span holds next to a boundary is the cut of one off the grid
    starts = [t0 for t0, _ in link.segments]
    spans = [it for it in events if isinstance(it, TransferSpan)]
    for s in spans[:-1]:
        if s.n == 1 and any(abs(t - t0) <= 1e-9 for t0 in starts
                            for t in (s.t_s - s.dt_s, s.t_s)):
            assert s.dt_s < 0.05 - 1e-6, s
    assert sum(s.n == 1 for s in spans[:-1]) == 1


def _levels(rng, n, lo, hi):
    """n evenly spaced levels in (lo, hi), in seeded order."""
    out = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _long_inputs(seed):
    """The bundled base scenario on a 3,000-segment link, 0.2 s a segment
    from 2 to 12 Mbps, and with a 600-breakpoint VBR stream, 0.5 to 1.5
    times the encoding rate: both seeded."""
    base = load_scenario(str(SCENARIOS / "youtube_onoffm_hspa.scn"))
    rng = random.Random(seed)
    link = LinkModel(tuple((round(0.2 * i, 6), bw) for i, bw in
                           enumerate(_levels(rng, 3000, 2e6, 12e6))),
                     base.link.rtt_ms)
    rate, w = base.stream.encoding_rate_bps, _levels(rng, 600, 0.5, 1.5)
    total = functools.reduce(operator.add, w)   # left to right, as before 3.12
    stream = StreamSpec(600.0, rate, vbr_trace=[
        (float(i), rate * x * len(w) / total) for i, x in enumerate(w)])
    return replace(base, link=link), replace(base, stream=stream)


def _stored_runs(res):
    return sum(isinstance(it, (TransferSpan, ChunkTrain))
               for it in res.events)


@pytest.mark.parametrize("seed,steps,drains,runs", [
    (1, 661, 23, 651), (3, 639, 24, 627), (7, 665, 24, 653)],
    ids=["1", "3", "7"])
def test_long_link_costs_a_run_per_decision(seed, steps, drains, runs,
                                            monkeypatch):
    """A run reaches each link boundary it crosses; a boundary the refill
    cap hides on the tick grid is no decision point at all, so it costs no
    run of the engine either, even where the span would join up.  Each
    run step, a run of whole ticks or one stepped tick, buffers its ticks
    through one _fill call from deliver, as does each jump of a train's
    repeats, so those calls count the steps: pinned, a few more than the
    stored runs and far fewer than the 3,000 segments.  A wait's playout
    (advance) takes the same path, once per drain."""
    callers = []
    fill = delivery._Engine._fill
    monkeypatch.setattr(delivery._Engine, "_fill", lambda eng, *a: (
        callers.append(sys._getframe(1).f_code.co_name) or fill(eng, *a)))
    res = run_session(_long_inputs(seed)[0])
    assert collections.Counter(callers) == {"deliver": steps,
                                            "advance": drains}
    assert _stored_runs(res) == runs
    assert len(res.dlog.to_csv_lines()) <= 700


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_long_link_is_sought_once_per_deliver_call(seed, monkeypatch):
    """The engine seeks the link once per deliver call, at the clock it
    starts from, and walks forward from that segment as its clock reaches
    each segment's end, so its link lookups are bounded by its deliver
    calls, not by its runs or the 3,000 segments."""
    seeks, calls = [], []
    index, deliver = LinkModel.segment_index, delivery._Engine.deliver
    monkeypatch.setattr(LinkModel, "segment_index",
                        lambda link, t: seeks.append(t) or index(link, t))
    monkeypatch.setattr(delivery._Engine, "deliver", lambda eng, *a, **kw: (
        calls.append(eng.t) or deliver(eng, *a, **kw)))
    sc = _long_inputs(seed)[0]
    events, _ = simulate_session(
        sc.stream, sc.link, sc.technique, seed=sc.seed,
        start_delay_s=promotion_latency(sc.radio_tech, sc.radio_cfg))
    runs = sum(isinstance(it, (TransferSpan, ChunkTrain))
               for it in events)
    assert seeks == calls
    assert len(calls) <= 10 < runs <= 700


def test_long_link_segments_are_read_once_per_deliver_call(monkeypatch):
    """Throttling calls deliver once per chunk, over 2,000 times on the
    seeded link.  Each call starts reading the segments at the one holding
    its clock, so the session reads each segment about once plus a few per
    call, not every segment before the clock again on each call."""
    class Counting(tuple):   # the link's segments, counting reads
        reads = 0

        def __getitem__(self, k):
            Counting.reads += 1
            return tuple.__getitem__(self, k)

        def __iter__(self):
            for seg in tuple.__iter__(self):
                Counting.reads += 1
                yield seg

    calls, deliver = [], delivery._Engine.deliver
    monkeypatch.setattr(delivery._Engine, "deliver", lambda eng, *a, **kw: (
        calls.append(eng.t) or deliver(eng, *a, **kw)))
    sc = _long_inputs(1)[0]
    link = LinkModel(sc.link.segments, sc.link.rtt_ms)
    object.__setattr__(link, "segments", Counting(link.segments))
    simulate_session(sc.stream, link, Throttling(), seed=sc.seed)
    assert len(calls) > 2000
    assert Counting.reads <= len(sc.link.segments) + 2 * len(calls)


def test_long_link_run_step_makes_two_calls():
    """A run step on the seeded link makes about two Python-level calls:
    its _fill and its TransferSpan.  The link segment is walked to, not
    sought, and _fill plays out in line; the rest are the rare decisions.
    Counted by sys.setprofile call events inside deliver."""
    code, inside, calls = delivery._Engine.deliver.__code__, 0, 0

    def profile(frame, event, arg):
        nonlocal inside, calls
        if event == "call":
            if frame.f_code is code:
                inside += 1
            elif inside:
                calls += 1
        elif event == "return" and frame.f_code is code:
            inside -= 1

    sc, old = _long_inputs(1)[0], sys.getprofile()
    sys.setprofile(profile)
    try:
        res = run_session(sc)
    finally:
        sys.setprofile(old)
    assert _stored_runs(res) == 651
    assert calls <= 2.5 * 651


def _line_events(names, run):
    """sys.settrace line events in the named _Engine methods while run()
    runs: a count of the Python work they do that reads the same on
    CPython 3.10 to 3.13, unlike opcode counts or times."""
    codes = {getattr(delivery._Engine, name).__code__ for name in names}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(old)
    return count


def test_long_link_run_step_line_events_are_pinned():
    """The seed-1 link's run steps, counted in line events of deliver and
    _fill and pinned, so work added to a run step shows as a count."""
    sc = _long_inputs(1)[0]
    assert _line_events(("deliver", "_fill"),
                        lambda: run_session(sc)) == 97_966


def test_sweeps_line_events_do_not_grow(tmp_path, capsys):
    """One default sweep-buffer and sweep-abandon pass runs the same
    deliver, _fill and advance as the long link, at about five runs a
    session: its line events stay within the 79,696 they read when each
    run step re-derived the playback phase, so work taken off long runs
    is not moved onto short ones."""
    from streamsim.cli import main
    scn = str(SCENARIOS / "youtube_onoffm_hspa.scn")

    def sweeps():
        for command in ("sweep-buffer", "sweep-abandon"):
            assert main([command, "--scenario", scn,
                         "--out", str(tmp_path / command)]) == 0

    assert _line_events(("deliver", "_fill", "advance"), sweeps) <= 79_696
    capsys.readouterr()


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_long_vbr_costs_a_run_per_threshold(seed):
    """A VBR run is refined to the tick before its crossing, so each
    threshold costs a run or two, not a geometric approach."""
    res = run_session(_long_inputs(seed)[1])
    assert _stored_runs(res) <= 24
    assert len(res.dlog.to_csv_lines()) <= 50


def test_long_vbr_lookups_are_pinned(monkeypatch):
    """The seed-1 VBR session's content lookups, counted, so a change that
    adds lookups shows as a count."""
    calls = {"seconds_for_bytes": 0, "bytes_for_content": 0}
    for name in calls:
        def counting(stream, *args, _name=name, _f=getattr(StreamSpec, name)):
            calls[_name] += 1
            return _f(stream, *args)
        monkeypatch.setattr(StreamSpec, name, counting)
    run_session(_long_inputs(1)[1])
    assert calls == {"seconds_for_bytes": 124, "bytes_for_content": 82}


def _artifact_texts(res):
    """The four artifacts' texts, as `streamsim simulate` writes them."""
    return [text for _, text in res.artifact_texts()]


@pytest.mark.parametrize("case,counts,digest", [
    ("link3000", {"stored_runs": 651, "ticks": 5674, "log_rows": 675,
                  "buffer_samples": 1295},
     "8dd5007d24e2fbe84206b454bc9c950e7fd36dede8b616f82ec4c6d5095ddc0b"),
    ("vbr600", {"stored_runs": 18, "ticks": 5354, "log_rows": 42,
                "buffer_samples": 36},
     "e87fa755a9d6e9840635b25deae0937f51b54d55088bdac15bc801e1dd6b7446")])
def test_long_inputs_are_pinned(case, counts, digest):
    """The seed-1 long inputs' run report counts and the SHA-256 of their
    four artifacts, so that a change to how the engine applies a run
    moves neither, down to the last digit written."""
    res = _radio_session(case)
    assert res.stats["counts"] == {
        **counts, "radio_intervals": 10, "radio_runs": 10, "connections": 5,
        "quality_switches": 0, "notes": 0}
    h = hashlib.sha256()
    for text in _artifact_texts(res):
        h.update(text.encode())
    assert h.hexdigest() == digest


def _compensated_sum(values, start=0):
    """sum() with float round-off compensated, as CPython 3.12's is (here
    exactly rounded); ints in, the exact int out."""
    values = [start, *values]
    if all(isinstance(v, int) for v in values):
        return functools.reduce(operator.add, values)
    return math.fsum(values)


def test_artifacts_do_not_depend_on_how_sum_rounds(monkeypatch):
    """The bundled scenarios and both seed-1 long inputs write the same
    four artifacts when every streamsim module's sum() compensates float
    round-off: the outputs add floats in a stated order (fold_sum), so
    they are the same bytes on every CPython, whichever sum() it has."""
    scenarios = [load_scenario(str(p)) for p in sorted(
        SCENARIOS.iterdir(), key=str) if p.name.endswith(".scn")]
    scenarios += _long_inputs(1)
    plain = [_artifact_texts(run_session(sc)) for sc in scenarios]
    for info in pkgutil.iter_modules(streamsim.__path__):
        module = importlib.import_module(f"streamsim.{info.name}")
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    compensated = [_artifact_texts(run_session(sc)) for sc in scenarios]
    assert len(scenarios) == 5
    assert compensated == plain
