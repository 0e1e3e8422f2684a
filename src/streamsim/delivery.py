"""Delivery-technique co-simulation.

simulate_session() turns (stream, link, technique) into the packet-event
timeline a traffic capture would show, by stepping server policy, link
bandwidth, TCP flow-control effects (receive-window stalls, persist probes)
and the client playback-buffer feedback loop together.

Data transfers are emitted as completion events every EVENT_TICK_S of
transfer time, so downstream radio machines see transfer occupancy rather
than lone points.  The engine does not walk those ticks one at a time:
each turn of _Engine.deliver is one run step, which applies the longest
run of whole ticks that crosses no decision point (a link boundary, the
byte budget, the end of the content or of the watch session, playback
start, stall or resume, or a driver's buffer threshold) in closed form.
One _fill buffers the run, its first tick on its own so that the level
after it is exact, and one TransferSpan stores it.  A run reaches a link
boundary, which it knows exactly, with its last tick; a boundary between
two segments the rate cap holds to the same rate, on a tick edge, is no
decision point.  The other crossings are linear in the tick count: a run
stops a tick short of the earliest, which the next step takes singly, so
every decision lands on the tick it would land on if every tick were
stepped.  A VBR run's prediction is refined from the exact state it
reaches.  The drivers' periodic loops get the same treatment
one level up (_Engine.repeat_cycles): a cycle that repeats the one before
it makes the two a ChunkTrain, and whole runs of repeats are applied in
closed form.  The delivery log is the engine's one record of what it sent
and decided: finalize reads the event list and the ON/OFF periods from
it.  Both expand spans and trains into per-tick entries when read;
delivery_log.csv writes one per run.

The engine is deterministic: equal inputs always produce identical event
streams (ties broken by connection id, then event kind).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import MISSING, field, replace
from functools import partial
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .streams import (EVENT_KINDS, FLOW_CONTROL_BYTES, PROBE_BYTES,
                      REQUEST_BYTES, ChunkTrain, LinkModel, MutableRecord,
                      PacketEvent, StreamSpec, TickSeq, TransferSpan,
                      event_order, fold_sum)
from .techniques import (EncodingRate, FastCaching, Hls, Mss, OnOffM, OnOffS,
                         FASTSTART_TARGET_S, RESUME_THRESHOLD_S,
                         START_THRESHOLD_S, Technique, Throttling)

EVENT_TICK_S = 0.05   # transfer emission quantum (wall seconds)

# A driver's buffer threshold counts as reached within this many content
# seconds, so round-off in the buffer level cannot move a decision a tick.
THRESHOLD_TOL_S = 1e-9

# Ties: clock readings, and a buffer level and empty or the start or
# resume threshold, within TIE_S of each other are equal.
TIE_S = 1e-9
# Playback is finished within DONE_TOL_S content seconds of the watch end.
DONE_TOL_S = 1e-6
# Content within CONTENT_DONE_S seconds of its end counts as delivered: it
# ends delivery, holds the start and resume thresholds, and an empty buffer
# then has played it all.
CONTENT_DONE_S = 1e-3
JOIN_FAILURE_S = math.inf   # sentinel: the session can never start


class BufferSample(NamedTuple):
    t_s: float
    buffered_seconds: float
    buffered_bytes: float


# BufferSample(*fields) without the NamedTuple's Python-level __new__: the
# same tuple, built by tuple.__new__; the engine keeps one or two a run
_new_sample = partial(tuple.__new__, BufferSample)


class BufferTimeline(MutableRecord):
    """The playback buffer over a session: its samples, join and stalls.

    The engine writes the one its playback drives.  samples are the
    buffer's breakpoints: the first and last tick of each span, each
    start, stall and end of playback, and each discard, for every cycle of
    a drain-gated train; a clocked one (throttling) keeps its first and
    last cycles', between which the buffer follows the trend.
    """
    joining_time_s: float          # JOIN_FAILURE_S: it never started
    playback_end_s: float          # wall time playback finished (or horizon)
    duration_s: float              # content seconds actually watched
    samples: list[BufferSample] = field(default_factory=list)
    resume_threshold_s: float = RESUME_THRESHOLD_S
    completed: bool = True         # playback reached the watch end
    # the stalls the playback recorded: (t_start_s, duration_s)
    stall_events: list[tuple[float, float]] = field(default_factory=list)

    CSV_HEADER = "t_s,buffered_seconds,buffered_bytes"

    def __init__(self, joining_time_s: float, playback_end_s: float,
                 duration_s: float, samples: list[BufferSample] = MISSING,
                 resume_threshold_s: float = RESUME_THRESHOLD_S,
                 completed: bool = True,
                 stall_events: list[tuple[float, float]] = MISSING):
        self.joining_time_s = joining_time_s
        self.playback_end_s = playback_end_s
        self.duration_s = duration_s
        self.samples = [] if samples is MISSING else samples
        self.resume_threshold_s = resume_threshold_s
        self.completed = completed
        self.stall_events = [] if stall_events is MISSING else stall_events

    def to_csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for s in self.samples:
            lines.append(f"{s.t_s:.6f},{s.buffered_seconds:.6f},"
                         f"{s.buffered_bytes:.1f}")
        return lines

    def value_at(self, t_s: float) -> float:
        """Buffered seconds at wall time t_s, interpolated linearly
        between the samples around it."""
        i = bisect_right(self.samples, t_s + TIE_S, key=lambda s: s.t_s)
        if i == 0:
            return 0.0
        a = self.samples[i - 1]
        if i == len(self.samples) or t_s <= a.t_s:
            return a.buffered_seconds
        b = self.samples[i]
        w = (t_s - a.t_s) / (b.t_s - a.t_s)
        return a.buffered_seconds + w * (b.buffered_seconds
                                          - a.buffered_seconds)


def _no_playback() -> BufferTimeline:
    return BufferTimeline(JOIN_FAILURE_S, 0.0, 0.0, completed=False)


class LogRecord(MutableRecord):
    """One row of the delivery log: a decision, or a data tick."""
    t_s: float
    event: str
    connection_id: int
    bytes: float
    buffer_s_after: float

    def __init__(self, t_s: float, event: str, connection_id: int,
                 bytes: float, buffer_s_after: float):
        self.t_s = t_s
        self.event = event
        self.connection_id = connection_id
        self.bytes = bytes
        self.buffer_s_after = buffer_s_after

    def shifted(self, dt: float, dbuffer: float, dconn: int) -> "LogRecord":
        conn = self.connection_id + dconn if self.connection_id >= 0 else -1
        return LogRecord(self.t_s + dt, self.event, conn, self.bytes,
                         self.buffer_s_after + dbuffer)


def _data_record(span: TransferSpan, k: int) -> LogRecord:
    return LogRecord(span.tick_t(k), "data", span.connection_id, span.nbytes,
                     span.buffer_s + k * span.dbuffer_s)


def _run_row(span: TransferSpan, event: str, nbytes: float) -> LogRecord:
    """A row at span's last tick, with that tick's time and buffer."""
    r = _data_record(span, span.n - 1)
    r.event, r.bytes = event, nbytes
    return r


def _wire(e):
    """Log entry e as the event list holds it: a span as it is, a control
    packet's record as its PacketEvent, a train as the train of its
    cycle's wire entries, sorted as the list is; None for a decision."""
    if isinstance(e, TransferSpan):
        return e
    if isinstance(e, ChunkTrain):
        return replace(e, cycle=tuple(sorted(filter(None, map(_wire, e.cycle)),
                                             key=event_order)))
    if e.event in EVENT_KINDS:
        return PacketEvent(e.t_s, int(round(e.bytes)), e.connection_id,
                           e.event)
    return None


def _log_records() -> TickSeq:
    return TickSeq([], _data_record)


class DeliveryLog(MutableRecord):
    """Session-level record of what the delivery layer did, and of the
    playback it drove.

    records holds one LogRecord per decision and per data tick; the data
    ticks are stored as TransferSpans, repeated cycles (with their
    decisions) as ChunkTrains, both expanded when read, and rows() writes
    them one row per run.  on_spans and off_spans are the ON and OFF
    periods its on and off rows bound.  playback is the buffer timeline the
    engine's playback wrote, the one a session reports.
    """
    records: TickSeq = field(default_factory=_log_records)
    on_spans: list[tuple[float, float]] = field(default_factory=list)
    off_spans: list[tuple[float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    connections_opened: int = 0
    playback: BufferTimeline = field(default_factory=_no_playback)
    bytes_delivered: float = 0.0      # data bytes on the wire (incl. re-requests)
    bytes_consumed: float = 0.0
    bytes_buffered_end: float = 0.0
    bytes_wasted: float = 0.0         # keyframe re-requests + quality discards
    overhead_bytes: float = 0.0       # requests, probes, window updates
    content_delivered_s: float = 0.0
    content_consumed_s: float = 0.0
    quality_switches: list[tuple[float, str, str]] = field(default_factory=list)

    CSV_HEADER = "t_s,event,connection_id,bytes,buffer_s_after"

    def __init__(self, records: TickSeq = MISSING,
                 on_spans: list[tuple[float, float]] = MISSING,
                 off_spans: list[tuple[float, float]] = MISSING,
                 notes: list[str] = MISSING, connections_opened: int = 0,
                 playback: BufferTimeline = MISSING,
                 bytes_delivered: float = 0.0, bytes_consumed: float = 0.0,
                 bytes_buffered_end: float = 0.0, bytes_wasted: float = 0.0,
                 overhead_bytes: float = 0.0,
                 content_delivered_s: float = 0.0,
                 content_consumed_s: float = 0.0,
                 quality_switches: list[tuple[float, str, str]] = MISSING):
        self.records = _log_records() if records is MISSING else records
        self.on_spans = [] if on_spans is MISSING else on_spans
        self.off_spans = [] if off_spans is MISSING else off_spans
        self.notes = [] if notes is MISSING else notes
        self.connections_opened = connections_opened
        self.playback = _no_playback() if playback is MISSING else playback
        self.bytes_delivered = bytes_delivered
        self.bytes_consumed = bytes_consumed
        self.bytes_buffered_end = bytes_buffered_end
        self.bytes_wasted = bytes_wasted
        self.overhead_bytes = overhead_bytes
        self.content_delivered_s = content_delivered_s
        self.content_consumed_s = content_consumed_s
        self.quality_switches = ([] if quality_switches is MISSING
                                 else quality_switches)

    def rows(self) -> Iterator[LogRecord]:
        """The rows of delivery_log.csv, one per stored entry.

        A decision record is its own row.  A TransferSpan is one data row
        at its last tick, carrying the span's bytes and the buffer after
        that tick.  A ChunkTrain is its first cycle's rows, decision
        records included, then one repeat row at the train's last tick
        carrying the bytes of the other cycles and the buffer after that
        tick; it stands for those cycles' decision rows too.
        """
        for it in self.records.items:
            train = isinstance(it, ChunkTrain)
            for e in it.cycle if train else (it,):
                yield (_run_row(e, "data", e.n * e.nbytes)
                       if isinstance(e, TransferSpan) else e)
            if train and it.m > 1:
                *_, last = (e for e in it.repeats(it.m - 1)
                            if isinstance(e, TransferSpan))
                yield _run_row(last, "repeat", (it.m - 1) * fold_sum(
                    s.n * s.nbytes for s in it.cycle
                    if isinstance(s, TransferSpan)))

    def to_csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for r in self.rows():
            lines.append(f"{r.t_s:.6f},{r.event},{r.connection_id},"
                         f"{r.bytes:.1f},{r.buffer_s_after:.6f}")
        return lines


class _Buffer:
    """FIFO of buffered content segments [seconds, bytes, content rate].

    Per-segment byte rates keep byte conservation exact for rate-adaptive
    sessions where buffered seconds were fetched at different rung rates.
    Content enters and leaves through _Engine._fill, and joins the newest
    segment if it has its rate.  A VBR stream's own content has rate None:
    its bytes are the stream's own, so they are exact too.
    """

    def __init__(self, stream: StreamSpec):
        self.rates_bps = stream.rate_range_bps()
        self.segments: deque[list] = deque()
        self.seconds = 0.0
        self.bytes = 0.0

    def min_byte_rate(self) -> float:
        """Lowest bytes per content second among the buffered segments."""
        return min((seg[2] or self.rates_bps[0] for seg in self.segments),
                   default=0.0) / 8.0

    def drop_all(self) -> tuple[float, float]:
        """Discard everything buffered; returns (seconds, bytes)."""
        s, b = self.seconds, self.bytes
        self.segments.clear()
        self.seconds = 0.0
        self.bytes = 0.0
        return s, b


def _ticks_to(gap: float, per_tick: float) -> float:
    """Ticks until a quantity moving by per_tick each tick has covered gap
    (none when the gap is already closed)."""
    if gap <= 0:
        return 0.0
    return gap / per_tick if per_tick > 0 else math.inf


class _Cycle(MutableRecord):
    """One turn of a driver's loop, stepped singly: from t0 to the start
    of the next turn."""
    t0: float
    buffer_s: float            # content buffered at t0
    phase: tuple[bool, bool]   # (playback started, stalled) at t0
    marks: SimpleNamespace     # _Engine._marks() at t0
    records: tuple = ()        # the turn's entries in the log
    spans: tuple[TransferSpan, ...] = ()
    period_s: float = 0.0      # t0 to the next turn's start
    dbuffer_s: float = 0.0     # buffer change over the turn
    buffered: float = 0.0      # bytes that entered the buffer in the turn

    def __init__(self, t0: float, buffer_s: float, phase: tuple[bool, bool],
                 marks: SimpleNamespace, records: tuple = (),
                 spans: tuple[TransferSpan, ...] = (), period_s: float = 0.0,
                 dbuffer_s: float = 0.0, buffered: float = 0.0):
        self.t0 = t0
        self.buffer_s = buffer_s
        self.phase = phase
        self.marks = marks
        self.records = records
        self.spans = spans
        self.period_s = period_s
        self.dbuffer_s = dbuffer_s
        self.buffered = buffered

    def _shape(self, e) -> tuple[tuple, tuple]:
        """What of log entry e a repeat matches exactly, and what within
        TIE_S; times, levels and connections relative to the turn's."""
        conn = e.connection_id
        conn = conn - self.marks.conn if conn >= 0 else None
        if isinstance(e, TransferSpan):
            return ((e.n, e.nbytes, e.dt_s, conn),
                    (e.t_s - self.t0, e.buffer_s - self.buffer_s, e.dbuffer_s))
        return ((e.event, e.bytes, conn),
                (e.t_s - self.t0, e.buffer_s_after - self.buffer_s))

    def repeats(self, prev: "_Cycle", phase: tuple[bool, bool]) -> bool:
        """Whether this cycle is prev again, period_s later, with the
        playback phase unchanged from prev's start to this one's end.  The
        log holds all a turn sends: each control packet has a record."""
        if not (self.phase == prev.phase == phase and self.spans
                and len(self.records) == len(prev.records)
                and abs(self.period_s - prev.period_s) <= TIE_S
                and abs(self.dbuffer_s - prev.dbuffer_s) <= TIE_S):
            return False
        shapes = zip(map(prev._shape, prev.records),
                     map(self._shape, self.records))
        return all(xa == xb and all(abs(u - v) <= TIE_S
                                    for u, v in zip(ya, yb))
                   for (xa, ya), (xb, yb) in shapes)

    def levels(self, crate: float) -> tuple[float, float]:
        """The lowest buffer level just before an arrival and the highest
        just after one, relative to the level at t0."""
        lo = hi = 0.0
        for s in self.spans:
            ends = (s.buffer_s, s.buffer_s + (s.n - 1) * s.dbuffer_s)
            lo = min(lo, min(ends) - s.nbytes * 8.0 / crate - self.buffer_s)
            hi = max(hi, max(ends) - self.buffer_s)
        return lo, hi


class _Engine:
    """Shared wall-clock, link, buffer and playback state for one session."""

    def __init__(self, stream: StreamSpec, link: LinkModel,
                 abandon_at_s: Optional[float],
                 start_threshold_s: float = START_THRESHOLD_S,
                 resume_threshold_s: float = RESUME_THRESHOLD_S,
                 seed: int = 0, start_delay_s: float = 0.0):
        self.stream = stream
        self.link = link
        self.start_threshold_s = start_threshold_s
        self.start_delay_s = start_delay_s
        self.watch_end_s = stream.duration_s
        if abandon_at_s is not None:
            if abandon_at_s > stream.duration_s + TIE_S:
                raise ValueError("abandon_at_s exceeds the stream duration")
            self.watch_end_s = min(abandon_at_s, stream.duration_s)

        self.t = 0.0
        # the playback this engine drives, as the session reports it
        self.playback = BufferTimeline(JOIN_FAILURE_S, 0.0, self.watch_end_s,
                                       resume_threshold_s=resume_threshold_s,
                                       completed=False)
        self.log = DeliveryLog(playback=self.playback)
        self.buf = _Buffer(stream)
        # the content rate of the stream's own bytes; None for VBR, whose
        # bytes enter the buffer through the stream's own trace
        self.own_rate = (None if stream.vbr_trace is not None
                         else stream.encoding_rate_bps)
        self.delivered_content_s = 0.0
        self._pushed = 0.0   # bytes buffered since the loop turn began
        self._stopped = False   # whether a transfer since then met its stop
        # playback starts start_delay_s after the buffer first holds the
        # start threshold, at start_at
        self.start_at: Optional[float] = None
        self.playback_start: Optional[float] = None
        self.stalled = False
        self.stall_since = 0.0
        self.finished = self.watch_end_s <= 0
        if self.finished:         # nothing to watch: done at once
            self.playback_start = self.playback.joining_time_s = 0.0
        self.starved = False      # link died with no recovery ahead
        self.seed, self._rng = seed, None   # _rng is built at the first draw
        self._on = False   # delivery is ON: the last on/off row is on
        # the log's last entry, a span the next tick may still extend
        self._open_span: Optional[TransferSpan] = None
        # whether the last buffer sample is the open span's last tick
        self._tail = False
        self._sample()

    # -- playback clock ----------------------------------------------------

    @property
    def content_remaining_s(self) -> float:
        return self.stream.duration_s - self.delivered_content_s

    @property
    def content_done(self) -> bool:
        return (self.stream.duration_s - self.delivered_content_s
                <= CONTENT_DONE_S)

    @property
    def ended(self) -> bool:
        """Playback finished, the content is delivered or the link died."""
        return self.finished or self.content_done or self.starved

    @property
    def playing(self) -> bool:
        return self.playback_start is not None and not self.stalled

    def advance(self, to_t: float) -> None:
        """Move the wall clock forward: start playback once its start is
        due, and consume buffer while playing."""
        if (self.playback_start is None and self.start_at is not None
                and self.start_at <= to_t):
            self.t = max(self.t, self.start_at)
            self.playback_start = self.playback.joining_time_s = self.t
            # a start at an arrival's time shares that arrival's sample
            if self.t > self.playback.samples[-1].t_s:
                self._sample()
        buf, lg = self.buf, self.log
        while to_t > self.t + TIE_S:
            if self.playback_start is None or self.stalled or self.finished:
                self.t = to_t
                return
            dt = min(to_t - self.t, buf.seconds,
                     self.watch_end_s - lg.content_consumed_s)
            if dt > 0:
                self._fill(0.0, None, dt)
                self.t += dt
            if (lg.content_consumed_s >= self.watch_end_s - DONE_TOL_S
                    or (buf.seconds <= TIE_S and self.content_done)):
                self.finished = True
                self.playback.playback_end_s = self.t
                self._sample()
            elif buf.seconds <= TIE_S and self.t < to_t - TIE_S:
                self._stall()

    def _stall(self) -> None:
        self.stalled = True
        self.stall_since = self.t
        if self.playback.samples[-1][:2] == (self.t, self.buf.seconds):
            self.playback.samples.pop()   # a discard's: the stall's now
        self._sample()

    def _post_arrival(self) -> None:
        if self.playback_start is None:
            if self.start_at is None and (
                    self.buf.seconds >= self.start_threshold_s - TIE_S
                    or self.content_done):
                self.start_at = self.t + self.start_delay_s
                self.advance(self.t)
        elif self.stalled and (
                self.buf.seconds >= self.playback.resume_threshold_s - TIE_S
                or self.content_done):
            self.stalled = False
            self.playback.stall_events.append(
                (self.stall_since, self.t - self.stall_since))

    def _sample(self) -> None:
        """Keep the buffer now as a timeline sample."""
        self.playback.samples.append(
            _new_sample((self.t, self.buf.seconds, self.buf.bytes)))
        self._tail = False

    def _fill(self, nbytes: float, crate: Optional[float], played: float,
              n: int = 1) -> tuple[float, float]:
        """Apply n ticks that each buffer nbytes at content rate crate
        (None: the stream's own, by its VBR trace) and play `played`
        seconds: the first on its own, so the level after it is exact,
        then the other n - 1 at once.  Returns the buffered seconds and
        bytes after the first."""
        buf, lg, segs = self.buf, self.log, self.buf.segments
        b, p, first = nbytes, played, None
        while True:
            if b > 0:
                secs = (self.stream.seconds_for_bytes(self.delivered_content_s,
                                                      b)
                        if crate is None else b * 8.0 / crate)
                if secs > 0:
                    if segs and segs[-1][2] == crate:
                        segs[-1][0] += secs
                        segs[-1][1] += b
                    else:
                        segs.append([secs, b, crate])
                    buf.seconds += secs
                    buf.bytes += b
                self._pushed += b
                self.delivered_content_s += secs
                lg.content_delivered_s += secs
            if p:   # play p seconds from the oldest segments on
                taken, left, pos = 0.0, p, lg.content_consumed_s
                while left > TIE_S and segs:
                    seg = segs[0]
                    if seg[0] <= left + TIE_S:
                        left -= seg[0]
                        pos += seg[0]
                        taken += seg[1]
                        buf.seconds -= seg[0]
                        buf.bytes -= seg[1]
                        segs.popleft()
                        continue
                    part = (seg[1] * (left / seg[0]) if seg[2] is not None
                            else min(self.stream.bytes_for_content(
                                pos, pos + left), seg[1]))
                    seg[0] -= left
                    seg[1] -= part
                    buf.seconds -= left
                    buf.bytes -= part
                    taken += part
                    break
                if buf.seconds < 0.0:
                    buf.seconds = 0.0
                if buf.bytes < 0.0:
                    buf.bytes = 0.0
                lg.bytes_consumed += taken
                lg.content_consumed_s += p
            if first is not None:
                return first
            first = buf.seconds, buf.bytes
            if n == 1:
                return first
            b, p = (n - 1) * nbytes, (n - 1) * played

    # -- wire --------------------------------------------------------------

    def open_connection(self) -> int:
        conn = self.log.connections_opened
        self.log.connections_opened += 1
        self._emit(conn, REQUEST_BYTES, "request")
        self._record("open", conn, 0.0)
        return conn

    def request(self, count: int = 1) -> int:
        """Open count connections and wait one round trip for the first
        byte: delivery is ON from then.  Returns the first one's id; the
        others follow it."""
        conn = self.log.connections_opened
        for _ in range(count):
            self.open_connection()
        self.wait_until(self.t + self.link.rtt_s)
        self.mark_on()
        return conn

    def close_connection(self, conn: int) -> None:
        self._record("close", conn, 0.0)

    def mark_on(self) -> None:
        if not self._on:
            self._on = True
            self._record("on", -1, 0.0)

    def mark_off(self) -> None:
        self._on = False
        self._record("off", -1, 0.0)

    def _record(self, event: str, conn: int, nbytes: float) -> None:
        self.log.records.items.append(
            LogRecord(self.t, event, conn, nbytes, self.buf.seconds))
        self._open_span = None

    def _emit(self, conn: int, nbytes: float, kind: str) -> None:
        """A control packet: request, persist probe or window update."""
        self.log.overhead_bytes += nbytes
        self._record(kind, conn, nbytes)

    def emit_probe(self, conn: int) -> None:
        self._emit(conn, PROBE_BYTES, "persist_probe")
        self._emit(conn, FLOW_CONTROL_BYTES, "flow_control")

    def deliver(self, conn: int, rate_cap_bps: float,
                nbytes: Optional[float] = None,
                stop_s: Optional[float] = None,
                stop_bytes: Optional[float] = None,
                window_s: Optional[float] = None,
                content_rate_bps: Optional[float] = None,
                enter_buffer: bool = True) -> float:
        """Transfer content on conn until a byte budget, the end of the
        content, the end of the watch session, or a buffer threshold: the
        buffer holding stop_s seconds or stop_bytes bytes.

        With window_s, rate_cap_bps applies only while the buffer holds at
        least window_s seconds, a receive window closed at the target;
        below it the sender is unthrottled.  Returns the bytes moved.  Each
        turn is one run step (see the module notes).
        """
        crate = content_rate_bps or self.own_rate
        moved = 0.0
        budget = math.inf if nbytes is None else nbytes
        if stop_s is not None:
            stop_s -= THRESHOLD_TOL_S
        if stop_bytes is not None:
            stop_bytes -= THRESHOLD_TOL_S * self.stream.bytes_per_second
        if window_s is not None:
            window_s -= THRESHOLD_TOL_S
        stream, buf, lg, samples = (self.stream, self.buf, self.log,
                                    self.playback.samples)
        duration, (lowest, highest) = stream.duration_s, buf.rates_bps
        buffered = 1.0 if enter_buffer else 0.0   # share of a tick buffered
        # the link's segments from the one holding t, sought once, then each
        # read once; one the cap hides on a tick edge (no window lifts it)
        # changes neither the rate nor the ticks: it is no decision point
        segs = self.link.segments
        segs = map(segs.__getitem__,
                   range(self.link.segment_index(self.t), len(segs)))
        boundary, bw = next(segs)
        hide_bps = rate_cap_bps if window_s is None else math.inf
        # the playback phase and when a run may first underrun or end the
        # watch (-inf: now): fixed again after each wait and stepped tick
        playing, reach = self.playing, -math.inf
        while not (self.finished or self.starved):
            left = budget - moved
            if left <= 0.5:
                break
            if (stop_s is not None and buf.seconds >= stop_s or
                    stop_bytes is not None and buf.bytes >= stop_bytes):
                self._stopped = True
                break
            if (enter_buffer
                    and duration - self.delivered_content_s <= CONTENT_DONE_S):
                break
            # a boundary within TIE_S of the clock counts as reached, and
            # a wait may have passed more than one
            t = self.t
            while t >= boundary - TIE_S:
                link_bps, boundary = bw, math.inf
                for start, bw in segs:
                    if not (link_bps >= hide_bps and bw >= hide_bps
                            and start < math.inf
                            and abs(math.remainder(start - t, EVENT_TICK_S))
                            <= TIE_S):
                        boundary = start
                        break
                rate = rate_cap_bps if rate_cap_bps < link_bps else link_bps
            if window_s is not None:   # the cap holds while the window is shut
                window_open = buf.seconds < window_s
                rate = (rate_cap_bps if not window_open
                        and rate_cap_bps < link_bps else link_bps)
            if rate <= 0:
                if boundary is math.inf:
                    lg.notes.append("link starved with no recovery")
                    self.starved = True
                    break
                self.advance(boundary)
                playing, reach = self.playing, -math.inf
                continue
            n = 0
            if boundary - t >= EVENT_TICK_S:   # a whole tick fits
                step = rate * EVENT_TICK_S / 8.0
                dt = step * 8.0 / rate
                held = buffered * step      # bytes a tick buffers
                played = dt if playing else 0.0   # content seconds a tick
                if crate is None:
                    lo, hi = held * 8.0 / highest, held * 8.0 / lowest
                else:
                    lo = hi = held * 8.0 / crate
                up, down = hi - played, lo - played  # most, least buffer gain
                # ticks of less than CONTENT_DONE_S of content stop short of
                # it, so the start and resume rules see it on a stepped tick
                done_s = CONTENT_DONE_S if hi <= CONTENT_DONE_S else 0.0
                to_link = (boundary - t + TIE_S) / dt
                # the content the ticks taken bring, and the level then
                gained, b = 0.0, buf.seconds
                while True:
                    # the ticks to each crossing: x keeps the least, as min
                    # would, without a call per crossing
                    x = left / step - n
                    if held > 0:
                        y = (duration - self.delivered_content_s - gained
                             - done_s) / hi
                        if y < x:
                            x = y
                    if stop_s is not None:   # _ticks_to(stop_s - b, up)
                        y = stop_s - b
                        y = (0.0 if y <= 0 else y / up if up > 0
                             else math.inf)
                        if y < x:
                            x = y
                    if stop_bytes is not None:
                        y = _ticks_to(stop_bytes - buf.bytes, step
                                      - played * buf.min_byte_rate())
                        if y < x:
                            x = y
                    if window_s is not None:
                        y = (_ticks_to(window_s - b, up) if window_open
                             else _ticks_to(b - window_s, -down))
                        if y < x:
                            x = y
                    if not playing:   # the start or the resume rule
                        y = (_ticks_to(self.playback.resume_threshold_s - b,
                                       up) if self.playback_start is not None
                             else _ticks_to(self.start_threshold_s - b, up)
                             if self.start_at is None
                             else (self.start_at - t) / dt - n)
                        if y < x:
                            x = y
                    elif not boundary < reach:   # an underrun or the watch's
                        y = b - dt - 1e-6        # end may be in reach
                        y = (0.0 if y <= 0 else y / -down if down < 0
                             else math.inf)
                        if y < x:
                            x = y
                        w = self.watch_end_s - lg.content_consumed_s
                        y = (w - n * played - 1e-6) / dt
                        if y < x:
                            x = y
                        # the buffer drains, and playback plays, 1 s a second
                        reach = t + (b if b < w else w) - 4 * EVENT_TICK_S
                    x, y = x - 1.0, to_link - n
                    more = int(y if y < x else x)
                    if more < 1:
                        break
                    n += more
                    if crate is not None or stop_bytes is not None:
                        break
                    gained += stream.seconds_for_bytes(
                        self.delivered_content_s + gained, more * held)
                    b = buf.seconds + gained - n * played
            stepped = n == 0
            if stepped:
                dt = min(EVENT_TICK_S, boundary - t)
                step = rate * dt / 8.0
                if enter_buffer:
                    step = min(step, stream.bytes_for_content(
                        self.delivered_content_s, duration)
                        if crate is None
                        else self.content_remaining_s * crate / 8.0)
                step = min(step, left)
                dt = step * 8.0 / rate
                self.advance(t + dt)
                n, t = 1, self.t
                s0, b0 = self._fill(buffered * step, crate, 0.0)
            else:
                s0, b0 = self._fill(held, crate, played, n)
                t += dt
            # the n ticks, the first at t leaving s0 s and b0 B buffered;
            # the clock goes to the span's last tick, however runs cut it
            sent = n * step
            lg.bytes_delivered += sent
            dbuffer_s = (buf.seconds - s0) / (n - 1) if n > 1 else 0.0
            sp = self._open_span
            joins = (sp is not None and sp.nbytes == step
                     and sp.connection_id == conn and sp.dt_s == dt
                     and abs(sp.t_s + sp.n * dt - t) <= TIE_S)
            if joins:
                d = sp.dbuffer_s if sp.n > 1 else s0 - sp.buffer_s
                joins = (abs(sp.buffer_s + sp.n * d - s0) <= TIE_S
                         and abs(sp.buffer_s + (sp.n + n - 1) * d
                                 - (s0 + (n - 1) * dbuffer_s)) <= TIE_S)
            if joins:
                sp.n += n
                sp.dbuffer_s = d
                self.t = sp.t_s + (sp.n - 1) * dt   # its last tick
                if self._tail:
                    samples.pop()
            else:
                sp = TransferSpan(t, dt, n, conn, step, s0, dbuffer_s)
                lg.records.items.append(sp)
                self._open_span = sp
                samples.append(_new_sample((t, s0, b0)))
                self.t = t + (n - 1) * dt
            # the timeline keeps the first and the last tick of each span
            self._tail = sp.n > 1
            if self._tail:
                samples.append(_new_sample((self.t, buf.seconds, buf.bytes)))
            if stepped:
                self._post_arrival()
                playing, reach = self.playing, -math.inf
            moved += sent
        return moved

    def deliver_aux(self, conn: int, nbytes: float) -> float:
        """Move bytes that never enter the playback buffer (re-downloaded
        keyframe fragments, interleaved audio counted as consumed on
        arrival)."""
        return self.deliver(conn, math.inf, nbytes=nbytes, enter_buffer=False)

    def send_chunks(self, conn: int, chunk_bytes: float, rate_bps: float,
                    jitter: float = 0.0) -> None:
        """Send a chunk at link speed every chunk * 8 / rate_bps seconds
        until the content or the watch session ends; a chunk that takes
        longer than that is followed at once by the next.  Each chunk is
        chunk_bytes, or drawn uniformly from chunk_bytes * [1 - jitter,
        1 + jitter]; a jittered chunk never repeats, so the random draws
        stay one per chunk."""
        def cycle() -> tuple[float, float]:
            self._open_span = None   # own runs: back-to-back chunks repeat
            chunk = chunk_bytes
            if jitter:
                self._rng = self._rng or random.Random(self.seed)
                chunk *= self._rng.uniform(1.0 - jitter, 1.0 + jitter)
            due = self.t
            self.deliver(conn, math.inf, nbytes=chunk)
            period = max(chunk * 8.0 / rate_bps, self.t - due)
            if not self.ended:
                self.wait_until(due + period)
            return chunk, period

        self.repeat_cycles(cycle)

    def repeat_cycles(self, cycle: Callable[[], tuple[object, float]],
                      lower_s: Optional[float] = None) -> None:
        """Run cycle, one turn of a driver's loop, until delivery ends; it
        returns the driver's decision state and the turn's period.  A
        gated loop requests once the buffer holds at most lower_s (math.inf
        after a fixed OFF period) and keeps every cycle's buffer samples;
        a clocked one (None), its trains' first and last cycles'.

        A turn that repeats the last one (the same entries a period later,
        on connections as many further on as it opened, one content rate
        buffered, and the decision state and playback phase as it found
        them) makes the two a ChunkTrain in the log, which then grows by
        the longest run of whole repeats that crosses no decision point --
        a link boundary, the end of the content or the watch, playback
        start, stall or resume, or lower_s -- in closed form.
        """
        prev = train = None   # the last turn that could repeat, its train
        state: object = None   # the decision state before the turn
        while not self.ended:
            self._pushed, self._stopped = 0.0, False
            cur = _Cycle(self.t, self.buf.seconds, self._phase(),
                         self._marks())
            before, (state, cur.period_s) = state, cycle()
            if self.ended:
                break
            # a decision row alone is no progress
            if (self.t == cur.t0 and not self._pushed
                    and self.log.bytes_delivered == cur.marks.delivered
                    and self.log.overhead_bytes == cur.marks.overhead):
                raise ValueError(f"a delivery loop turn at t={self.t} moved "
                                 "neither the clock nor a byte")
            crate = self._close_cycle(cur)
            if (crate is not None and prev is not None and before == state
                    and cur.repeats(prev, self._phase())):
                train = self._extend_train(train, prev, cur)
                m = self._whole_cycles(cur, crate, lower_s)
                if m > 0:
                    self._jump_cycles(train, cur, m, crate, lower_s)
            else:
                train = None
            prev = cur if crate is not None else None

    def _marks(self) -> SimpleNamespace:
        """The state a loop turn may change; fixed: lists no repeat adds to."""
        lg, pb = self.log, self.playback
        return SimpleNamespace(
            records=len(lg.records.items), samples=len(pb.samples),
            conn=lg.connections_opened, delivered=lg.bytes_delivered,
            overhead=lg.overhead_bytes,
            rates={seg[2] for seg in self.buf.segments},
            fixed=(len(lg.quality_switches), len(pb.stall_events),
                   len(lg.notes)))

    def _close_cycle(self, c: _Cycle) -> Optional[float]:
        """End turn c now: the one content rate its buffer held, or None
        if it held VBR content or two rates, buffered nothing, added a
        quality switch, a stall or a note, or met a buffer threshold and
        moved the buffer (later turns would meet it on other ticks)."""
        c.dbuffer_s, c.buffered = self.buf.seconds - c.buffer_s, self._pushed
        c.records = tuple(self.log.records.items[c.marks.records:])
        c.spans = tuple(e for e in c.records if isinstance(e, TransferSpan))
        end = self._marks()
        rates = c.marks.rates | end.rates
        if (end.fixed != c.marks.fixed or len(rates) != 1 or not c.buffered
                or self._stopped and abs(c.dbuffer_s) > TIE_S):
            return None
        return rates.pop()

    def _phase(self) -> tuple[bool, bool]:
        return self.playback_start is not None, self.stalled

    def _extend_train(self, train: Optional[ChunkTrain], prev: _Cycle,
                      cur: _Cycle) -> ChunkTrain:
        """Fold cur, a repeat of prev, into the log's train prev ends;
        without one, prev and cur become a new one."""
        items = self.log.records.items
        if train is None:
            train = ChunkTrain(prev.records, 1, prev.period_s, prev.dbuffer_s,
                               cur.marks.conn - prev.marks.conn)
            del items[prev.marks.records:]
            items.append(train)
        else:
            del items[cur.marks.records:]
        self._open_span = None     # a train's ticks are not extended
        train.m += 1
        return train

    def _whole_cycles(self, c: _Cycle, crate: float,
                      lower_s: Optional[float]) -> int:
        """Whole repeats of cycle c, from its end, that can be applied in
        closed form: the run stops a cycle short of the earliest predicted
        decision point, as a run step does for ticks.  A gated loop's
        repeats keep their samples, so it runs up to the exact end of the
        content: the repeat that brings it within CONTENT_DONE_S."""
        p, b = c.period_s, self.buf.seconds
        per = c.buffered * 8.0 / crate      # content a repeat brings
        last_tick = c.spans[-1].t_end_s - c.t0
        x = (self.link.next_change_after(c.t0) - self.t - last_tick) / p
        x = min(x, self.content_remaining_s / per if lower_s is None else
                math.ceil((self.content_remaining_s - CONTENT_DONE_S) / per))
        lo, hi = c.levels(crate)
        if lower_s is not None and c.dbuffer_s > TIE_S:
            # a drain would end the turn where it began: a gaining turn's
            # requests, made without one, must stay at or below lower_s
            x = min(x, _ticks_to(lower_s - b - hi, c.dbuffer_s))
        if self.playback_start is None:
            x = min(x, _ticks_to(self.start_threshold_s - b - hi, c.dbuffer_s)
                    if self.start_at is None else (self.start_at - self.t) / p)
        elif self.stalled:
            x = min(x, _ticks_to(self.playback.resume_threshold_s - b - hi,
                                 c.dbuffer_s))
        else:
            watch_left = self.watch_end_s - self.log.content_consumed_s
            x = min(x, _ticks_to(b + lo - 1e-6, -c.dbuffer_s),
                    (watch_left - 1e-6) / p)
        return int(x) - 1

    def _jump_cycles(self, train: ChunkTrain, c: _Cycle, m: int,
                     crate: float, lower_s: Optional[float]) -> None:
        """Apply m whole repeats of cycle c that cross no decision point:
        each opens c's connections and sends its control bytes, and a gated
        loop's adds its buffer samples, shifted (the sawtooth)."""
        lg, pb, p, d = self.log, self.playback, train.period_s, c.dbuffer_s
        delivered = fold_sum(s.n * s.nbytes for s in c.spans)
        if lower_s is not None:
            pb.samples += [
                BufferSample(s.t_s + j * p, s.buffered_seconds + j * d,
                             s.buffered_bytes + j * d * crate / 8.0)
                for j in range(1, m + 1) for s in pb.samples[c.marks.samples:]]
        lg.connections_opened += m * (lg.connections_opened - c.marks.conn)
        lg.overhead_bytes += m * (lg.overhead_bytes - c.marks.overhead)
        lg.bytes_delivered += m * delivered
        # bytes that never entered the buffer (interleaved audio) count as
        # consumed on arrival, as the drivers book them
        lg.bytes_consumed += m * (delivered - c.buffered)
        self._fill(m * c.buffered, crate, m * p if self.playing else 0.0)
        self.t += m * p
        train.m += m

    # -- waits -------------------------------------------------------------

    def wait_until(self, t_target: float) -> None:
        if t_target > self.t:
            self.advance(t_target)

    def wait_drain_to_seconds(self, lower_s: float) -> None:
        """Wait until the buffer drains to lower_s of content (no arrivals),
        from the start of playback if it is still to come."""
        while not self.finished:
            if self.start_at is not None:
                self.advance(self.start_at)
            if self.playback_start is None or self.stalled:
                return
            gap = self.buf.seconds - lower_s
            if gap <= 1e-6:
                return
            end_play = self.watch_end_s - self.log.content_consumed_s
            self.advance(self.t + min(gap, end_play))

    def finalize(self) -> tuple[TickSeq, DeliveryLog]:
        """Drain remaining playback and check conservation; read the event
        list and the ON/OFF periods from the log."""
        self._on_off_spans()
        if self.start_at is not None and self.start_at < math.inf:
            self.advance(self.start_at)
        if self.playback_start is not None:
            # play out the buffer, with no arrivals to come
            self.advance(self.t + self.watch_end_s
                         - self.log.content_consumed_s)
            if self.stalled:
                self.log.notes.append("session ends stalled: content underrun")
                # a stall playback never leaves lasts as long as the rest
                # of the watch would have
                self._end_stalled(self.stall_since, self.stall_since
                                  + self.watch_end_s
                                  - self.log.content_consumed_s)
        else:
            # a join failure: one stall over the whole watch
            self._end_stalled(0.0, self.watch_end_s)
        self.playback.completed = self.finished
        self.log.bytes_buffered_end = self.buf.bytes
        delivered = self.log.bytes_delivered
        accounted = (self.log.bytes_consumed + self.log.bytes_buffered_end
                     + self.log.bytes_wasted)
        if delivered > 0 and abs(delivered - accounted) > max(2.0, 1e-6 * delivered):
            raise AssertionError(
                f"byte conservation broken: delivered={delivered:.1f} "
                f"consumed+buffered+wasted={accounted:.1f}")
        # Runs are logged in time order and a span's ticks come strictly
        # after what was logged before it; an event tied with its last
        # tick is on the same or a newer connection.  So sorting runs by
        # their first tick sorts the ticks (a probe and its window update
        # share a time and swap), as in each train's cycle.
        events = sorted(filter(None, map(_wire, self.log.records.items)),
                        key=event_order)
        return TickSeq(events, TransferSpan.event), self.log

    def _on_off_spans(self) -> None:
        """Replay the log's on and off rows (a train's at t_s + j * period_s)
        into its ON and OFF periods: a row ends the one the row before began
        (an off row after an off row drops it), and one still open ends now."""
        spans = {"on": self.log.on_spans, "off": self.log.off_spans}
        last = None   # the row that began the period still open
        for it in self.log.records.items:
            if isinstance(it, ChunkTrain):
                rows = [r for r in it.cycle
                        if isinstance(r, LogRecord) and r.event in spans]
                m = it.m if rows else 0
            elif isinstance(it, LogRecord) and it.event in spans:
                rows, m = (it,), 1
            else:
                continue
            for j in range(m):
                for r in rows:
                    if j:   # repeat j of a train's rows
                        r = r.shifted(j * it.period_s, 0.0, 0)
                    if last is not None and not last.event == r.event == "off":
                        spans[last.event].append((last.t_s, r.t_s))
                    last = r
        if last is not None:
            spans[last.event].append((last.t_s, self.t))

    def _end_stalled(self, since: float, end: float) -> None:
        """Close the timeline with a stall from since to end."""
        self.playback.stall_events.append((since, end - since))
        self.playback.playback_end_s = end
        if end > self.playback.samples[-1].t_s + TIE_S:
            self.playback.samples.append(
                BufferSample(end, self.buf.seconds, self.buf.bytes))


# --------------------------------------------------------------------------
# Technique drivers
# --------------------------------------------------------------------------

def _run_encoding_rate(eng: _Engine, tech: EncodingRate) -> None:
    conn = eng.request()
    eng.deliver(conn, math.inf, stop_s=tech.faststart_target_s)
    # Receive window closed at the target: the sender is clocked to the
    # consumption rate; any deficit reopens the window fully.
    eng.deliver(conn, eng.stream.encoding_rate_bps,
                window_s=tech.faststart_target_s - 0.5)
    eng.close_connection(conn)


def _run_fast_caching(eng: _Engine, tech: FastCaching) -> None:
    conn = eng.request()
    eng.deliver(conn, math.inf)
    eng.close_connection(conn)


def _run_throttling(eng: _Engine, tech: Throttling) -> None:
    conn = eng.request()
    eng.deliver(conn, math.inf, stop_s=tech.faststart_target_s)
    if math.isinf(tech.factor):
        eng.deliver(conn, math.inf)
        eng.close_connection(conn)
        return
    rate = tech.factor * eng.stream.encoding_rate_bps
    period = tech.chunk_bytes * 8.0 / rate
    if period < eng.link.rtt_s:
        eng.log.notes.append(
            f"chunk period {period:.3f}s below rtt: chunks coalesce")
        eng.deliver(conn, rate)
    else:
        eng.send_chunks(conn, tech.chunk_bytes, rate,
                        jitter=0.5 if tech.chunk_jitter else 0.0)
    eng.close_connection(conn)


def _off_with_probes(eng: _Engine, conn: int, tech: OnOffS) -> None:
    """One OFF period on a persistent connection: persist probes on a
    doubling schedule capped at persist_cap_s, optional keepalive reads."""
    off_start = eng.t
    gap = 1.0
    next_probe = off_start + gap
    next_ka = (off_start + tech.keepalive_interval_s
               if tech.keepalive_interval_s > 0 else math.inf)
    fixed_end = (off_start + tech.off_fixed_s
                 if tech.off_fixed_s is not None else math.inf)
    while not eng.finished:
        if tech.off_fixed_s is not None:
            t_end = fixed_end
        else:
            if eng.start_at is None or eng.stalled:
                return
            # the buffer drains from the start of playback on
            t_end = (max(eng.t, eng.start_at)
                     + max(eng.buf.seconds - tech.lower_s, 0.0))
        t_next = min(next_probe, next_ka)
        if t_end <= t_next + TIE_S:
            eng.wait_until(t_end)
            return
        eng.wait_until(t_next)
        if eng.finished:
            return
        if t_next == next_ka:
            eng.deliver(conn, math.inf, nbytes=tech.keepalive_bytes)
            next_ka = eng.t + tech.keepalive_interval_s
            gap = 1.0
            next_probe = eng.t + gap
        else:
            eng.emit_probe(conn)
            gap = min(gap * 2.0, tech.persist_cap_s)
            next_probe = eng.t + gap


def _run_onoff_s(eng: _Engine, tech: OnOffS) -> None:
    conn = eng.request()
    # the client stops reading at its upper threshold, so the fast start
    # can never overshoot it
    eng.deliver(conn, math.inf, stop_s=tech.faststart_target_s,
                stop_bytes=tech.upper_bytes)

    def cycle() -> tuple[None, float]:
        t0 = eng.t
        eng.deliver(conn, math.inf, stop_bytes=tech.upper_bytes)
        if not (eng.finished or eng.content_done):
            eng.mark_off()
            _off_with_probes(eng, conn, tech)
            eng.mark_on()
        return None, eng.t - t0

    eng.repeat_cycles(cycle, tech.lower_s if tech.off_fixed_s is None
                      else math.inf)
    eng.close_connection(conn)


def _run_onoff_m(eng: _Engine, tech: OnOffM) -> None:
    """Refills on a new connection each: up to upper_s once the buffer
    drains to lower_s or after a fixed OFF period, or, in the fixed-chunk
    mode, chunk_bytes at full speed once the buffer drains by a chunk."""
    chunk = tech.chunk_bytes
    if chunk is None and tech.upper_s - tech.lower_s <= 1.0:
        eng.log.notes.append("upper==lower: continuous window-clocked delivery")
        _run_encoding_rate(eng, EncodingRate(tech.upper_s))
        return
    on_rate = tech.on_rate_factor * eng.stream.encoding_rate_bps

    conn = eng.request()
    # The initial fill runs at fast-start speed all the way to the upper
    # threshold, or its fast-start bytes; only threshold refills see the
    # server's throttled rate.
    if chunk is None:
        eng.deliver(conn, math.inf, stop_s=tech.upper_s)
    else:
        fill = tech.faststart_bytes
        eng.deliver(conn, math.inf, nbytes=chunk if fill is None else fill)
    eng.close_connection(conn)

    def cycle() -> tuple[None, float]:
        t0 = eng.t
        eng.mark_off()
        if chunk is not None:
            eng.wait_drain_to_seconds(max(
                eng.buf.seconds - chunk / eng.stream.bytes_per_second, 0.0))
        elif tech.off_fixed_s is not None:
            eng.wait_until(eng.t + tech.off_fixed_s)
        else:
            eng.wait_drain_to_seconds(tech.lower_s)
        if not eng.finished:
            conn = eng.request()
            if chunk is None:
                eng.deliver(conn, on_rate, stop_s=tech.upper_s)
            else:
                eng.deliver(conn, math.inf, nbytes=chunk)
            eng.close_connection(conn)
        return None, eng.t - t0

    # the next refill comes at lower_s, or at any level after a fixed OFF
    # period or a chunk's drain
    eng.repeat_cycles(cycle, tech.lower_s if chunk is None
                      and tech.off_fixed_s is None else math.inf)


def _fetch(eng: _Engine, conn: int, chunk_s: float,
           rate_bps: float) -> Optional[float]:
    """Fetch chunk_s content seconds at rate_bps, or what is left of the
    content: the bandwidth measured, or None if under 1 ms is left."""
    dur = min(chunk_s, eng.content_remaining_s)
    if dur <= 1e-3:
        return None
    nbytes, t0 = dur * rate_bps / 8.0, eng.t
    eng.deliver(conn, math.inf, nbytes=nbytes, content_rate_bps=rate_bps)
    dt = eng.t - t0
    return nbytes * 8.0 / dt if dt > 0 else math.inf


def _run_hls(eng: _Engine, tech: Hls) -> None:
    ladder = list(tech.ladder)
    state = {"rung": 0, "up": 0, "down": 0}
    conn = eng.request(2 if tech.audio_video_split else 1)
    audio_conn = conn + 1 if tech.audio_video_split else conn

    def switch_up() -> None:
        eng.log.quality_switches.append(
            (eng.t, ladder[state["rung"]][0], ladder[state["rung"] + 1][0]))
        state["rung"] += 1
        if not tech.discard_on_upswitch:
            return
        secs, nbytes = eng.buf.drop_all()
        if secs <= 0:
            return
        eng.log.bytes_wasted += nbytes
        eng.delivered_content_s -= secs
        eng._record("discard", conn, nbytes)
        eng._sample()   # empty until the re-fetch's first tick
        # re-fetch the discarded span at the new quality, back to back
        rate = ladder[state["rung"]][1]
        while secs > 1e-3 and not eng.finished:
            dur = min(tech.chunk_s, secs)
            if _fetch(eng, conn, dur, rate) is None:
                break
            secs -= dur

    def fetch_chunk() -> None:
        rung = state["rung"]
        bw = _fetch(eng, conn, tech.chunk_s, ladder[rung][1])
        if bw is None:
            return
        state["up"] = state["up"] + 1 if (
            rung + 1 < len(ladder) and bw > ladder[rung + 1][1]) else 0
        state["down"] = state["down"] + 1 if bw < ladder[rung][1] else 0
        if state["up"] >= tech.up_consecutive and rung + 1 < len(ladder):
            switch_up()
            state["up"] = 0
        elif state["down"] >= tech.up_consecutive and rung > 0:
            eng.log.quality_switches.append(
                (eng.t, ladder[rung][0], ladder[rung - 1][0]))
            state["rung"] -= 1
            state["down"] = 0

    def fetch_audio() -> None:
        moved = eng.deliver_aux(audio_conn,
                                tech.chunk_s * tech.audio_rate_bps / 8.0)
        eng.log.bytes_consumed += moved

    for _ in range(tech.initial_chunks):
        if eng.finished or eng.content_done:
            break
        fetch_chunk()
        if tech.audio_video_split:
            fetch_audio()
    # steady state: the buffer target gates each request, which spaces the
    # chunks one chunk duration apart while content drains at unit rate
    level = tech.initial_chunks * tech.chunk_s - tech.chunk_s

    def steady() -> tuple[tuple[int, int, int], float]:
        t0 = eng.t
        if eng.buf.seconds > level:
            eng.wait_drain_to_seconds(level)
        if not eng.finished:
            due = eng.t
            fetch_chunk()
            if tech.audio_video_split:
                eng.wait_until(due + tech.av_offset_s)
                fetch_audio()
        return (state["rung"], state["up"], state["down"]), eng.t - t0

    eng.repeat_cycles(steady, level)
    eng.close_connection(conn)


def _run_mss(eng: _Engine, tech: Mss) -> None:
    ladder = list(tech.ladder)
    state = {"rung": 0, "pos": 0}   # pos: video chunks since the audio
    measured: list[float] = []    # the first three chunks' bandwidths
    conn = eng.request()

    def fetch_video() -> None:
        rung = state["rung"]
        bw = _fetch(eng, conn, tech.video_chunk_s, ladder[rung][1])
        if bw is None:
            return
        state["pos"] = (state["pos"] + 1) % tech.audio_every_n_video_chunks
        if len(measured) < 3:
            measured.append(bw)
            if len(measured) == 3:
                bw = min(measured)
                best = 0
                for i, (_, r) in enumerate(ladder):
                    if r <= bw:
                        best = i
                if best != rung:
                    eng.log.quality_switches.append(
                        (eng.t, ladder[rung][0], ladder[best][0]))
                    state["rung"] = best
        if state["pos"] == 0:
            audio = (tech.audio_every_n_video_chunks * tech.video_chunk_s
                     * tech.audio_rate_bps / 8.0)
            moved = eng.deliver_aux(conn, audio)
            eng.log.bytes_consumed += moved

    while not eng.ended and eng.buf.seconds < tech.startup_buffer_s:
        fetch_video()
    level = tech.startup_buffer_s - tech.video_chunk_s

    def group() -> tuple[tuple[int, int], float]:   # one audio group
        t0 = eng.t
        while not eng.ended:
            if eng.buf.seconds > level:
                eng.wait_drain_to_seconds(level)
            if eng.finished:
                break
            fetch_video()
            if state["pos"] == 0:
                break
        return (state["rung"], state["pos"]), eng.t - t0

    eng.repeat_cycles(group, level)
    eng.close_connection(conn)


_DRIVERS = {
    EncodingRate: _run_encoding_rate,
    Throttling: _run_throttling,
    OnOffS: _run_onoff_s,
    OnOffM: _run_onoff_m,
    FastCaching: _run_fast_caching,
    Hls: _run_hls,
    Mss: _run_mss,
}


def simulate_session(stream: StreamSpec, link: LinkModel, tech: Technique,
                     abandon_at_s: Optional[float] = None,
                     start_threshold_s: float = START_THRESHOLD_S,
                     resume_threshold_s: float = RESUME_THRESHOLD_S,
                     seed: int = 0, start_delay_s: float = 0.0
                     ) -> tuple[TickSeq, DeliveryLog]:
    """Simulate one streaming session and return its wire events and log.

    The events are a sorted sequence of per-tick PacketEvents, stored as
    transfer spans and expanded when read.  The log's playback is the
    buffer timeline the session's playback wrote.

    Events end when the content is fully delivered or the viewer walks away
    after abandon_at_s seconds of watched content; a link slower than the
    encoding rate still simulates (stalls are the playback layer's concern).
    Playback starts start_delay_s (the radio's promotion latency) after
    the buffer first holds start_threshold_s.
    """
    eng = _Engine(stream, link, abandon_at_s,
                  start_threshold_s=start_threshold_s,
                  resume_threshold_s=resume_threshold_s, seed=seed,
                  start_delay_s=start_delay_s)
    if eng.finished:
        return eng.finalize()
    _DRIVERS[type(tech)](eng, tech)
    return eng.finalize()


def replay_arrivals(arrivals: Iterable[PacketEvent], stream: StreamSpec,
                    join_s: Optional[float],
                    resume_threshold_s: float = RESUME_THRESHOLD_S,
                    watch_end_s: Optional[float] = None) -> DeliveryLog:
    """Play data arrivals, such as a flow trace's, through the engine's
    buffer and playback clock, and return the log of that playback.

    Each data event's bytes enter the buffer as the stream's own content
    at its time, clipped at the content's end.  Playback starts at join_s
    (never, if it is inf) or, with None, by the engine's start rule;
    watch_end_s bounds consumption for abandoned sessions.
    """
    eng = _Engine(stream, LinkModel.constant(0.0), watch_end_s,
                  resume_threshold_s=resume_threshold_s)
    eng.start_at = join_s
    duration, lowest_bps = stream.duration_s, eng.buf.rates_bps[0]
    for e in sorted((e for e in arrivals if e.kind == "data"),
                    key=attrgetter("t_s")):
        eng.advance(e.t_s)
        if eng.finished:
            break
        nbytes = e.bytes
        # only an arrival that may reach the content's end is clipped
        if nbytes * 8.0 / lowest_bps >= duration - eng.delivered_content_s:
            nbytes = min(nbytes, stream.bytes_for_content(
                eng.delivered_content_s, duration))
        eng.log.bytes_delivered += nbytes
        eng._fill(nbytes, eng.own_rate, 0.0)
        eng._sample()     # a start at this arrival shares its sample
        if eng.playback_start is None or eng.stalled:   # not playing
            eng._post_arrival()
    return eng.finalize()[1]


def simulate_multi_connection_waste(
        stream: StreamSpec, link: LinkModel,
        buffer_bytes: float = 25 * 1024 * 1024,
        reopen_free_bytes: Optional[float] = None,
        throttle_factor: float = 2.0,
        abandon_at_s: Optional[float] = None
        ) -> tuple[TickSeq, DeliveryLog]:
    """Keyframe-waste variant of throttled delivery over many connections.

    The player holds a fixed byte buffer; when it fills, the connection
    closes, and once reopen_free_bytes have been consumed a new request is
    issued starting from the beginning of the partially received keyframe.
    The re-downloaded fragment is wasted.  Requires keyframe_interval_bytes.
    """
    if stream.keyframe_interval_bytes is None:
        raise ValueError("multi-connection waste needs keyframe_interval_bytes")
    kf = stream.keyframe_interval_bytes
    free = reopen_free_bytes if reopen_free_bytes is not None else kf
    eng = _Engine(stream, link, abandon_at_s)
    if eng.finished:
        return eng.finalize()
    rate = throttle_factor * stream.encoding_rate_bps
    pos = 0.0  # contiguous content byte position delivered so far
    size = stream.size_bytes
    first = True
    while not eng.finished and not eng.starved and pos < size - 1.0:
        conn = eng.request()
        resume_from = math.floor(pos / kf) * kf
        waste = pos - resume_from
        if waste > 1.0:
            eng.log.bytes_wasted += eng.deliver_aux(conn, waste)
        if first:
            eng.deliver(conn, math.inf, stop_s=FASTSTART_TARGET_S,
                        stop_bytes=buffer_bytes)
            first = False
        eng.deliver(conn, rate, stop_bytes=buffer_bytes)
        pos = eng.log.bytes_consumed + eng.buf.bytes
        eng.close_connection(conn)
        if eng.finished or pos >= size - 1.0:
            break
        eng.mark_off()
        target_bytes = max(eng.buf.bytes - free, 0.0)
        eng.wait_drain_to_seconds(target_bytes / stream.bytes_per_second)
    return eng.finalize()
