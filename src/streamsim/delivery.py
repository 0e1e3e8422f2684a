"""Delivery-technique co-simulation.

simulate_session() turns (stream, link, technique) into the packet-event
timeline a traffic capture would show, by stepping server policy, link
bandwidth, TCP flow-control effects (receive-window stalls, persist probes)
and the client playback-buffer feedback loop together.

Data transfers are emitted as completion events every EVENT_TICK_S of
transfer time, so downstream radio machines see transfer occupancy rather
than lone points.  The engine does not walk those ticks one at a time: it
applies the longest run of whole ticks that crosses no decision point (a
link boundary, the byte budget, the end of the content or of the watch
session, playback start, stall or resume, or a driver's buffer threshold)
in closed form, as one TransferSpan.  Only the ticks next to a crossing
are stepped singly, so every decision lands on the tick it would land on
if every tick were stepped.  A throttled sender's chunk cycles get the
same treatment one level up: a cycle that repeats the one before it makes
the two a ChunkTrain, and whole runs of repeats are applied in closed form.
The event list and the delivery log expand spans and trains into per-tick
entries when read; delivery_log.csv writes one row per stored run instead.

The engine is deterministic: equal inputs always produce identical event
streams (ties broken by connection id, then event kind).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .streams import (FLOW_CONTROL_BYTES, PROBE_BYTES, REQUEST_BYTES,
                      ChunkTrain, LinkModel, PacketEvent, StreamSpec,
                      TickSeq, TransferSpan)
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


class BufferSample(NamedTuple):
    t_s: float
    buffered_seconds: float
    buffered_bytes: float


@dataclass
class LogRecord:
    t_s: float
    event: str
    connection_id: int
    bytes: float
    buffer_s_after: float


def _data_record(span: TransferSpan, k: int) -> LogRecord:
    return LogRecord(span.tick_t(k), "data", span.connection_id, span.nbytes,
                     span.buffer_s + k * span.dbuffer_s)


def _run_row(span: TransferSpan, event: str, nbytes: float) -> LogRecord:
    """A row at span's last tick, with that tick's time and buffer."""
    r = _data_record(span, span.n - 1)
    r.event, r.bytes = event, nbytes
    return r


def _log_records() -> TickSeq:
    return TickSeq([], _data_record)


@dataclass
class DeliveryLog:
    """Session-level record of what the delivery layer did, and of the
    playback it drove.

    records holds one LogRecord per decision and per data tick; the data
    ticks are stored as TransferSpans and ChunkTrains and expanded when
    read, and rows() writes them one row per run.  buffer_samples are the
    buffer's breakpoints: the first and last tick of each span, and each
    start, stall and end of playback; between two of them the buffer moves
    linearly.
    """
    records: TickSeq = field(default_factory=_log_records)
    on_spans: list[tuple[float, float]] = field(default_factory=list)
    off_spans: list[tuple[float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    connections_opened: int = 0
    playback_start_s: Optional[float] = None   # None: it never started
    # when playback finished, or the horizon of a stall it never left
    playback_end_s: float = 0.0
    completed: bool = False           # playback reached the watch end
    stall_events: list[tuple[float, float]] = field(default_factory=list)
    buffer_samples: list[BufferSample] = field(default_factory=list)
    bytes_delivered: float = 0.0      # data bytes on the wire (incl. re-requests)
    bytes_consumed: float = 0.0
    bytes_buffered_end: float = 0.0
    bytes_wasted: float = 0.0         # keyframe re-requests + quality discards
    overhead_bytes: float = 0.0       # requests, probes, window updates
    content_delivered_s: float = 0.0
    content_consumed_s: float = 0.0
    quality_switches: list[tuple[float, str, str]] = field(default_factory=list)

    CSV_HEADER = "t_s,event,connection_id,bytes,buffer_s_after"

    @property
    def stall_total_s(self) -> float:
        return sum(d for _, d in self.stall_events)

    def rows(self) -> Iterator[LogRecord]:
        """The rows of delivery_log.csv, one per stored entry.

        A decision record is its own row.  A TransferSpan is one data row
        at its last tick, carrying the span's bytes and the buffer after
        that tick.  A ChunkTrain is its first cycle's data rows, then one
        repeat row at the train's last tick carrying the bytes of the other
        cycles and the buffer after that tick.
        """
        for it in self.records.items:
            if isinstance(it, TransferSpan):
                yield _run_row(it, "data", it.n * it.nbytes)
            elif isinstance(it, ChunkTrain):
                for s in it.cycle:
                    yield _run_row(s, "data", s.n * s.nbytes)
                if it.m > 1:
                    *_, last = it.repeats(it.m - 1)
                    yield _run_row(last, "repeat", (it.m - 1) * sum(
                        s.n * s.nbytes for s in it.cycle))
            else:
                yield it

    def to_csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for r in self.rows():
            lines.append(f"{r.t_s:.6f},{r.event},{r.connection_id},"
                         f"{r.bytes:.1f},{r.buffer_s_after:.6f}")
        return lines

    def steady_off_durations(self) -> list[float]:
        return [b - a for a, b in self.off_spans]


class _Buffer:
    """FIFO of buffered content segments [seconds, bytes, content rate].

    Per-segment byte rates keep byte conservation exact for rate-adaptive
    sessions where buffered seconds were fetched at different rung rates.
    Content pushed at the newest segment's rate joins that segment.  A VBR
    stream's own content has rate None: its bytes are the stream's own, so
    they are exact too.
    """

    def __init__(self, stream: StreamSpec):
        self.stream = stream
        self.rates_bps = stream.rate_range_bps()
        self.segments: deque[list] = deque()
        self.seconds = 0.0
        self.bytes = 0.0

    def push(self, seconds: float, nbytes: float,
             rate_bps: Optional[float]) -> None:
        if seconds <= 0:
            return
        if self.segments and self.segments[-1][2] == rate_bps:
            self.segments[-1][0] += seconds
            self.segments[-1][1] += nbytes
        else:
            self.segments.append([seconds, nbytes, rate_bps])
        self.seconds += seconds
        self.bytes += nbytes

    def min_byte_rate(self) -> float:
        """Lowest bytes per content second among the buffered segments."""
        return min((seg[2] or self.rates_bps[0] for seg in self.segments),
                   default=0.0) / 8.0

    def consume(self, seconds: float, pos_s: float) -> float:
        """Remove seconds of content, the first at content position pos_s,
        returning the bytes they held."""
        taken = 0.0
        left = seconds
        while left > TIE_S and self.segments:
            seg = self.segments[0]
            if seg[0] <= left + TIE_S:
                left -= seg[0]
                pos_s += seg[0]
                taken += seg[1]
                self.seconds -= seg[0]
                self.bytes -= seg[1]
                self.segments.popleft()
            else:
                if seg[2] is None:
                    b = min(self.stream.bytes_for_content(pos_s, pos_s + left),
                            seg[1])
                else:
                    b = seg[1] * (left / seg[0])
                seg[0] -= left
                seg[1] -= b
                self.seconds -= left
                self.bytes -= b
                taken += b
                left = 0.0
        self.seconds = max(self.seconds, 0.0)
        self.bytes = max(self.bytes, 0.0)
        return taken

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


@dataclass
class _Cycle:
    """One chunk cycle stepped singly: a chunk sent at due, then the wait
    until the next chunk is due."""
    due: float
    chunk: float
    buffer_s: float          # content buffered at due
    phase: tuple[bool, bool]  # (playback started, stalled) at due
    first: int               # index of its first run in the events
    log_first: int           # ... and in the log records
    spans: tuple[TransferSpan, ...] = ()
    period_s: float = 0.0    # due to the next due
    dbuffer_s: float = 0.0   # buffer change from due to the next due

    def repeats(self, prev: "_Cycle", phase: tuple[bool, bool]) -> bool:
        """Whether this cycle is prev again, period_s later, with the
        playback phase unchanged from prev's start to this one's end."""
        # equal chunks too: a jittered one never repeats, so the random
        # draws stay one per chunk
        if not (self.chunk == prev.chunk and self.phase == prev.phase == phase
                and self.spans and len(self.spans) == len(prev.spans)
                and abs(self.period_s - prev.period_s) <= TIE_S
                and abs(self.dbuffer_s - prev.dbuffer_s) <= TIE_S):
            return False
        return all(
            (a.n, a.connection_id, a.nbytes, a.dt_s)
            == (b.n, b.connection_id, b.nbytes, b.dt_s)
            and abs((b.t_s - self.due) - (a.t_s - prev.due)) <= TIE_S
            and abs((b.buffer_s - self.buffer_s)
                    - (a.buffer_s - prev.buffer_s)) <= TIE_S
            and abs(b.dbuffer_s - a.dbuffer_s) <= TIE_S
            for a, b in zip(prev.spans, self.spans))

    def levels(self, crate: float) -> tuple[float, float]:
        """The lowest buffer level just before an arrival and the highest
        just after one, relative to the level at due."""
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
                 tick_s: float = EVENT_TICK_S, seed: int = 0,
                 start_delay_s: float = 0.0):
        self.stream = stream
        self.link = link
        self.tick_s = tick_s
        self.start_threshold_s = start_threshold_s
        self.resume_threshold_s = resume_threshold_s
        self.start_delay_s = start_delay_s
        self.watch_end_s = stream.duration_s
        if abandon_at_s is not None:
            if abandon_at_s > stream.duration_s + TIE_S:
                raise ValueError("abandon_at_s exceeds the stream duration")
            self.watch_end_s = min(abandon_at_s, stream.duration_s)

        self.t = 0.0
        # PacketEvents and TransferSpans, in emission order
        self.events: list = []
        self.log = DeliveryLog()
        self.buf = _Buffer(stream)
        # the content rate of the stream's own bytes; None for VBR, whose
        # bytes enter the buffer through the stream's own trace
        self.own_rate = (None if stream.vbr_trace is not None
                         else stream.encoding_rate_bps)
        self.delivered_content_s = 0.0
        # playback starts start_delay_s after the buffer first holds the
        # start threshold, at start_at
        self.start_at: Optional[float] = None
        self.playback_start: Optional[float] = None
        self.stalled = False
        self.stall_since = 0.0
        self.finished = self.watch_end_s <= 0
        if self.finished:         # nothing to watch: done at once
            self.playback_start = self.log.playback_start_s = 0.0
        self.starved = False      # link died with no recovery ahead
        self.rng = random.Random(seed)
        self._conn_seq = -1
        self._on_since: Optional[float] = None
        self._off_since: Optional[float] = None
        # the span that is the last entry of both the events and the log,
        # which the next tick may still extend
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
    def playing(self) -> bool:
        return self.playback_start is not None and not self.stalled

    def advance(self, to_t: float) -> None:
        """Move the wall clock forward: start playback once its start is
        due, and consume buffer while playing."""
        if (self.playback_start is None and self.start_at is not None
                and self.start_at <= to_t):
            self.t = max(self.t, self.start_at)
            self.playback_start = self.log.playback_start_s = self.t
            # a start at an arrival's time shares that arrival's sample
            if self.t > self.log.buffer_samples[-1].t_s:
                self._sample()
        while to_t > self.t + TIE_S:
            if self.playback_start is None or self.stalled or self.finished:
                self.t = to_t
                return
            playable = min(self.buf.seconds,
                           self.watch_end_s - self.log.content_consumed_s)
            dt = min(to_t - self.t, playable)
            if dt > 0:
                self._play(dt)
                self.t += dt
            if (self.log.content_consumed_s >= self.watch_end_s - DONE_TOL_S
                    or (self.buf.seconds <= TIE_S and self.content_done)):
                self.finished = True
                self.log.playback_end_s = self.t
                self._sample()
            elif self.buf.seconds <= TIE_S and self.t < to_t - TIE_S:
                self._stall()

    def _play(self, seconds: float) -> None:
        self.log.bytes_consumed += self.buf.consume(
            seconds, self.log.content_consumed_s)
        self.log.content_consumed_s += seconds

    def _stall(self) -> None:
        self.stalled = True
        self.stall_since = self.t
        self._sample()

    def _post_arrival(self) -> None:
        if self.playback_start is None:
            if self.start_at is None and (
                    self.buf.seconds >= self.start_threshold_s - TIE_S
                    or self.content_done):
                self.start_at = self.t + self.start_delay_s
                self.advance(self.t)
        elif self.stalled and (
                self.buf.seconds >= self.resume_threshold_s - TIE_S
                or self.content_done):
            self.stalled = False
            self.log.stall_events.append(
                (self.stall_since, self.t - self.stall_since))

    def _sample(self, tail: bool = False) -> None:
        """Keep the buffer now as a timeline sample."""
        self.log.buffer_samples.append(
            BufferSample(self.t, self.buf.seconds, self.buf.bytes))
        self._tail = tail

    def _fill(self, nbytes: float, crate: Optional[float],
              played: float) -> None:
        """Buffer nbytes at content rate crate (None: the stream's own, by
        its VBR trace) and play `played` seconds."""
        if nbytes > 0:
            secs = (self.stream.seconds_for_bytes(self.delivered_content_s,
                                                  nbytes)
                    if crate is None else nbytes * 8.0 / crate)
            self.buf.push(secs, nbytes, crate)
            self.delivered_content_s += secs
            self.log.content_delivered_s += secs
        if played:
            self._play(played)

    # -- wire --------------------------------------------------------------

    def open_connection(self) -> int:
        self._conn_seq += 1
        self.log.connections_opened += 1
        self._emit(self._conn_seq, REQUEST_BYTES, "request")
        self._record("open", self._conn_seq, 0.0)
        return self._conn_seq

    def close_connection(self, conn: int) -> None:
        self._record("close", conn, 0.0)

    def mark_on(self) -> None:
        if self._off_since is not None:
            self.log.off_spans.append((self._off_since, self.t))
            self._off_since = None
        if self._on_since is None:
            self._on_since = self.t
            self._record("on", -1, 0.0)

    def mark_off(self) -> None:
        if self._on_since is not None:
            self.log.on_spans.append((self._on_since, self.t))
            self._on_since = None
        self._off_since = self.t
        self._record("off", -1, 0.0)

    def _record(self, event: str, conn: int, nbytes: float) -> None:
        self.log.records.items.append(
            LogRecord(self.t, event, conn, nbytes, self.buf.seconds))
        self._open_span = None

    def _emit(self, conn: int, nbytes: float, kind: str) -> None:
        """A control packet: request, persist probe or window update."""
        self.events.append(PacketEvent(self.t, int(round(nbytes)), conn, kind))
        self.log.overhead_bytes += nbytes
        self._record(kind, conn, nbytes)

    def _add_ticks(self, conn: int, nbytes: float, dt: float, n: int,
                   first: BufferSample) -> None:
        """Log n data ticks: the first leaves the buffer as in first, and
        the last as it is now.

        A run that continues the open span tick for tick joins it.  The
        clock is set to the span's last tick time, so tick times do not
        depend on how a transfer was cut into runs.  The buffer timeline
        keeps the first and the last tick of each span.
        """
        t_first, buffer_s = first.t_s, first.buffered_seconds
        dbuffer_s = (self.buf.seconds - buffer_s) / (n - 1) if n > 1 else 0.0
        self.log.bytes_delivered += n * nbytes
        sp = self._open_span
        if (sp is not None and sp.connection_id == conn
                and sp.nbytes == nbytes and sp.dt_s == dt
                and abs(sp.t_s + sp.n * dt - t_first) <= TIE_S):
            d = sp.dbuffer_s if sp.n > 1 else buffer_s - sp.buffer_s
            last = buffer_s + (n - 1) * dbuffer_s
            if (abs(sp.buffer_s + sp.n * d - buffer_s) <= TIE_S
                    and abs(sp.buffer_s + (sp.n + n - 1) * d - last) <= TIE_S):
                sp.n += n
                sp.dbuffer_s = d
                self.t = sp.t_end_s
                if self._tail:
                    self.log.buffer_samples.pop()
                self._sample(tail=True)
                return
        sp = TransferSpan(t_first, dt, n, conn, nbytes, buffer_s, dbuffer_s)
        self.events.append(sp)
        self.log.records.items.append(sp)
        self._open_span = sp
        self.log.buffer_samples.append(first)
        self.t = sp.t_end_s
        if n > 1:
            self._sample(tail=True)
        else:
            self._tail = False

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
        below it the sender is unthrottled.  Returns the bytes moved.
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
        link_bps, boundary = 0.0, -math.inf   # the link segment holding t
        while not self.finished:
            if budget - moved <= 0.5:
                break
            if stop_s is not None and self.buf.seconds >= stop_s:
                break
            if stop_bytes is not None and self.buf.bytes >= stop_bytes:
                break
            if enter_buffer and self.content_done:
                break
            while self.t >= boundary - TIE_S:
                # a boundary within TIE_S of the clock counts as reached
                at = max(self.t, boundary)
                link_bps = self.link.bandwidth_at(at)
                boundary = self.link.next_change_after(at)
            window_open = window_s is not None and self.buf.seconds < window_s
            rate = min(link_bps, math.inf if window_open else rate_cap_bps)
            if rate <= 0:
                if boundary is math.inf:
                    self.log.notes.append("link starved with no recovery")
                    self.starved = True
                    break
                self.advance(boundary)
                continue
            buffered = 1.0 if enter_buffer else 0.0   # share of step buffered
            dt = min(self.tick_s, boundary - self.t)
            if dt == self.tick_s:
                step = rate * dt / 8.0
                dt = step * 8.0 / rate
                n = self._whole_ticks(step, dt, buffered * step, crate,
                                      boundary, budget - moved, stop_s,
                                      stop_bytes, window_s, window_open)
                if n > 0:
                    self._jump(conn, n, step, dt, buffered * step, crate)
                    moved += n * step
                    continue
            dt = min(self.tick_s, boundary - self.t)
            step = rate * dt / 8.0
            if enter_buffer:
                step = min(step, self.stream.bytes_for_content(
                    self.delivered_content_s, self.stream.duration_s)
                    if crate is None else self.content_remaining_s * crate / 8.0)
            step = min(step, budget - moved)
            dt = step * 8.0 / rate
            self.advance(self.t + dt)
            self._fill(buffered * step, crate, 0.0)
            self._add_ticks(conn, step, dt, 1, BufferSample(
                self.t, self.buf.seconds, self.buf.bytes))
            self._post_arrival()
            moved += step
        return moved

    def _whole_ticks(self, step: float, dt: float, nbytes: float,
                     crate: Optional[float], boundary: float,
                     budget_left: float, stop_s: Optional[float],
                     stop_bytes: Optional[float], window_s: Optional[float],
                     window_open: bool) -> int:
        """Whole ticks of step bytes, nbytes of them buffered at content
        rate crate, that can be applied in closed form.

        Each decision point is a linear function of the tick count until
        it is crossed; the run stops short of the earliest predicted
        crossing by a tick, so the crossing itself is stepped singly.  A
        VBR stream's content per tick lies between what its highest and
        its lowest rate bring, so its crossings are bounded with those.
        """
        b = self.buf.seconds
        played = dt if self.playing else 0.0   # content seconds per tick
        if crate is None:
            lo, hi = (nbytes * 8.0 / r for r in reversed(self.buf.rates_bps))
        else:
            lo = hi = nbytes * 8.0 / crate
        up, down = hi - played, lo - played    # most and least buffer gain
        x = min((boundary - self.t) / dt, budget_left / step)
        if nbytes > 0:
            # ticks of less than CONTENT_DONE_S of content stop short of
            # it, so the start and resume rules see it on a stepped tick
            done_s = CONTENT_DONE_S if hi <= CONTENT_DONE_S else 0.0
            x = min(x, (self.content_remaining_s - done_s) / hi)
        if stop_s is not None:
            x = min(x, _ticks_to(stop_s - b, up))
        if stop_bytes is not None:
            x = min(x, _ticks_to(stop_bytes - self.buf.bytes,
                                 step - played * self.buf.min_byte_rate()))
        if window_s is not None:
            x = min(x, _ticks_to(window_s - b, up) if window_open
                    else _ticks_to(b - window_s, -down))
        if self.playback_start is None:
            x = min(x, _ticks_to(self.start_threshold_s - b, up)
                    if self.start_at is None else (self.start_at - self.t) / dt)
        elif self.stalled:
            x = min(x, _ticks_to(self.resume_threshold_s - b, up))
        else:
            watch_left = self.watch_end_s - self.log.content_consumed_s
            x = min(x, _ticks_to(b - dt - 1e-6, -down),
                    (watch_left - 1e-6) / dt)
        return int(x) - 1

    def _jump(self, conn: int, n: int, step: float, dt: float,
              nbytes: float, crate: Optional[float]) -> None:
        """Apply n whole ticks that cross no decision point: the first on
        its own, so the span starts at its exact level, then the rest."""
        played = dt if self.playing else 0.0
        self._fill(nbytes, crate, played)
        first = BufferSample(self.t + dt, self.buf.seconds, self.buf.bytes)
        self._fill((n - 1) * nbytes, crate, (n - 1) * played)
        self._add_ticks(conn, step, dt, n, first)

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
        1 + jitter].

        A cycle (a chunk and the wait after it) that repeats the one
        before it, shifted by a period, makes the two a ChunkTrain.  The
        train then grows by the longest run of whole repeats that crosses
        no decision point -- a link boundary, the end of the content or of
        the watch, playback start, stall or resume -- in closed form, and
        the cycles next to a crossing are stepped singly.  A cycle that
        comes out different ends the train.
        """
        crate = self.stream.encoding_rate_bps
        due = self.t
        cur = prev = train = None   # cycle in flight, last one, prev's train
        while (not self.finished and not self.content_done
               and not self.starved):
            self.wait_until(due)
            if self.finished:
                break
            if cur is not None:
                cur.spans = tuple(self.events[cur.first:])
                cur.dbuffer_s = self.buf.seconds - cur.buffer_s
                # only a CBR stream brings the same content every repeat
                if (prev is not None and self.own_rate is not None
                        and cur.repeats(prev, self._phase())):
                    train = self._extend_train(train, prev, cur)
                    m = self._whole_cycles(cur, crate)
                    if m > 0:
                        self._jump_cycles(train, cur, m, crate)
                        due = self.t
                else:
                    train = None
                prev = cur
            chunk = chunk_bytes
            if jitter:
                chunk *= self.rng.uniform(1.0 - jitter, 1.0 + jitter)
            self._open_span = None     # a cycle's runs are its own
            cur = _Cycle(due, chunk, self.buf.seconds, self._phase(),
                         len(self.events), len(self.log.records.items))
            self.deliver(conn, math.inf, nbytes=chunk)
            step = chunk * 8.0 / rate_bps
            cur.period_s = max(step, self.t - due)
            due = max(due + step, self.t)

    def _phase(self) -> tuple[bool, bool]:
        return self.playback_start is not None, self.stalled

    def _extend_train(self, train: Optional[ChunkTrain], prev: _Cycle,
                      cur: _Cycle) -> ChunkTrain:
        """Fold cur, a repeat of prev, into the train prev ends; without
        one, prev and cur become a new train."""
        if train is None:
            train = ChunkTrain(prev.spans, 1, prev.period_s, prev.dbuffer_s)
            cut, log_cut = prev.first, prev.log_first
        else:
            cut, log_cut = cur.first, cur.log_first
        del self.events[cut:]
        del self.log.records.items[log_cut:]
        if train.m == 1:
            self.events.append(train)
            self.log.records.items.append(train)
        train.m += 1
        return train

    def _whole_cycles(self, c: _Cycle, crate: float) -> int:
        """Whole repeats of cycle c, from its end, that can be applied in
        closed form: the run stops a cycle short of the earliest predicted
        decision point, as _whole_ticks does for ticks."""
        p, b = c.period_s, self.buf.seconds
        last_tick = c.spans[-1].t_end_s - c.due
        x = (self.link.next_change_after(c.due) - self.t - last_tick) / p
        secs = sum(s.n * s.nbytes for s in c.spans) * 8.0 / crate
        x = min(x, self.content_remaining_s / secs)
        lo, hi = c.levels(crate)
        if self.playback_start is None:
            x = min(x, _ticks_to(self.start_threshold_s - b - hi, c.dbuffer_s)
                    if self.start_at is None else (self.start_at - self.t) / p)
        elif self.stalled:
            x = min(x, _ticks_to(self.resume_threshold_s - b - hi,
                                 c.dbuffer_s))
        else:
            watch_left = self.watch_end_s - self.log.content_consumed_s
            x = min(x, _ticks_to(b + lo - 1e-6, -c.dbuffer_s),
                    (watch_left - 1e-6) / p)
        return int(x) - 1

    def _jump_cycles(self, train: ChunkTrain, c: _Cycle, m: int,
                     crate: float) -> None:
        """Apply m whole repeats of cycle c that cross no decision point."""
        nbytes = m * sum(s.n * s.nbytes for s in c.spans)
        self.log.bytes_delivered += nbytes
        self._fill(nbytes, crate, m * train.period_s if self.playing else 0.0)
        self.t += m * train.period_s
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
        """Drain remaining playback, close spans and check conservation."""
        if self._on_since is not None:
            self.log.on_spans.append((self._on_since, self.t))
            self._on_since = None
        if self._off_since is not None:
            self.log.off_spans.append((self._off_since, self.t))
            self._off_since = None
        if self.start_at is not None:
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
        self.log.completed = self.finished
        self.log.bytes_buffered_end = self.buf.bytes
        delivered = self.log.bytes_delivered
        accounted = (self.log.bytes_consumed + self.log.bytes_buffered_end
                     + self.log.bytes_wasted)
        if delivered > 0 and abs(delivered - accounted) > max(2.0, 1e-6 * delivered):
            raise AssertionError(
                f"byte conservation broken: delivered={delivered:.1f} "
                f"consumed+buffered+wasted={accounted:.1f}")
        # Runs are emitted in time order and a span's ticks come strictly
        # after what was emitted before it; an event tied with its last
        # tick is on the same or a newer connection.  So sorting runs by
        # their first tick sorts the ticks (a probe and its window update
        # share a time and swap).
        self.events.sort(key=lambda it: it.sort_key())
        return TickSeq(self.events, TransferSpan.event), self.log

    def _end_stalled(self, since: float, end: float) -> None:
        """Close the timeline with a stall from since to end."""
        self.log.stall_events.append((since, end - since))
        self.log.playback_end_s = end
        if end > self.log.buffer_samples[-1].t_s + TIE_S:
            self.log.buffer_samples.append(
                BufferSample(end, self.buf.seconds, self.buf.bytes))


# --------------------------------------------------------------------------
# Technique drivers
# --------------------------------------------------------------------------

def _run_encoding_rate(eng: _Engine, tech: EncodingRate) -> None:
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    eng.deliver(conn, math.inf, stop_s=tech.faststart_target_s)
    # Receive window closed at the target: the sender is clocked to the
    # consumption rate; any deficit reopens the window fully.
    eng.deliver(conn, eng.stream.encoding_rate_bps,
                window_s=tech.faststart_target_s - 0.5)
    eng.close_connection(conn)


def _run_fast_caching(eng: _Engine, tech: FastCaching) -> None:
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    eng.deliver(conn, math.inf)
    eng.close_connection(conn)


def _run_throttling(eng: _Engine, tech: Throttling) -> None:
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
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
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    # the client stops reading at its upper threshold, so the fast start
    # can never overshoot it
    eng.deliver(conn, math.inf, stop_s=tech.faststart_target_s,
                stop_bytes=tech.upper_bytes)
    while not eng.finished and not eng.content_done and not eng.starved:
        eng.deliver(conn, math.inf, stop_bytes=tech.upper_bytes)
        if eng.finished or eng.content_done:
            break
        eng.mark_off()
        _off_with_probes(eng, conn, tech)
        eng.mark_on()
    eng.close_connection(conn)


def _run_onoff_m(eng: _Engine, tech: OnOffM) -> None:
    if tech.chunk_bytes is not None:
        _run_onoff_m_chunked(eng, tech)
        return
    r = eng.stream.encoding_rate_bps
    on_rate = tech.on_rate_factor * r
    degenerate = tech.upper_s - tech.lower_s <= 1.0
    if degenerate:
        eng.log.notes.append("upper==lower: continuous window-clocked delivery")

    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    # The initial fill runs at fast-start speed all the way to the upper
    # threshold; only refill connections see the server's throttled rate.
    eng.deliver(conn, math.inf, stop_s=tech.upper_s)
    if degenerate:
        eng.deliver(conn, r, window_s=tech.upper_s - 0.5)
        eng.close_connection(conn)
        return
    eng.close_connection(conn)
    while not eng.finished and not eng.content_done and not eng.starved:
        eng.mark_off()
        if tech.off_fixed_s is not None:
            eng.wait_until(eng.t + tech.off_fixed_s)
        else:
            eng.wait_drain_to_seconds(tech.lower_s)
        if eng.finished:
            break
        conn = eng.open_connection()
        eng.wait_until(eng.t + eng.link.rtt_s)
        eng.mark_on()
        eng.deliver(conn, on_rate, stop_s=tech.upper_s)
        eng.close_connection(conn)


def _run_onoff_m_chunked(eng: _Engine, tech: OnOffM) -> None:
    """Fixed-chunk mode: a large fast start, then one connection per chunk."""
    bps = eng.stream.bytes_per_second
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    fs = tech.faststart_bytes or tech.chunk_bytes
    eng.deliver(conn, math.inf, nbytes=fs)
    eng.close_connection(conn)
    while not eng.finished and not eng.content_done and not eng.starved:
        eng.mark_off()
        target = max(eng.buf.seconds - tech.chunk_bytes / bps, 0.0)
        eng.wait_drain_to_seconds(target)
        if eng.finished:
            break
        conn = eng.open_connection()
        eng.wait_until(eng.t + eng.link.rtt_s)
        eng.mark_on()
        eng.deliver(conn, math.inf, nbytes=tech.chunk_bytes)
        eng.close_connection(conn)


def _measured_bandwidth(eng: _Engine, nbytes: float, t0: float) -> float:
    dt = eng.t - t0
    return nbytes * 8.0 / dt if dt > 0 else math.inf


def _run_hls(eng: _Engine, tech: Hls) -> None:
    ladder = list(tech.ladder)
    state = {"rung": 0, "up": 0, "down": 0}
    conn = eng.open_connection()
    audio_conn = eng.open_connection() if tech.audio_video_split else conn
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()

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
        # re-fetch the discarded span at the new quality, back to back
        rate = ladder[state["rung"]][1]
        refetch = secs
        while refetch > 1e-3 and not eng.finished:
            dur = min(tech.chunk_s, refetch, eng.content_remaining_s)
            if dur <= 1e-3:
                break
            eng.deliver(conn, math.inf, nbytes=dur * rate / 8.0,
                        content_rate_bps=rate)
            refetch -= dur

    def fetch_chunk() -> None:
        dur = min(tech.chunk_s, eng.content_remaining_s)
        if dur <= 1e-3:
            return
        rung = state["rung"]
        nbytes = dur * ladder[rung][1] / 8.0
        t0 = eng.t
        eng.deliver(conn, math.inf, nbytes=nbytes,
                    content_rate_bps=ladder[rung][1])
        bw = _measured_bandwidth(eng, nbytes, t0)
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
    target = tech.initial_chunks * tech.chunk_s
    while not eng.finished and not eng.content_done and not eng.starved:
        if eng.buf.seconds > target - tech.chunk_s:
            eng.wait_drain_to_seconds(target - tech.chunk_s)
        if eng.finished:
            break
        due = eng.t
        fetch_chunk()
        if tech.audio_video_split:
            eng.wait_until(due + tech.av_offset_s)
            fetch_audio()
    eng.close_connection(conn)


def _run_mss(eng: _Engine, tech: Mss) -> None:
    ladder = list(tech.ladder)
    state = {"rung": 0, "chunks": 0}
    measured: list[float] = []
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()

    def fetch_video() -> None:
        dur = min(tech.video_chunk_s, eng.content_remaining_s)
        if dur <= 1e-3:
            return
        rung = state["rung"]
        nbytes = dur * ladder[rung][1] / 8.0
        t0 = eng.t
        eng.deliver(conn, math.inf, nbytes=nbytes,
                    content_rate_bps=ladder[rung][1])
        state["chunks"] += 1
        if state["chunks"] <= 3:
            measured.append(_measured_bandwidth(eng, nbytes, t0))
            if state["chunks"] == 3:
                bw = min(measured)
                best = 0
                for i, (_, r) in enumerate(ladder):
                    if r <= bw:
                        best = i
                if best != rung:
                    eng.log.quality_switches.append(
                        (eng.t, ladder[rung][0], ladder[best][0]))
                    state["rung"] = best
        if state["chunks"] % tech.audio_every_n_video_chunks == 0:
            audio = (tech.audio_every_n_video_chunks * tech.video_chunk_s
                     * tech.audio_rate_bps / 8.0)
            moved = eng.deliver_aux(conn, audio)
            eng.log.bytes_consumed += moved

    while (not eng.finished and not eng.content_done
           and eng.buf.seconds < tech.startup_buffer_s):
        fetch_video()
    while not eng.finished and not eng.content_done and not eng.starved:
        if eng.buf.seconds > tech.startup_buffer_s - tech.video_chunk_s:
            eng.wait_drain_to_seconds(tech.startup_buffer_s
                                      - tech.video_chunk_s)
        if eng.finished:
            break
        fetch_video()
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
    transfer spans and expanded when read.

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
    while not eng.finished and pos < size - 1.0:
        conn = eng.open_connection()
        eng.wait_until(eng.t + eng.link.rtt_s)
        eng.mark_on()
        resume_from = math.floor(pos / kf) * kf
        waste = pos - resume_from
        if waste > 1.0:
            eng.deliver_aux(conn, waste)
            eng.log.bytes_wasted += waste
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
