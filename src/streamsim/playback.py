"""Client-side playback modelling: joining time, buffer occupancy, stalls.

A simulated session's playback is the delivery engine's: the buffer that
drove its feedback loop, with its start, stalls and samples, is the one
reported.  This module holds the report's types and the models that work
from data arrivals alone, for a flow trace: the closed-form joining time
and a per-event replay of the buffer.

The buffer timeline is the difference of the cumulative arrival and
consumption series.  Consumption starts at the joining time, runs at one
content-second per wall second, halts whenever the buffer empties (a stall)
and resumes once resume_threshold_s of content is available again.
Buffered bytes are converted to seconds through the stream's encoding-rate
trace, so VBR streams are handled exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .delivery import CONTENT_DONE_S, DONE_TOL_S, TIE_S, BufferSample
from .radio import promotion_latency
from .streams import LinkModel, PacketEvent, StreamSpec
from .techniques import RESUME_THRESHOLD_S, START_THRESHOLD_S, Technique

JOIN_FAILURE_S = math.inf   # sentinel: the session can never start


@dataclass
class BufferTimeline:
    joining_time_s: float
    playback_end_s: float          # wall time playback finished (or horizon)
    duration_s: float              # content seconds actually watched
    samples: list[BufferSample] = field(default_factory=list)
    resume_threshold_s: float = RESUME_THRESHOLD_S
    completed: bool = True         # playback reached the watch end

    CSV_HEADER = "t_s,buffered_seconds,buffered_bytes"

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


@dataclass
class QoeReport:
    joining_time_s: float
    stall_events: list[tuple[float, float]]   # (t_start_s, duration_s)
    stall_ratio: float

    @property
    def stall_total_s(self) -> float:
        return sum(d for _, d in self.stall_events)


def playback_report(dlog, watched_s: float
                    ) -> tuple[BufferTimeline, QoeReport]:
    """The buffer timeline and QoE of the playback a delivery log records;
    watched_s is the content the viewer meant to watch."""
    join = dlog.playback_start_s
    if join is None:
        join = JOIN_FAILURE_S
    tl = BufferTimeline(join, dlog.playback_end_s, watched_s,
                        dlog.buffer_samples, completed=dlog.completed)
    ratio = dlog.stall_total_s / watched_s if watched_s > 0 else 0.0
    return tl, QoeReport(join, dlog.stall_events, ratio)


def joining_time(tech: Technique, stream: StreamSpec, link: LinkModel,
                 radio_tech: str,
                 start_threshold_s: float = START_THRESHOLD_S) -> float:
    """Initial playback delay: radio promotion, one request round trip and
    the fast-start fill of the start threshold at the available bandwidth.

    Returns inf when the link can never move the starting bytes.
    """
    promo = promotion_latency(radio_tech)
    bytes_needed = stream.bytes_for_content(0.0, start_threshold_s)
    if bytes_needed <= 0:
        return promo + link.rtt_s
    fill = link.transfer_time(link.rtt_s, bytes_needed)
    if math.isinf(fill):
        return JOIN_FAILURE_S
    return promo + link.rtt_s + fill


class _Playout:
    """Playback clock and buffer fill, replayed over data arrivals."""

    def __init__(self, stream: StreamSpec, join: float, resume_s: float,
                 watched: float):
        self.stream = stream
        self.join = join
        self.resume_s = resume_s
        self.watched = watched
        self.t = 0.0
        self.fill = 0.0          # content position delivered up to
        self.play = 0.0          # content position played up to
        self.started = False
        self.stalled = False
        self.stalled_at = 0.0    # when the last stall began
        self.done_at: Optional[float] = None
        self.samples: list[BufferSample] = []

    @property
    def content_done(self) -> bool:
        return self.stream.duration_s - self.fill <= CONTENT_DONE_S

    def emit(self) -> None:
        self.samples.append(BufferSample(
            self.t, max(self.fill - self.play, 0.0),
            self.stream.bytes_for_content(self.play, self.fill)))

    def stall(self) -> None:
        self.stalled = True
        self.stalled_at = self.t
        self.emit()

    def drain_to(self, to_t: float) -> None:
        while self.t < to_t - TIE_S:
            if not self.started:
                if math.isinf(self.join) or to_t < self.join:
                    self.t = to_t
                    return
                self.t = self.join
                self.started = True
                if self.fill - self.play <= TIE_S:
                    self.stall()
                else:
                    self.emit()
                continue
            if self.done_at is not None or self.stalled:
                self.t = to_t
                return
            span = min(to_t - self.t, self.fill - self.play,
                       self.watched - self.play)
            if span > 0:
                self.play += span
                self.t += span
            if (self.play >= self.watched - DONE_TOL_S
                    or (self.fill - self.play <= TIE_S and self.content_done)):
                self.done_at = self.t
                self.emit()
                self.t = to_t
                return
            if self.fill - self.play <= TIE_S:
                if self.t < to_t - TIE_S:
                    self.stall()
                else:
                    return

    def add(self, nbytes: float) -> None:
        self.fill = min(self.fill + self.stream.seconds_for_bytes(
            self.fill, nbytes), self.stream.duration_s)
        if self.stalled and (self.fill - self.play >= self.resume_s - TIE_S
                             or self.content_done):
            self.stalled = False


def compute_buffer(arrivals: Iterable[PacketEvent], stream: StreamSpec,
                   joining_time_s: float,
                   resume_threshold_s: float = RESUME_THRESHOLD_S,
                   watch_end_s: Optional[float] = None) -> BufferTimeline:
    """Build the playback-buffer timeline from data arrivals, such as a
    flow trace's (a simulated session reports its delivery engine's).

    Only data events feed the buffer, event by event, as content of the
    stream.  The buffer is clipped at zero: when it empties during
    playback, consumption halts until the resume threshold is met again,
    and the zero span shows up in the samples.  Ties are decided with the
    delivery engine's tolerances.  A stall playback never leaves lasts as
    long as the rest of the watch would have.  watch_end_s bounds
    consumption for abandoned sessions.
    """
    data = sorted((e for e in arrivals if e.kind == "data"),
                  key=lambda e: e.t_s)
    join = joining_time_s
    watched = stream.duration_s if watch_end_s is None else min(
        watch_end_s, stream.duration_s)

    p = _Playout(stream, join, resume_threshold_s, watched)
    p.emit()
    for e in data:
        p.drain_to(e.t_s)
        if p.done_at is not None:
            break
        p.add(e.bytes)
        p.emit()
    if p.done_at is None:
        p.drain_to(math.inf)      # play out what is buffered

    if p.done_at is not None:
        end = p.done_at
    elif math.isinf(join):
        end = watched
    else:
        end = p.stalled_at + watched - p.play
    if p.samples[-1].t_s < end - TIE_S:
        p.samples.append(BufferSample(end, 0.0, 0.0))
    return BufferTimeline(join, end, watched, p.samples, resume_threshold_s,
                          completed=p.done_at is not None)


def detect_stalls(buffer: BufferTimeline,
                  resume_threshold_s: float = RESUME_THRESHOLD_S) -> QoeReport:
    """Extract stall events from a buffer timeline.

    A stall opens when the buffer hits zero during playback and closes when
    buffered content reaches the resume threshold or holds the rest of a
    completed watch (or never, in which case it runs to the end of the
    timeline).
    """
    if math.isinf(buffer.joining_time_s):
        return QoeReport(JOIN_FAILURE_S,
                         [(0.0, buffer.playback_end_s)],
                         1.0)
    events: list[tuple[float, float]] = []
    join = buffer.joining_time_s
    open_at: Optional[float] = None
    for s in buffer.samples:
        if s.t_s < join - TIE_S:
            continue
        if open_at is None:
            if (s.buffered_seconds <= TIE_S
                    and s.t_s < buffer.playback_end_s - 1e-9):
                open_at = s.t_s
        elif (s.buffered_seconds >= resume_threshold_s - 1e-6
              or (buffer.completed and s.t_s + s.buffered_seconds
                  >= buffer.playback_end_s - 1e-6)):
            events.append((open_at, s.t_s - open_at))
            open_at = None
    if open_at is not None and buffer.playback_end_s - open_at > 1e-6:
        events.append((open_at, buffer.playback_end_s - open_at))
    total = sum(d for _, d in events)
    return QoeReport(joining_time_s=join, stall_events=events,
                     stall_ratio=total / buffer.duration_s)
