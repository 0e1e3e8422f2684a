"""Client-side playback modelling: joining time, buffer occupancy, stalls.

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

from .radio import promotion_latency
from .streams import (ChunkTrain, LinkModel, PacketEvent, StreamSpec,
                      TransferSpan, as_runs)
from .techniques import RESUME_THRESHOLD_S, START_THRESHOLD_S, Technique

_EPS = 1e-9

JOIN_FAILURE_S = math.inf   # sentinel: the session can never start


@dataclass(frozen=True)
class BufferSample:
    t_s: float
    buffered_seconds: float
    buffered_bytes: float


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
        i = bisect_right(self.samples, t_s + _EPS, key=lambda s: s.t_s)
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
        self.done_at: Optional[float] = None
        self.samples: list[BufferSample] = []

    @property
    def playing(self) -> bool:
        return self.started and not self.stalled and self.done_at is None

    def emit(self) -> None:
        self.samples.append(BufferSample(
            self.t, max(self.fill - self.play, 0.0),
            self.stream.bytes_for_content(self.play, self.fill)))

    def drain_to(self, to_t: float) -> None:
        while self.t < to_t - 1e-12:
            if not self.started:
                if math.isinf(self.join) or to_t < self.join:
                    self.t = to_t
                    return
                self.t = self.join
                self.started = True
                if self.fill - self.play <= _EPS:
                    self.stalled = True
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
            if self.play >= self.watched - 1e-9:
                self.done_at = self.t
                self.emit()
                self.t = to_t
                return
            if self.fill - self.play <= _EPS:
                if self.t < to_t - 1e-12:
                    self.stalled = True
                    self.emit()
                else:
                    return

    def add(self, nbytes: float) -> None:
        self.fill = min(self.fill + self.stream.seconds_for_bytes(
            self.fill, nbytes), self.stream.duration_s)
        if (self.stalled
                and self.fill - self.play >= self.resume_s - 1e-9):
            self.stalled = False

    def whole_ticks(self, dt: float, nbytes: float,
                    rates: tuple[float, float],
                    dip: Optional[float] = None) -> int:
        """Arrivals of nbytes every dt that can be applied in closed form.

        The run stops a tick short of the earliest predicted join, stall,
        resume or end, so that tick is replayed singly.  A VBR stream's
        content per tick is bounded by its lowest and highest rates.  dip
        is how far the buffer may fall below its level at one arrival
        before the next (dt when an arrival is a single tick).
        """
        full = self.fill >= self.stream.duration_s
        gain_lo = 0.0 if full else nbytes * 8.0 / rates[1]
        gain_hi = 0.0 if full else nbytes * 8.0 / rates[0]
        buffered = self.fill - self.play
        x = math.inf
        if not self.started:
            x = (self.join - self.t) / dt
        elif self.stalled:
            if gain_hi > 0:
                x = (self.resume_s - 1e-6 - buffered) / gain_hi
        else:
            # the buffer must cover every tick's drain; a VBR tick's content
            # is bounded only until the fill reaches the end of the content
            x = (self.watched - self.play) / dt
            if gain_hi > 0:
                x = min(x, (self.stream.duration_s - self.fill) / gain_hi)
            margin = buffered - (dt if dip is None else dip) - 1e-6
            if margin <= 0:
                return 0
            if gain_lo < dt:
                x = min(x, margin / (dt - gain_lo))
        return int(min(x, 1e9)) - 1

    def jump(self, t: float, m: int, dt: float, nbytes: float) -> None:
        """Apply m arrivals of nbytes every dt, the last one at t."""
        if self.playing:
            self.play += m * dt
        self.fill = min(self.fill + self.stream.seconds_for_bytes(
            self.fill, m * nbytes), self.stream.duration_s)
        self.t = t

    def replay(self, runs, rates: tuple[float, float]) -> None:
        """Replay runs in time order until playback is done.  Samples are
        kept at the first and last tick of each span and at every arrival
        stepped while stalled."""
        for r in runs:
            if isinstance(r, ChunkTrain):
                self.replay_train(r, rates)
                continue
            n = r.n if isinstance(r, TransferSpan) else 1
            nbytes = r.bytes
            k = 0
            while k < n and self.done_at is None:
                if 0 < k < n - 1:
                    m = min(self.whole_ticks(r.dt_s, nbytes, rates),
                            n - 1 - k)
                    if m > 0:
                        k += m
                        self.jump(r.tick_t(k - 1), m, r.dt_s, nbytes)
                        continue
                self.drain_to(r.tick_t(k) if n > 1 else r.t_s)
                if self.done_at is not None:
                    break
                was_stalled = self.stalled
                self.add(nbytes)
                if k == 0 or k == n - 1 or was_stalled:
                    self.emit()
                k += 1
            if self.done_at is not None:
                return

    def replay_train(self, tr: ChunkTrain,
                     rates: tuple[float, float]) -> None:
        """Replay a ChunkTrain a whole cycle at a time where no state
        changes, and the cycles next to a change span by span, so the
        first and last cycle keep their samples."""
        nbytes = sum(s.n * s.bytes for s in tr.cycle)
        # a cycle's arrivals measured from the last tick of the one before
        # it, against the least content its earlier arrivals can bring
        before = tr.cycle[-1].t_end_s - tr.period_s
        dip, got = 0.0, 0.0
        for s in tr.cycle:
            secs = s.bytes * 8.0 / rates[1]
            dip = max(dip, s.t_s - before - got,
                      s.t_end_s - before - got - (s.n - 1) * secs)
            got += s.n * secs
        j = 0
        while j < tr.m and self.done_at is None:
            if 0 < j < tr.m - 1:
                m = min(self.whole_ticks(tr.period_s, nbytes, rates, dip),
                        tr.m - 1 - j)
                if m > 0:
                    j += m
                    self.jump(tr.cycle[-1].t_end_s + (j - 1) * tr.period_s,
                              m, tr.period_s, nbytes)
                    continue
            self.replay(tr.repeats(j, j + 1), rates)
            j += 1


def compute_buffer(arrivals: Iterable[PacketEvent], stream: StreamSpec,
                   joining_time_s: float,
                   resume_threshold_s: float = RESUME_THRESHOLD_S,
                   watch_end_s: Optional[float] = None) -> BufferTimeline:
    """Build the playback-buffer timeline from data arrivals.

    Only data events feed the buffer.  The buffer is clipped at zero: when
    it empties during playback, consumption halts until the resume
    threshold is met again, and the zero span shows up in the samples.
    watch_end_s bounds consumption for abandoned sessions.

    The transfer spans of a TickSeq are replayed with the delivery
    engine's rule: runs of ticks in closed form, the ticks next to a state
    change one at a time; a chunk train likewise runs of whole cycles.
    Samples are kept at the first and last tick of each span replayed and
    at every state change: join, stall, the arrivals stepped singly while
    stalled (the first one after the stall and those at the resume
    crossing) and end.
    """
    runs = sorted((r for r in as_runs(arrivals) if r.kind == "data"),
                  key=lambda r: r.t_s)
    join = joining_time_s
    watched = stream.duration_s if watch_end_s is None else min(
        watch_end_s, stream.duration_s)
    rates = stream.rate_range_bps()

    p = _Playout(stream, join, resume_threshold_s, watched)
    p.emit()
    p.replay(runs, rates)

    if p.done_at is None and not math.isinf(join):
        p.drain_to(max(p.t, join) + _EPS)
        if not p.stalled:
            p.drain_to(p.t + max(p.fill - p.play, 0.0) + _EPS)

    samples = p.samples
    tl = BufferTimeline(join, 0.0, watched, samples,
                        resume_threshold_s=resume_threshold_s)
    completed = p.done_at is not None
    if completed:
        end = p.done_at
    elif math.isinf(join):
        end = watched
    else:
        # unresolved stall: close the timeline at the nominal horizon
        end = join + watched + _zero_span_total(samples, after=join)
    tl.playback_end_s = end
    tl.completed = completed
    if not samples or samples[-1].t_s < end - _EPS:
        buffered = 0.0 if not completed else max(p.fill - p.play, 0.0)
        samples.append(BufferSample(end, buffered, buffered
                                    * stream.bytes_per_second))
    return tl


def _zero_span_total(samples: list[BufferSample], after: float = 0.0) -> float:
    total = 0.0
    for a, b in zip(samples, samples[1:]):
        if a.buffered_seconds <= _EPS and a.t_s >= after - _EPS:
            total += b.t_s - a.t_s
    return total


def detect_stalls(buffer: BufferTimeline,
                  resume_threshold_s: float = RESUME_THRESHOLD_S) -> QoeReport:
    """Extract stall events from a buffer timeline.

    A stall opens when the buffer hits zero during playback and closes when
    buffered content reaches the resume threshold (or never, in which case
    it runs to the end of the timeline).
    """
    if math.isinf(buffer.joining_time_s):
        return QoeReport(JOIN_FAILURE_S,
                         [(0.0, buffer.playback_end_s)],
                         1.0)
    events: list[tuple[float, float]] = []
    join = buffer.joining_time_s
    open_at: Optional[float] = None
    for s in buffer.samples:
        if s.t_s < join - _EPS:
            continue
        if open_at is None:
            if (s.buffered_seconds <= _EPS
                    and s.t_s < buffer.playback_end_s - 1e-9):
                open_at = s.t_s
        elif s.buffered_seconds >= resume_threshold_s - 1e-6:
            events.append((open_at, s.t_s - open_at))
            open_at = None
    if open_at is not None and buffer.playback_end_s - open_at > 1e-6:
        events.append((open_at, buffer.playback_end_s - open_at))
    total = sum(d for _, d in events)
    return QoeReport(joining_time_s=join, stall_events=events,
                     stall_ratio=total / buffer.duration_s)
