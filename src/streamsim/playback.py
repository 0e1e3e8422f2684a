"""Client-side playback modelling: joining time, buffer occupancy, stalls.

A simulated session's playback is the delivery engine's: the buffer that
drove its feedback loop, with its start, stalls and samples, is the one
reported.  This module holds the report's types, the closed-form joining
time, and the buffer timeline of data arrivals alone, such as a flow
trace's, which replays them through that same engine buffer and clock.
Either way a timeline carries the stalls that playback recorded: each
runs from an empty buffer until resume_threshold_s is buffered again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, field
from typing import Iterable, Optional

from .delivery import TIE_S, BufferSample, replay_arrivals
from .radio import promotion_latency
from .streams import LinkModel, MutableRecord, PacketEvent, StreamSpec
from .techniques import RESUME_THRESHOLD_S, START_THRESHOLD_S, Technique

JOIN_FAILURE_S = math.inf   # sentinel: the session can never start


class BufferTimeline(MutableRecord):
    """The playback buffer over a session: its samples, join and stalls."""
    joining_time_s: float
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

    @classmethod
    def from_log(cls, dlog, watched_s: float, joining_time_s=None):
        """The timeline of a delivery log's playback, its stalls included
        and labelled with the resume threshold they were decided at, from
        joining_time_s (by default the log's start; inf if none)."""
        join = (dlog.playback_start_s if joining_time_s is None
                else joining_time_s)
        return cls(JOIN_FAILURE_S if join is None else join,
                   dlog.playback_end_s, watched_s, dlog.buffer_samples,
                   dlog.resume_threshold_s, dlog.completed, dlog.stall_events)

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


class QoeReport(MutableRecord):
    """What the viewer saw: the joining time and the stalls."""
    joining_time_s: float
    stall_events: list[tuple[float, float]]   # (t_start_s, duration_s)
    stall_ratio: float

    def __init__(self, joining_time_s: float,
                 stall_events: list[tuple[float, float]], stall_ratio: float):
        self.joining_time_s = joining_time_s
        self.stall_events = stall_events
        self.stall_ratio = stall_ratio

    @property
    def stall_total_s(self) -> float:
        return sum(d for _, d in self.stall_events)


def playback_report(dlog, watched_s: float
                    ) -> tuple[BufferTimeline, QoeReport]:
    """The buffer timeline and QoE of the playback a delivery log records;
    watched_s is the content the viewer meant to watch."""
    tl = BufferTimeline.from_log(dlog, watched_s)
    return tl, detect_stalls(tl)


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


def compute_buffer(arrivals: Iterable[PacketEvent], stream: StreamSpec,
                   joining_time_s: float,
                   resume_threshold_s: float = RESUME_THRESHOLD_S,
                   watch_end_s: Optional[float] = None) -> BufferTimeline:
    """Build the playback-buffer timeline from data arrivals, such as a
    flow trace's (a simulated session reports its delivery engine's).

    The data events run through the delivery engine's own buffer and
    playback clock (delivery.replay_arrivals), as content of the stream,
    with playback starting at joining_time_s: the same start, stall,
    resume and end rules and tolerances as a simulated session, and its
    stalls.  watch_end_s bounds consumption for abandoned sessions.
    """
    watched = stream.duration_s if watch_end_s is None else min(
        watch_end_s, stream.duration_s)
    dlog = replay_arrivals(arrivals, stream, joining_time_s,
                           resume_threshold_s, watched)
    return BufferTimeline.from_log(dlog, watched, joining_time_s)


def detect_stalls(buffer: BufferTimeline,
                  resume_threshold_s: Optional[float] = None) -> QoeReport:
    """The QoE of a buffer timeline: its joining time, the stalls its
    playback recorded at its own resume threshold (the only one
    resume_threshold_s may name), and their share of the watch."""
    if resume_threshold_s not in (None, buffer.resume_threshold_s):
        raise ValueError("the stalls were decided at a resume threshold of "
                         f"{buffer.resume_threshold_s} s")
    total = sum(d for _, d in buffer.stall_events)
    ratio = total / buffer.duration_s if buffer.duration_s > 0 else 0.0
    return QoeReport(buffer.joining_time_s, buffer.stall_events, ratio)
