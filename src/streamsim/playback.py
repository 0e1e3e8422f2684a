"""Client-side playback modelling: joining time, buffer occupancy, stalls.

A simulated session's playback is the delivery engine's: the engine
writes the BufferTimeline of the buffer that drove its feedback loop, with
its start, stalls and samples, as DeliveryLog.playback, and that record is
the one reported.  This module holds the QoE report, the closed-form
joining time, and the buffer timeline of data arrivals alone, such as a
flow trace's, which replays them through that same engine buffer and
clock.  Either way a timeline carries the stalls that playback recorded:
each runs from an empty buffer until resume_threshold_s is buffered again.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .delivery import JOIN_FAILURE_S, BufferTimeline, replay_arrivals
from .radio import promotion_latency
from .streams import (LinkModel, MutableRecord, PacketEvent, StreamSpec,
                      fold_sum)
from .techniques import RESUME_THRESHOLD_S, START_THRESHOLD_S, Technique


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
        return fold_sum(d for _, d in self.stall_events)


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
    stalls.  watch_end_s bounds consumption for abandoned sessions.  The
    timeline is the replay's own, labelled with joining_time_s.
    """
    watched = stream.duration_s if watch_end_s is None else min(
        watch_end_s, stream.duration_s)
    tl = replay_arrivals(arrivals, stream, joining_time_s,
                         resume_threshold_s, watched).playback
    tl.joining_time_s = joining_time_s
    return tl


def detect_stalls(buffer: BufferTimeline,
                  resume_threshold_s: Optional[float] = None) -> QoeReport:
    """The QoE of a buffer timeline: its joining time, the stalls its
    playback recorded at its own resume threshold (the only one
    resume_threshold_s may name), and their share of the watch."""
    if resume_threshold_s not in (None, buffer.resume_threshold_s):
        raise ValueError("the stalls were decided at a resume threshold of "
                         f"{buffer.resume_threshold_s} s")
    total = fold_sum(d for _, d in buffer.stall_events)
    ratio = total / buffer.duration_s if buffer.duration_s > 0 else 0.0
    return QoeReport(buffer.joining_time_s, buffer.stall_events, ratio)
