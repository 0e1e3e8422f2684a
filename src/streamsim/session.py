"""End-to-end session pipeline: delivery -> playback -> radio -> energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import delivery, playback
from .energy import SessionSummary, summarize
from .playback import BufferTimeline, QoeReport
from .radio import RadioTimeline, simulate_radio
from .scenario import Scenario
from .streams import TickSeq


@dataclass
class SessionResult:
    scenario: Scenario
    events: TickSeq
    dlog: delivery.DeliveryLog
    buffer: BufferTimeline
    qoe: QoeReport
    radio: RadioTimeline
    summary: SessionSummary


def run_session(sc: Scenario) -> SessionResult:
    """Run one scenario through every layer and fuse the summary."""
    join = playback.joining_time(sc.technique, sc.stream, sc.link,
                                 sc.radio_tech)
    events, dlog = delivery.simulate_session(
        sc.stream, sc.link, sc.technique, abandon_at_s=sc.abandon_at_s,
        seed=sc.seed)
    buffer = playback.compute_buffer(events, sc.stream, join,
                                     watch_end_s=sc.abandon_at_s)
    qoe = playback.detect_stalls(buffer)
    wall_end = buffer.playback_end_s
    if events:
        wall_end = max(wall_end, events[-1].t_s)
    if math.isinf(wall_end):
        wall_end = events[-1].t_s if events else 0.0
    radio = simulate_radio(sc.radio_tech, events, sc.radio_cfg, sc.profile,
                           session_end_s=wall_end)
    summary = summarize(dlog, qoe, radio, sc.profile, wall_end)
    return SessionResult(sc, events, dlog, buffer, qoe, radio, summary)
