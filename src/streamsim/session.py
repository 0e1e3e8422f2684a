"""End-to-end session pipeline: delivery -> playback -> radio -> energy."""

from __future__ import annotations

from dataclasses import dataclass

from . import delivery
from .energy import SessionSummary, summarize
from .playback import BufferTimeline, QoeReport, playback_report
from .radio import RadioTimeline, promotion_latency, simulate_radio
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
    """Run one scenario through every layer and fuse the summary.

    The playback reported is the delivery engine's: its start, stalls and
    buffer samples.
    """
    events, dlog = delivery.simulate_session(
        sc.stream, sc.link, sc.technique, abandon_at_s=sc.abandon_at_s,
        seed=sc.seed,
        start_delay_s=promotion_latency(sc.radio_tech, sc.radio_cfg))
    buffer, qoe = playback_report(dlog, sc.stream.duration_s
                                  if sc.abandon_at_s is None else
                                  min(sc.abandon_at_s, sc.stream.duration_s))
    wall_end = max(dlog.playback_end_s, events[-1].t_s if events else 0.0)
    radio = simulate_radio(sc.radio_tech, events, sc.radio_cfg, sc.profile,
                           session_end_s=wall_end)
    summary = summarize(dlog, qoe, radio, sc.profile, wall_end)
    return SessionResult(sc, events, dlog, buffer, qoe, radio, summary)
