"""End-to-end session pipeline: delivery -> playback -> radio -> energy."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import delivery
from .energy import SessionSummary, summarize
from .playback import BufferTimeline, QoeReport, playback_report
from .radio import RadioTimeline, promotion_latency, simulate_radio
from .scenario import Scenario
from .streams import ChunkTrain, TickSeq, TransferSpan


@dataclass
class SessionResult:
    scenario: Scenario
    events: TickSeq
    dlog: delivery.DeliveryLog
    buffer: BufferTimeline
    qoe: QoeReport
    radio: RadioTimeline
    summary: SessionSummary
    # host milliseconds spent in each layer of run_session
    compute_ms: dict[str, float] = field(default_factory=dict)

    @property
    def stats(self) -> dict:
        """The run report: per-layer compute_ms and the work each layer
        did, as counts."""
        runs = [it for it in self.events.items
                if isinstance(it, (TransferSpan, ChunkTrain))]
        return {
            "compute_ms": dict(self.compute_ms),
            "counts": {
                "stored_runs": len(runs),
                "ticks": sum(it.n for it in runs),
                "log_rows": sum(1 for _ in self.dlog.rows()),
                "buffer_samples": len(self.buffer.samples),
                "radio_intervals": len(self.radio.intervals),
                "connections": self.dlog.connections_opened,
                "quality_switches": len(self.dlog.quality_switches),
                "notes": len(self.dlog.notes),
            },
        }


def run_session(sc: Scenario) -> SessionResult:
    """Run one scenario through every layer and fuse the summary.

    The playback reported is the delivery engine's: its start, stalls and
    buffer samples.
    """
    t0 = time.perf_counter()
    events, dlog = delivery.simulate_session(
        sc.stream, sc.link, sc.technique, abandon_at_s=sc.abandon_at_s,
        seed=sc.seed,
        start_delay_s=promotion_latency(sc.radio_tech, sc.radio_cfg))
    t1 = time.perf_counter()
    buffer, qoe = playback_report(dlog, sc.stream.duration_s
                                  if sc.abandon_at_s is None else
                                  min(sc.abandon_at_s, sc.stream.duration_s))
    t2 = time.perf_counter()
    wall_end = max(dlog.playback_end_s, events[-1].t_s if events else 0.0)
    radio = simulate_radio(sc.radio_tech, events, sc.radio_cfg, sc.profile,
                           session_end_s=wall_end)
    t3 = time.perf_counter()
    summary = summarize(dlog, qoe, radio, sc.profile, wall_end)
    t4 = time.perf_counter()
    compute_ms = {"delivery": (t1 - t0) * 1e3,
                  "playback_report": (t2 - t1) * 1e3,
                  "radio": (t3 - t2) * 1e3, "energy": (t4 - t3) * 1e3}
    return SessionResult(sc, events, dlog, buffer, qoe, radio, summary,
                         compute_ms)
