"""End-to-end session pipeline: delivery -> playback -> radio -> energy."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import MISSING, field

from . import delivery, playback
from .energy import SessionSummary, summarize
from .radio import RadioTimeline, promotion_latency, simulate_radio
from .scenario import Scenario
from .streams import ChunkTrain, MutableRecord, TransferSpan


class SessionResult(MutableRecord):
    """One session through every layer: its scenario, what each layer
    produced, and the host time each took.  events are the delivery
    engine's stored runs (see delivery.simulate_session)."""
    scenario: Scenario
    events: list
    dlog: delivery.DeliveryLog
    buffer: delivery.BufferTimeline
    qoe: playback.QoeReport
    radio: RadioTimeline
    summary: SessionSummary
    # host milliseconds spent in each layer of run_session
    compute_ms: dict[str, float] = field(default_factory=dict)

    def __init__(self, scenario: Scenario, events: list,
                 dlog: delivery.DeliveryLog, buffer: delivery.BufferTimeline,
                 qoe: playback.QoeReport, radio: RadioTimeline,
                 summary: SessionSummary,
                 compute_ms: dict[str, float] = MISSING):
        self.scenario = scenario
        self.events = events
        self.dlog = dlog
        self.buffer = buffer
        self.qoe = qoe
        self.radio = radio
        self.summary = summary
        self.compute_ms = {} if compute_ms is MISSING else compute_ms

    def artifact_texts(self) -> Iterator[tuple[str, str]]:
        """The four artifacts `streamsim simulate` writes, as (file name,
        text) pairs in the order it writes them, each made as it is read:
        the summary JSON, buffer.csv, radio_timeline.csv and
        delivery_log.csv, every line ended by "\n"."""
        yield "session_summary.json", self.summary.to_json() + "\n"
        for name, lines in (("buffer.csv", self.buffer.to_csv_lines),
                            ("radio_timeline.csv", self.radio.to_csv_lines),
                            ("delivery_log.csv", self.dlog.to_csv_lines)):
            yield name, "\n".join(lines()) + "\n"

    @property
    def stats(self) -> dict:
        """The run report: per-layer compute_ms and the work each layer
        did, as counts."""
        runs = [it for it in self.events
                if isinstance(it, (TransferSpan, ChunkTrain))]
        return {
            "compute_ms": dict(self.compute_ms),
            "counts": {
                "stored_runs": len(runs),
                "ticks": sum(s.n * getattr(it, "m", 1) for it in runs
                             for s in getattr(it, "cycle", (it,))
                             if isinstance(s, TransferSpan)),
                "log_rows": sum(1 for _ in self.dlog.rows()),
                "buffer_samples": len(self.buffer.samples),
                "radio_intervals": len(self.radio.spans()),
                "radio_runs": self.radio.n_runs,
                "connections": self.dlog.connections_opened,
                "quality_switches": len(self.dlog.quality_switches),
                "notes": len(self.dlog.notes),
            },
        }


def _last_tick_s(events: list) -> float:
    """When the runs' last tick lands (0 with none): a train's is its last
    repeat's last entry's, read as DeliveryLog.rows() reads it."""
    if not events:
        return 0.0
    last = events[-1]
    if isinstance(last, ChunkTrain):
        *_, last = last.repeats(last.m - 1)
    if isinstance(last, TransferSpan):
        return last.tick_t(last.n - 1)
    return last.t_s


def run_session(sc: Scenario) -> SessionResult:
    """Run one scenario through every layer and fuse the summary.

    The playback reported is the delivery engine's: the buffer timeline
    it wrote as the log's playback, with its start, stalls and samples.
    """
    t0 = time.perf_counter()
    events, dlog = delivery.simulate_session(
        sc.stream, sc.link, sc.technique, abandon_at_s=sc.abandon_at_s,
        seed=sc.seed,
        start_delay_s=promotion_latency(sc.radio_tech, sc.radio_cfg))
    t1 = time.perf_counter()
    buffer = dlog.playback
    qoe = playback.detect_stalls(buffer)
    t2 = time.perf_counter()
    wall_end = max(buffer.playback_end_s, _last_tick_s(events))
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
