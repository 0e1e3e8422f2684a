"""Flow-record ingestion and delivery-technique classification.

Works on CSV flow summaries (not raw captures): one row per wire event
with columns t_s,bytes,connection_id,direction,flags.  The classifier
mechanises the manual inference of a technique from its traffic shape:
persist probes betray single-connection buffer adaptation, silent gaps
followed by fresh connections betray the multi-connection kind, stable
sub-second chunk periods betray throttling, multi-second fixed chunk
cadences betray rate-adaptive players, and the fallback contrast is the
rate profile (flat and fast means caching, fast start then a slow plateau
means encoding-rate clocking).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import statistics
from dataclasses import field
from typing import Iterable, Optional

from .delivery import BufferTimeline, replay_arrivals
from .streams import (MutableRecord, PacketEvent, Record, StreamSpec,
                      per_packet)

log = logging.getLogger(__name__)

CSV_HEADER = ["t_s", "bytes", "connection_id", "direction", "flags"]

GAP_THRESHOLD_S = 5.0      # a data silence this long is an OFF period
CHUNK_GAP_S = 0.12         # burst separation when clustering chunks
PERIOD_COV_MAX = 0.3       # max coefficient of variation for "periodic"
MIN_TRACE_SPAN_S = 10.0

_KIND_TO_WIRE = {
    "data": ("down", ""),
    "request": ("up", ""),
    "persist_probe": ("down", "persist_probe"),
    "flow_control": ("up", "flow_control"),
}
_WIRE_TO_KIND = {v: k for k, v in _KIND_TO_WIRE.items()}


class FlowRecord(Record):
    """One packet of a flow trace, as a capture shows it."""
    t_s: float
    bytes: int
    connection_id: int
    direction: str
    flags: str = ""

    def __init__(self, t_s: float, bytes: int, connection_id: int,
                 direction: str, flags: str = ""):
        if bytes < 0:
            raise ValueError("bytes must be >= 0")
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be down/up, not {direction!r}")
        set_field = object.__setattr__
        set_field(self, "t_s", t_s)
        set_field(self, "bytes", bytes)
        set_field(self, "connection_id", connection_id)
        set_field(self, "direction", direction)
        set_field(self, "flags", flags)


class Classification(MutableRecord):
    """The technique a trace is classified as, and the evidence."""
    technique: str
    confidence: float
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"technique": self.technique,
                           "confidence": round(self.confidence, 3),
                           "evidence": self.evidence},
                          indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Ingestion and export
# --------------------------------------------------------------------------

def ingest_text(text: str, source: str = "<string>") -> list[FlowRecord]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return []
    if [c.strip() for c in rows[0]] != CSV_HEADER:
        raise ValueError(
            f"{source}: line 1: expected header {','.join(CSV_HEADER)}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ValueError(f"{source}: line {lineno}: expected 5 fields, "
                             f"got {len(row)}")
        try:
            records.append(FlowRecord(
                t_s=float(row[0]), bytes=int(float(row[1])),
                connection_id=int(row[2]), direction=row[3].strip(),
                flags=row[4].strip()))
        except ValueError as exc:
            raise ValueError(f"{source}: line {lineno}: {exc}") from None
    if any(a.t_s > b.t_s for a, b in zip(records, records[1:])):
        log.warning("%s: rows not sorted by t_s; sorting", source)
        records.sort(key=lambda r: (r.t_s, r.connection_id))
    return records


def ingest(path: str) -> list[FlowRecord]:
    """Load and validate a flow-record CSV; rows come back sorted."""
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_text(fh.read(), source=path)


def records_from_events(events: Iterable[PacketEvent]) -> list[FlowRecord]:
    """A flow record per PacketEvent; a stored run raises TypeError."""
    out = []
    for e in per_packet(events, "records_from_events"):
        direction, flags = _KIND_TO_WIRE[e.kind]
        out.append(FlowRecord(e.t_s, e.bytes, e.connection_id, direction, flags))
    return out


def records_to_events(records: Iterable[FlowRecord]) -> list[PacketEvent]:
    out = []
    for r in records:
        kind = _WIRE_TO_KIND.get((r.direction, r.flags))
        if kind is None:
            kind = "data" if r.direction == "down" else "request"
        out.append(PacketEvent(r.t_s, r.bytes, r.connection_id, kind))
    return out


def records_to_csv(records: Iterable[FlowRecord]) -> str:
    """Lossless CSV emission (times via repr round-trip)."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        lines.append(f"{r.t_s!r},{r.bytes},{r.connection_id},"
                     f"{r.direction},{r.flags}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def _cluster_bursts(data: list[FlowRecord]) -> list[tuple[float, float, float]]:
    """Group data records into bursts: (t_start, t_end, bytes)."""
    bursts = []
    start = end = data[0].t_s
    total = float(data[0].bytes)
    for r in data[1:]:
        if r.t_s - end > CHUNK_GAP_S:
            bursts.append((start, end, total))
            start, total = r.t_s, 0.0
        end = r.t_s
        total += r.bytes
    bursts.append((start, end, total))
    return bursts


def _rate_over(data: list[FlowRecord], a: float, b: float) -> float:
    nbytes = sum(r.bytes for r in data if a <= r.t_s <= b)
    return nbytes * 8.0 / (b - a) if b > a else 0.0


def classify(records: list[FlowRecord],
             encoding_rate_bps: Optional[float] = None) -> Classification:
    """Guess the delivery technique behind a flow trace.

    encoding_rate_bps, when known, sharpens the throttle-factor estimate
    and the encoding-rate-vs-caching split; without it the factor stays
    unreported (downlink bytes alone cannot identify it).
    """
    if not records:
        raise ValueError("empty trace")
    span = records[-1].t_s - records[0].t_s
    if span < MIN_TRACE_SPAN_S:
        raise ValueError(f"trace spans {span:.1f}s; need at least "
                         f"{MIN_TRACE_SPAN_S:.0f}s of records")
    data = [r for r in records if r.direction == "down" and not r.flags
            and r.bytes > 0]
    if not data:
        raise ValueError("trace has no downlink data records")
    evidence: dict = {"span_s": round(span, 3),
                      "connections": len({r.connection_id for r in records})}

    probes = [r for r in records if r.flags in ("persist_probe", "flow_control")]
    gaps = [(a, b) for a, b in zip(data, data[1:])
            if b.t_s - a.t_s > GAP_THRESHOLD_S]
    new_conn_gaps = [g for g in gaps
                     if g[1].connection_id != g[0].connection_id]

    if probes:
        evidence["probe_count"] = len(probes)
        probe_times = sorted(r.t_s for r in records
                             if r.flags == "persist_probe")
        if len(probe_times) > 1:
            evidence["max_probe_gap_s"] = round(
                max(b - a for a, b in zip(probe_times, probe_times[1:])), 3)
        if gaps:
            evidence["off_durations_s"] = [
                round(b.t_s - a.t_s, 1) for a, b in gaps][:20]
        conf = 0.9
        if new_conn_gaps:
            conf = 0.6
            evidence["also_matched"] = "on_off_m"
        return Classification("on_off_s", conf, evidence)

    if new_conn_gaps:
        offs = [b.t_s - a.t_s for a, b in new_conn_gaps]
        evidence["off_durations_s"] = [round(o, 1) for o in offs][:20]
        evidence["median_off_s"] = round(statistics.median(offs), 2)
        return Classification("on_off_m", 0.9, evidence)

    bursts = _cluster_bursts(data)
    if len(bursts) >= 6:
        # the opening fast-start burst is not part of the steady cadence
        periods = [b[0] - a[0] for a, b in zip(bursts[1:], bursts[2:])]
        med = statistics.median(periods)
        cov = (statistics.pstdev(periods) / statistics.mean(periods)
               if statistics.mean(periods) > 0 else math.inf)
        evidence["chunk_period_s"] = round(med, 3)
        evidence["chunk_period_cov"] = round(cov, 3)
        evidence["chunk_count"] = len(bursts)
        if cov < PERIOD_COV_MAX:
            if med <= 2.0:
                # skip the fast-start window when estimating the pace
                t0, t1 = records[0].t_s, records[-1].t_s
                steady = _rate_over(data, t0 + 0.4 * span, t1)
                evidence["steady_rate_bps"] = round(steady)
                if encoding_rate_bps:
                    factor = steady / encoding_rate_bps
                    evidence["estimated_factor"] = round(factor, 3)
                return Classification("throttling", 0.85, evidence)
            if med <= 20.0:
                return Classification("rate_adaptive", 0.85, evidence)

    # single sustained transfer: contrast the opening rate with the plateau
    t0, t1 = data[0].t_s, data[-1].t_s
    head = _rate_over(data, t0, t0 + max(3.0, 0.05 * span))
    mid = _rate_over(data, t0 + 0.4 * (t1 - t0), t0 + 0.9 * (t1 - t0))
    ratio = mid / head if head > 0 else 1.0
    evidence["head_rate_bps"] = round(head)
    evidence["plateau_rate_bps"] = round(mid)
    if encoding_rate_bps:
        if abs(mid - encoding_rate_bps) <= 0.15 * encoding_rate_bps:
            return Classification("encoding_rate", 0.85, evidence)
        if mid > 1.5 * encoding_rate_bps:
            return Classification("fast_caching", 0.85, evidence)
    if ratio < 0.7:
        return Classification("encoding_rate", 0.85, evidence)
    evidence["flat_rate"] = True   # full speed from the first byte onwards
    return Classification("fast_caching", 0.8, evidence)


def estimate_buffer(records: list[FlowRecord], encoding_rate_bps: float,
                    joining_time_s: Optional[float] = None
                    ) -> BufferTimeline:
    """Reconstruct playback-buffer occupancy from a flow trace: its data
    arrivals, as a stream of their total size, played through the
    delivery engine's buffer.  Playback starts at joining_time_s or, by
    default, once the buffer holds the start threshold."""
    arrivals = [e for e in records_to_events(records) if e.kind == "data"]
    total = sum(e.bytes for e in arrivals)
    if total <= 0:
        raise ValueError("trace has no downlink data records")
    stream = StreamSpec(duration_s=total * 8.0 / encoding_rate_bps,
                        encoding_rate_bps=encoding_rate_bps)
    return replay_arrivals(arrivals, stream, joining_time_s).playback
