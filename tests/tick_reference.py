"""Frozen per-tick delivery engine and per-event buffer model.

This is the delivery engine as it was before it became event-driven: it
steps every transfer in EVENT_TICK_S ticks and returns a plain list of
PacketEvents, one per tick.  compute_buffer below is the matching
per-event buffer model, detect_stalls the walk over its samples that
found stalls before timelines carried their playback's own, and
simulate_radio_per_packet the radio machines as they were before they
coalesced bursts: every packet is a run of its own.  expand_ticks reads
the engine's stored runs as the per-tick list the frozen engine returns.
The equivalence tests run the same scenarios through both and compare
the outputs; nothing under src/ imports this.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from streamsim import delivery
from streamsim.delivery import TIE_S, BufferSample
from streamsim.playback import JOIN_FAILURE_S, BufferTimeline, QoeReport
from streamsim.profiles import PowerProfile
from streamsim.radio import (HspaRrcConfig, LteDrxConfig, RadioInterval,
                             RadioTimeline, WifiPsmConfig, wifi_sleep_current)
from streamsim.streams import (FLOW_CONTROL_BYTES, PROBE_BYTES,
                               REQUEST_BYTES, ChunkTrain, LinkModel,
                               PacketEvent, StreamSpec, TransferSpan,
                               event_order, per_packet)
from streamsim.techniques import (EncodingRate, FastCaching, Hls, Mss, OnOffM,
                                  OnOffS, FASTSTART_TARGET_S,
                                  RESUME_THRESHOLD_S, START_THRESHOLD_S,
                                  Technique, Throttling)

EVENT_TICK_S = 0.05   # transfer emission quantum (wall seconds)

_EPS = 1e-9


@dataclass
class LogRecord:
    t_s: float
    event: str
    connection_id: int
    bytes: float
    buffer_s_after: float


@dataclass
class DeliveryLog:
    """Session-level record of what the delivery layer did."""
    records: list[LogRecord] = field(default_factory=list)
    on_spans: list[tuple[float, float]] = field(default_factory=list)
    off_spans: list[tuple[float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    connections_opened: int = 0
    playback_start_s: Optional[float] = None
    bytes_delivered: float = 0.0      # data bytes on the wire (incl. re-requests)
    bytes_consumed: float = 0.0
    bytes_buffered_end: float = 0.0
    bytes_wasted: float = 0.0         # keyframe re-requests + quality discards
    overhead_bytes: float = 0.0       # requests, probes, window updates
    content_delivered_s: float = 0.0
    content_consumed_s: float = 0.0
    stall_total_s: float = 0.0
    quality_switches: list[tuple[float, str, str]] = field(default_factory=list)

    CSV_HEADER = "t_s,event,connection_id,bytes,buffer_s_after"

    def to_csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.t_s:.6f},{r.event},{r.connection_id},"
                         f"{r.bytes:.1f},{r.buffer_s_after:.6f}")
        return lines

    def steady_off_durations(self) -> list[float]:
        return [b - a for a, b in self.off_spans]


class _Buffer:
    """FIFO of buffered content segments [seconds, bytes].

    Per-segment byte rates keep byte conservation exact for rate-adaptive
    sessions where buffered seconds were fetched at different rung rates.
    """

    def __init__(self):
        self.segments: deque[list[float]] = deque()
        self.seconds = 0.0
        self.bytes = 0.0

    def push(self, seconds: float, nbytes: float) -> None:
        if seconds <= 0:
            return
        self.segments.append([seconds, nbytes])
        self.seconds += seconds
        self.bytes += nbytes

    def consume(self, seconds: float) -> float:
        """Remove seconds of content, returning the bytes they held."""
        taken = 0.0
        left = seconds
        while left > _EPS and self.segments:
            seg = self.segments[0]
            if seg[0] <= left + _EPS:
                left -= seg[0]
                taken += seg[1]
                self.seconds -= seg[0]
                self.bytes -= seg[1]
                self.segments.popleft()
            else:
                frac = left / seg[0]
                b = seg[1] * frac
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
            if abandon_at_s > stream.duration_s + _EPS:
                raise ValueError("abandon_at_s exceeds the stream duration")
            self.watch_end_s = min(abandon_at_s, stream.duration_s)

        self.t = 0.0
        self.events: list[PacketEvent] = []
        self.log = DeliveryLog()
        self.buf = _Buffer()
        self.delivered_content_s = 0.0
        self.start_at: Optional[float] = None
        self.playback_start: Optional[float] = None
        self.stalled = False
        self.stall_since = 0.0
        self.finished = self.watch_end_s <= 0
        self.starved = False      # link died with no recovery ahead
        self.rng = random.Random(seed)
        self._conn_seq = -1
        self._on_since: Optional[float] = None
        self._off_since: Optional[float] = None

    # -- playback clock ----------------------------------------------------

    @property
    def content_remaining_s(self) -> float:
        return self.stream.duration_s - self.delivered_content_s

    def advance(self, to_t: float) -> None:
        """Move the wall clock forward: start playback once its start is
        due, and consume buffer while playing."""
        if (self.playback_start is None and self.start_at is not None
                and self.start_at <= to_t):
            self.t = max(self.t, self.start_at)
            self.playback_start = self.log.playback_start_s = self.t
        while to_t > self.t + _EPS:
            if self.playback_start is None or self.stalled or self.finished:
                self.t = to_t
                return
            playable = min(self.buf.seconds,
                           self.watch_end_s - self.log.content_consumed_s)
            dt = min(to_t - self.t, playable)
            if dt > 0:
                got = self.buf.consume(dt)
                self.log.content_consumed_s += dt
                self.log.bytes_consumed += got
                self.t += dt
            if (self.log.content_consumed_s >= self.watch_end_s - 1e-6
                    or (self.content_remaining_s <= 1e-3
                        and self.buf.seconds <= _EPS)):
                self.finished = True
            elif self.buf.seconds <= _EPS and self.t < to_t - _EPS:
                self.stalled = True
                self.stall_since = self.t

    def _post_arrival(self) -> None:
        if self.playback_start is None:
            if (self.start_at is None
                    and self.buf.seconds >= self.start_threshold_s - _EPS):
                self.start_at = self.t + self.start_delay_s
                self.advance(self.t)
        elif self.stalled and (
                self.buf.seconds >= self.resume_threshold_s - _EPS
                or self.content_remaining_s <= 1e-3):
            self.stalled = False
            self.log.stall_total_s += self.t - self.stall_since

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
        self.log.records.append(
            LogRecord(self.t, event, conn, nbytes, self.buf.seconds))

    def _emit(self, conn: int, nbytes: float, kind: str) -> None:
        self.events.append(PacketEvent(self.t, int(round(nbytes)), conn, kind))
        if kind == "data":
            self.log.bytes_delivered += nbytes
        else:
            self.log.overhead_bytes += nbytes
        self._record(kind, conn, nbytes)

    def emit_probe(self, conn: int) -> None:
        self._emit(conn, PROBE_BYTES, "persist_probe")
        self._emit(conn, FLOW_CONTROL_BYTES, "flow_control")

    def deliver(self, conn: int, rate_cap_bps, nbytes: Optional[float] = None,
                until: Optional[Callable[[], bool]] = None,
                content_rate_bps: Optional[float] = None,
                enter_buffer: bool = True) -> float:
        """Transfer content on conn until a byte budget, a predicate, the
        end of the content, or the end of the watch session.

        rate_cap_bps may be a float or a zero-argument callable evaluated at
        each tick.  Returns the bytes moved by this call.
        """
        rate_of = rate_cap_bps if callable(rate_cap_bps) else (lambda: rate_cap_bps)
        crate = content_rate_bps or self.stream.encoding_rate_bps
        moved = 0.0
        budget = math.inf if nbytes is None else nbytes
        while not self.finished:
            if budget - moved <= 0.5:
                break
            if until is not None and until():
                break
            if enter_buffer and self.content_remaining_s <= 1e-3:
                break
            rate = min(self.link.bandwidth_at(self.t), rate_of())
            boundary = self.link.next_change_after(self.t)
            if rate <= 0:
                if boundary is math.inf:
                    self.log.notes.append("link starved with no recovery")
                    self.starved = True
                    break
                self.advance(boundary)
                continue
            dt = min(self.tick_s, boundary - self.t)
            if dt <= 1e-9:
                # float sliver left before a segment boundary: hop over it
                dt = min(self.tick_s, 1e-6)
            step = rate * dt / 8.0
            if enter_buffer:
                step = min(step, self.content_remaining_s * crate / 8.0)
            step = min(step, budget - moved)
            dt = step * 8.0 / rate
            self.advance(self.t + dt)
            if enter_buffer:
                secs = step * 8.0 / crate
                self.buf.push(secs, step)
                self.delivered_content_s += secs
                self.log.content_delivered_s += secs
            self._emit(conn, step, "data")
            self._post_arrival()
            moved += step
        return moved

    def deliver_aux(self, conn: int, nbytes: float) -> float:
        """Move bytes that never enter the playback buffer (re-downloaded
        keyframe fragments, interleaved audio counted as consumed on
        arrival)."""
        return self.deliver(conn, math.inf, nbytes=nbytes, enter_buffer=False)

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

    def finalize(self) -> tuple[list[PacketEvent], DeliveryLog]:
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
            while not self.finished:
                if self.stalled:
                    # below the resume threshold with no arrivals coming
                    self.log.notes.append(
                        "session ends stalled: content underrun")
                    break
                playable = min(self.buf.seconds,
                               self.watch_end_s - self.log.content_consumed_s)
                if playable <= _EPS:
                    self.stalled = True
                    self.stall_since = self.t
                    self.log.notes.append(
                        "session ends stalled: content underrun")
                    break
                self.advance(self.t + playable)
        if self.stalled:
            self.log.stall_total_s += self.t - self.stall_since
            self.stalled = False
        self.log.bytes_buffered_end = self.buf.bytes
        delivered = self.log.bytes_delivered
        accounted = (self.log.bytes_consumed + self.log.bytes_buffered_end
                     + self.log.bytes_wasted)
        if delivered > 0 and abs(delivered - accounted) > max(2.0, 1e-6 * delivered):
            raise AssertionError(
                f"byte conservation broken: delivered={delivered:.1f} "
                f"consumed+buffered+wasted={accounted:.1f}")
        self.events.sort(key=event_order)
        return self.events, self.log


# --------------------------------------------------------------------------
# Technique drivers
# --------------------------------------------------------------------------

def _run_encoding_rate(eng: _Engine, tech: EncodingRate) -> None:
    conn = eng.open_connection()
    eng.wait_until(eng.link.rtt_s)
    eng.mark_on()
    eng.deliver(conn, math.inf,
                until=lambda: eng.buf.seconds >= tech.faststart_target_s)
    r = eng.stream.encoding_rate_bps

    def window_rate() -> float:
        # Receive window closed at the target: sender is clocked to the
        # consumption rate; any deficit reopens the window fully.
        if eng.buf.seconds >= tech.faststart_target_s - 0.5:
            return r
        return math.inf

    eng.deliver(conn, window_rate)
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
    eng.deliver(conn, math.inf,
                until=lambda: eng.buf.seconds >= tech.faststart_target_s)
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
        next_due = eng.t
        while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
            eng.wait_until(next_due)
            if eng.finished:
                break
            chunk = tech.chunk_bytes
            if tech.chunk_jitter:
                chunk *= eng.rng.uniform(0.5, 1.5)
            eng.deliver(conn, math.inf, nbytes=chunk)
            next_due = max(next_due + chunk * 8.0 / rate, eng.t)
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
            t_end = (max(eng.t, eng.start_at)
                     + max(eng.buf.seconds - tech.lower_s, 0.0))
        t_next = min(next_probe, next_ka)
        if t_end <= t_next + _EPS:
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
    eng.deliver(conn, math.inf,
                until=lambda: (eng.buf.seconds >= tech.faststart_target_s
                               or eng.buf.bytes >= tech.upper_bytes))
    while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
        eng.deliver(conn, math.inf,
                    until=lambda: eng.buf.bytes >= tech.upper_bytes)
        if eng.finished or eng.content_remaining_s <= 1e-3:
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
    eng.deliver(conn, math.inf,
                until=lambda: eng.buf.seconds >= tech.upper_s)
    if degenerate:
        def window_rate() -> float:
            return r if eng.buf.seconds >= tech.upper_s - 0.5 else math.inf
        eng.deliver(conn, window_rate)
        eng.close_connection(conn)
        return
    eng.close_connection(conn)
    while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
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
        eng.deliver(conn, on_rate,
                    until=lambda: eng.buf.seconds >= tech.upper_s)
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
    while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
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
        if eng.finished or eng.content_remaining_s <= 1e-3:
            break
        fetch_chunk()
        if tech.audio_video_split:
            fetch_audio()
    # steady state: the buffer target gates each request, which spaces the
    # chunks one chunk duration apart while content drains at unit rate
    target = tech.initial_chunks * tech.chunk_s
    while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
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

    while (not eng.finished and eng.content_remaining_s > 1e-3
           and eng.buf.seconds < tech.startup_buffer_s):
        fetch_video()
    while not eng.finished and eng.content_remaining_s > 1e-3 and not eng.starved:
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
                     ) -> tuple[list[PacketEvent], DeliveryLog]:
    """Simulate one streaming session and return its wire events and log.

    Events end when the content is fully delivered or the viewer walks away
    after abandon_at_s seconds of watched content; a link slower than the
    encoding rate still simulates (stalls are the playback layer's concern).
    Playback starts start_delay_s after the buffer first holds
    start_threshold_s.
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
        ) -> tuple[list[PacketEvent], DeliveryLog]:
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
            eng.deliver(conn, math.inf, until=lambda: (
                eng.buf.seconds >= FASTSTART_TARGET_S
                or eng.buf.bytes >= buffer_bytes))
            first = False
        eng.deliver(conn, rate, until=lambda: eng.buf.bytes >= buffer_bytes)
        pos = eng.log.bytes_consumed + eng.buf.bytes
        eng.close_connection(conn)
        if eng.finished or pos >= size - 1.0:
            break
        eng.mark_off()
        target_bytes = max(eng.buf.bytes - free, 0.0)
        eng.wait_drain_to_seconds(target_bytes / stream.bytes_per_second)
    return eng.finalize()


# --------------------------------------------------------------------------
# Per-event buffer model
# --------------------------------------------------------------------------

def compute_buffer(arrivals: Iterable[PacketEvent], stream: StreamSpec,
                   joining_time_s: float,
                   resume_threshold_s: float = RESUME_THRESHOLD_S,
                   watch_end_s: Optional[float] = None) -> BufferTimeline:
    """Build the playback-buffer timeline from data arrivals.

    Only data events feed the buffer.  The buffer is clipped at zero: when
    it empties during playback, consumption halts until the resume
    threshold is met again, and the zero span shows up in the samples.
    watch_end_s bounds consumption for abandoned sessions.
    """
    data = sorted((e for e in per_packet(arrivals, "compute_buffer")
                   if e.kind == "data"),
                  key=lambda e: e.t_s)
    prev_t = 0.0
    for e in data:
        if e.t_s < prev_t - _EPS:
            raise ValueError("arrivals must be sorted by time")
        prev_t = e.t_s
    join = joining_time_s
    watched = stream.duration_s if watch_end_s is None else min(
        watch_end_s, stream.duration_s)

    tl = BufferTimeline(join, 0.0, watched,
                        resume_threshold_s=resume_threshold_s)
    samples = tl.samples
    state = {"t": 0.0, "fill": 0.0, "play": 0.0, "started": False,
             "stalled": False, "done_at": None}

    def emit() -> None:
        buffered = max(state["fill"] - state["play"], 0.0)
        samples.append(BufferSample(
            state["t"], buffered,
            max(stream.bytes_for_content(state["play"], state["fill"]), 0.0)))

    def drain_to(to_t: float) -> None:
        while state["t"] < to_t - 1e-12:
            if not state["started"]:
                if math.isinf(join) or to_t < join:
                    state["t"] = to_t
                    return
                state["t"] = join
                state["started"] = True
                if state["fill"] - state["play"] <= _EPS:
                    state["stalled"] = True
                emit()
                continue
            if state["done_at"] is not None or state["stalled"]:
                state["t"] = to_t
                return
            span = min(to_t - state["t"],
                       state["fill"] - state["play"],
                       watched - state["play"])
            if span > 0:
                state["play"] += span
                state["t"] += span
            if state["play"] >= watched - 1e-9:
                state["done_at"] = state["t"]
                emit()
                state["t"] = to_t
                return
            if state["fill"] - state["play"] <= _EPS:
                if state["t"] < to_t - 1e-12:
                    state["stalled"] = True
                    emit()
                else:
                    return

    emit()
    for e in data:
        drain_to(e.t_s)
        if state["done_at"] is not None:
            break
        state["fill"] = min(
            state["fill"] + stream.seconds_for_bytes(state["fill"], e.bytes),
            stream.duration_s)
        if (state["stalled"]
                and state["fill"] - state["play"] >= resume_threshold_s - 1e-9):
            state["stalled"] = False
        emit()

    if state["done_at"] is None and not math.isinf(join):
        drain_to(max(state["t"], join) + _EPS)
        if not state["stalled"]:
            drain_to(state["t"] + max(state["fill"] - state["play"], 0.0) + _EPS)

    completed = state["done_at"] is not None
    if completed:
        end = state["done_at"]
    elif math.isinf(join):
        end = watched
    else:
        # unresolved stall: close the timeline at the nominal horizon
        end = join + watched + _zero_span_total(samples, after=join)
    tl.playback_end_s = end
    tl.completed = completed
    if not samples or samples[-1].t_s < end - _EPS:
        buffered = 0.0 if not completed else max(
            state["fill"] - state["play"], 0.0)
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


# --------------------------------------------------------------------------
# Per-packet radio machines
# --------------------------------------------------------------------------

class _RadioBuilder:
    """Accumulates (state, current) spans and merges adjacent equal ones."""

    def __init__(self, technology: str):
        self.timeline = RadioTimeline(technology)
        self.t = 0.0

    def push(self, state: str, t_end: float, current_ma: float) -> None:
        if t_end <= self.t + _EPS:
            self.t = max(self.t, t_end)
            return
        ivs = self.timeline.intervals
        if ivs and ivs[-1].state == state and ivs[-1].current_ma == current_ma:
            ivs[-1] = RadioInterval(state, ivs[-1].t_start_s, t_end, current_ma)
        else:
            ivs.append(RadioInterval(state, self.t, t_end, current_ma))
        self.t = t_end


def _packets(events: Iterable[PacketEvent],
             session_end_s: Optional[float]) -> tuple[list, float]:
    """(t, bytes) of every packet, checked sorted, and the session end."""
    packets, prev = [], 0.0
    for i, ev in enumerate(per_packet(events, "simulate_radio_per_packet")):
        if ev.t_s < prev - _EPS:
            raise ValueError(f"events not sorted: event {i} at t={ev.t_s}")
        packets.append((ev.t_s, ev.bytes))
        prev = ev.t_s
    end = session_end_s if session_end_s is not None else prev
    if prev > end + _EPS:
        raise ValueError("events extend past session_end_s")
    return packets, end


def _wifi(packets, end, cfg: WifiPsmConfig, profile: PowerProfile):
    tail_s = cfg.tail_ms / 1000.0
    sleep_ma = wifi_sleep_current(cfg, profile)
    sleep_state = "sleep" if cfg.sleep_current_applies else "idle_tail"
    if not cfg.sleep_current_applies:
        sleep_ma = profile.wifi_idle_tail
    b = _RadioBuilder("wifi")
    i, n = 0, len(packets)
    while i < n:
        # burst: consecutive packets with gaps <= tail
        j = i
        while j + 1 < n and packets[j + 1][0] - packets[j][0] <= tail_s + _EPS:
            j += 1
        b.push(sleep_state, min(packets[i][0], end), sleep_ma)
        b.push("active", min(packets[j][0], end), profile.wifi_active)
        b.push("idle_tail", min(packets[j][0] + tail_s, end),
               profile.wifi_idle_tail)
        i = j + 1
    b.push(sleep_state, end, sleep_ma)
    return b.timeline


def _hspa_chain(cfg: HspaRrcConfig, from_state: str) -> list:
    inf = float("inf")
    if from_state == "dch":
        if cfg.fd_timer_s is not None:
            if cfg.fd_target == "idle":
                return [("dch", cfg.fd_timer_s), ("idle", inf)]
            return [("dch", cfg.fd_timer_s), ("pch", cfg.t3_s), ("idle", inf)]
        return [("dch", cfg.t1_s), ("fach", cfg.t2_s), ("pch", cfg.t3_s),
                ("idle", inf)]
    return [("fach", cfg.t2_s), ("pch", cfg.t3_s), ("idle", inf)]


def _chain_state_at(chain: list, tau: float) -> str:
    off = 0.0
    for state, dwell in chain:
        off += dwell
        if tau < off - _EPS:   # a timer counts as expired within _EPS
            return state
    return chain[-1][0]


def _hspa(packets, end, cfg: HspaRrcConfig, profile: PowerProfile):
    cur = {"dch": profile.hspa_dch, "fach": profile.hspa_fach,
           "pch": profile.hspa_pch, "idle": profile.hspa_idle}
    b = _RadioBuilder("hspa")

    def carve_gap(t_from, t_to, chain, promote_at):
        lo = t_from
        cut = t_to if promote_at is None else promote_at
        off = t_from
        for st, dwell in chain:
            hi = min(cut, off + dwell)
            if hi > lo:
                b.push(st, hi, cur[st])
                lo = hi
            off += dwell
            if off >= cut:
                break
        if promote_at is not None and t_to > promote_at:
            b.push("dch", t_to, cur["dch"])

    chain = [("idle", float("inf"))]
    gap_start = 0.0
    for t, nbytes in packets:
        t = min(t, end)
        before = _chain_state_at(chain, t - gap_start)
        promote_at = None
        if before in ("pch", "idle"):
            low_entry, off = gap_start, 0.0
            for st, dwell in chain:
                if st in ("pch", "idle"):
                    low_entry = gap_start + off
                    break
                off += dwell
            promote_at = max(t - cfg.promotion_latency_s, low_entry, b.t)
            after = "dch"
        elif before == "fach":
            after = "fach" if nbytes < cfg.fach_max_bytes else "dch"
        else:
            after = "dch"
        carve_gap(b.t, t, chain, promote_at)
        gap_start = t
        b.push(after, t, cur[after])
        chain = _hspa_chain(cfg, after)
    if packets:
        carve_gap(b.t, end, chain, None)
    else:
        b.push("idle", end, cur["idle"])
    return b.timeline


def _lte(packets, end, cfg: LteDrxConfig, profile: PowerProfile):
    inact = cfg.drx_inactivity_ms / 1000.0
    cycle = cfg.drx_cycle_ms / 1000.0
    on_s = min(profile.drx_on_overstay_ms, cfg.drx_cycle_ms) / 1000.0
    promo = cfg.promotion_latency_ms / 1000.0
    b = _RadioBuilder("lte")

    def carve_gap(t_to, rx_from, promote_at):
        cut = t_to if promote_at is None else promote_at
        idle_at = rx_from + cfg.rrc_idle_s
        b.push("rx", min(cut, rx_from + inact), profile.lte_rx)
        if not cfg.drx_enabled:
            b.push("rx", min(cut, idle_at), profile.lte_rx)
        else:
            k = 0
            while b.t + _EPS < min(cut, idle_at):
                c0 = rx_from + inact + k * cycle
                b.push("drx_on", min(cut, idle_at, c0 + on_s),
                       profile.lte_drx_on)
                b.push("drx_sleep", min(cut, idle_at, c0 + cycle),
                       profile.lte_drx_sleep)
                k += 1
        b.push("idle", cut, profile.lte_idle)
        if promote_at is not None and t_to > promote_at:
            b.push("rx", t_to, profile.lte_rx)

    last = None
    for t, _ in packets:
        t = min(t, end)
        if last is None:
            b.push("idle", max(t - promo, 0.0), profile.lte_idle)
        elif t - last >= cfg.rrc_idle_s - _EPS:
            carve_gap(t, last, max(t - promo, last + cfg.rrc_idle_s, b.t))
        else:
            carve_gap(t, last, None)
        last = t
        b.push("rx", t, profile.lte_rx)
    if last is not None:
        carve_gap(end, last, None)
    else:
        b.push("idle", end, profile.lte_idle)
    return b.timeline


def simulate_radio_per_packet(technology: str, events: Iterable[PacketEvent],
                              cfg, profile: PowerProfile,
                              session_end_s: Optional[float] = None
                              ) -> RadioTimeline:
    """The radio timeline of the per-tick events, walked packet by packet."""
    packets, end = _packets(events, session_end_s)
    machine = {"wifi": _wifi, "hspa": _hspa, "lte": _lte}[technology]
    tl = machine(packets, end, cfg, profile)
    tl.validate(end)
    return tl


# --------------------------------------------------------------------------
# Per-tick view of stored runs
# --------------------------------------------------------------------------

def packet_tick(span: TransferSpan, k: int) -> PacketEvent:
    """Tick k of span as the wire carries it."""
    return PacketEvent(span.tick_t(k), span.bytes, span.connection_id)


def log_tick(span: TransferSpan, k: int) -> delivery.LogRecord:
    """Tick k of span as the delivery log's per-tick row: its bytes and
    the buffer after it."""
    return delivery.LogRecord(span.tick_t(k), "data", span.connection_id,
                              span.nbytes, span.buffer_s + k * span.dbuffer_s)


def expand_ticks(runs: Iterable,
                 expand: Callable[[TransferSpan, int], object] = packet_tick
                 ) -> list:
    """The per-tick list that stored runs stand for: the events
    simulate_session returns (expanded by packet_tick) or a DeliveryLog's
    records (by log_tick).  A TransferSpan is its n ticks, expand(span,
    k) each, a ChunkTrain the entries of its repeats, expanded alike, and
    any other entry itself."""
    out = []
    for it in runs:
        for e in it.repeats() if isinstance(it, ChunkTrain) else (it,):
            if isinstance(e, TransferSpan):
                out += [expand(e, k) for k in range(e.n)]
            else:
                out.append(e)
    return out
