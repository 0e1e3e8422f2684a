"""Spans kept in memory, and the timing wrappers of the traced run.

Every pass records spans (name, start, end, parent) from the benchmark's own
code: the pass itself, each ``cli.main`` call and the benchmark's own checks.
A traced pass also swaps each layer's public function for a timing wrapper
on the module attribute its caller looks up, and restores it afterwards.

The ``streams`` lookups are leaf calls made 10^4 to 10^5 times per session,
so they get no span each: their time is added to the enclosing span and
their calls are counted.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from streamsim import analysis, cli, delivery, playback, session
from streamsim.streams import LinkModel, StreamSpec

ROOT = "pass"
EXCLUDED = "bench"   # the benchmark's own checks and counting, not program time

_NAME, _START, _END, _PARENT, _LEAF = range(5)


class Tracer:
    """Spans of one pass, plus the counters its wrappers fill."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, leaf_s]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.in_leaf = False

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, self.clock(), 0.0, parent, 0.0])

    def close(self) -> None:
        self.spans[self.stack.pop()][_END] = self.clock()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_times(self) -> tuple[float, dict[str, float], float]:
        """(pass seconds, self seconds per span name, streams seconds).

        A span's self time is its duration minus its child spans and the
        streams lookups made directly inside it.  Excluded spans, and
        everything inside them, count toward neither the pass nor a layer.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        excluded = [False] * len(spans)
        skipped = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            excluded[i] = name == EXCLUDED or (parent >= 0 and excluded[parent])
            if parent >= 0:
                child[parent] += end - start
                if name == EXCLUDED and not excluded[parent]:
                    skipped += end - start
        selfs: dict[str, float] = {}
        leaf = 0.0
        for i, (name, start, end, _, leaf_s) in enumerate(spans):
            if excluded[i]:
                continue
            selfs[name] = selfs.get(name, 0.0) + (end - start) - child[i] - leaf_s
            leaf += leaf_s
        root = spans[0]
        return root[_END] - root[_START] - skipped, selfs, leaf

    def dump(self) -> list:
        """Spans as JSON-ready rows: name, start, end, parent, streams_s."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, leaf] for n, s, e, p, leaf in self.spans]


def _timed(tracer: Tracer, name: str, fn, count=None):
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if count is not None:
            tracer.open(EXCLUDED)
            try:
                count(tracer.counts, args, result)
            finally:
                tracer.close()
        return result
    traced.__wrapped__ = fn
    return traced


def _leaf(tracer: Tracer, counter: str, fn):
    # Nested lookups (transfer_time calls bandwidth_at) are counted but
    # timed only once, by the outermost call.
    def traced(*args, **kwargs):
        tracer.counts[counter] += 1
        if tracer.in_leaf:
            return fn(*args, **kwargs)
        tracer.in_leaf = True
        t0 = tracer.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.spans[tracer.stack[-1]][_LEAF] += tracer.clock() - t0
            tracer.in_leaf = False
    traced.__wrapped__ = fn
    return traced


def _count_delivery(counts, args, result):
    events, dlog = result
    counts["delivery.events"] += len(events)
    counts["delivery.data_events"] += sum(1 for e in events if e.kind == "data")
    counts["delivery.log_records"] += len(dlog.records)
    counts["delivery.connections"] += dlog.connections_opened


def _count_buffer(counts, args, result):
    counts["playback.buffer_samples"] += len(result.samples)


def _count_radio(counts, args, result):
    counts["radio.intervals"] += len(result.intervals)


def _count_sweep_session(counts, args, result):
    counts["analysis.sessions"] += 1


def _count_artifact(counts, args, result):
    counts["cli.artifact_bytes"] += len(args[1].encode("utf-8"))


# (owner, attribute the caller looks up, span name, counter)
LAYERS = (
    (cli, "load_scenario", "scenario.parse", None),
    (cli, "_write_atomic", "cli.write", _count_artifact),
    (cli, "run_session", "session", None),
    (analysis, "run_session", "session", _count_sweep_session),
    (session, "run_session", "session", None),
    (analysis, "abandonment_sweep", "analysis", None),
    (analysis, "buffer_size_sweep", "analysis", None),
    (playback, "joining_time", "playback.join", None),
    (delivery, "simulate_session", "delivery", _count_delivery),
    (playback, "compute_buffer", "playback.buffer", _count_buffer),
    (playback, "detect_stalls", "playback.stalls", None),
    (session, "simulate_radio", "radio", _count_radio),
    (session, "summarize", "energy.summary", None),
)
STREAMS = (
    (LinkModel, "bandwidth_at", "streams.link_lookups"),
    (LinkModel, "next_change_after", "streams.link_lookups"),
    (LinkModel, "bytes_capacity", "streams.link_lookups"),
    (LinkModel, "transfer_time", "streams.link_lookups"),
    (StreamSpec, "seconds_for_bytes", "streams.content_lookups"),
    (StreamSpec, "bytes_for_content", "streams.content_lookups"),
)

# span name -> per-layer self-time metric, for layers on every workload's path
SELF_TIME_METRICS = {
    "delivery": "delivery.ms",
    "playback.join": "playback.join_ms",
    "playback.buffer": "playback.buffer_ms",
    "playback.stalls": "playback.stalls_ms",
    "radio": "radio.ms",
    "energy.summary": "energy.summary_ms",
    "session": "session.self_ms",
    "scenario.parse": "scenario.parse_ms",
}
# The same for the front-end layers, which some workloads never enter: they
# are printed, not put in the result, where they would be a constant 0.
FRONTEND_TIME_METRICS = {
    "analysis": "analysis.self_ms",
    "cli.main": "cli.self_ms",
    "cli.write": "cli.write_ms",
}
STREAMS_METRIC = "streams.ms"
COUNT_METRICS = {
    "delivery.events": "count",
    "delivery.data_events": "count",
    "delivery.log_records": "count",
    "delivery.connections": "count",
    "playback.buffer_samples": "count",
    "radio.intervals": "count",
    "streams.link_lookups": "count",
    "streams.content_lookups": "count",
    "analysis.sessions": "count",
    "cli.artifact_bytes": "B",
}


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the old values after."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrumented(tracer: Tracer):
    """Context in which every layer in LAYERS and STREAMS is timed.

    A layer the program no longer has is skipped: its metrics read zero.
    """
    reps = [(owner, attr, _timed(tracer, name, getattr(owner, attr), count))
            for owner, attr, name, count in LAYERS if hasattr(owner, attr)]
    reps += [(cls, attr, _leaf(tracer, counter, getattr(cls, attr)))
             for cls, attr, counter in STREAMS if hasattr(cls, attr)]
    return patched(reps)
