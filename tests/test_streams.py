import math
import random

import pytest

from conftest import link_capacity
from streamsim import LinkModel, PacketEvent, StreamSpec
from streamsim.streams import (EVENT_KINDS, ChunkTrain, TransferSpan,
                               event_order, fold_sum)


def test_stream_defaults_size_from_rate():
    s = StreamSpec(duration_s=600, encoding_rate_bps=2_000_000)
    assert s.size_bytes == 600 * 250_000


def test_stream_rejects_bad_fields():
    with pytest.raises(ValueError):
        StreamSpec(duration_s=0, encoding_rate_bps=1000)
    with pytest.raises(ValueError):
        StreamSpec(duration_s=10, encoding_rate_bps=-1)


def test_vbr_trace_must_integrate_to_size():
    with pytest.raises(ValueError, match="VBR"):
        StreamSpec(duration_s=100, encoding_rate_bps=1_000_000,
                   size_bytes=100 * 125_000,
                   vbr_trace=[(0.0, 2_000_000.0)])
    s = StreamSpec(duration_s=100, encoding_rate_bps=1_000_000,
                   size_bytes=100 * 125_000,
                   vbr_trace=[(0.0, 500_000.0), (50.0, 1_500_000.0)])
    assert s.bytes_for_content(0, 50) == pytest.approx(50 * 62_500)
    assert s.bytes_for_content(50, 100) == pytest.approx(50 * 187_500)


def test_vbr_seconds_for_bytes_inverts_bytes_for_content():
    s = StreamSpec(duration_s=100, encoding_rate_bps=1_000_000,
                   size_bytes=100 * 125_000,
                   vbr_trace=[(0.0, 500_000.0), (50.0, 1_500_000.0)])
    for a, span in [(0.0, 10.0), (40.0, 20.0), (60.0, 30.0)]:
        b = s.bytes_for_content(a, a + span)
        assert s.seconds_for_bytes(a, b) == pytest.approx(span, abs=1e-9)


def test_link_segments_validation():
    with pytest.raises(ValueError):
        LinkModel(((1.0, 100.0),))          # must start at 0
    with pytest.raises(ValueError):
        LinkModel(((0.0, 100.0), (0.0, 50.0)))   # strictly ordered
    with pytest.raises(ValueError):
        LinkModel(((0.0, -5.0),))


_LONG = tuple((0.2 * i, 5e6) for i in range(3000))


@pytest.mark.parametrize("segments, message", [
    (((0.0, 5e6), (1.0, -4.0)), "segment 1 (1.0, -4.0): bandwidth must be "
     "a finite number >= 0, not -4.0"),
    (((0.0, 5e6), (1.0, math.inf)), "segment 1 (1.0, inf): bandwidth must "
     "be a finite number >= 0, not inf"),
    (((0.0, 5e6), (1.0, math.nan)), "segment 1 (1.0, nan): bandwidth must "
     "be a finite number >= 0, not nan"),
    (((0.0, 5e6), (0.0, 4e6)), "segment 1 (0.0, 4000000.0): link segments "
     "must be strictly ordered"),
    (((0.0, 5e6), (math.nan, 3e6)), "segment 1 (nan, 3000000.0): link "
     "segments must be strictly ordered"),
    # the first bad one of many, in link order
    (_LONG[:2000] + ((1.0, 5e6),) + _LONG[2001:-1] + ((600.0, -1.0),),
     "segment 2000 (1.0, 5000000.0): link segments must be strictly "
     "ordered"),
    (_LONG[:-1] + ((600.0, -1.0),), "segment 2999 (600.0, -1.0): bandwidth "
     "must be a finite number >= 0, not -1.0"),
], ids=["negative", "inf", "nan", "tied", "nan_start", "first_of_two",
        "last_of_3000"])
def test_a_bad_link_segment_names_its_index(segments, message):
    with pytest.raises(ValueError) as exc:
        LinkModel(segments)
    assert str(exc.value) == message


def test_link_bandwidth_lookup_and_capacity():
    link = LinkModel(((0.0, 8e6), (10.0, 0.0), (20.0, 4e6)), rtt_ms=50)
    assert link.bandwidth_at(5) == 8e6
    assert link.bandwidth_at(10) == 0.0
    assert link.bandwidth_at(25) == 4e6
    assert link_capacity(link, 0, 30) == pytest.approx((8e6 * 10 + 4e6 * 10) / 8)


def test_link_transfer_time_piecewise():
    link = LinkModel(((0.0, 8e6), (10.0, 0.0), (20.0, 8e6)), rtt_ms=50)
    # 15 MB starting at t=0: 10 MB in the first 10 s, outage, rest after 20 s
    t = link.transfer_time(0.0, 15e6)
    assert t == pytest.approx(25.0)
    dead = LinkModel.constant(0.0)
    assert math.isinf(dead.transfer_time(0.0, 1.0))


def test_packet_event_invariants():
    with pytest.raises(ValueError):
        PacketEvent(-1.0, 10, 0)
    with pytest.raises(ValueError):
        PacketEvent(0.0, 10, 0, kind="nope")
    with pytest.raises(ValueError):
        PacketEvent(0.0, 500, 0, kind="persist_probe")  # control <= 100 B
    e = PacketEvent(1.0, 100, 2, "flow_control")
    assert event_order(e) < event_order(PacketEvent(1.0, 100, 3, "data"))


def test_event_order_reads_kinds_in_event_kinds_order():
    """The event list sorts by time, connection id and kind, reading
    attributes only, so the kinds' names must sort as EVENT_KINDS lists
    them; a span is data, and a train sorts as its first entry."""
    assert list(EVENT_KINDS) == sorted(EVENT_KINDS)
    probe = PacketEvent(1.0, 50, 0, "persist_probe")
    entries = [ChunkTrain((probe,), 2, 10.0, 0.0),
               PacketEvent(1.0, 50, 0, "flow_control"),
               TransferSpan(1.0, 0.05, 2, 0, 1000.0),
               PacketEvent(1.0, 500, 0, "request"),
               PacketEvent(0.5, 500, 1, "request")]
    assert [event_order(e)[1:] for e in sorted(entries, key=event_order)] \
        == [(1, "request"), (0, "data"), (0, "flow_control"),
            (0, "persist_probe"), (0, "request")]


def test_transfer_time_spans_more_than_100k_segments():
    # 1 ms segments at 8 Mbps carry 1000 B each; the transfer needs 100,000.5
    # of them, so it runs off the last segment start and finishes after it.
    link = LinkModel(tuple((i / 1000.0, 8e6) for i in range(100_001)))
    assert link.transfer_time(0.0, 100_000_500) == pytest.approx(100.0005)


@pytest.mark.parametrize("trace, match", [
    ([(0.0, 1_000_000.0), (100.0, 0.0)], r"vbr_trace\[1\]: rate"),
    ([(0.0, math.nan)], r"vbr_trace\[0\]: rate"),
    ([(0.0, 1_000_000.0), (math.inf, 1_000_000.0)], r"vbr_trace\[1\]: time"),
    # the first bad breakpoint, in trace order, and its time before its rate
    ([(0.0, 1e6), (1.0, -1.0), (math.nan, 1e6)], r"vbr_trace\[1\]: rate"),
    ([(0.0, 1e6), (math.nan, -1.0)], r"vbr_trace\[1\]: time"),
])
def test_vbr_trace_rejects_bad_breakpoints(trace, match):
    with pytest.raises(ValueError, match=match):
        StreamSpec(duration_s=100, encoding_rate_bps=1_000_000,
                   vbr_trace=trace)


# Reference lookups: the linear scans the indexed ones replaced.

def _ref_bandwidth_at(segments, t_s):
    bw = segments[0][1]
    for t0, b in segments:
        if t0 <= t_s:
            bw = b
        else:
            break
    return bw


def _ref_next_change_after(segments, t_s):
    for t0, _ in segments:
        if t0 > t_s:
            return t0
    return math.inf


def _ref_vbr_bytes_between(tr, a, b):
    total = 0.0
    for i, (t0, rate) in enumerate(tr):
        t1 = tr[i + 1][0] if i + 1 < len(tr) else max(b, t0)
        lo, hi = max(a, t0), min(b, t1)
        if hi > lo:
            total += rate * (hi - lo) / 8.0
    return total


def _ref_seconds_for_bytes(tr, from_pos_s, nbytes):
    left = nbytes
    pos = from_pos_s
    for i, (t0, rate) in enumerate(tr):
        t1 = tr[i + 1][0] if i + 1 < len(tr) else math.inf
        if t1 <= pos:
            continue
        lo = max(pos, t0)
        span_bytes = rate * (t1 - lo) / 8.0
        if span_bytes >= left or t1 is math.inf:
            return (lo - from_pos_s) + left * 8.0 / rate
        left -= span_bytes
        pos = t1
    return pos - from_pos_s


def _probe_times(rng, starts, k):
    """Boundaries, their float neighbours, points between, t < 0 and t past
    the last start, for k sampled boundaries."""
    picks = set(rng.sample(range(len(starts)), min(k, len(starts))))
    picks |= {0, len(starts) - 1}
    out = [-1.0, -1e-9, 0.0, starts[-1] + 1.0, starts[-1] * 2 + 1e6]
    for i in sorted(picks):
        t = starts[i]
        nxt = starts[i + 1] if i + 1 < len(starts) else t + 1.0
        out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
                rng.uniform(t, nxt)]
    return out


@pytest.mark.parametrize("seed, n", [(1, 1), (2, 2), (3, 7), (4, 60),
                                     (5, 500), (6, 3000)])
def test_link_lookups_equal_linear_reference(seed, n):
    rng = random.Random(seed)
    starts, t = [0.0], 0.0
    for _ in range(n - 1):
        t += rng.choice([0.2, 1.0, rng.uniform(1e-4, 30.0)])
        starts.append(t)
    segs = tuple((t0, rng.choice([0.0, 1e6, rng.uniform(1e5, 2e7)]))
                 for t0 in starts)
    link = LinkModel(segs)
    for q in _probe_times(rng, starts, 200):
        assert link.bandwidth_at(q) == _ref_bandwidth_at(segs, q)
        assert link.next_change_after(q) == _ref_next_change_after(segs, q)


@pytest.mark.parametrize("seed, n, first", [(1, 0, 0.0), (2, 1, 5.0),
                                            (3, 8, 0.0), (4, 60, 3.0),
                                            (5, 600, 0.0), (6, 600, 0.7)])
def test_vbr_lookups_equal_linear_reference(seed, n, first):
    rng = random.Random(seed)
    duration, rate = 600.0, 2_000_000.0
    times = sorted([first] + [rng.uniform(first, duration) for _ in range(n)])
    if n > 2:
        times.append(times[n // 2])          # a repeated breakpoint time
        times += [0.9 * duration + 1e-3 * m for m in range(4)]  # a 1 ms burst
    trace = [(t, rate * rng.uniform(0.5, 1.5)) for t in times]
    prepared = sorted(trace)
    if prepared[0][0] > 0:
        prepared = [(0.0, rate)] + prepared
    size = _ref_vbr_bytes_between(prepared, 0.0, duration)
    s = StreamSpec(duration_s=duration, encoding_rate_bps=rate,
                   size_bytes=size, vbr_trace=trace)
    tr = s.vbr_trace
    assert tr == prepared
    probes = _probe_times(rng, [t for t, _ in tr], 8) + [duration]
    for a in probes:
        for b in probes:                     # a > b included
            ref = _ref_vbr_bytes_between(tr, a, b)
            assert s.bytes_for_content(a, b) == pytest.approx(ref, rel=1e-12)
        for nbytes in (0.0, 1.0, rng.uniform(0, 1e6), size, 1e12,
                       _ref_vbr_bytes_between(tr, a, rng.choice(probes))):
            assert (s.seconds_for_bytes(a, nbytes)
                    == _ref_seconds_for_bytes(tr, a, nbytes))
    # Short spans over two breakpoints, all along the trace: the bytes of a
    # short segment deep into it must survive the difference of two prefixes.
    mids = [(t0 + t1) / 2 for (t0, _), (t1, _) in zip(tr, tr[1:])]
    for a, b in zip(mids, mids[2:]):
        ref = _ref_vbr_bytes_between(tr, a, b)
        assert s.bytes_for_content(a, b) == pytest.approx(ref, rel=1e-12)


# 1e5, 3e5 and 5e5 B/s to 30 s, with a zero-length segment at 20 s, then
# 2e5 B/s: every byte count and time below is exact in binary
EDGE_TRACE = [(0.0, 8e5), (10.0, 2.4e6), (20.0, 1.6e6), (20.0, 4e6),
              (30.0, 1.6e6)]


@pytest.mark.parametrize("trace, from_pos_s, nbytes, want", [
    (EDGE_TRACE, 10.0, 6e5, 2.0),            # a start on a breakpoint
    (EDGE_TRACE, 20.0, 5e5, 1.0),            # on the repeated one
    (EDGE_TRACE, 35.0, 4e5, 2.0),            # a start past the last
    (EDGE_TRACE, 15.0, 2e6, 6.0),            # over the zero-length segment
    (EDGE_TRACE, 5.0, 3.5e6, 15.0),          # to a segment's end exactly
    (EDGE_TRACE, 5.0, 8.5e6, 25.0),          # to the last breakpoint
    (EDGE_TRACE, 5.0, 9e6, 27.5),            # and on past it
    (EDGE_TRACE, 5.0, 0.0, 0.0),
    (EDGE_TRACE, 0.0, 0.0, 0.0),
    ([(0.0, 8e5)], 3.0, 2.5e5, 2.5),         # a one-breakpoint trace
    ([(0.0, 8e5)], 3.0, 0.0, 0.0),
])
def test_vbr_seconds_for_bytes_edges(trace, from_pos_s, nbytes, want):
    s = StreamSpec(duration_s=40.0, encoding_rate_bps=8e5, vbr_trace=trace,
                   size_bytes=_ref_vbr_bytes_between(sorted(trace), 0.0, 40.0))
    got = s.seconds_for_bytes(from_pos_s, nbytes)
    assert got == _ref_seconds_for_bytes(s.vbr_trace, from_pos_s, nbytes)
    assert got == want


@pytest.mark.parametrize("field,value", [
    ("duration_s", math.inf), ("duration_s", math.nan),
    ("encoding_rate_bps", math.inf), ("encoding_rate_bps", math.nan),
    ("size_bytes", math.nan), ("size_bytes", math.inf),
])
def test_stream_rejects_non_finite_fields(field, value):
    kwargs = {"duration_s": 600.0, "encoding_rate_bps": 2e6, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StreamSpec(**kwargs)


def test_link_rejects_nan_bandwidth():
    with pytest.raises(ValueError, match="bandwidth"):
        LinkModel.constant(math.nan)
    with pytest.raises(ValueError, match="bandwidth"):
        LinkModel(((0.0, 1e6), (5.0, math.nan)))


@pytest.mark.parametrize("rtt_ms,match", [
    (math.nan, "rtt_ms must be finite"), (math.inf, "rtt_ms must be finite"),
    (-1.0, "rtt_ms must be >= 0"),
])
def test_link_rejects_bad_rtt(rtt_ms, match):
    with pytest.raises(ValueError, match=match):
        LinkModel.constant(8e6, rtt_ms=rtt_ms)
    assert LinkModel.constant(8e6, rtt_ms=0.0).rtt_s == 0.0


def test_cbr_bytes_for_a_reversed_span_are_zero():
    s = StreamSpec(duration_s=600, encoding_rate_bps=2_000_000)
    assert s.bytes_for_content(10.0, 5.0) == 0.0
    assert s.bytes_for_content(5.0, 5.0) == 0.0
    assert s.bytes_for_content(5.0, 10.0) == pytest.approx(1_250_000)


@pytest.mark.parametrize("vbr", [False, True], ids=["cbr", "vbr"])
@pytest.mark.parametrize("call", [
    lambda s: s.bytes_for_content(math.nan, 3.0),
    lambda s: s.bytes_for_content(1.0, math.nan),
    lambda s: s.bytes_for_content(math.nan, math.nan),
    lambda s: s.seconds_for_bytes(math.nan, 1e5),
], ids=["from_nan", "to_nan", "both_nan", "seconds_from_nan"])
def test_a_nan_content_position_is_rejected(vbr, call):
    """A NaN position has no answer: both stream kinds raise, where a VBR
    stream raised IndexError for some and both returned NaN or a number
    for others."""
    s = StreamSpec(duration_s=40.0, encoding_rate_bps=8e5)
    if vbr:
        s = StreamSpec(duration_s=40.0, encoding_rate_bps=8e5,
                       vbr_trace=EDGE_TRACE, size_bytes=_ref_vbr_bytes_between(
                           EDGE_TRACE, 0.0, 40.0))
    with pytest.raises(ValueError, match="content position cannot be NaN"):
        call(s)
    assert s.bytes_for_content(1.0, 3.0) > 0
    assert s.seconds_for_bytes(1.0, 0.0) == 0.0


def test_fold_sum_adds_left_to_right():
    """Each addition rounded, in order, as sum() did before CPython 3.12,
    whose compensated sum() gives 1.0 here; ints stay exact ints."""
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert fold_sum(iter([1e16, 1.0, -1e16])) == 0.0
    assert fold_sum([]) == 0 and type(fold_sum([])) is int
    assert fold_sum([2**60, 1]) == 2**60 + 1
