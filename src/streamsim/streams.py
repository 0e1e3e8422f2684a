"""Stream, link and wire-event primitives shared across the simulator."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from functools import reduce
from itertools import accumulate
from operator import add, attrgetter
from typing import Callable, ClassVar, Iterable, Optional

EVENT_KINDS = ("data", "flow_control", "persist_probe", "request")
# The event list's order: time, connection id, then kind (EVENT_KINDS is in
# name order); it reads attributes, so a sort runs no Python code per entry
event_order = attrgetter("t_s", "connection_id", "kind")

# Wire sizes for control traffic.
REQUEST_BYTES = 500
PROBE_BYTES = 60
FLOW_CONTROL_BYTES = 60


def fold_sum(values: Iterable) -> float:
    """sum() as before CPython 3.12, which compensates float round-off:
    left to right, each addition rounded, so the same on every CPython."""
    return reduce(add, values, 0)


def domain(default=MISSING, *, gt=None, ge=None, le=None, inf=False):
    """A numeric config field's legal values, declared beside it: above gt
    (or at least ge), at most le when given, and finite unless inf lets
    +inf through.  As its annotation says, an Optional field also takes
    None, and an int field takes ints only.  Record checks the domain on
    every build."""
    return field(default=default, metadata={"domain": (
        ge if gt is None else gt, gt is None,
        math.inf if le is None else le, le is not None or inf)})


def _least_most(lo, lo_closed, hi, hi_closed) -> tuple[float, float]:
    """A domain's least and greatest legal value, so that one chained
    comparison checks a value: > lo is >= the float after lo, and < inf
    is <= the largest float."""
    return (lo if lo_closed else math.nextafter(lo, math.inf),
            hi if hi_closed else math.nextafter(hi, -math.inf))


def _out_of_domain(f, v) -> str:
    """What f's value v breaks, in a message that starts with f's name."""
    name, (lo, lo_closed, hi, hi_closed) = f.name, f.metadata["domain"]
    if f.type == "int" and not isinstance(v, int):
        return f"{name} must be an int, not {v!r}"
    if (isinstance(v, float) and not math.isfinite(v)
            and not (hi == math.inf and hi_closed)):
        return f"{name} must be finite, not {v!r}"
    if not (lo <= v if lo_closed else lo < v):
        return f"{name} must be {'>=' if lo_closed else '>'} {lo:g}, not {v!r}"
    return f"{name} must be {'<=' if hi_closed else '<'} {hi:g}, not {v!r}"


class Record:
    """Base of the simulator's records: the frozen config records a
    scenario is built from, and the results the engine builds.

    A subclass declares its fields as a dataclass does, with plain
    defaults or default factories, and keeps a dataclass's fields(),
    replace() and __post_init__.  Its __init__, __repr__, __eq__,
    __hash__ and frozen __setattr__ are the ones below, shared by every
    record, where a dataclass compiles its own set through exec at
    import.  They behave as a frozen dataclass's do (a MutableRecord's as
    a mutable one's), and __repr__ writes the same text.  The shared
    __init__ is several times slower per call than a generated one, so a
    record built once a session or more often writes its own; there a
    field with a default factory defaults to MISSING, which stands for a
    fresh value.  Every record class needs a docstring: without one,
    dataclass() builds one through inspect.signature.

    A numeric config field declares its domain with domain(), and the
    shared __init__ checks every domain before __post_init__, so presets,
    replace() and library callers all pass through it.  __post_init__
    keeps the rules that tie fields together.  Each error starts with the
    field it names, as in "factor must be > 1, not 1.0".  The config
    modules postpone annotations, so a field's type is its text.
    """

    def __init_subclass__(cls):
        dataclass(init=False, repr=False, eq=False)(cls)
        fs = fields(cls)
        cls._names = tuple(f.name for f in fs)
        cls._defaults = {f.name: f.default for f in fs
                         if f.default is not MISSING}
        cls._factories = {f.name: f.default_factory for f in fs
                          if f.default_factory is not MISSING}
        cls._domains = tuple(
            (f.name, *_least_most(*f.metadata["domain"]),
             f.type.startswith("Optional["), f.type == "int")
            for f in fs if "domain" in f.metadata)

    def __init__(self, *args, **kwargs):
        names = self._names
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        extra = kwargs.keys() - names[len(args):]
        if extra:
            raise TypeError(f"{type(self).__qualname__}() got an unexpected "
                            f"or repeated argument {min(extra)!r}")
        # object.__setattr__, not self.__dict__, which would turn the
        # instance's inline attribute values into a slower dict; in field
        # order, as vars() shows them
        set_field = object.__setattr__
        for name, value in zip(names, args):
            set_field(self, name, value)
        defaults, factories = self._defaults, self._factories
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs[name]
            elif name in defaults:
                value = defaults[name]
            elif name in factories:
                value = factories[name]()
            else:
                raise TypeError(f"{type(self).__qualname__}() missing "
                                f"required argument {name!r}")
            set_field(self, name, value)
        for name, least, most, optional, whole in self._domains:
            v = getattr(self, name)
            if not (v is None and optional or least <= v <= most
                    and (not whole or isinstance(v, int))):
                raise ValueError(_out_of_domain(
                    self.__dataclass_fields__[name], v))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    """A Record whose fields can be set after it is built: like a
    dataclass that is not frozen, it is unhashable."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class PacketEvent(Record):
    """One delivery event on the wire."""
    t_s: float
    bytes: int
    connection_id: int
    kind: str = "data"

    def __init__(self, t_s: float, bytes: int, connection_id: int,
                 kind: str = "data"):
        if t_s < 0:
            raise ValueError("event time must be >= 0")
        if bytes < 0:
            raise ValueError("event bytes must be >= 0")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if kind in ("flow_control", "persist_probe") and bytes > 100:
            raise ValueError("control events carry at most 100 bytes")
        set_field = object.__setattr__
        set_field(self, "t_s", t_s)
        set_field(self, "bytes", bytes)
        set_field(self, "connection_id", connection_id)
        set_field(self, "kind", kind)

    def shifted(self, dt: float, dbuffer: float, dconn: int) -> "PacketEvent":
        return PacketEvent(self.t_s + dt, self.bytes,
                           self.connection_id + dconn, self.kind)


class TransferSpan(MutableRecord):
    """n back-to-back data ticks of equal size on one connection.

    Tick k (0-based) completes at t_s + k * dt_s carrying nbytes, and the
    sender's playback buffer holds buffer_s + k * dbuffer_s seconds of
    content after it (a VBR stream's, exactly at the first and last tick).
    dt_s is the tick's transfer time, so it is also the spacing of the
    ticks.
    """
    t_s: float
    dt_s: float
    n: int
    connection_id: int
    nbytes: float
    buffer_s: float = 0.0
    dbuffer_s: float = 0.0

    kind: ClassVar[str] = "data"

    def __init__(self, t_s: float, dt_s: float, n: int, connection_id: int,
                 nbytes: float, buffer_s: float = 0.0,
                 dbuffer_s: float = 0.0):
        self.t_s = t_s
        self.dt_s = dt_s
        self.n = n
        self.connection_id = connection_id
        self.nbytes = nbytes
        self.buffer_s = buffer_s
        self.dbuffer_s = dbuffer_s

    @property
    def bytes(self) -> int:
        """Wire bytes of one tick, as its PacketEvent carries them."""
        return int(round(self.nbytes))

    @property
    def t_end_s(self) -> float:
        return self.tick_t(self.n - 1)

    def tick_t(self, k: int) -> float:
        return self.t_s + k * self.dt_s

    def event(self, k: int) -> PacketEvent:
        return PacketEvent(self.tick_t(k), self.bytes, self.connection_id)

    def shifted(self, dt: float, dbuffer: float, dconn: int) -> "TransferSpan":
        return TransferSpan(self.t_s + dt, self.dt_s, self.n,
                            self.connection_id + dconn, self.nbytes,
                            self.buffer_s + dbuffer, self.dbuffer_s)


class ChunkTrain(MutableRecord):
    """m repeats of one driver's cycle, period_s apart.

    cycle holds the entries of the first repeat: TransferSpans and the
    packets (PacketEvents) or decisions (LogRecords) of an on/off cycle.
    In repeat j each comes j * period_s later, leaves j * dbuffer_s more
    content buffered and is on a connection j * dconn further on (an id
    of -1 stays -1); repeats() builds those entries.
    """
    cycle: tuple
    m: int
    period_s: float
    dbuffer_s: float
    dconn: int = 0

    def __init__(self, cycle: tuple, m: int, period_s: float,
                 dbuffer_s: float, dconn: int = 0):
        self.cycle = cycle
        self.m = m
        self.period_s = period_s
        self.dbuffer_s = dbuffer_s
        self.dconn = dconn

    # the first entry's time, connection and kind: the event list's order
    @property
    def t_s(self) -> float:
        return self.cycle[0].t_s

    @property
    def connection_id(self) -> int:
        return self.cycle[0].connection_id

    @property
    def kind(self) -> str:
        return self.cycle[0].kind

    @property
    def t_end_s(self) -> float:
        last = self.cycle[-1]
        return getattr(last, "t_end_s", last.t_s) + (self.m - 1) * self.period_s

    @property
    def n(self) -> int:
        """Entries of the whole train in the per-tick view."""
        return self.m * sum(map(_size, self.cycle))

    def repeats(self, j0: int = 0, j1: Optional[int] = None):
        """The entries of repeats j0 .. j1 - 1, in cycle order."""
        for j in range(j0, self.m if j1 is None else j1):
            shift, db, dc = j * self.period_s, j * self.dbuffer_s, j * self.dconn
            for e in self.cycle:
                yield e.shifted(shift, db, dc)

    def tick(self, k: int) -> tuple[object, int]:
        """The entry holding entry k of the view, and k's index in it."""
        j, k = divmod(k, self.n // self.m)
        for e in self.repeats(j, j + 1):
            if k < _size(e):
                return e, k
            k -= _size(e)
        raise IndexError("tick index out of range")


def _size(it) -> int:
    """Entries a stored entry stands for in the per-tick view."""
    return it.n if isinstance(it, (TransferSpan, ChunkTrain)) else 1


class TickSeq(Sequence):
    """Read-only per-tick view of a list of runs.

    items holds single entries, TransferSpans and ChunkTrains.  A span
    stands for its n ticks, each built by expand(span, k) only when it is
    read, and a train for the entries of its repeats; expansion is
    streamed and never cached.  The view compares equal to a list (or
    another view) holding the same entries in the same order.
    """

    def __init__(self, items: list,
                 expand: Callable[[TransferSpan, int], object]):
        self.items = items
        self._expand = expand

    def __iter__(self):
        expand = self._expand
        for it in self.items:
            if isinstance(it, TransferSpan):
                for k in range(it.n):
                    yield expand(it, k)
            elif isinstance(it, ChunkTrain):
                for e in it.repeats():
                    if isinstance(e, TransferSpan):
                        for k in range(e.n):
                            yield expand(e, k)
                    else:
                        yield e
            else:
                yield it

    def __len__(self) -> int:
        return sum(map(_size, self.items))

    def __bool__(self) -> bool:   # no stored entry stands for zero ticks
        return bool(self.items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        items = self.items if index >= 0 else reversed(self.items)
        want = index if index >= 0 else -index - 1   # ticks to skip
        for it in items:
            size = _size(it)
            if want < size:
                k = want if index >= 0 else size - 1 - want
                if isinstance(it, ChunkTrain):
                    it, k = it.tick(k)
                return (self._expand(it, k) if isinstance(it, TransferSpan)
                        else it)
            want -= size
        raise IndexError("tick index out of range")

    def __eq__(self, other):
        if not isinstance(other, (TickSeq, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TickSeq({len(self)} ticks in {len(self.items)} runs)"


class StreamSpec(Record):
    """A constant- or variable-bitrate video stream.

    size_bytes defaults to duration * rate / 8.  When a VBR trace is given
    as (t_s, instantaneous_rate_bps) breakpoints, its integral over the
    duration must match size_bytes within 1%.
    """
    duration_s: float = domain(gt=0)
    encoding_rate_bps: float = domain(gt=0)
    size_bytes: Optional[float] = domain(None, gt=0)
    vbr_trace: Optional[list[tuple[float, float]]] = None
    keyframe_interval_bytes: Optional[float] = domain(None, gt=0, inf=True)

    def __post_init__(self):
        if self.size_bytes is None:
            size = self.duration_s * self.encoding_rate_bps / 8.0
            if size == math.inf:
                raise ValueError("size_bytes must be finite, not "
                                 "duration_s * encoding_rate_bps / 8 = inf")
            object.__setattr__(self, "size_bytes", size)
        if self.vbr_trace is not None:
            for i, (t, rate) in enumerate(self.vbr_trace):
                if not math.isfinite(t):
                    raise ValueError(f"vbr_trace[{i}]: time must be finite")
                if not (math.isfinite(rate) and rate > 0):
                    raise ValueError(
                        f"vbr_trace[{i}]: rate must be finite and > 0")
            tr = sorted(self.vbr_trace)
            if not tr or tr[0][0] > 0:
                tr = [(0.0, self.encoding_rate_bps)] + tr
            object.__setattr__(self, "vbr_trace", tr)
            self._index_vbr(tr)
            integral = self._vbr_bytes_between(0.0, self.duration_s)
            if abs(integral - self.size_bytes) > 0.01 * self.size_bytes:
                raise ValueError(
                    f"VBR trace integrates to {integral:.0f} B, "
                    f"size_bytes is {self.size_bytes:.0f} B (>1% apart)")

    def _index_vbr(self, tr: list[tuple[float, float]]) -> None:
        """Index the sorted trace from t=0 for lookups by bisection.

        Content starts at 0, so breakpoints at or before 0 collapse into
        the rate in effect at 0.  Segment k holds seg[k] bytes, and the
        bytes in [0, times[k]] are cum[k] + err[k]: each prefix sum carries
        its exact rounding error (TwoSum), so the difference of two nearby
        prefixes deep into a long trace keeps full relative precision.
        """
        times = [t for t, _ in tr]
        k0 = bisect_right(times, 0.0) - 1
        times = [0.0] + times[k0 + 1:]
        rates = [rate for _, rate in tr[k0:]]
        seg = [r * (b - a) / 8.0 for r, a, b in zip(rates, times, times[1:])]
        cum, e, err = list(accumulate(seg, initial=0.0)), 0.0, [0.0]
        for a, s, x in zip(cum, cum[1:], seg):
            bv = s - a
            e += (a - (s - bv)) + (x - bv)
            err.append(e)
        object.__setattr__(self, "_vbr_times", times)
        object.__setattr__(self, "_vbr_rates", rates)
        object.__setattr__(self, "_vbr_seg", seg)
        object.__setattr__(self, "_vbr_cum", cum)
        object.__setattr__(self, "_vbr_err", err)

    @property
    def bytes_per_second(self) -> float:
        return self.encoding_rate_bps / 8.0

    def rate_range_bps(self) -> tuple[float, float]:
        """Lowest and highest encoding rate anywhere in the content."""
        if self.vbr_trace is None:
            return self.encoding_rate_bps, self.encoding_rate_bps
        return min(self._vbr_rates), max(self._vbr_rates)

    def _vbr_bytes_between(self, a: float, b: float) -> float:
        a = max(a, 0.0)
        if b <= a:
            return 0.0
        times, rates, cum = self._vbr_times, self._vbr_rates, self._vbr_cum
        j = bisect_right(times, b) - 1
        tail = rates[j] * (b - times[j]) / 8.0
        if a == 0.0:
            # From 0 the prefix is the plain left-to-right sum of the
            # segments: no difference of prefixes to lose precision in.
            return cum[j] + tail
        i = bisect_right(times, a) - 1
        if i == j:
            return rates[i] * (b - a) / 8.0
        err = self._vbr_err
        return (rates[i] * (times[i + 1] - a) / 8.0
                + ((cum[j] - cum[i + 1]) + (err[j] - err[i + 1])) + tail)

    def bytes_for_content(self, a_s: float, b_s: float) -> float:
        """Bytes of content between playback positions a_s and b_s."""
        if math.isnan(a_s) or math.isnan(b_s):
            raise ValueError("a content position cannot be NaN")
        if self.vbr_trace is None:
            return max(b_s - a_s, 0.0) * self.bytes_per_second
        return self._vbr_bytes_between(a_s, b_s)

    def seconds_for_bytes(self, from_pos_s: float, nbytes: float) -> float:
        """Content seconds covered by nbytes starting at position from_pos_s."""
        if math.isnan(from_pos_s):
            raise ValueError("a content position cannot be NaN")
        if self.vbr_trace is None:
            return nbytes / self.bytes_per_second
        times, rates, seg = self._vbr_times, self._vbr_rates, self._vbr_seg
        last = len(seg)   # the open-ended segment's index
        i = max(bisect_right(times, from_pos_s) - 1, 0)
        lo, left = max(from_pos_s, times[i]), nbytes
        if i < last:
            span = rates[i] * (times[i + 1] - lo) / 8.0   # the start's rest
            if span < left:
                left -= span
                for i in range(i + 1, last):   # then whole segments
                    if seg[i] >= left:
                        break
                    left -= seg[i]
                else:
                    i = last
                lo = times[i]
        return (lo - from_pos_s) + left * 8.0 / rates[i]


class LinkModel(Record):
    """Piecewise-constant available bandwidth plus a round-trip time."""
    segments: tuple[tuple[float, float], ...]  # (t_start_s, bandwidth_bps)
    rtt_ms: float = domain(70.0, ge=0)

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("link needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("first link segment must start at t=0")
        starts, prev = [], -math.inf
        for i, (t0, bw) in enumerate(segs):
            if not t0 > prev:   # a NaN start is in no order
                raise ValueError(f"segment {i} {segs[i]!r}: link segments "
                                 "must be strictly ordered")
            if not 0 <= bw < math.inf:
                raise ValueError(
                    f"segment {i} {segs[i]!r}: bandwidth must be a finite "
                    f"number >= 0, not {bw!r}")
            starts.append(t0)
            prev = t0
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", starts)

    @classmethod
    def constant(cls, bandwidth_bps: float, rtt_ms: float = 70.0) -> "LinkModel":
        return cls(((0.0, bandwidth_bps),), rtt_ms)

    @property
    def rtt_s(self) -> float:
        return self.rtt_ms / 1000.0

    def segment_index(self, t_s: float) -> int:
        """Index of the segment in effect at t_s: the last one starting at
        or before it (-1 before t = 0)."""
        return bisect_right(self._starts, t_s) - 1

    def bandwidth_at(self, t_s: float) -> float:
        return self.segments[max(self.segment_index(t_s), 0)][1]

    def next_change_after(self, t_s: float) -> float:
        i = self.segment_index(t_s) + 1
        return self._starts[i] if i < len(self._starts) else math.inf

    def transfer_time(self, start_s: float, nbytes: float,
                      rate_cap_bps: float = math.inf) -> float:
        """Seconds to move nbytes starting at start_s under the link and cap.

        Returns inf when the remaining capacity never suffices.
        """
        remaining = nbytes
        t = start_s
        # Each pass returns or moves t to the next, strictly later segment
        # start, so the loop runs at most len(segments) + 1 times.
        while True:
            if remaining <= 1e-9:
                return t - start_s
            rate = min(self.bandwidth_at(t), rate_cap_bps)
            nxt = self.next_change_after(t)
            if rate <= 0:
                if nxt is math.inf:
                    return math.inf
                t = nxt
                continue
            span = nxt - t
            can = rate * span / 8.0
            if can >= remaining or nxt is math.inf:
                return t + remaining * 8.0 / rate - start_s
            remaining -= can
            t = nxt
