"""Radio power-state machines for Wi-Fi PSM, WCDMA/HSPA RRC and LTE cDRX.

Each simulator maps a sorted packet-event timeline onto a contiguous list of
radio-state intervals with a per-state current draw taken from a device
PowerProfile.  All three follow one pattern, which one walker carves: after
a burst, inactivity timers demote the radio through a chain of states, and
a burst that finds it in a low state pays a promotion, charged at the
serving state's current before its first byte.  The chains:

  Wi-Fi  - adaptive PSM: active during packet bursts, an idle tail after the
           last packet of a burst, then sleep with periodic beacon wake-ups
           (folded into the sleep current as a duty-cycle blend); no state
           is low.
  HSPA   - CELL_DCH / CELL_FACH / CELL_PCH / IDLE with inactivity timers and
           optional fast dormancy; PCH and IDLE are low, and FACH serves a
           burst up to its first large packet.
  LTE    - continuous reception, connected-mode DRX cycling (on-period /
           sleep per cycle) and RRC idle, which is low.

A walked timeline stores runs, a gap's whole DRX cycles as one periodic
run, and reads its intervals out of them only when asked for.

All functions are pure: they never mutate their inputs and are safe to run
concurrently.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field
from operator import itemgetter
from typing import Iterable, Optional

from .profiles import PowerProfile
from .streams import (ChunkTrain, MutableRecord, PacketEvent, Record,
                      TransferSpan, domain)

# Packets below this size can be served in CELL_FACH without a DCH promotion.
FACH_MAX_BYTES = 1024

# Wake duration charged per Wi-Fi listen interval for the TIM beacon.
BEACON_WAKE_MS = 2.0

_EPS = 1e-9
_INF = float("inf")


class WifiPsmConfig(Record):
    """Adaptive power-save parameters for an 802.11 interface."""
    listen_interval_ms: float = domain(100.0, gt=0)  # TIM beacon period
    tail_ms: float = domain(200.0, ge=0)  # idle hold after the last packet
    sleep_current_applies: bool = True    # False: interface never sleeps


class HspaRrcConfig(Record):
    """RRC inactivity timers and fast-dormancy settings for HSPA."""
    t1_s: float = domain(8.0, gt=0)         # DCH -> FACH inactivity
    t2_s: float = domain(3.0, gt=0)         # FACH -> PCH inactivity
    t3_s: float = domain(1740.0, gt=0)      # PCH -> IDLE inactivity
    # fast-dormancy inactivity, None = off
    fd_timer_s: Optional[float] = domain(5.0, ge=0)
    fd_target: str = "idle"             # "pch" (network FD) or "idle" (RRC release)
    promotion_latency_s: float = domain(2.0, ge=0)  # IDLE/PCH -> DCH
    fach_max_bytes: int = domain(FACH_MAX_BYTES, ge=0)

    def __post_init__(self):
        if self.fd_timer_s is not None and self.fd_timer_s > self.t1_s:
            raise ValueError("fd_timer_s must not exceed t1_s")
        if self.fd_target not in ("pch", "idle"):
            raise ValueError("fd_target must be 'pch' or 'idle'")


class LteDrxConfig(Record):
    """Connected-mode DRX and RRC idle settings for LTE."""
    rrc_idle_s: float = domain(10.0, gt=0)  # connected -> idle inactivity
    drx_inactivity_ms: float = domain(100.0, ge=0)  # continuous rx -> DRX
    drx_cycle_ms: float = domain(80.0, ge=20, le=5000)
    drx_on_ms: float = domain(10.0, ge=0)
    promotion_latency_ms: float = domain(120.0, ge=0)  # IDLE -> CONNECTED
    drx_enabled: bool = True

    def __post_init__(self):
        if self.drx_on_ms >= self.drx_cycle_ms:
            raise ValueError("drx_on_ms must be < drx_cycle_ms")
        # continuous reception ends before the RRC release, as HSPA's
        # fast-dormancy timer ends before T1
        if self.drx_inactivity_ms > self.rrc_idle_s * 1000.0:
            raise ValueError("drx_inactivity_ms must not exceed rrc_idle_s "
                             f"({self.rrc_idle_s * 1000.0:g} ms)")


# Default promotion latencies in seconds per access technology: the config
# defaults (Wi-Fi has no promotion).
PROMOTION_LATENCY_S = {"wifi": 0.0,
                       "hspa": HspaRrcConfig.promotion_latency_s,
                       "lte": LteDrxConfig.promotion_latency_ms / 1000.0}


def promotion_latency(technology: str, cfg=None) -> float:
    """Promotion latency in seconds for 'wifi', 'hspa' or 'lte': cfg's,
    or the default without one."""
    if technology not in PROMOTION_LATENCY_S:
        raise ValueError(f"unknown radio technology: {technology!r}")
    if isinstance(cfg, LteDrxConfig):
        return cfg.promotion_latency_ms / 1000.0
    return getattr(cfg, "promotion_latency_s", PROMOTION_LATENCY_S[technology])


class RadioInterval(Record):
    """One radio state held from t_start_s to t_end_s at current_ma."""
    state: str
    t_start_s: float
    t_end_s: float
    current_ma: float

    def __init__(self, state: str, t_start_s: float, t_end_s: float,
                 current_ma: float):
        set_field = object.__setattr__
        set_field(self, "state", state)
        set_field(self, "t_start_s", t_start_s)
        set_field(self, "t_end_s", t_end_s)
        set_field(self, "current_ma", current_ma)


class RadioTimeline(MutableRecord):
    """Contiguous, non-overlapping radio-state intervals covering a session.

    A walked timeline stores runs instead (see _spans) and builds its
    intervals on first read; from then on they are the timeline.
    """
    technology: str
    intervals: list[RadioInterval] = field(default_factory=list)

    CSV_HEADER = "t_start_s,t_end_s,state,current_mA"
    CSV_ROW = "%.6f,%.6f,%s,%.3f"     # as delivery.BufferTimeline.CSV_ROW

    def __init__(self, technology: str,
                 intervals: list[RadioInterval] = MISSING):
        self.technology = technology
        self.intervals = [] if intervals is MISSING else intervals

    @classmethod
    def of_runs(cls, technology: str, runs: list,
                end_s: float) -> RadioTimeline:
        tl = cls.__new__(cls)
        vars(tl).update(technology=technology, _runs=runs, _end=end_s)
        return tl

    def __getattr__(self, name):
        if name != "intervals":
            raise AttributeError(name)
        self.intervals = [RadioInterval(*s) for s in self.spans()]
        return self.intervals

    def spans(self) -> list[tuple]:
        """(state, t_start_s, t_end_s, current_ma) of each interval."""
        if "intervals" in self.__dict__:
            return [(iv.state, iv.t_start_s, iv.t_end_s, iv.current_ma)
                    for iv in self.intervals]
        if "_rows" not in self.__dict__:   # the summary and the CSV read them
            self._rows = _spans(self._runs, self._end)
        return self._rows

    @property
    def n_runs(self) -> int:
        """Runs the walk stored, a periodic run's pattern once; for a
        timeline built from intervals, the intervals."""
        if "_runs" not in self.__dict__:
            return len(self.intervals)
        return sum(len(r[1]) if len(r) == 2 else 1 for r in self._runs)

    @property
    def end_s(self) -> float:
        if "intervals" in self.__dict__:
            return self.intervals[-1].t_end_s if self.intervals else 0.0
        return self._end if self._runs else 0.0

    def totals(self) -> tuple[dict[str, float], float]:
        """Seconds per state and the charge (mA * s), each added left to
        right in interval order (as fold_sum does)."""
        out: dict[str, float] = {}
        charge = 0
        for state, t0, t1, ma in self.spans():
            d = t1 - t0
            out[state] = out.get(state, 0.0) + d
            charge += ma * d
        return out, charge

    def residency(self) -> dict[str, float]:
        """Seconds spent per state label."""
        return self.totals()[0]

    def validate(self, session_end_s: Optional[float] = None) -> None:
        """Assert the coverage invariant: no gaps, no overlaps, full span."""
        prev = 0.0
        spans = self.spans()
        for state, t0, t1, ma in spans:
            if t1 < t0 - _EPS:
                raise AssertionError(
                    f"negative interval {RadioInterval(state, t0, t1, ma)}")
            if abs(t0 - prev) > 1e-6:
                raise AssertionError(f"coverage gap at t={prev:.6f} before "
                                     f"{RadioInterval(state, t0, t1, ma)}")
            prev = t1
        if session_end_s is not None:
            want = 0.0 if not spans else session_end_s
            if abs(prev - want) > 1e-6:
                raise AssertionError(
                    f"timeline ends at {prev:.6f}, session ends at {want:.6f}")

    def to_csv_rows(self) -> list[tuple]:
        """(t_start_s, t_end_s, state, current_ma) of each interval."""
        return list(map(_csv_order, self.spans()))

    def to_csv_lines(self) -> list[str]:
        """radio_timeline.csv's lines: the header, then a row per interval."""
        return [self.CSV_HEADER,
                *map(self.CSV_ROW.__mod__, self.to_csv_rows())]


# a span's fields in the order radio_timeline.csv writes them
_csv_order = itemgetter(1, 2, 0, 3)


def _spans(runs: list, end: float) -> list[tuple]:
    """(state, t_start_s, t_end_s, current_ma) of runs, each held until the
    next starts and the last until end.  A run is (state, current_ma,
    start), or a periodic run (js, pattern): for each j in js, pattern's
    (state, current_ma, x, off, step, add) runs, starting at
    (x + (j + off) * step) + add, as the walker computed them."""
    rows = []
    for run in runs:
        if len(run) == 3:
            rows.append(run)
            continue
        js, pattern = run
        for j in js:
            rows += [(state, ma, (x + (j + off) * step) + add)
                     for state, ma, x, off, step, add in pattern]
    if not rows:
        return []
    states, currents, starts = zip(*rows)
    return list(zip(states, starts, starts[1:] + (end,), currents))


def _bursts(events: Iterable[PacketEvent],
            joins: tuple[float, float], big_bytes: float = _INF) -> list:
    """[first, last, big] per burst of back-to-back packets, in time order.

    A packet, or a run of them, a gap dt after the last burst's end
    extends it if dt < below and dt <= upto, for joins = (below, upto).
    big is the time of the burst's first packet of at least big_bytes
    (inf if none), which promotes an HSPA radio from FACH.  A span whose
    tick spacing joins is one run; any other is walked tick by tick.  A
    chunk train whose cycle is one burst joined by the next repeat is one
    burst; any other repeats its cycle's bursts, shifted by the period.
    """
    below, upto = joins
    out: list = []
    prev = 0.0
    for i, ev in enumerate(events):
        t = ev.t_s
        if t < 0:
            raise ValueError(f"event {i} has negative time {t}")
        if t < prev - _EPS:
            raise ValueError(
                f"events not sorted: event {i} at t={t} after t={prev}")
        cls = ev.__class__
        span = cls is TransferSpan
        if cls is ChunkTrain:
            cycle = _bursts(ev.cycle, joins, big_bytes)
            a, b, big = cycle[0]
            p = ev.period_s
            if len(cycle) == 1 and below > a + p - b <= upto:
                new = ((a, ev.t_end_s, big),)
            else:   # each repeat's bursts are the first cycle's, shifted
                new = [(a + j * p, b + j * p, big + j * p)
                       for j in range(ev.m) for a, b, big in cycle]
        elif span and not (ev.n == 1 or below > ev.dt_s <= upto):
            big = ev.bytes >= big_bytes
            new = [(tk, tk, tk if big else _INF)
                   for tk in map(ev.tick_t, range(ev.n))]
        else:
            # a packet, or a span whose ticks join, is one run; its bytes
            # matter only while its burst has no large packet before it
            b = t + (ev.n - 1) * ev.dt_s if span else t   # its last tick
            if out and below > t - out[-1][1] <= upto:
                last = out[-1]
                last[1] = b
                if t < last[2] and ev.bytes >= big_bytes:
                    last[2] = t
            else:
                out.append([t, b, t if ev.bytes >= big_bytes else _INF])
            prev = b
            continue
        for a, b, big in new:
            if out and below > a - out[-1][1] <= upto:
                last = out[-1]
                last[1] = b
                if big < last[2]:
                    last[2] = big
            else:
                out.append([a, b, big])
        prev = out[-1][1]
    return out


def _demotions(chains: dict[str, tuple]):
    """gap() of a machine whose gaps are fixed chains: from the state a
    burst ends in, each state of its chain held for its dwell, the last
    for ever."""
    def gap(state: str, t: float, cut: float) -> list:
        return [(s, t := t + dwell) for s, dwell in chains[state]]
    return gap


def _walk(technology: str, cfg, events: Iterable[PacketEvent],
          session_end_s: Optional[float], joins: tuple[float, float],
          current: dict[str, float], rest: str, gap, serve, low=(),
          big_bytes: float = _INF) -> RadioTimeline:
    """The timeline of one radio machine over the bursts of events.

    The radio rests in rest until the first burst.  After a burst ending
    in a state at t, gap(state, t, cut) lists the (state, end) pieces
    inactivity demotes it through, up to the one past the next burst at
    cut; a piece whose state is a periodic run (see _spans) is whole DRX
    cycles.  A burst arriving in a low state pays the promotion: the
    state that serves it from max(t - promotion_latency, the entry into
    the first low state).  serve(state, big) gives the (state, until)
    pieces that serve a burst arriving in state, big being its first
    large packet.
    """
    bursts = _bursts(events, joins, big_bytes)
    end = session_end_s if session_end_s is not None else (
        bursts[-1][1] if bursts else 0.0)
    if bursts and bursts[-1][1] > end + _EPS:
        raise ValueError("events extend past session_end_s")
    latency = promotion_latency(technology, cfg)
    runs = []
    # where the last run ends, and its state and current
    t_run, run_state, run_ma = 0.0, None, None
    state, gap_start = None, 0.0   # before the first burst, the radio rests
    resting = ((rest, _INF),)
    # each burst, then the gap after the last one, up to the end
    for t_first, t_last, big in bursts + [(end, None, _INF)]:
        t = end if end < t_first else t_first   # min(), without the call
        pieces = gap(state, gap_start, t) if state else resting
        # the gap's pieces up to the burst's, and where its low ones begin
        entry = gap_start
        for s, e in pieces:
            if s not in low:
                entry = e
            # a timer counts as expired within _EPS: wall times carry round-off
            if t < e - _EPS:
                break
        cut = t
        if s in low and t_last is not None:
            # the promotion, in the serving state, from max(t - latency,
            # entry, t_run): the first of equals, as max() picks it
            cut = t - latency
            if entry > cut:
                cut = entry
            if t_run > cut:
                cut = t_run
        held = []   # the gap's pieces up to cut, then the burst's
        for piece, e in pieces:
            if e >= cut:
                held.append((piece, cut))
                break
            held.append((piece, e))
        if t_last is not None:
            served = serve(s, big)
            if s in low:
                held.append((served[0][0], t))
            gap_start = end if end < t_last else t_last
            for s, until in served:
                held.append((s, gap_start if gap_start < until else until))
                if until > gap_start:
                    break
            state = s
        # hold each piece's state up to its end, merging a run into the
        # last of one state and current
        for s, e in held:
            if s.__class__ is tuple:   # a periodic run
                runs.append(s)
                run_state, run_ma = s[1][-1][:2]
            elif e <= t_run + _EPS:   # a sliver goes to the last run
                if run_state and e > t_run:
                    t_run = e
                continue
            elif s != run_state or current[s] != run_ma:
                run_state, run_ma = s, current[s]
                runs.append((s, run_ma, t_run))
            t_run = e
    return RadioTimeline.of_runs(technology, runs, t_run)


# --------------------------------------------------------------------------
# Wi-Fi PSM
# --------------------------------------------------------------------------

def wifi_sleep_current(cfg: WifiPsmConfig, profile: PowerProfile) -> float:
    """Sleep-state current including the TIM beacon wake duty cycle."""
    duty = min(1.0, BEACON_WAKE_MS / cfg.listen_interval_ms)
    return duty * profile.wifi_idle_tail + (1.0 - duty) * profile.wifi_sleep


def simulate_wifi(events: Iterable[PacketEvent], cfg: WifiPsmConfig,
                  profile: PowerProfile,
                  session_end_s: Optional[float] = None) -> RadioTimeline:
    """Map packet events onto Wi-Fi PSM states.

    Packets separated by at most tail_ms belong to the same burst and the
    interface stays active across the gap; after the last packet of a burst
    it holds the idle tail for tail_ms and then sleeps, waking every listen
    interval for the beacon (charged as a blended sleep current).
    """
    tail_s = cfg.tail_ms / 1000.0
    sleep = "sleep" if cfg.sleep_current_applies else "idle_tail"
    current = {"active": profile.wifi_active,
               "idle_tail": profile.wifi_idle_tail,
               "sleep": wifi_sleep_current(cfg, profile)}
    return _walk("wifi", cfg, events, session_end_s,
                 (_INF, tail_s + _EPS), current, sleep,
                 _demotions({"active": (("idle_tail", tail_s),
                                        (sleep, _INF))}),
                 lambda state, big: (("active", _INF),))


# --------------------------------------------------------------------------
# WCDMA/HSPA RRC
# --------------------------------------------------------------------------

def simulate_hspa(events: Iterable[PacketEvent], cfg: HspaRrcConfig,
                  profile: PowerProfile,
                  session_end_s: Optional[float] = None) -> RadioTimeline:
    """Map packet events onto HSPA RRC states.

    Transfers run in CELL_DCH.  After inactivity the radio demotes through
    the configured timer chain; fast dormancy, when enabled, wins over T1.
    A packet arriving in CELL_PCH or IDLE promotes to CELL_DCH, charging
    promotion_latency_s at DCH current before the packet time.  Packets
    smaller than fach_max_bytes that arrive while in CELL_FACH are served
    there without promotion: FACH serves a burst up to its first large
    packet, which promotes the radio to DCH.
    """
    shortest = min(cfg.t1_s, cfg.t2_s, cfg.t3_s,
                   cfg.fd_timer_s if cfg.fd_timer_s is not None else cfg.t1_s)
    # the demotion chain after a burst that ends in DCH, and in FACH
    if cfg.fd_timer_s is None:
        dch = (("dch", cfg.t1_s), ("fach", cfg.t2_s), ("pch", cfg.t3_s))
    elif cfg.fd_target == "idle":
        dch = (("dch", cfg.fd_timer_s),)
        # logging is not imported for this note: unless the caller has
        # imported and set it up, the record would be dropped anyway
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger(__name__).debug(
                "fast dormancy targets IDLE; T3 never applies")
    else:
        dch = (("dch", cfg.fd_timer_s), ("pch", cfg.t3_s))
    chains = {"dch": dch + (("idle", _INF),),
              "fach": (("fach", cfg.t2_s), ("pch", cfg.t3_s), ("idle", _INF))}
    current = {"dch": profile.hspa_dch, "fach": profile.hspa_fach,
               "pch": profile.hspa_pch, "idle": profile.hspa_idle}
    return _walk("hspa", cfg, events, session_end_s,
                 (shortest - _EPS, _INF), current, "idle",
                 _demotions(chains),
                 lambda state, big: ((("fach", big), ("dch", _INF))
                                     if state == "fach" else (("dch", _INF),)),
                 ("pch", "idle"), cfg.fach_max_bytes)


# --------------------------------------------------------------------------
# LTE connected-mode DRX
# --------------------------------------------------------------------------

def simulate_lte(events: Iterable[PacketEvent], cfg: LteDrxConfig,
                 profile: PowerProfile,
                 session_end_s: Optional[float] = None) -> RadioTimeline:
    """Map packet events onto LTE states.

    After a transfer the radio stays in continuous reception for the DRX
    inactivity time, then cycles (on-period, sleep) until the RRC idle timer
    releases the connection.  The device-specific on-period residency comes
    from profile.drx_on_overstay_ms, which may exceed the configured
    drx_on_ms.  A packet arriving in IDLE charges the promotion latency at
    the reception current before the packet time.
    """
    inact = cfg.drx_inactivity_ms / 1000.0
    cycle = cfg.drx_cycle_ms / 1000.0
    on_s = min(profile.drx_on_overstay_ms, cfg.drx_cycle_ms) / 1000.0
    current = {"rx": profile.lte_rx, "drx_on": profile.lte_drx_on,
               "drx_sleep": profile.lte_drx_sleep, "idle": profile.lte_idle}

    def gap(state: str, t: float, cut: float) -> list:
        anchor, idle_at = t + inact, t + cfg.rrc_idle_s
        out = [("rx", anchor)]
        if not cfg.drx_enabled:
            out.append(("rx", idle_at))
        else:   # DRX cycles up to the one past the cut, as _walk reads them
            e, k = anchor, 0
            while e + _EPS < idle_at and not cut < e - _EPS:
                c0 = anchor + k * cycle
                out.append(("drx_on", min(idle_at, c0 + on_s)))
                e = min(idle_at, c0 + cycle)
                out.append(("drx_sleep", e))
                k += 1
                n = drx_cycles(anchor, idle_at, cut) if k == 1 else 0
                if n > 2:   # cycles 1 to n - 1 as one periodic run
                    e, k = (anchor + (n - 1) * cycle) + cycle, n
                    out.append(((range(1, n), (
                        ("drx_on", current["drx_on"], anchor, -1, cycle,
                         cycle),
                        ("drx_sleep", current["drx_sleep"], anchor, 0, cycle,
                         on_s))), e))
        out.append(("idle", _INF))
        return out

    def drx_cycles(anchor: float, idle_at: float, cut: float) -> int:
        """The whole DRX cycles from anchor that end clear of the cut and
        the release, if each piece outlasts round-off."""
        margin = 2 * _EPS + 1e-12 * idle_at
        if not margin < on_s < cycle - margin:
            return 0
        bound = min(cut, idle_at) - margin
        n = int((bound - anchor) // cycle)
        while n > 0 and (anchor + (n - 1) * cycle) + cycle > bound:
            n -= 1
        return n

    return _walk("lte", cfg, events, session_end_s,
                 (cfg.rrc_idle_s - _EPS, inact if cfg.drx_enabled else _INF),
                 current, "idle", gap, lambda state, big: (("rx", _INF),),
                 ("idle",))


def simulate_radio(technology: str, events: Iterable[PacketEvent], cfg,
                   profile: PowerProfile,
                   session_end_s: Optional[float] = None) -> RadioTimeline:
    """Dispatch to the per-technology simulator."""
    if technology == "wifi":
        return simulate_wifi(events, cfg, profile, session_end_s)
    if technology == "hspa":
        return simulate_hspa(events, cfg, profile, session_end_s)
    if technology == "lte":
        return simulate_lte(events, cfg, profile, session_end_s)
    raise ValueError(f"unknown radio technology: {technology!r}")
