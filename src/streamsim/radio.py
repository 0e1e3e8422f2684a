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

All functions are pure: they never mutate their inputs and are safe to run
concurrently.
"""

from __future__ import annotations

from dataclasses import MISSING, field
from typing import Callable, Iterable, Optional

from .profiles import PowerProfile
from .streams import (ChunkTrain, MutableRecord, PacketEvent, Record, TickSeq,
                      TransferSpan, check_finite_fields)

# Packets below this size can be served in CELL_FACH without a DCH promotion.
FACH_MAX_BYTES = 1024

# Wake duration charged per Wi-Fi listen interval for the TIM beacon.
BEACON_WAKE_MS = 2.0

_EPS = 1e-9
_INF = float("inf")


class WifiPsmConfig(Record):
    """Adaptive power-save parameters for an 802.11 interface."""
    listen_interval_ms: float = 100.0   # TIM beacon period
    tail_ms: float = 200.0              # idle hold after the last packet
    sleep_current_applies: bool = True  # False: interface never sleeps

    def __post_init__(self):
        check_finite_fields(self)
        if self.listen_interval_ms <= 0:
            raise ValueError("listen_interval_ms must be > 0")
        if self.tail_ms < 0:
            raise ValueError("tail_ms must be >= 0")


class HspaRrcConfig(Record):
    """RRC inactivity timers and fast-dormancy settings for HSPA."""
    t1_s: float = 8.0                   # DCH -> FACH inactivity
    t2_s: float = 3.0                   # FACH -> PCH inactivity
    t3_s: float = 1740.0                # PCH -> IDLE inactivity
    fd_timer_s: Optional[float] = 5.0   # fast-dormancy inactivity, None = off
    fd_target: str = "idle"             # "pch" (network FD) or "idle" (RRC release)
    promotion_latency_s: float = 2.0    # IDLE/PCH -> DCH
    fach_max_bytes: int = FACH_MAX_BYTES

    def __post_init__(self):
        check_finite_fields(self)
        for name in ("t1_s", "t2_s", "t3_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.fd_timer_s is not None and self.fd_timer_s > self.t1_s:
            raise ValueError("fd_timer_s must not exceed t1_s")
        if self.promotion_latency_s < 0:
            raise ValueError("promotion_latency_s must be >= 0")
        if self.fd_target not in ("pch", "idle"):
            raise ValueError("fd_target must be 'pch' or 'idle'")


class LteDrxConfig(Record):
    """Connected-mode DRX and RRC idle settings for LTE."""
    rrc_idle_s: float = 10.0            # connected -> idle inactivity
    drx_inactivity_ms: float = 100.0    # continuous rx -> DRX cycling
    drx_cycle_ms: float = 80.0
    drx_on_ms: float = 10.0
    promotion_latency_ms: float = 120.0  # IDLE -> CONNECTED
    drx_enabled: bool = True

    def __post_init__(self):
        check_finite_fields(self)
        if self.rrc_idle_s <= 0:
            raise ValueError("rrc_idle_s must be > 0")
        if not 20.0 <= self.drx_cycle_ms <= 5000.0:
            raise ValueError("drx_cycle_ms must lie in [20, 5000] ms")
        if self.drx_on_ms >= self.drx_cycle_ms:
            raise ValueError("drx_on_ms must be < drx_cycle_ms")
        if self.drx_inactivity_ms < 0 or self.promotion_latency_ms < 0:
            raise ValueError("DRX timers must be >= 0")
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
    """Contiguous, non-overlapping radio-state intervals covering a session."""
    technology: str
    intervals: list[RadioInterval] = field(default_factory=list)

    def __init__(self, technology: str,
                 intervals: list[RadioInterval] = MISSING):
        self.technology = technology
        self.intervals = [] if intervals is MISSING else intervals

    @property
    def end_s(self) -> float:
        return self.intervals[-1].t_end_s if self.intervals else 0.0

    def residency(self) -> dict[str, float]:
        """Seconds spent per state label."""
        out: dict[str, float] = {}
        for iv in self.intervals:
            out[iv.state] = out.get(iv.state, 0.0) + (iv.t_end_s - iv.t_start_s)
        return out

    def validate(self, session_end_s: Optional[float] = None) -> None:
        """Assert the coverage invariant: no gaps, no overlaps, full span."""
        prev = 0.0
        for iv in self.intervals:
            if iv.t_end_s < iv.t_start_s - _EPS:
                raise AssertionError(f"negative interval {iv}")
            if abs(iv.t_start_s - prev) > 1e-6:
                raise AssertionError(f"coverage gap at t={prev:.6f} before {iv}")
            prev = iv.t_end_s
        if session_end_s is not None:
            want = 0.0 if not self.intervals else session_end_s
            if abs(prev - want) > 1e-6:
                raise AssertionError(
                    f"timeline ends at {prev:.6f}, session ends at {want:.6f}")

    def to_csv_rows(self) -> list[tuple]:
        return [(iv.t_start_s, iv.t_end_s, iv.state, iv.current_ma)
                for iv in self.intervals]


def _bursts(events: Iterable[PacketEvent],
            joins_burst: Callable[[float], bool],
            big_bytes: float = _INF) -> list[list[float]]:
    """[first, last, big] per burst of back-to-back packets, in time order.

    A packet, or a run of them, that starts within joins_burst of the
    last burst's end extends it, so only a gap that fails joins_burst
    splits two bursts.  big is the time of the burst's first packet of
    at least big_bytes (inf if none): the one that promotes an HSPA
    radio from FACH.  A transfer span whose tick spacing passes
    joins_burst is one run, and any other span is walked tick by tick.
    A chunk train whose cycle is one burst, and whose next repeat joins
    it, is one burst; any other train repeats its cycle's bursts,
    shifted by the period.
    """
    out: list[list[float]] = []
    prev = 0.0
    # a TickSeq's runs as they are, any other events one by one
    runs = events.items if isinstance(events, TickSeq) else events
    for i, ev in enumerate(runs):
        t = ev.t_s
        if t < 0:
            raise ValueError(f"event {i} has negative time {t}")
        if t < prev - _EPS:
            raise ValueError(
                f"events not sorted: event {i} at t={t} after t={prev}")
        span = isinstance(ev, TransferSpan)
        if isinstance(ev, ChunkTrain):
            cycle = _bursts(ev.cycle, joins_burst, big_bytes)
            a, b, big = cycle[0]
            p = ev.period_s
            if len(cycle) == 1 and joins_burst(a + p - b):
                new = ((a, ev.t_end_s, big),)
            else:   # each repeat's bursts are the first cycle's, shifted
                new = [(a + j * p, b + j * p, big + j * p)
                       for j in range(ev.m) for a, b, big in cycle]
        elif span and not (ev.n == 1 or joins_burst(ev.dt_s)):
            big = ev.bytes >= big_bytes
            new = [(tk, tk, tk if big else _INF)
                   for tk in map(ev.tick_t, range(ev.n))]
        else:
            # a packet, or a span whose ticks join, is one run; its bytes
            # matter only while its burst has no large packet before it
            b = t + (ev.n - 1) * ev.dt_s if span else t   # its last tick
            if out and joins_burst(t - out[-1][1]):
                last = out[-1]
                last[1] = b
                if t < last[2] and ev.bytes >= big_bytes:
                    last[2] = t
            else:
                out.append([t, b, t if ev.bytes >= big_bytes else _INF])
            prev = b
            continue
        for a, b, big in new:
            if out and joins_burst(a - out[-1][1]):
                last = out[-1]
                last[1] = b
                if big < last[2]:
                    last[2] = big
            else:
                out.append([a, b, big])
        prev = out[-1][1]
    return out


class _Builder:
    """Accumulates (state, current) spans and merges adjacent equal ones."""

    def __init__(self):
        self.runs: list[list] = []   # [state, start, end, current_ma]
        self.t = 0.0

    def push(self, state: str, t_end: float, current_ma: float) -> None:
        runs = self.runs
        if t_end <= self.t + _EPS:
            # a sliver goes to the last run, so the next starts where it ends
            if runs and t_end > self.t:
                runs[-1][2] = self.t = t_end
            return
        if runs and runs[-1][0] == state and runs[-1][3] == current_ma:
            runs[-1][2] = t_end
        else:
            runs.append([state, self.t, t_end, current_ma])
        self.t = t_end


def _walk(technology: str, cfg, events: Iterable[PacketEvent],
          session_end_s: Optional[float], joins_burst: Callable[[float], bool],
          current: dict[str, float], rest: str, gap, serve, low=(),
          big_bytes: float = _INF) -> RadioTimeline:
    """The timeline of one radio machine over the bursts of events.

    The radio rests in rest until the first burst.  After a burst that
    ends in a state at t, gap(state, t) yields the (state, end) pieces
    inactivity demotes it through, the last never ending.  A burst
    arriving in a low state pays the promotion: the state that serves it
    from max(t - promotion_latency, the entry into the first low state).
    serve(state, big) yields the (state, until) pieces that serve a
    burst arriving in state, big being its first large packet.
    """
    runs = _bursts(events, joins_burst, big_bytes)
    end = session_end_s if session_end_s is not None else (
        runs[-1][1] if runs else 0.0)
    if runs and runs[-1][1] > end + _EPS:
        raise ValueError("events extend past session_end_s")
    latency = promotion_latency(technology, cfg)
    b = _Builder()

    def carve(pieces, cut: float) -> None:
        for state, e in pieces:
            if e >= cut:
                b.push(state, cut, current[state])
                return
            b.push(state, e, current[state])

    pieces, gap_start = iter(((rest, _INF),)), 0.0
    for t_first, t_last, big in runs:
        t = min(t_first, end)
        # the gap's pieces up to the burst's, and where its low ones begin
        walked, entry = [], gap_start
        for piece in pieces:
            walked.append(piece)
            state, e = piece
            if state not in low:
                entry = e
            # a timer counts as expired within _EPS: wall times carry round-off
            if t < e - _EPS:
                break
        served = tuple(serve(state, big))
        top = served[0][0]
        if state in low:   # the promotion, in the serving state, before t
            carve(walked, max(t - latency, entry, b.t))
            b.push(top, t, current[top])
        else:
            carve(walked, t)
        gap_start = min(t_last, end)
        for state, until in served:
            b.push(state, min(until, gap_start), current[state])
            if until > gap_start:
                break
        pieces = gap(state, gap_start)
    carve(pieces, end)
    return RadioTimeline(technology, [RadioInterval(*r) for r in b.runs])


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
                 lambda dt: dt <= tail_s + _EPS, current, sleep,
                 lambda state, t: (("idle_tail", t + tail_s), (sleep, _INF)),
                 lambda state, big: (("active", _INF),))


# --------------------------------------------------------------------------
# WCDMA/HSPA RRC
# --------------------------------------------------------------------------

def _hspa_chain(cfg: HspaRrcConfig, from_state: str, t: float):
    """The demotion chain after a burst ending in from_state at t:
    (state, end) pieces, the terminal state's ending at inf."""
    if from_state == "fach":
        chain = [("fach", cfg.t2_s), ("pch", cfg.t3_s)]
    elif cfg.fd_timer_s is None:
        chain = [("dch", cfg.t1_s), ("fach", cfg.t2_s), ("pch", cfg.t3_s)]
    elif cfg.fd_target == "idle":
        chain = [("dch", cfg.fd_timer_s)]
    else:
        chain = [("dch", cfg.fd_timer_s), ("pch", cfg.t3_s)]
    for state, dwell in chain:
        t += dwell
        yield state, t
    yield "idle", _INF


def _hspa_serve(state: str, big: float):
    """FACH serves a burst up to its first large packet, which promotes
    the radio to DCH; DCH serves any other burst."""
    if state == "fach":
        yield "fach", big
    yield "dch", _INF


def simulate_hspa(events: Iterable[PacketEvent], cfg: HspaRrcConfig,
                  profile: PowerProfile,
                  session_end_s: Optional[float] = None) -> RadioTimeline:
    """Map packet events onto HSPA RRC states.

    Transfers run in CELL_DCH.  After inactivity the radio demotes through
    the configured timer chain; fast dormancy, when enabled, wins over T1.
    A packet arriving in CELL_PCH or IDLE promotes to CELL_DCH, charging
    promotion_latency_s at DCH current before the packet time.  Packets
    smaller than fach_max_bytes that arrive while in CELL_FACH are served
    there without promotion.
    """
    shortest = min(cfg.t1_s, cfg.t2_s, cfg.t3_s,
                   cfg.fd_timer_s if cfg.fd_timer_s is not None else cfg.t1_s)
    if cfg.fd_timer_s is not None and cfg.fd_target == "idle":
        import logging   # only here: a cold import costs milliseconds
        logging.getLogger(__name__).debug(
            "fast dormancy targets IDLE; T3 never applies")
    current = {"dch": profile.hspa_dch, "fach": profile.hspa_fach,
               "pch": profile.hspa_pch, "idle": profile.hspa_idle}
    return _walk("hspa", cfg, events, session_end_s,
                 lambda dt: dt < shortest - _EPS, current, "idle",
                 lambda state, t: _hspa_chain(cfg, state, t), _hspa_serve,
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

    def gap(state: str, t: float):
        anchor, idle_at = t + inact, t + cfg.rrc_idle_s
        yield "rx", anchor
        if not cfg.drx_enabled:
            yield "rx", idle_at
        else:
            e, k = anchor, 0
            while e + _EPS < idle_at:
                c0 = anchor + k * cycle
                yield "drx_on", min(idle_at, c0 + on_s)
                e = min(idle_at, c0 + cycle)
                yield "drx_sleep", e
                k += 1
        yield "idle", _INF

    current = {"rx": profile.lte_rx, "drx_on": profile.lte_drx_on,
               "drx_sleep": profile.lte_drx_sleep, "idle": profile.lte_idle}
    return _walk("lte", cfg, events, session_end_s,
                 lambda dt: dt < cfg.rrc_idle_s - _EPS
                 and (dt <= inact or not cfg.drx_enabled),
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
