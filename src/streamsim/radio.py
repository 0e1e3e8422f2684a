"""Radio power-state machines for Wi-Fi PSM, WCDMA/HSPA RRC and LTE cDRX.

Each simulator maps a sorted packet-event timeline onto a contiguous list of
radio-state intervals with a per-state current draw taken from a device
PowerProfile.  The machines model:

  Wi-Fi  - adaptive PSM: active during packet bursts, an idle tail after the
           last packet of a burst, then sleep with periodic beacon wake-ups
           (folded into the sleep current as a duty-cycle blend).
  HSPA   - CELL_DCH / CELL_FACH / CELL_PCH / IDLE with inactivity timers,
           optional fast dormancy, and a promotion delay charged at the
           destination-state current before the first byte of a burst.
  LTE    - continuous reception, connected-mode DRX cycling (on-period /
           sleep per cycle) and RRC idle, with a short promotion delay.

All functions are pure: they never mutate their inputs and are safe to run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .profiles import PowerProfile
from .streams import (ChunkTrain, PacketEvent, Record, TickSeq, TransferSpan,
                      check_finite_fields)

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


@dataclass(frozen=True)
class RadioInterval:
    state: str
    t_start_s: float
    t_end_s: float
    current_ma: float


@dataclass
class RadioTimeline:
    """Contiguous, non-overlapping radio-state intervals covering a session."""
    technology: str
    intervals: list[RadioInterval] = field(default_factory=list)

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


def _session_end(runs: list[list[float]],
                 session_end_s: Optional[float]) -> float:
    end = session_end_s if session_end_s is not None else (
        runs[-1][1] if runs else 0.0)
    if runs and runs[-1][1] > end + _EPS:
        raise ValueError("events extend past session_end_s")
    return end


class _Builder:
    """Accumulates (state, current) spans and merges adjacent equal ones."""

    def __init__(self):
        self._runs: list[list] = []   # [state, start, end, current_ma]
        self.t = 0.0

    def push(self, state: str, t_end: float, current_ma: float) -> None:
        if t_end <= self.t + _EPS:
            self.t = max(self.t, t_end)
            return
        runs = self._runs
        if runs and runs[-1][0] == state and runs[-1][3] == current_ma:
            runs[-1][2] = t_end
        else:
            runs.append([state, self.t, t_end, current_ma])
        self.t = t_end

    def timeline(self, technology: str, end: float) -> RadioTimeline:
        """The intervals pushed, checked to cover [0, end]."""
        tl = RadioTimeline(technology,
                           [RadioInterval(*run) for run in self._runs])
        tl.validate(end)
        return tl


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
    runs = _bursts(events, lambda dt: dt <= tail_s + _EPS)
    end = _session_end(runs, session_end_s)

    sleep_ma = wifi_sleep_current(cfg, profile)
    sleep_state = "sleep" if cfg.sleep_current_applies else "idle_tail"
    if not cfg.sleep_current_applies:
        sleep_ma = profile.wifi_idle_tail

    b = _Builder()
    for t_first, t_last, _ in runs:
        b.push(sleep_state, min(t_first, end), sleep_ma)
        b.push("active", min(t_last, end), profile.wifi_active)
        b.push("idle_tail", min(t_last + tail_s, end), profile.wifi_idle_tail)
    b.push(sleep_state, end, sleep_ma)
    return b.timeline("wifi", end)


# --------------------------------------------------------------------------
# WCDMA/HSPA RRC
# --------------------------------------------------------------------------

def _hspa_currents(profile: PowerProfile) -> dict[str, float]:
    return {"dch": profile.hspa_dch, "fach": profile.hspa_fach,
            "pch": profile.hspa_pch, "idle": profile.hspa_idle}


def _hspa_chain(cfg: HspaRrcConfig, from_state: str) -> list[tuple[str, float]]:
    """Demotion chain from an active state: [(state, dwell_s), ...] ending
    with the terminal state at dwell = inf."""
    inf = float("inf")
    if from_state == "dch":
        if cfg.fd_timer_s is not None:
            if cfg.fd_target == "idle":
                return [("dch", cfg.fd_timer_s), ("idle", inf)]
            return [("dch", cfg.fd_timer_s), ("pch", cfg.t3_s), ("idle", inf)]
        return [("dch", cfg.t1_s), ("fach", cfg.t2_s), ("pch", cfg.t3_s),
                ("idle", inf)]
    if from_state == "fach":
        return [("fach", cfg.t2_s), ("pch", cfg.t3_s), ("idle", inf)]
    raise ValueError(from_state)


def _chain_state_at(chain: list[tuple[str, float]], tau: float) -> str:
    off = 0.0
    for state, dwell in chain:
        off += dwell
        # a timer counts as expired within _EPS: wall times carry round-off
        if tau < off - _EPS:
            return state
    return chain[-1][0]


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
    runs = _bursts(events, lambda dt: dt < shortest - _EPS,
                   cfg.fach_max_bytes)
    end = _session_end(runs, session_end_s)
    if cfg.fd_timer_s is not None and cfg.fd_target == "idle":
        import logging   # only here: a cold import costs milliseconds
        logging.getLogger(__name__).debug(
            "fast dormancy targets IDLE; T3 never applies")

    cur = _hspa_currents(profile)
    b = _Builder()
    gap_start = 0.0          # time the current inactivity period began

    def carve_gap(t_from: float, t_to: float, chain, promote_at: Optional[float]):
        """Fill [t_from, t_to] from the demotion chain, replacing the final
        promotion window (if any) with DCH."""
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

    chain: list[tuple[str, float]] = [("idle", float("inf"))]
    for t_first, t_last, big in runs:
        t = min(t_first, end)
        tau = t - gap_start
        before = _chain_state_at(chain, tau)
        promote_at = None
        if before in ("pch", "idle"):
            # time the chain enters its first low state within this gap
            low_entry = gap_start
            off = 0.0
            for st, dwell in chain:
                if st in ("pch", "idle"):
                    low_entry = gap_start + off
                    break
                off += dwell
            promote_at = max(t - cfg.promotion_latency_s, low_entry, b.t)
        carve_gap(b.t, t, chain, promote_at)
        if before == "fach" and big != _INF:
            # FACH serves the burst up to its first large packet, which
            # promotes the radio to DCH
            b.push("fach", min(big, end), cur["fach"])
        after = "fach" if before == "fach" and big == _INF else "dch"
        # the rest of the burst keeps the radio in that state
        gap_start = min(t_last, end)
        b.push(after, gap_start, cur[after])
        chain = _hspa_chain(cfg, after)
    if runs:
        carve_gap(b.t, end, chain, None)
    else:
        b.push("idle", end, cur["idle"])
    return b.timeline("hspa", end)


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
    runs = _bursts(events, lambda dt: dt < cfg.rrc_idle_s - _EPS
                   and (dt <= inact or not cfg.drx_enabled))
    end = _session_end(runs, session_end_s)

    cycle = cfg.drx_cycle_ms / 1000.0
    on_s = min(profile.drx_on_overstay_ms, cfg.drx_cycle_ms) / 1000.0
    promo = cfg.promotion_latency_ms / 1000.0
    b = _Builder()

    def carve_gap(t_from: float, t_to: float, rx_from: float,
                  promote_at: Optional[float]):
        """Fill [t_from, t_to] given continuous rx anchored at rx_from."""
        cut = t_to if promote_at is None else promote_at
        idle_at = rx_from + cfg.rrc_idle_s
        b.push("rx", min(cut, rx_from + inact), profile.lte_rx)
        if not cfg.drx_enabled:
            b.push("rx", min(cut, idle_at), profile.lte_rx)
        else:
            k = 0
            anchor = rx_from + inact
            while b.t + _EPS < min(cut, idle_at):
                c0 = anchor + k * cycle
                b.push("drx_on", min(cut, idle_at, c0 + on_s), profile.lte_drx_on)
                b.push("drx_sleep", min(cut, idle_at, c0 + cycle),
                       profile.lte_drx_sleep)
                k += 1
        b.push("idle", cut, profile.lte_idle)
        if promote_at is not None and t_to > promote_at:
            b.push("rx", t_to, profile.lte_rx)

    last = None
    for t_first, t_last, _ in runs:
        t = min(t_first, end)
        if last is None:
            promote_at = max(t - promo, 0.0)
            b.push("idle", promote_at, profile.lte_idle)
            b.push("rx", t, profile.lte_rx)
        else:
            tau = t - last
            promote_at = None
            if tau >= cfg.rrc_idle_s - _EPS:
                promote_at = max(t - promo, last + cfg.rrc_idle_s, b.t)
            carve_gap(b.t, t, last, promote_at)
        # the rest of the burst keeps the radio in continuous reception
        last = min(t_last, end)
        b.push("rx", last, profile.lte_rx)
    if last is not None:
        carve_gap(b.t, end, last, None)
    else:
        b.push("idle", end, profile.lte_idle)
    return b.timeline("lte", end)


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
