"""Independent reference implementations used only by the tests.

These re-derive radio state per fixed time step straight from the model
rules (timers, burst merging, promotion lookahead) without any interval
arithmetic, so they catch bookkeeping mistakes in the production
simulators.  Steps sample cell midpoints, so grid-aligned transitions
never coincide with a sample and grid-aligned inputs integrate exactly.
"""

from __future__ import annotations

import math
from dataclasses import replace

from streamsim.profiles import PowerProfile
from streamsim.radio import (HspaRrcConfig, LteDrxConfig, RadioTimeline,
                             WifiPsmConfig, wifi_sleep_current)
from streamsim.streams import PacketEvent, per_packet


def quantize_events(events, step_s: float = 0.001):
    """Snap event times to the step grid (order is preserved)."""
    out = []
    prev = 0.0
    for e in per_packet(events, "quantize_events"):
        t = round(e.t_s / step_s) * step_s
        t = max(t, prev)
        out.append(replace(e, t_s=t))
        prev = t
    return out


class _EventCursor:
    """Walks sorted event times once as the sample clock advances."""

    def __init__(self, times):
        self.times = times
        self.i = -1          # index of last event <= t

    def advance(self, t: float) -> int:
        n = len(self.times)
        while self.i + 1 < n and self.times[self.i + 1] <= t:
            self.i += 1
        return self.i


def step_wifi(events: list[PacketEvent], cfg: WifiPsmConfig,
              profile: PowerProfile, end_s: float,
              step_s: float = 0.001) -> dict[str, float]:
    times = [e.t_s for e in events]
    tail = cfg.tail_ms / 1000.0
    n = len(times)
    cur = _EventCursor(times)
    res: dict[str, float] = {}
    for k in range(round(end_s / step_s)):
        t = (k + 0.5) * step_s
        i = cur.advance(t)
        if i < 0:
            st = "sleep"
        elif i + 1 < n and times[i + 1] - times[i] <= tail + 1e-12:
            st = "active"          # inside a merged burst
        elif t - times[i] <= tail + 1e-12:
            st = "idle_tail"
        else:
            st = "sleep"
        res[st] = res.get(st, 0.0) + step_s
    if not cfg.sleep_current_applies and "sleep" in res:
        res["idle_tail"] = res.get("idle_tail", 0.0) + res.pop("sleep")
    return res


def wifi_energy(res: dict[str, float], cfg: WifiPsmConfig,
                profile: PowerProfile) -> float:
    cur = {"active": profile.wifi_active, "idle_tail": profile.wifi_idle_tail,
           "sleep": wifi_sleep_current(cfg, profile)}
    return sum(cur[s] * dt for s, dt in res.items())


def _hspa_chain_state(cfg: HspaRrcConfig, after: str, tau: float) -> str:
    if after == "dch":
        fd = cfg.fd_timer_s
        if fd is not None:
            if tau < fd:
                return "dch"
            if cfg.fd_target == "idle":
                return "idle"
            return "pch" if tau < fd + cfg.t3_s else "idle"
        if tau < cfg.t1_s:
            return "dch"
        if tau < cfg.t1_s + cfg.t2_s:
            return "fach"
        if tau < cfg.t1_s + cfg.t2_s + cfg.t3_s:
            return "pch"
        return "idle"
    if after == "fach":
        if tau < cfg.t2_s:
            return "fach"
        if tau < cfg.t2_s + cfg.t3_s:
            return "pch"
        return "idle"
    return "idle"


def step_hspa(events: list[PacketEvent], cfg: HspaRrcConfig,
              profile: PowerProfile, end_s: float,
              step_s: float = 0.001) -> dict[str, float]:
    times = [e.t_s for e in events]
    n = len(times)
    # state carried out of each event, derived sequentially
    state_after: list[str] = []
    for i, e in enumerate(events):
        if i == 0:
            before = "idle"
        else:
            before = _hspa_chain_state(cfg, state_after[i - 1],
                                       e.t_s - times[i - 1])
        if before in ("pch", "idle"):
            state_after.append("dch")
        elif before == "fach":
            state_after.append("fach" if e.bytes < cfg.fach_max_bytes else "dch")
        else:
            state_after.append("dch")

    cur = _EventCursor(times)
    res: dict[str, float] = {}
    for k in range(round(end_s / step_s)):
        t = (k + 0.5) * step_s
        i = cur.advance(t)
        if i < 0:
            base = "idle"
        else:
            base = _hspa_chain_state(cfg, state_after[i], t - times[i])
        j = i + 1
        if j < n and base in ("pch", "idle") \
                and t >= times[j] - cfg.promotion_latency_s - 1e-12:
            base = "dch"
        res[base] = res.get(base, 0.0) + step_s
    return res


def hspa_energy(res: dict[str, float], profile: PowerProfile) -> float:
    cur = {"dch": profile.hspa_dch, "fach": profile.hspa_fach,
           "pch": profile.hspa_pch, "idle": profile.hspa_idle}
    return sum(cur[s] * dt for s, dt in res.items())


def step_lte(events: list[PacketEvent], cfg: LteDrxConfig,
             profile: PowerProfile, end_s: float,
             step_s: float = 0.001) -> dict[str, float]:
    times = [e.t_s for e in events]
    n = len(times)
    inact = cfg.drx_inactivity_ms / 1000.0
    cycle = cfg.drx_cycle_ms / 1000.0
    on_s = min(profile.drx_on_overstay_ms, cfg.drx_cycle_ms) / 1000.0
    promo = cfg.promotion_latency_ms / 1000.0
    cur = _EventCursor(times)
    res: dict[str, float] = {}
    for k in range(round(end_s / step_s)):
        t = (k + 0.5) * step_s
        i = cur.advance(t)
        if i < 0:
            st = "idle"
        else:
            tau = t - times[i]
            if tau < inact:
                st = "rx"
            elif tau < cfg.rrc_idle_s:
                if not cfg.drx_enabled:
                    st = "rx"
                else:
                    phase = math.fmod(tau - inact, cycle)
                    st = "drx_on" if phase < on_s - 1e-12 else "drx_sleep"
            else:
                st = "idle"
        j = i + 1
        if j < n and st == "idle" and t >= times[j] - promo - 1e-12:
            st = "rx"
        res[st] = res.get(st, 0.0) + step_s
    return res


def lte_energy(res: dict[str, float], profile: PowerProfile) -> float:
    cur = {"rx": profile.lte_rx, "drx_on": profile.lte_drx_on,
           "drx_sleep": profile.lte_drx_sleep, "idle": profile.lte_idle}
    return sum(cur[s] * dt for s, dt in res.items())


def riemann_energy(timeline: RadioTimeline, step_s: float = 0.001) -> float:
    """Fixed-step integral of a timeline's current, in mA*s."""
    end = timeline.end_s
    total = 0.0
    it = iter(timeline.intervals)
    iv = next(it, None)
    k = 0
    while iv is not None and k * step_s < end - 1e-12:
        t = (k + 0.5) * step_s
        while iv is not None and t >= iv.t_end_s - 1e-12:
            iv = next(it, None)
        if iv is None:
            break
        total += iv.current_ma * step_s
        k += 1
    return total
