import math
import random

import pytest

import tick_reference
from oracles import lte_energy, quantize_events, step_lte
from streamsim import LteDrxConfig, PacketEvent, simulate_lte


def _energy(tl):
    return sum(iv.current_ma * (iv.t_end_s - iv.t_start_s) for iv in tl.intervals)


def _window_avg(tl, a, b):
    charge = 0.0
    for iv in tl.intervals:
        lo, hi = max(iv.t_start_s, a), min(iv.t_end_s, b)
        if hi > lo:
            charge += iv.current_ma * (hi - lo)
    return charge / (b - a)


def test_nodrx_full_rx_tail(gs3):
    """With DRX disabled the connected state burns reception current for
    the whole 10 s inactivity window, then drops to idle."""
    cfg = LteDrxConfig(rrc_idle_s=10.0, drx_enabled=False)
    tl = simulate_lte([PacketEvent(1.0, 64000, 0)], cfg, gs3,
                      session_end_s=20.0)
    res = tl.residency()
    # session-start promotion (0.12 s) plus the 10 s reception tail
    assert res["rx"] == pytest.approx(10.12, abs=1e-9)
    assert "drx_on" not in res and "drx_sleep" not in res
    assert tl.intervals[-1].state == "idle"
    assert tl.intervals[-1].t_start_s == pytest.approx(11.0)


def test_drx_cycle_ratio_80_vs_640(gs3):
    """Halving power three-fold: the 640 ms cycle draws about a third of
    the 80 ms cycle's tail current on identical gap traffic."""
    events = [PacketEvent(t, 16000, 0) for t in (0.0, 0.05, 0.1)]
    tails = {}
    for cyc in (80.0, 640.0):
        cfg = LteDrxConfig(drx_cycle_ms=cyc)
        tl = simulate_lte(events, cfg, gs3, session_end_s=60.0)
        tails[cyc] = _window_avg(tl, 0.1 + 0.1, 0.1 + 10.0)
    ratio = tails[80.0] / tails[640.0]
    assert ratio == pytest.approx(3.0, rel=0.2)


def test_zero_length_session_empty_timeline(gs3):
    tl = simulate_lte([], LteDrxConfig(), gs3, session_end_s=0.0)
    assert tl.intervals == []
    tl.validate(0.0)


def test_drx_on_period_count_in_gap(gs3):
    """on-periods in a gap of length g number floor((g - inactivity)/cycle)
    within one."""
    cfg = LteDrxConfig(drx_cycle_ms=80.0, rrc_idle_s=100.0)
    for g in (0.5, 1.0, 2.35, 7.8, 30.0, 99.0):
        tl = simulate_lte([PacketEvent(0.0, 64000, 0)], cfg, gs3,
                          session_end_s=g)
        n_on = sum(1 for iv in tl.intervals if iv.state == "drx_on")
        expect = max(0, math.floor((g - 0.1) / 0.08))
        assert abs(n_on - expect) <= 1, f"gap {g}: {n_on} vs {expect}"


def test_on_period_uses_device_overstay(gs3):
    """GS3 actually stays awake 45 ms per on-period despite the 10 ms
    configuration, and that is what gets charged."""
    cfg = LteDrxConfig(drx_cycle_ms=80.0, drx_on_ms=10.0)
    tl = simulate_lte([PacketEvent(0.0, 64000, 0)], cfg, gs3,
                      session_end_s=5.0)
    ons = [iv for iv in tl.intervals if iv.state == "drx_on"]
    assert ons and all(
        iv.t_end_s - iv.t_start_s == pytest.approx(0.045, abs=1e-9)
        for iv in ons[:-1])


def test_promotion_from_idle_charged_at_rx(gs3):
    cfg = LteDrxConfig(promotion_latency_ms=120.0)
    events = [PacketEvent(0.0, 64000, 0), PacketEvent(30.0, 64000, 0)]
    tl = simulate_lte(events, cfg, gs3, session_end_s=40.0)
    promo = [iv for iv in tl.intervals
             if iv.state == "rx" and abs(iv.t_start_s - 29.88) < 1e-6]
    assert promo and promo[0].t_end_s >= 30.0


def test_session_start_promotion(gs3):
    tl = simulate_lte([PacketEvent(1.0, 64000, 0)], LteDrxConfig(), gs3,
                      session_end_s=2.0)
    assert [(iv.state, round(iv.t_start_s, 3)) for iv in tl.intervals[:2]] == [
        ("idle", 0.0), ("rx", 0.88)]


def test_config_validation():
    with pytest.raises(ValueError):
        LteDrxConfig(drx_cycle_ms=10.0)        # below the valid cycle range
    with pytest.raises(ValueError):
        LteDrxConfig(drx_cycle_ms=6000.0)
    with pytest.raises(ValueError):
        LteDrxConfig(drx_on_ms=90.0, drx_cycle_ms=80.0)
    with pytest.raises(ValueError):
        LteDrxConfig(rrc_idle_s=0.0)
    # continuous reception past the 10 s RRC release would never enter DRX
    with pytest.raises(ValueError, match="drx_inactivity_ms must not exceed"):
        LteDrxConfig(drx_inactivity_ms=20000.0)
    assert LteDrxConfig(drx_inactivity_ms=10000.0).rrc_idle_s == 10.0


def test_monotone_energy_under_added_traffic(gs3):
    """Added traffic never reduces energy, except that one extra packet can
    legitimately cancel an IDLE promotion by keeping the radio connected;
    the saving is bounded by one promotion window."""
    rng = random.Random(23)
    cfg = LteDrxConfig()
    promo_bound = (cfg.promotion_latency_ms / 1000.0
                   * (gs3.lte_rx - gs3.lte_drx_sleep))
    for _ in range(150):
        end = 40.0
        times = sorted(round(rng.uniform(0, 35), 3)
                       for _ in range(rng.randint(0, 6)))
        evs = [PacketEvent(t, 16000, 0) for t in times]
        more = sorted(evs + [PacketEvent(round(rng.uniform(0, 35), 3), 16000, 0)],
                      key=lambda e: e.t_s)
        e0 = _energy(simulate_lte(evs, cfg, gs3, end))
        e1 = _energy(simulate_lte(more, cfg, gs3, end))
        assert e1 >= e0 - promo_bound


def test_oracle_energy_agreement_random(gs3):
    rng = random.Random(29)
    for _ in range(30):
        end = rng.choice([8.0, 20.0])
        times = sorted(round(rng.uniform(0, end - 1), 3)
                       for _ in range(rng.randint(1, 8)))
        evs = quantize_events([PacketEvent(t, 16000, 0) for t in times])
        cfg = LteDrxConfig(drx_cycle_ms=rng.choice([80.0, 160.0, 640.0]),
                           drx_enabled=rng.random() > 0.25,
                           rrc_idle_s=rng.choice([5.0, 10.0]))
        tl = simulate_lte(evs, cfg, gs3, end)
        tl.validate(end)
        ref = lte_energy(step_lte(evs, cfg, gs3, end), gs3)
        assert _energy(tl) == pytest.approx(ref, rel=1e-3)


def test_drx_stage_is_one_periodic_run_up_to_any_burst(gs3):
    """Bursts that land anywhere in a gap's DRX stage, from its first
    cycles to the release, cut it as walking every cycle does: the
    on-periods and sleeps before the cut are one periodic run each gap,
    and they read out as the per-packet walk's intervals."""
    rng = random.Random(5)
    cfg = LteDrxConfig(drx_cycle_ms=80.0, rrc_idle_s=10.0)
    t, events = 0.0, []
    for _ in range(40):
        events.append(PacketEvent(t, 16000, 0))
        t += rng.choice([0.35, 0.5, 1.0, 2.37, 4.0, 7.99, 9.95, 12.0])
    tl = simulate_lte(events, cfg, gs3, t + 3.0)
    want = tick_reference.simulate_radio_per_packet("lte", events, cfg, gs3,
                                                    t + 3.0)
    assert [iv.state for iv in tl.intervals] == [
        iv.state for iv in want.intervals]
    for a, b in zip(tl.intervals, want.intervals):
        assert a.t_start_s == pytest.approx(b.t_start_s, abs=1e-9)
        assert a.t_end_s == pytest.approx(b.t_end_s, abs=1e-9)
    assert len(tl.spans()) > 10 * tl.n_runs
    tl.validate(t + 3.0)
