import math

import pytest

from streamsim import (HspaRrcConfig, LteDrxConfig, PacketEvent,
                       WifiPsmConfig, promotion_latency, simulate_radio)


def test_promotion_latency_values():
    assert promotion_latency("hspa") == 2.0
    assert promotion_latency("lte") == 0.12
    assert promotion_latency("wifi") == 0.0


def test_promotion_latency_rejects_unknown():
    with pytest.raises(ValueError, match="unknown radio technology"):
        promotion_latency("5g")


def test_dispatch_matches_technology(gs3):
    ev = [PacketEvent(1.0, 64000, 0)]
    assert simulate_radio("wifi", ev, WifiPsmConfig(), gs3, 5.0).technology == "wifi"
    assert simulate_radio("hspa", ev, HspaRrcConfig(), gs3, 5.0).technology == "hspa"
    assert simulate_radio("lte", ev, LteDrxConfig(), gs3, 5.0).technology == "lte"
    with pytest.raises(ValueError):
        simulate_radio("umts", ev, HspaRrcConfig(), gs3, 5.0)


def test_events_past_session_end_rejected(gs3):
    ev = [PacketEvent(10.0, 100, 0)]
    with pytest.raises(ValueError, match="session_end"):
        simulate_radio("hspa", ev, HspaRrcConfig(), gs3, 5.0)


def test_timeline_validate_catches_gap(gs3):
    tl = simulate_radio("hspa", [PacketEvent(1.0, 64000, 0)],
                        HspaRrcConfig(), gs3, 10.0)
    tl.validate(10.0)
    del tl.intervals[1]
    with pytest.raises(AssertionError):
        tl.validate(10.0)


@pytest.mark.parametrize("cls,field", [
    (HspaRrcConfig, "t1_s"), (HspaRrcConfig, "t3_s"),
    (HspaRrcConfig, "fd_timer_s"), (HspaRrcConfig, "promotion_latency_s"),
    (LteDrxConfig, "rrc_idle_s"), (LteDrxConfig, "drx_inactivity_ms"),
    (LteDrxConfig, "drx_on_ms"), (LteDrxConfig, "promotion_latency_ms"),
    (WifiPsmConfig, "tail_ms"), (WifiPsmConfig, "listen_interval_ms"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_radio_configs_reject_non_finite_timers(cls, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        cls(**{field: value})


def _expiry(technology, cfg, profile, state):
    """When the first interval in state ends after one packet at 0."""
    tl = simulate_radio(technology, [PacketEvent(0.0, 64000, 0)], cfg,
                        profile, 30.0)
    return next(iv.t_end_s for iv in tl.intervals if iv.state == state)


@pytest.mark.parametrize("technology,cfg,state", [
    ("wifi", WifiPsmConfig(), "idle_tail"),
    ("hspa", HspaRrcConfig(fd_timer_s=None), "dch"),    # FACH serves it
    ("hspa", HspaRrcConfig(fd_timer_s=None), "fach"),   # PCH promotes it
    ("lte", LteDrxConfig(), "rx"),
    ("lte", LteDrxConfig(), "drx_sleep"),
], ids=["wifi-idle_tail", "hspa-dch", "hspa-fach", "lte-rx", "lte-drx_sleep"])
@pytest.mark.parametrize("offset", [-1e-9, -5e-10, 0.0, 5e-10, 1e-9])
def test_a_burst_within_round_off_of_a_timer_leaves_no_hole(
        gs3, technology, cfg, state, offset):
    """A timer counts as expired within 1e-9 s, so a burst that close to
    one cuts a sliver off the state it ends; the sliver is covered, and
    each interval starts exactly where the one before it ends."""
    t = _expiry(technology, cfg, gs3, state) + offset
    events = [PacketEvent(0.0, 64000, 0), PacketEvent(t, 500, 0),
              PacketEvent(t + 0.01, 500, 0)]
    tl = simulate_radio(technology, events, cfg, gs3, 30.0)
    assert tl.intervals[0].t_start_s == 0.0
    for a, b in zip(tl.intervals, tl.intervals[1:]):
        assert b.t_start_s == a.t_end_s, (a, b)
    assert tl.intervals[-1].t_end_s == 30.0
