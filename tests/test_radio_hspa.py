import logging
import random

import pytest

from oracles import hspa_energy, quantize_events, step_hspa
from streamsim import HspaRrcConfig, PacketEvent, simulate_hspa
from streamsim.streams import TransferSpan
from tick_reference import expand_ticks


def _energy(tl):
    return sum(iv.current_ma * (iv.t_end_s - iv.t_start_s) for iv in tl.intervals)


def _burst(t0, nbytes, rate_bps, conn=0):
    """A transfer as tick-spaced completion events, like the delivery layer."""
    events, t, left = [], t0, nbytes
    step = rate_bps * 0.05 / 8.0
    while left > 0:
        take = min(step, left)
        t += take * 8.0 / rate_bps
        events.append(PacketEvent(round(t, 6), int(take), conn))
        left -= take
    return events


def test_big_burst_then_silence_fd_to_pch(gs3):
    """5 MB burst then a minute of silence with 5 s fast dormancy into
    CELL_PCH: DCH for the transfer plus 5 s, PCH for the rest."""
    cfg = HspaRrcConfig(t1_s=8.0, t2_s=3.0, fd_timer_s=5.0, fd_target="pch")
    events = _burst(0.0, 5 * 1024 * 1024, 8_000_000)
    burst_end = events[-1].t_s
    tl = simulate_hspa(events, cfg, gs3, session_end_s=burst_end + 60.0)
    res = tl.residency()
    assert res["dch"] == pytest.approx(burst_end + 5.0, abs=0.01)
    assert res["pch"] == pytest.approx(55.0, abs=0.01)
    assert "fach" not in res and "idle" not in res
    assert [iv.state for iv in tl.intervals] == ["dch", "pch"]


def test_no_events_whole_session_idle(gs3):
    tl = simulate_hspa([], HspaRrcConfig(), gs3, session_end_s=30.0)
    assert [(iv.state, iv.t_start_s, iv.t_end_s) for iv in tl.intervals] == [
        ("idle", 0.0, 30.0)]


def test_onoff_keepalives_match_step_oracle(gs3):
    """16 s spaced keepalive transfers oscillate the radio between DCH and
    the dormant state; per-state residency must match a 10 ms-step
    reference simulator."""
    cfg = HspaRrcConfig(fd_timer_s=5.0, fd_target="pch")
    events = []
    for k in range(8):
        events.extend(_burst(16.0 * k, 64 * 1024, 8_000_000))
    events = quantize_events(events, 0.01)
    end = 130.0
    tl = simulate_hspa(events, cfg, gs3, session_end_s=end)
    tl.validate(end)
    ref = step_hspa(events, cfg, gs3, end, step_s=0.01)
    for state in set(ref) | set(tl.residency()):
        assert tl.residency().get(state, 0.0) == pytest.approx(
            ref.get(state, 0.0), abs=0.02 * (len(tl.intervals) + 1))


@pytest.mark.parametrize("fd", [None, 5.0])
def test_timer_grid_state_at_gap_end(gs3, fd):
    """State after a silent gap of g seconds follows the configured chain,
    exhaustively over a 0-60 s grid."""
    cfg = HspaRrcConfig(t1_s=8.0, t2_s=3.0, fd_timer_s=fd, fd_target="pch")
    tl = simulate_hspa([PacketEvent(0.0, 64000, 0)], cfg, gs3,
                       session_end_s=61.0)

    def state_at(t):
        for iv in tl.intervals:
            if iv.t_start_s <= t < iv.t_end_s:
                return iv.state
        return tl.intervals[-1].state

    for g10 in range(1, 601):
        g = g10 / 10.0
        if fd is not None:
            want = "dch" if g < fd else "pch"
        else:
            want = ("dch" if g < 8.0 else
                    "fach" if g < 11.0 else "pch")
        assert state_at(g) == want, f"gap {g}"


def test_fd_idle_wins_over_t3(gs3, caplog):
    cfg = HspaRrcConfig(fd_timer_s=5.0, fd_target="idle", t3_s=100.0)
    with caplog.at_level(logging.DEBUG, logger="streamsim.radio"):
        tl = simulate_hspa([PacketEvent(0.0, 64000, 0)], cfg, gs3,
                           session_end_s=30.0)
    assert [iv.state for iv in tl.intervals] == ["dch", "idle"]
    assert any("IDLE" in rec.message for rec in caplog.records)


def test_promotion_charged_before_first_byte(gs3):
    """A packet arriving from the dormant state backdates a DCH window of
    the promotion latency."""
    cfg = HspaRrcConfig(fd_timer_s=5.0, fd_target="idle",
                        promotion_latency_s=2.0)
    events = [PacketEvent(0.0, 64000, 0), PacketEvent(30.0, 64000, 0)]
    tl = simulate_hspa(events, cfg, gs3, session_end_s=40.0)
    spans = [(iv.state, iv.t_start_s, iv.t_end_s) for iv in tl.intervals]
    assert spans == [("dch", 0.0, 5.0), ("idle", 5.0, 28.0),
                     ("dch", 28.0, 35.0), ("idle", 35.0, 40.0)]


def test_small_packets_served_in_fach_without_promotion(gs3):
    """With fast dormancy off, a sub-kilobyte packet landing during the
    FACH window stays in FACH and restarts its timer."""
    cfg = HspaRrcConfig(t1_s=8.0, t2_s=3.0, fd_timer_s=None)
    events = [PacketEvent(0.0, 64000, 0), PacketEvent(9.0, 100, 0)]
    tl = simulate_hspa(events, cfg, gs3, session_end_s=16.0)
    spans = [(iv.state, round(iv.t_start_s, 3), round(iv.t_end_s, 3))
             for iv in tl.intervals]
    assert spans == [("dch", 0.0, 8.0), ("fach", 8.0, 12.0),
                     ("pch", 12.0, 16.0)]


def test_a_timer_within_round_off_of_a_tick_spacing_splits_the_span(gs3):
    """A span's ticks 3 s - 5e-10 apart: T2 (3 s) counts as expired
    within 1e-9 s, so the second tick finds the radio in PCH and promotes
    it again.  The span and its per-tick list say so alike."""
    cfg = HspaRrcConfig(fd_timer_s=None)
    runs = [PacketEvent(0.0, 50_000, 0),
            TransferSpan(8.5, 3.0 - 5e-10, 2, 0, 500.0)]
    want = ["dch", "fach", "dch", "fach", "pch"]
    for view in (runs, expand_ticks(runs)):
        tl = simulate_hspa(view, cfg, gs3, session_end_s=30.0)
        assert [iv.state for iv in tl.intervals] == want


def test_monotone_energy_under_added_traffic(gs3):
    """Adding a packet event never decreases total radio energy (default
    fast-dormancy configuration, random event sets)."""
    rng = random.Random(5)
    cfg = HspaRrcConfig()
    for _ in range(200):
        end = 40.0
        times = sorted(round(rng.uniform(0, 35), 3) for _ in range(rng.randint(0, 7)))
        evs = [PacketEvent(t, rng.choice([60, 16000, 64000]), 0) for t in times]
        extra = PacketEvent(round(rng.uniform(0, 35), 3),
                            rng.choice([60, 64000]), 0)
        more = sorted(evs + [extra], key=lambda e: e.t_s)
        e0 = _energy(simulate_hspa(evs, cfg, gs3, end))
        e1 = _energy(simulate_hspa(more, cfg, gs3, end))
        assert e1 >= e0 - 1e-6


def test_oracle_energy_agreement_random(gs3):
    rng = random.Random(17)
    for _ in range(30):
        end = rng.choice([10.0, 25.0])
        times = sorted(round(rng.uniform(0, end - 2), 3)
                       for _ in range(rng.randint(1, 9)))
        evs = quantize_events(
            [PacketEvent(t, rng.choice([60, 500, 64000]), 0) for t in times])
        t1 = rng.choice([4.0, 8.0])
        cfg = HspaRrcConfig(t1_s=t1, fd_timer_s=rng.choice([None, 3.0]),
                            fd_target=rng.choice(["pch", "idle"]))
        tl = simulate_hspa(evs, cfg, gs3, end)
        tl.validate(end)
        ref = hspa_energy(step_hspa(evs, cfg, gs3, end), gs3)
        assert _energy(tl) == pytest.approx(ref, rel=1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        HspaRrcConfig(t1_s=0.0)
    with pytest.raises(ValueError):
        HspaRrcConfig(fd_timer_s=9.0, t1_s=8.0)
    with pytest.raises(ValueError):
        HspaRrcConfig(fd_target="dch")
