import random

import pytest

from conftest import make_scenario
from oracles import riemann_energy
from streamsim import (EncodingRate, FastCaching, LinkModel,
                       PacketEvent, RadioTimeline, StreamSpec, Throttling,
                       get_profile, integrate_energy, preset, simulate_hspa,
                       simulate_lte)
from streamsim.radio import HspaRrcConfig, LteDrxConfig, RadioInterval
from streamsim.session import run_session


def test_arithmetic_identity_76_joules(gs3):
    tl = RadioTimeline("hspa", [RadioInterval("dch", 0.0, 100.0, 200.0)])
    avg, joules = integrate_energy(tl, gs3, 100.0)
    assert avg == pytest.approx(200.0)
    assert joules == pytest.approx(200.0 / 1000.0 * 3.8 * 100.0)  # 76 J


def test_coverage_gap_rejected(gs3):
    tl = RadioTimeline("hspa", [RadioInterval("dch", 0.0, 50.0, 200.0)])
    with pytest.raises(AssertionError):
        integrate_energy(tl, gs3, 100.0)


def test_random_timeline_matches_riemann_oracle(gs3):
    rng = random.Random(41)
    for _ in range(20):
        t, intervals = 0.0, []
        for _ in range(rng.randint(3, 12)):
            dt = rng.randint(1, 4000) / 1000.0
            intervals.append(RadioInterval("dch", t, t + dt,
                                           rng.uniform(1.0, 300.0)))
            t += dt
        tl = RadioTimeline("hspa", intervals)
        avg, _ = integrate_energy(tl, gs3, t)
        assert avg * t == pytest.approx(riemann_energy(tl), rel=1e-3)


def _enc_streaming_current(radio_tech, hd_stream, link4):
    sc = make_scenario(hd_stream, link4, EncodingRate(), radio_tech)
    return run_session(sc).summary.avg_streaming_current_ma


def test_anchored_absolutes_encoding_rate(hd_stream, link4):
    """GS3 LTE handset streaming an HD video at the encoding rate draws
    about 77 mA over Wi-Fi, 200 mA over HSPA, 310 mA over LTE."""
    assert _enc_streaming_current("wifi", hd_stream, link4) == \
        pytest.approx(77.0, rel=0.15)
    assert _enc_streaming_current("hspa", hd_stream, link4) == \
        pytest.approx(200.0, rel=0.15)
    assert _enc_streaming_current("lte", hd_stream, link4) == \
        pytest.approx(310.0, rel=0.15)


def test_onoffm_saves_roughly_half_on_hspa(hd_stream, link4):
    enc = _enc_streaming_current("hspa", hd_stream, link4)
    sc = make_scenario(hd_stream, link4, preset("youtube_onoffm"), "hspa")
    onoffm = run_session(sc).summary.avg_streaming_current_ma
    assert 0.4 <= onoffm / enc <= 0.6


def test_technique_ordering_hspa_and_lte(hd_stream):
    """Average streaming current orders fast caching, factor-2 throttling,
    buffer-adaptive multi-connection and encoding rate, for any spare
    bandwidth of at least twice the encoding rate."""
    for radio_tech in ("hspa", "lte"):
        for ratio in (2.0, 4.0, 8.0):
            link = LinkModel.constant(ratio * hd_stream.encoding_rate_bps, 70)
            cur = {}
            for name, tech in (
                    ("fast_caching", FastCaching()),
                    ("throttling", Throttling(factor=2.0, chunk_bytes=192 * 1024)),
                    ("on_off_m", preset("youtube_onoffm")),
                    ("encoding_rate", EncodingRate())):
                sc = make_scenario(hd_stream, link, tech, radio_tech)
                cur[name] = run_session(sc).summary.avg_streaming_current_ma
            assert (cur["fast_caching"] <= cur["throttling"] + 0.5
                    <= cur["on_off_m"] + 1.0
                    <= cur["encoding_rate"] + 1.5), (radio_tech, ratio, cur)


def test_throttling_never_worse_than_onoffm_hspa(hd_stream, link4):
    thr = run_session(make_scenario(
        hd_stream, link4, Throttling(factor=2.0, chunk_bytes=192 * 1024),
        "hspa")).summary.avg_streaming_current_ma
    onoffm = run_session(make_scenario(
        hd_stream, link4, preset("youtube_onoffm"),
        "hspa")).summary.avg_streaming_current_ma
    assert thr <= onoffm


def test_vimeo_keepalives_cost_more_than_netflix_resets(hd_stream, link4):
    """Mid-OFF keepalives every 16 s keep the radio hotter than fixed 30 s
    OFF periods with 10 s persist probing."""
    vim = run_session(make_scenario(hd_stream, link4, preset("vimeo_onoffs"),
                                    "hspa")).summary
    net = run_session(make_scenario(hd_stream, link4, preset("netflix_onoffs"),
                                    "hspa")).summary
    assert vim.avg_streaming_current_ma >= net.avg_streaming_current_ma


def test_drx_cycle_scaling_factor_three(gs3):
    events = [PacketEvent(t, 16000, 0) for t in (0.0, 0.05, 0.1)]
    tails = {}
    for cyc in (80.0, 640.0):
        tl = simulate_lte(events, LteDrxConfig(drx_cycle_ms=cyc), gs3, 60.0)
        charge = 0.0
        for iv in tl.intervals:
            lo, hi = max(iv.t_start_s, 0.2), min(iv.t_end_s, 10.1)
            if hi > lo:
                charge += iv.current_ma * (hi - lo)
        tails[cyc] = charge / 9.9
    assert 2.4 <= tails[80.0] / tails[640.0] <= 3.6


def test_zero_traffic_session_is_pure_idle_energy(gs3):
    tl = simulate_hspa([], HspaRrcConfig(), gs3, 100.0)
    avg, _ = integrate_energy(tl, gs3, 100.0)
    assert avg == pytest.approx(gs3.hspa_idle)
    tl = simulate_lte([], LteDrxConfig(), gs3, 100.0)
    avg, _ = integrate_energy(tl, gs3, 100.0)
    assert avg == pytest.approx(gs3.lte_idle)


def test_summary_fields_and_invariants(hd_stream, link4):
    sc = make_scenario(hd_stream, link4, EncodingRate(), "hspa")
    s = run_session(sc).summary
    assert s.avg_total_current_ma == pytest.approx(
        s.avg_streaming_current_ma + s.avg_playback_current_ma)
    assert sum(s.state_residency.values()) == pytest.approx(s.wall_time_s)
    assert s.energy_j == pytest.approx(
        s.avg_total_current_ma / 1000.0 * 3.8 * s.wall_time_s)
    d = s.to_json_dict()
    for key in ("joining_time_s", "stall_total_s", "bytes_downloaded",
                "bytes_wasted", "avg_streaming_current_mA",
                "avg_total_current_mA", "energy_J", "state_residency"):
        assert key in d


def test_full_watch_waste_identity(hd_stream, link4):
    """Watching to the end, wasted bytes equal the download overshoot."""
    stream = StreamSpec(duration_s=600, encoding_rate_bps=2_000_000,
                        keyframe_interval_bytes=2e6)
    s = run_session(make_scenario(stream, link4, FastCaching(), "hspa")).summary
    assert s.bytes_wasted == pytest.approx(
        s.bytes_downloaded - stream.size_bytes, abs=2.0)
    assert s.bytes_wasted == pytest.approx(0.0, abs=2.0)


def test_playback_constant_enters_total(hd_stream, link4, gs3):
    s = run_session(make_scenario(hd_stream, link4, FastCaching(),
                                  "hspa")).summary
    assert s.avg_playback_current_ma == pytest.approx(gs3.playback_ma)


def test_engine_rejects_byte_mismatch(hd_stream, link4):
    """Byte conservation is checked once, by the delivery engine, on the
    log the summary reports."""
    from streamsim import delivery
    eng = delivery._Engine(hd_stream, link4, None)
    delivery._run_fast_caching(eng, FastCaching())
    eng.log.bytes_consumed -= 1e6   # corrupt the accounting
    with pytest.raises(AssertionError, match="conservation"):
        eng.finalize()
