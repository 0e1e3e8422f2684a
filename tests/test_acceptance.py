"""Release acceptance suite.

One test per acceptance criterion, each printing a pass/fail line so the
suite doubles as a checklist (`pytest -sv tests/test_acceptance.py`).
All tolerances are pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import make_scenario, steady_off_durations
from oracles import (hspa_energy, lte_energy, quantize_events, step_hspa,
                     step_lte, step_wifi, wifi_energy)
from streamsim import (EncodingRate, FastCaching, Hls, HspaRrcConfig,
                       LinkModel, LteDrxConfig, Mss, OnOffM, OnOffS,
                       PacketEvent, StreamSpec, Throttling, WifiPsmConfig,
                       abandonment_sweep, buffer_size_sweep, classify,
                       compute_buffer, get_profile, joining_time, preset,
                       simulate_hspa, simulate_lte, simulate_multi_connection_waste,
                       simulate_radio, simulate_session, simulate_wifi)
from streamsim.session import run_session
from streamsim.traces import records_from_events
from tick_reference import expand_ticks, log_tick


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>3}] FAIL  {desc}")
        raise
    print(f"[criterion {num:>3}] PASS  {desc}")


HD = StreamSpec(duration_s=600.0, encoding_rate_bps=2_000_000.0)
LINK4 = LinkModel.constant(4 * HD.encoding_rate_bps, rtt_ms=70.0)


def _streaming_ma(tech, radio_tech="hspa", stream=HD, link=LINK4):
    sc = make_scenario(stream, link, tech, radio_tech)
    return run_session(sc).summary.avg_streaming_current_ma


def test_criterion_01_technique_energy_ordering():
    with criterion(1, "technique energy ordering on HSPA at C=4x"):
        t0 = time.perf_counter()
        cur = {
            "fast_caching": _streaming_ma(FastCaching()),
            "throttling": _streaming_ma(Throttling(factor=2.0,
                                                   chunk_bytes=192 * 1024)),
            "on_off_m": _streaming_ma(preset("youtube_onoffm")),
            "encoding_rate": _streaming_ma(EncodingRate()),
        }
        elapsed = time.perf_counter() - t0
        assert (cur["fast_caching"] < cur["throttling"]
                < cur["on_off_m"] < cur["encoding_rate"]), cur
        assert elapsed / 4 < 5.0, f"{elapsed / 4:.2f}s per session"


def test_criterion_02_anchored_absolute_currents():
    with criterion(2, "encoding-rate anchors: 77/200/310 mA +-15%"):
        wifi = _streaming_ma(EncodingRate(), "wifi")
        hspa = _streaming_ma(EncodingRate(), "hspa")
        lte = _streaming_ma(EncodingRate(), "lte")
        assert wifi == pytest.approx(77.0, rel=0.15), wifi
        assert hspa == pytest.approx(200.0, rel=0.15), hspa
        assert lte == pytest.approx(310.0, rel=0.15), lte


def test_criterion_03_onoffm_halves_encoding_rate():
    with criterion(3, "ON-OFF-M / encoding-rate current ratio in [0.4, 0.6]"):
        ratio = (_streaming_ma(preset("youtube_onoffm"))
                 / _streaming_ma(EncodingRate()))
        assert 0.4 <= ratio <= 0.6, ratio


def test_criterion_04_drx_cycle_scaling():
    with criterion(4, "DRX80/DRX640 idle-gap current ratio in [2.4, 3.6]"):
        gs3 = get_profile("gs3-lte")
        events = [PacketEvent(t, 16000, 0) for t in (0.0, 0.05, 0.1)]
        tail = {}
        for cyc in (80.0, 640.0):
            tl = simulate_lte(events, LteDrxConfig(drx_cycle_ms=cyc), gs3, 60.0)
            charge = sum(iv.current_ma * (min(iv.t_end_s, 10.1)
                                          - max(iv.t_start_s, 0.2))
                         for iv in tl.intervals
                         if iv.t_end_s > 0.2 and iv.t_start_s < 10.1)
            tail[cyc] = charge / 9.9
        ratio = tail[80.0] / tail[640.0]
        assert 2.4 <= ratio <= 3.6, ratio


def test_criterion_05_buffer_plateaus():
    with criterion(5, "buffer plateaus: encoding [25,45]s, caching ~200s, "
                      "segmented [55,75]s"):
        events, _ = simulate_session(HD, LINK4, EncodingRate())
        join = joining_time(EncodingRate(), HD, LINK4, "wifi")
        tl = compute_buffer(expand_ticks(events), HD, join)
        vals = [tl.value_at(t) for t in range(100, 500, 20)]
        assert all(25.0 <= v <= 45.0 for v in vals), (min(vals), max(vals))

        link120 = LinkModel.constant(HD.size_bytes * 8 / 120.0, rtt_ms=70)
        ev2, _ = simulate_session(HD, link120, FastCaching())
        j2 = joining_time(FastCaching(), HD, link120, "wifi")
        tl2 = compute_buffer(expand_ticks(ev2), HD, j2)
        at50 = tl2.value_at(j2 + 50.0)
        assert 160.0 <= at50 <= 240.0, at50

        link_fast = LinkModel.constant(20_000_000, rtt_ms=30)
        _, dlog = simulate_session(HD, link_fast, Hls())
        mid = [r.buffer_s_after for r in expand_ticks(dlog.records, log_tick)
               if r.event == "data" and 200 < r.t_s < 500]
        assert 55.0 <= min(mid) and max(mid) <= 75.0, (min(mid), max(mid))


def test_criterion_06_onoff_mechanics():
    with criterion(6, "OFF=60+-1s fixed, refill at 40s, probe caps exactly "
                      "5s and 10s"):
        _, dlog = simulate_session(HD, LINK4, preset("youtube_onoffm"))
        offs = steady_off_durations(dlog)
        assert offs and all(abs(o - 60.0) <= 1.0 for o in offs), offs

        _, dlog2 = simulate_session(HD, LINK4, OnOffM(upper_s=100, lower_s=40))
        refills = [r.buffer_s_after
                   for r in expand_ticks(dlog2.records, log_tick)
                   if r.event == "open"][1:]
        assert refills and all(abs(v - 40.0) <= 1.0 for v in refills), refills

        for name, cap in (("vimeo_onoffs", 5.0), ("netflix_onoffs", 10.0)):
            events = expand_ticks(simulate_session(HD, LINK4, preset(name))[0])
            probes = [e.t_s for e in events if e.kind == "persist_probe"]
            datas = [e.t_s for e in events if e.kind == "data"]
            gaps = [b - a for a, b in zip(probes, probes[1:])
                    if not any(a < t < b for t in datas)]
            assert max(gaps) == pytest.approx(cap, abs=1e-6), (name, max(gaps))


def test_criterion_07_joining_time_ordering():
    with criterion(7, "join(wifi) < join(lte) < join(hspa), gap >= 1.9s"):
        j = {rt: joining_time(EncodingRate(), HD, LINK4, rt)
             for rt in ("wifi", "lte", "hspa")}
        assert j["wifi"] < j["lte"] < j["hspa"], j
        assert j["hspa"] - j["wifi"] >= 1.9, j


SWEEP_SIZES = [10.0, 20.0, 30.0, 40.0, 50.0, 100.0, 150.0, 200.0]


def _buffer_sweep_points():
    sc = make_scenario(HD, LINK4, OnOffM(upper_s=210.0, lower_s=40.0), "hspa")
    res = buffer_size_sweep(sc, SWEEP_SIZES, c_over_s_ratios=[4.0])
    return {p.x: p.relative_power for p in res[4.0].points}


def test_criterion_08a_buffer_sweep_monotone():
    with criterion("8a", "relative power monotone non-increasing in buffer "
                         "size"):
        pts = _buffer_sweep_points()
        ys = [pts[x] for x in SWEEP_SIZES]
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:])), ys


@pytest.mark.xfail(
    strict=True,
    reason="Structurally unattainable: with a fixed promotion plus dormancy "
    "tail charged once per refill cycle, average power follows A + B/size, "
    "so the 50->200 s drop is pinned near (1/50 - 1/200)/(1/10 - 1/50) = "
    "18.75% of the 10->50 s drop for any constants; the required < 5% "
    "would need the per-cycle overhead itself to vanish beyond 50 s. "
    "See notes in the decisions ledger.")
def test_criterion_08b_marginal_gain_beyond_50s():
    with criterion("8b", "50->200s reduction < 5% of the 10->50s reduction"):
        pts = _buffer_sweep_points()
        d1 = pts[10.0] - pts[50.0]
        d2 = pts[50.0] - pts[200.0]
        assert d2 < 0.05 * d1, f"ratio {d2 / d1:.3f}"


def test_criterion_09_abandonment_sweep():
    with criterion(9, "abandonment curves non-increasing with a crossover"):
        sc = make_scenario(HD, LINK4, preset("youtube_onoffm"), "hspa")
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        res = abandonment_sweep(sc, grid)
        fc = {p.x: p.avg_current_ma for p in res["fast_caching"].points}
        om = {p.x: p.avg_current_ma for p in res["on_off_m"].points}
        for curve in (fc, om):
            ys = [curve[x] for x in grid]
            assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:])), ys
        assert om[0.2] < fc[0.2], "buffer-adaptive must win at low fractions"
        assert fc[1.0] <= om[1.0], "caching must win at full viewing"


def _random_scenario(rng):
    dur = rng.uniform(5.0, 20.0)
    rate = rng.choice([400_000.0, 1_000_000.0, 2_000_000.0])
    stream = StreamSpec(duration_s=dur, encoding_rate_bps=rate)
    base = rate * rng.choice([1.5, 2.0, 4.0, 8.0])
    if rng.random() < 0.3:
        a = rng.uniform(1.0, dur * 0.5)
        link = LinkModel(((0.0, base), (a, base * rng.choice([0.0, 0.3])),
                          (a + rng.uniform(1.0, 5.0), base)), rtt_ms=70)
    else:
        link = LinkModel.constant(base, rtt_ms=70)
    bps = rate / 8.0
    tech = rng.choice([
        EncodingRate(faststart_target_s=5.0),
        FastCaching(),
        Throttling(factor=rng.choice([1.25, 2.0]), chunk_bytes=16 * 1024,
                   faststart_target_s=4.0),
        OnOffM(upper_s=8.0, lower_s=3.0),
        OnOffM(upper_s=8.0, lower_s=3.0, off_fixed_s=4.0),
        OnOffS(upper_bytes=6.0 * bps, lower_s=1.0, keepalive_interval_s=3.0,
               keepalive_bytes=4096, persist_cap_s=2.0,
               faststart_target_s=4.0),
        Hls(chunk_s=2.0, initial_chunks=3,
            ladder=(("lo", rate * 0.5), ("hi", rate))),
        Mss(video_chunk_s=1.0, startup_buffer_s=5.0,
            ladder=(("lo", rate * 0.5), ("hi", rate))),
    ])
    radio_tech = rng.choice(["wifi", "hspa", "lte"])
    if radio_tech == "wifi":
        cfg = WifiPsmConfig(tail_ms=rng.choice([50.0, 200.0]))
    elif radio_tech == "hspa":
        t1 = rng.choice([4.0, 8.0])
        cfg = HspaRrcConfig(t1_s=t1, fd_timer_s=rng.choice([None, 3.0]),
                            fd_target=rng.choice(["pch", "idle"]))
    else:
        cfg = LteDrxConfig(drx_cycle_ms=rng.choice([80.0, 160.0, 640.0]),
                           drx_enabled=rng.random() > 0.2,
                           rrc_idle_s=rng.choice([5.0, 10.0]))
    return stream, link, tech, radio_tech, cfg


def test_criterion_10_conservation_suite_1000_scenarios():
    with criterion(10, "conservation, coverage, non-negativity and step-"
                       "oracle agreement on 1000 random scenarios in <2min"):
        gs3 = get_profile("gs3-lte")
        rng = random.Random(2026)
        t0 = time.perf_counter()
        for i in range(1000):
            stream, link, tech, radio_tech, cfg = _random_scenario(rng)
            runs, dlog = simulate_session(stream, link, tech,
                                          start_threshold_s=1.0,
                                          resume_threshold_s=1.0)
            events = expand_ticks(runs)
            # byte conservation
            total = (dlog.bytes_consumed + dlog.bytes_buffered_end
                     + dlog.bytes_wasted)
            assert dlog.bytes_delivered == pytest.approx(total, abs=2.0), i
            # playback-buffer non-negativity
            join = joining_time(tech, stream, link, radio_tech,
                                start_threshold_s=1.0)
            tl = compute_buffer(events, stream, join, resume_threshold_s=1.0)
            assert all(s.buffered_seconds >= 0 for s in tl.samples), i
            assert all(s.buffered_bytes >= 0 for s in tl.samples), i
            # radio coverage and interval-vs-step energy agreement
            wall = max(tl.playback_end_s,
                       events[-1].t_s if events else 0.0)
            if math.isinf(wall):
                wall = events[-1].t_s if events else stream.duration_s
            wall = math.ceil(wall * 1000.0) / 1000.0
            qevents = quantize_events(events)
            radio = simulate_radio(radio_tech, qevents, cfg, gs3, wall)
            radio.validate(wall)
            e_int = sum(iv.current_ma * (iv.t_end_s - iv.t_start_s)
                        for iv in radio.intervals)
            if radio_tech == "wifi":
                e_ref = wifi_energy(step_wifi(qevents, cfg, gs3, wall), cfg, gs3)
            elif radio_tech == "hspa":
                e_ref = hspa_energy(step_hspa(qevents, cfg, gs3, wall), gs3)
            else:
                e_ref = lte_energy(step_lte(qevents, cfg, gs3, wall), gs3)
            assert e_int == pytest.approx(e_ref, rel=1e-3), (i, radio_tech)
        elapsed = time.perf_counter() - t0
        print(f"  (1000 scenarios in {elapsed:.1f}s)")
        assert elapsed < 120.0, elapsed


def test_criterion_11_closed_loop_classification():
    with criterion(11, "classifier recovers every technique, factor within "
                       "10%"):
        stream = StreamSpec(duration_s=600.0, encoding_rate_bps=400_000.0)
        link = LinkModel.constant(1_600_000.0, rtt_ms=70)
        ladder = (("ld", 200_000.0), ("sd", 400_000.0))
        cases = [
            (EncodingRate(), "encoding_rate"),
            (Throttling(), "throttling"),
            (preset("vimeo_onoffs"), "on_off_s"),
            (preset("netflix_onoffs"), "on_off_s"),
            (preset("youtube_onoffm"), "on_off_m"),
            (FastCaching(), "fast_caching"),
            (Hls(ladder=ladder), "rate_adaptive"),
            (Mss(ladder=ladder), "rate_adaptive"),
        ]
        for tech, want in cases:
            events, _ = simulate_session(stream, link, tech)
            cls = classify(records_from_events(expand_ticks(events)))
            assert cls.technique == want, (type(tech).__name__, cls.technique)
            assert cls.confidence >= 0.8, (want, cls.confidence)
        for factor in (1.25, 2.0):
            events, _ = simulate_session(stream, link, Throttling(factor=factor))
            cls = classify(records_from_events(expand_ticks(events)),
                           encoding_rate_bps=stream.encoding_rate_bps)
            est = cls.evidence["estimated_factor"]
            assert abs(est - factor) / factor <= 0.10, (factor, est)


def test_waste_scenario_companion_check():
    """Companion to the keyframe-waste ledger scenario: about 66
    connections and about 2.1x the content on the wire (both +-25%)."""
    size = 76 * 1024 * 1024
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=size * 8 / 600.0,
                        size_bytes=size, keyframe_interval_bytes=2.4e6)
    link = LinkModel.constant(4 * stream.encoding_rate_bps, rtt_ms=70)
    _, dlog = simulate_multi_connection_waste(
        stream, link, buffer_bytes=25 * 1024 * 1024,
        reopen_free_bytes=0.10e6, throttle_factor=3.0)
    assert 66 * 0.75 <= dlog.connections_opened <= 66 * 1.25
    assert 2.1 * 0.75 <= dlog.bytes_delivered / size <= 2.1 * 1.25
