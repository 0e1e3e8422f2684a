import functools

import pytest

from conftest import make_scenario
from streamsim import (FastCaching, LinkModel, OnOffM, OnOffS, StreamSpec,
                       Throttling, abandonment_sweep, buffer_size_sweep,
                       equivalent_buffer_seconds, preset,
                       recommend_thresholds)
from streamsim.session import run_session
from streamsim.svgplot import line_plot_svg
from tick_reference import expand_ticks


@pytest.fixture
def yt_scenario(hd_stream, link4):
    return make_scenario(hd_stream, link4, preset("youtube_onoffm"), "hspa")


GRID = [0.2, 0.4, 0.6, 0.8, 1.0]


def test_abandonment_curves_non_increasing(yt_scenario):
    res = abandonment_sweep(yt_scenario, GRID)
    assert set(res) == {"on_off_m", "fast_caching"}
    for name, sweep in res.items():
        ys = [p.avg_current_ma for p in sweep.points]
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:])), (name, ys)


def test_abandonment_crossover_exists(yt_scenario):
    """Somewhere below full viewing the buffer-adaptive curve undercuts
    fast caching; at 100% fast caching is cheaper or equal."""
    res = abandonment_sweep(yt_scenario, GRID)
    fc = {p.x: p.avg_current_ma for p in res["fast_caching"].points}
    om = {p.x: p.avg_current_ma for p in res["on_off_m"].points}
    assert om[GRID[0]] < fc[GRID[0]]
    assert fc[1.0] <= om[1.0]
    crossover = [w for w, nxt in zip(GRID, GRID[1:])
                 if (om[w] < fc[w]) != (om[nxt] < fc[nxt])]
    assert crossover, "curves never cross"


def test_abandonment_full_fraction_matches_session(yt_scenario):
    res = abandonment_sweep(yt_scenario, [1.0])
    p = res["on_off_m"].points[0]
    full = run_session(yt_scenario).summary
    assert p.avg_current_ma == pytest.approx(full.avg_total_current_ma,
                                             rel=1e-6)
    assert p.x == 1.0


def test_abandonment_wasted_bytes_decrease_with_watching(yt_scenario):
    res = abandonment_sweep(yt_scenario, GRID)
    waste = [p.bytes_wasted for p in res["fast_caching"].points]
    assert waste == sorted(waste, reverse=True)
    assert waste[-1] == pytest.approx(0.0, abs=10.0)


def test_abandonment_rejects_bad_fractions(yt_scenario):
    with pytest.raises(ValueError):
        abandonment_sweep(yt_scenario, [])
    with pytest.raises(ValueError):
        abandonment_sweep(yt_scenario, [0.0, 0.5])
    with pytest.raises(ValueError):
        abandonment_sweep(yt_scenario, [0.5, 1.2])


@pytest.fixture
def sweep_scenario(hd_stream, link4):
    return make_scenario(hd_stream, link4, OnOffM(upper_s=210.0, lower_s=40.0),
                         "hspa")


def test_buffer_sweep_monotone_non_increasing(sweep_scenario):
    res = buffer_size_sweep(sweep_scenario, [10, 20, 30, 40, 50, 100, 200],
                            c_over_s_ratios=[2.0, 4.0])
    for ratio, sweep in res.items():
        ys = [p.relative_power for p in sweep.points]
        assert ys[0] == 1.0
        assert all(a >= b - 1e-9 for a, b in zip(ys, ys[1:])), (ratio, ys)


def test_buffer_sweep_skips_oversized_with_note(sweep_scenario):
    res = buffer_size_sweep(sweep_scenario, [50, 400], c_over_s_ratios=[4.0])
    sweep = res[4.0]
    assert [p.x for p in sweep.points] == [50]
    assert any("exceeds upper threshold" in n for n in sweep.notes)


def test_buffer_sweep_limit_equals_fast_caching(hd_stream, link4):
    """A dynamic buffer covering the whole content degenerates to fast
    caching."""
    sc = make_scenario(hd_stream, link4, OnOffM(upper_s=620.0, lower_s=10.0),
                       "hspa")
    res = buffer_size_sweep(sc, [610.0], c_over_s_ratios=[4.0])
    level = res[4.0].points[0].avg_current_ma
    fc = run_session(make_scenario(
        hd_stream, LinkModel.constant(4 * hd_stream.encoding_rate_bps, 70),
        FastCaching(), "hspa")).summary.avg_total_current_ma
    assert level == pytest.approx(fc, rel=0.01)


def test_buffer_sweep_requires_onoffm(yt_scenario, hd_stream, link4):
    sc = make_scenario(hd_stream, link4, FastCaching(), "hspa")
    with pytest.raises(ValueError, match="on_off_m"):
        buffer_size_sweep(sc, [10.0])


def test_sweep_determinism(yt_scenario):
    a = abandonment_sweep(yt_scenario, GRID)
    b = abandonment_sweep(yt_scenario, GRID)
    assert a["on_off_m"].points == b["on_off_m"].points
    assert a["on_off_m"].fingerprint == b["on_off_m"].fingerprint


def test_lower_threshold_tradeoff_direction(ld_stream):
    """Across a family of square-wave bandwidth dips, a smaller lower
    threshold on buffer-adaptive multi-connection delivery never stalls
    less and never draws more average power."""
    base_bw = 4 * ld_stream.encoding_rate_bps
    results = {}
    for lower in (2.0, 40.0):
        stall_sum, power_sum = 0.0, 0.0
        for depth in (0.5, 1.0):
            for width in (5.0, 15.0, 30.0, 60.0):
                link = LinkModel(((0.0, base_bw), (100.0, base_bw * (1 - depth)),
                                  (100.0 + width, base_bw)), 70)
                tech = OnOffM(upper_s=100.0, lower_s=lower)
                sc = make_scenario(ld_stream, link, tech, "hspa")
                s = run_session(sc).summary
                stall_sum += s.stall_total_s
                power_sum += s.avg_streaming_current_ma
        results[lower] = (stall_sum, power_sum)
    assert results[2.0][0] >= results[40.0][0]       # more stall risk
    assert results[2.0][1] <= results[40.0][1] + 0.5  # no more power


def test_recommend_thresholds_defaults(ld_stream, hd_stream, link4):
    upper, lower, why = recommend_thresholds(ld_stream,
                                             LinkModel.constant(1.6e6, 70),
                                             "hspa")
    assert (upper, lower) == (100.0, 40.0)
    assert "60s dynamic buffer" in why or "60s" in why
    # 20 MB fixed buffers translate per encoding rate
    assert equivalent_buffer_seconds(20e6, 400_000) == pytest.approx(400.0)
    assert equivalent_buffer_seconds(20e6, 2_000_000) == pytest.approx(80.0)
    assert "400s" in why
    u2, l2, why2 = recommend_thresholds(hd_stream, link4, "hspa")
    assert (u2, l2) == (100.0, 40.0)
    assert "80s" in why2


def test_recommend_low_spare_bandwidth_advice(hd_stream):
    tight = LinkModel.constant(1.5 * hd_stream.encoding_rate_bps, 70)
    _, _, why = recommend_thresholds(hd_stream, tight, "hspa")
    assert "30-40s" in why


def test_svg_plot_is_selfcontained():
    svg = line_plot_svg({"a": [(0, 1), (1, 2)], "b": [(0, 2), (1, 1)]},
                        "t", "x", "y")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg and "http://www.w3.org/2000/svg" in svg


@functools.lru_cache(maxsize=None)
def _watched(tech, bw, radio_tech, frac):
    """The base session (2 Mbps, 600 s) watched for frac of the stream."""
    stream = StreamSpec(duration_s=600.0, encoding_rate_bps=2e6)
    techs = {"on_off_m": preset("youtube_onoffm"), "on_off_s": OnOffS(),
             "throttling": Throttling(), "fast_caching": FastCaching()}
    return run_session(make_scenario(
        stream, LinkModel.constant(bw, rtt_ms=70.0), techs[tech], radio_tech,
        abandon_at_s=None if frac == 1.0 else frac * 600.0))


def _cut(intervals, t):
    """(state, start, end) of the intervals, cut at t."""
    return [(iv.state, iv.t_start_s, min(iv.t_end_s, t))
            for iv in intervals if iv.t_start_s < t - 1e-9]


@pytest.mark.parametrize("radio_tech", ["hspa", "lte", "wifi"])
@pytest.mark.parametrize("frac", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("bw", [8e6, 2.5e6])
@pytest.mark.parametrize("tech", ["on_off_m", "on_off_s", "throttling",
                                  "fast_caching"])
def test_abandonment_is_causal(tech, bw, frac, radio_tech):
    """An abandoned session is the full session cut at its wall end: the
    same events up to it, and the same radio intervals.  Wi-Fi charges a
    gap of up to tail_ms as active only once a later packet closes it, so
    there both timelines are cut at the abandoned session's last packet."""
    full = _watched(tech, bw, radio_tech, 1.0)
    cut = _watched(tech, bw, radio_tech, frac)
    wall = cut.summary.wall_time_s
    want = [e for e in expand_ticks(full.events) if e.t_s <= wall + 1e-9]
    got = expand_ticks(cut.events)
    assert [(e.bytes, e.connection_id, e.kind) for e in got] == [
        (e.bytes, e.connection_id, e.kind) for e in want]
    assert [e.t_s for e in got] == pytest.approx([e.t_s for e in want],
                                                 rel=0, abs=1e-9)
    end = got[-1].t_s if radio_tech == "wifi" else wall
    want_radio = _cut(full.radio.intervals, end)
    got_radio = _cut(cut.radio.intervals, end)
    assert [iv[0] for iv in got_radio] == [iv[0] for iv in want_radio]
    assert [t for iv in got_radio for t in iv[1:]] == pytest.approx(
        [t for iv in want_radio for t in iv[1:]], rel=0, abs=1e-9)
