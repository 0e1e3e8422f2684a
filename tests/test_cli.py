import importlib.resources as ir
import json
from pathlib import Path

import pytest

from streamsim.cli import main

BUNDLED = str(ir.files("streamsim") / "scenarios" / "youtube_onoffm_hspa.scn")
GOLDEN = Path(__file__).parent / "golden" / "youtube_onoffm_hspa_summary.json"
ARTIFACTS = ("session_summary.json", "buffer.csv", "radio_timeline.csv",
             "delivery_log.csv")


def test_simulate_bundled_scenario_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(out)]) == 0
    for name in ("session_summary.json", "buffer.csv", "radio_timeline.csv",
                 "delivery_log.csv"):
        assert (out / name).exists(), name
    got = json.loads((out / "session_summary.json").read_text())
    want = json.loads(GOLDEN.read_text())
    assert set(got) == set(want)
    for key, val in want.items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                assert got[key][k2] == pytest.approx(v2, rel=1e-9), (key, k2)
        elif isinstance(val, (int, float)):
            assert got[key] == pytest.approx(val, rel=1e-9), key


def test_simulate_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", BUNDLED, "--out", str(a)])
    main(["simulate", "--scenario", BUNDLED, "--out", str(b)])
    for name in ("session_summary.json", "buffer.csv", "radio_timeline.csv",
                 "delivery_log.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_stats_leave_the_artifacts_unchanged(tmp_path):
    """--stats adds run_stats.json beside the four artifacts; the
    artifacts stay byte-identical, so no timing reaches them."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(b),
                 "--stats"]) == 0
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert not (a / "run_stats.json").exists()
    stats = json.loads((b / "run_stats.json").read_text())
    assert set(stats["compute_ms"]) == {"delivery", "playback_report",
                                        "radio", "energy", "write_artifacts"}
    assert all(ms >= 0 for ms in stats["compute_ms"].values())

    def rows(name):
        return len((b / name).read_text().splitlines()) - 1
    assert stats["counts"] == {
        "stored_runs": 7, "ticks": 5_353,
        "log_rows": rows("delivery_log.csv"),
        "buffer_samples": rows("buffer.csv"),
        "radio_intervals": rows("radio_timeline.csv"),
        "connections": 5, "quality_switches": 0, "notes": 0}


def test_simulate_on_a_1_bps_link_writes_a_log_bounded_by_its_runs(tmp_path):
    """A 1 bps link stretches the base session to 1.2e9 s of 2.4e10 ticks
    in a few hundred runs; the log has a row per run, not per tick.  A
    tick carries far less than a millisecond of content, so the content
    is done on a stepped tick, where the last stall ends."""
    scn = tmp_path / "slow.scn"
    scn.write_text(Path(BUNDLED).read_text(encoding="utf-8").replace(
        "link.bandwidth_bps = 8000000", "link.segments = 0:1"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                 "--stats"]) == 0
    summary = json.loads((out / "session_summary.json").read_text())
    assert summary["wall_time_s"] > 1e9
    assert len((out / "delivery_log.csv").read_text().splitlines()) < 2_001
    counts = json.loads((out / "run_stats.json").read_text())["counts"]
    assert counts["ticks"] > 2e10 and counts["log_rows"] < 2_000
    assert counts["notes"] == 0     # no "session ends stalled"


def test_csv_headers_fixed(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--scenario", BUNDLED, "--out", str(out)])
    assert (out / "buffer.csv").read_text().splitlines()[0] == \
        "t_s,buffered_seconds,buffered_bytes"
    assert (out / "radio_timeline.csv").read_text().splitlines()[0] == \
        "t_start_s,t_end_s,state,current_mA"
    assert (out / "delivery_log.csv").read_text().splitlines()[0] == \
        "t_s,event,connection_id,bytes,buffer_s_after"


def test_missing_profile_exits_2_naming_field(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("stream.duration_s = 10\n"
                   "stream.encoding_rate_bps = 1000000\n"
                   "link.bandwidth_bps = 4000000\n"
                   "technique.kind = fast_caching\n"
                   "radio.technology = hspa\n"
                   "profile.name = notreal\n")
    rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "profile.name" in err and "notreal" in err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_technique_field_exits_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("stream.duration_s = 10\n"
                   "stream.encoding_rate_bps = 1000000\n"
                   "link.bandwidth_bps = 4000000\n"
                   "technique.kind = fast_caching\n"
                   "technique.bogus = 3\n"
                   "radio.technology = hspa\n"
                   "profile.name = gs3-lte\n")
    rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "technique.bogus" in capsys.readouterr().err


def test_sweep_buffer_emits_monotone_csv_and_plot(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep-buffer", "--scenario", BUNDLED, "--out", str(out),
               "--grid", "20,40,60", "--ratios", "4"])
    assert rc == 0
    lines = (out / "buffer_c4x.csv").read_text().splitlines()
    assert lines[0] == "x,avg_current_mA,relative_power,bytes_wasted,stall_total_s"
    rel = [float(l.split(",")[2]) for l in lines[1:]]
    assert rel == sorted(rel, reverse=True)
    assert (out / "buffer_plot.svg").read_text().startswith("<svg")


def test_sweep_abandon_emits_two_technique_comparison(tmp_path):
    out = tmp_path / "sa"
    rc = main(["sweep-abandon", "--scenario", BUNDLED, "--out", str(out),
               "--grid", "0.5,1.0"])
    assert rc == 0
    assert (out / "abandon_on_off_m.csv").exists()
    assert (out / "abandon_fast_caching.csv").exists()
    assert (out / "abandon_plot.svg").exists()


def test_sweep_single_point_grid(tmp_path):
    out = tmp_path / "s1"
    rc = main(["sweep-abandon", "--scenario", BUNDLED, "--out", str(out),
               "--grid", "1.0"])
    assert rc == 0
    rows = (out / "abandon_on_off_m.csv").read_text().splitlines()
    assert len(rows) == 2     # header plus one point


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    rc = main(["sweep-abandon", "--scenario", BUNDLED,
               "--out", str(tmp_path), "--grid", ""])
    assert rc == 2


def test_analyze_trace_json_output(tmp_path, capsys):
    from streamsim import LinkModel, StreamSpec, Throttling, simulate_session
    from streamsim.traces import records_from_events, records_to_csv
    stream = StreamSpec(duration_s=600, encoding_rate_bps=400_000)
    link = LinkModel.constant(1_600_000, rtt_ms=70)
    events, _ = simulate_session(stream, link, Throttling())
    trace = tmp_path / "trace.csv"
    trace.write_text(records_to_csv(records_from_events(events)))
    rc = main(["analyze", str(trace), "--rate", "400000"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["technique"] == "throttling"
    assert doc["confidence"] >= 0.8
    assert abs(doc["evidence"]["estimated_factor"] - 1.25) < 0.125


def test_analyze_malformed_trace_reports_line(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("t_s,bytes,connection_id,direction,flags\nbroken\n")
    rc = main(["analyze", str(trace)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_profiles_listing(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("gs3-lte", "iphone4s", "iphone5", "lumia825"):
        assert name in out


def test_scenario_radio_config_type_must_match(tmp_path):
    from streamsim import LteDrxConfig, StreamSpec, LinkModel, FastCaching
    from streamsim import get_profile
    from streamsim.scenario import ConfigError, Scenario
    with pytest.raises(ConfigError, match="does not match"):
        Scenario(stream=StreamSpec(duration_s=10, encoding_rate_bps=1e6),
                 link=LinkModel.constant(4e6), technique=FastCaching(),
                 radio_tech="hspa", radio_cfg=LteDrxConfig(),
                 profile=get_profile("gs3-lte"))


def test_scenario_overstay_invariant(tmp_path):
    from streamsim import LteDrxConfig, StreamSpec, LinkModel, FastCaching
    from streamsim import get_profile
    from streamsim.scenario import ConfigError, Scenario
    with pytest.raises(ConfigError, match="drx_on_overstay"):
        Scenario(stream=StreamSpec(duration_s=10, encoding_rate_bps=1e6),
                 link=LinkModel.constant(4e6), technique=FastCaching(),
                 radio_tech="lte", radio_cfg=LteDrxConfig(drx_on_ms=60.0,
                                                          drx_cycle_ms=80.0),
                 profile=get_profile("gs3-lte"))


def _scenario_with(tmp_path, line):
    """A valid scenario file with one key = value line replaced."""
    table = {"stream.duration_s": "600",
             "stream.encoding_rate_bps": "2000000",
             "link.bandwidth_bps": "8000000",
             "technique.kind": "fast_caching",
             "radio.technology": "hspa",
             "profile.name": "gs3-lte"}
    key, _, value = line.partition(" = ")
    table[key] = value
    scn = tmp_path / "bad.scn"
    scn.write_text("".join(f"{k} = {v}\n" for k, v in table.items()))
    return str(scn)


@pytest.mark.parametrize("line,field", [
    ("stream.duration_s = inf", "duration_s"),
    ("stream.duration_s = nan", "duration_s"),
    ("stream.encoding_rate_bps = inf", "encoding_rate_bps"),
    ("link.bandwidth_bps = nan", "link.bandwidth_bps"),
    ("link.bandwidth_bps = fast", "link.bandwidth_bps"),
    ("link.rtt_ms = nan", "link.rtt_ms"),
    ("link.rtt_ms = -5", "link.rtt_ms"),
    ("link.rtt_ms = slow", "link.rtt_ms"),
    ("link.segments = 0:abc", "link.segments"),
    ("stream.size_bytes = nan", "stream.size_bytes"),
    ("radio.t1_s = nan", "radio.t1_s"),
])
def test_non_finite_inputs_exit_2_naming_field(tmp_path, capsys, line, field):
    rc = main(["simulate", "--scenario", _scenario_with(tmp_path, line),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scenario_key_given_twice_exits_2_naming_it(tmp_path, capsys):
    from streamsim.scenario import ConfigError, parse_scenario_text
    text = Path(_scenario_with(tmp_path, "stream.duration_s = 60")).read_text()
    with pytest.raises(ConfigError, match="given twice") as err:
        parse_scenario_text(text + "stream.duration_s = 30\n")
    assert err.value.field == "stream.duration_s"
    scn = tmp_path / "twice.scn"
    scn.write_text(text + "stream.duration_s = 30\n")
    rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "stream.duration_s" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
