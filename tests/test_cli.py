import argparse
import errno
import hashlib
import importlib.resources as ir
import json
import os
import stat
from pathlib import Path

import pytest

from streamsim import cli
from streamsim.cli import build_parser, main
from streamsim.scenario import load_scenario
from tick_reference import expand_ticks

BUNDLED = str(ir.files("streamsim") / "scenarios" / "youtube_onoffm_hspa.scn")
GOLDEN = Path(__file__).parent / "golden" / "youtube_onoffm_hspa_summary.json"
ARTIFACTS = ("session_summary.json", "buffer.csv", "radio_timeline.csv",
             "delivery_log.csv")
COMMANDS = ("simulate", "sweep-abandon", "sweep-buffer", "analyze", "profiles")


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
        "radio_intervals": rows("radio_timeline.csv"), "radio_runs": 10,
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


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_artifacts_get_the_umask_mode_and_leave_no_temp_file(tmp_path, umask):
    out = tmp_path / "run"
    old = os.umask(umask)
    try:
        assert main(["simulate", "--scenario", BUNDLED, "--out", str(out),
                     "--stats"]) == 0
        # a write that fails, here a directory in the way, is cleaned up too
        (tmp_path / "blocked" / "buffer.csv" / "x").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            main(["simulate", "--scenario", BUNDLED,
                  "--out", str(tmp_path / "blocked")])
    finally:
        os.umask(old)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ARTIFACTS + ("run_stats.json",))
    for p in out.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask, p.name
    assert sorted(p.name for p in (tmp_path / "blocked").iterdir()) == [
        "buffer.csv", "session_summary.json"]


# SHA-256 of the four artifacts (ARTIFACTS order) that `simulate` writes for
# each bundled scenario and for the base scenario re-run with another
# technique
PINNED = {
    "youtube_onoffm_hspa": (
        "6dc4b28479936d424b3a67b3bececd549fa186056d2b46dabc8cc3836e666494",
        "f0de199c9094f66bb32c3046d5d55c658dbb219f6a44f4bb961ed4dd98c18bca",
        "b52d0089a8b5e1630482ad98ec851074f74c2b684c87120e1751ba5716999eed",
        "997c58ddaa2ca534a9777ad75d36db4d1b13e10dab656cc6d30cbddf63a44e0f",
    ),
    "encoding_rate_lte": (
        "46732717398e004a31ebd9ed6541c1219b58516d0eca9410977b7b493e71c645",
        "c8802c77794e7e7da3f37b7120bb41412df2fd0d36ca128873e226141e06f1be",
        "de27d28170bece5ee4254b6528e14877c75f4da847c9c3812f1409a04d9afc85",
        "b82ee16b61db72f7d20a47454643ffab469bd578014129789560e00063b82a70",
    ),
    "fast_caching_wifi": (
        "e4b56f6cb7b3cefff470b2dafbf574c1f05a2aba81c159206e8077d5b0aadeb0",
        "981c5d8f52ea37ed2a29d4485ac65f17bbcb58fe69893c33596d975fb2733ac0",
        "6d9d957f40d426f309f6de521f476a4fc3d9ac98c42ad0c1bdca0e3c9c86e158",
        "80522ac173e0ac8ed6645e1d2c93f2c1f27535fa0acc917956be0babeaf7bab9",
    ),
    "hls": (
        "07bec51fdac28c358aac7cd28c7edf10604805c9b02ff908598e3951bb7269e1",
        "782a8fcea378de65422b1ee02a63bedf961bd08f36c0bbb51a5efab6f747bb85",
        "a3cf3982d89892f7a042f7e7cf13f131d13050f259122405c097613a3fb32bf7",
        "8436d53e5c5fb522e0c8fcd87611ea211953c227dfb6d58fe8902235baf19980",
    ),
    "mss": (
        "67910d2ee2f53ffb99ae2467822b9e0e808887390f8b17750e58a2ae89648661",
        "6ff810acff7aae4a3f7104ca7e831a96a6520aa48428585037c577cf1b293961",
        "3b5eed98ee5a883cff0e79ec304fa1fbe0eb41fa4a938c3d34f9a7a75e759380",
        "1ea4dc2aca0c74623b2afc04c854c978d100c42ebb6bc97ed5a08e5be4e587ef",
    ),
    "throttling": (
        "a1a766fffd000d4362d36cce8e2ddf1217eccf291d7aa0a03fe7105206f35981",
        "a144bb1019839cc85f532b490e01913cd9477f5fb35ab7b64e0346251e9e09aa",
        "1d22dc8ad8f12c212f1946ebbed79dfa4aced0b37da8222704cbd02b196b13f9",
        "92d2201e4bc2b3c7e64bf3d5e523bdac5c2d324241b8104cd6bed20926fdbb93",
    ),
    "vimeo_onoffs": (
        "b31e8a1033a935cda8c10a632ed85e66cd426b852284472800143434b106a558",
        "ac0fa4e2ef731033022ffc3de12e24764b12dda9dba7a45cced3ca797a55bdd9",
        "cbdfa83314dd7f82f4c8ee614aef1ec319e70d5a517b6d17743cca94450d302d",
        "5c7be27b885a175759c30ebcaedc2a86c2ad77eda1ba11d51300d1c76459a61a",
    ),
}
VARIANTS = {"hls": "technique.kind = hls", "mss": "technique.kind = mss",
            "throttling": "technique.kind = throttling",
            "vimeo_onoffs": "technique.preset = vimeo_onoffs"}


@pytest.mark.parametrize("name", PINNED)
def test_simulate_writes_the_pinned_bytes(tmp_path, name):
    """Every artifact `simulate` writes, down to the last byte: the three
    bundled scenarios and the base scenario with HLS, MSS, throttling and
    the vimeo_onoffs preset."""
    scn = ir.files("streamsim") / "scenarios" / f"{name}.scn"
    if name in VARIANTS:
        scn = tmp_path / f"{name}.scn"
        scn.write_text(Path(BUNDLED).read_text(encoding="utf-8").replace(
            "technique.preset = youtube_onoffm", VARIANTS[name]),
            encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
    assert tuple(hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                 for artifact in ARTIFACTS) == PINNED[name]


def test_short_writes_still_write_every_byte(tmp_path, monkeypatch):
    """An artifact whose writes each take only part of what they are given
    is written whole."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(a)]) == 0
    real_write = os.write
    with monkeypatch.context() as m:
        m.setattr(os, "write", lambda fd, data: real_write(fd, data[:1000]))
        assert main(["simulate", "--scenario", BUNDLED, "--out", str(b)]) == 0
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_a_write_that_fails_partway_keeps_the_old_artifact(
        tmp_path, monkeypatch, artifact):
    """A write that fails after some bytes leaves the artifact already at
    the path as it was, and no temporary file in --out."""
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    opened = {}
    real_open, real_write = os.open, os.write

    def open_(path, *args):
        fd = real_open(path, *args)
        opened[fd] = os.path.basename(path)
        return fd

    def write(fd, data):
        if not opened.get(fd, "").endswith(artifact):
            return real_write(fd, data)
        real_write(fd, data[:10])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    with monkeypatch.context() as m:
        m.setattr(os, "open", open_)
        m.setattr(os, "write", write)
        with pytest.raises(OSError, match="No space left"):
            main(["simulate", "--scenario", BUNDLED, "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


def _unreadable_scenario(tmp_path, kind: str) -> str:
    """A directory, or a scenario file that is not UTF-8 text."""
    if kind == "directory":
        return str(tmp_path)
    scn = tmp_path / "latin1.scn"
    scn.write_bytes(Path(BUNDLED).read_bytes() + b"# caf\xe9\n")
    return str(scn)


@pytest.mark.parametrize("command", ["simulate", "sweep-abandon",
                                     "sweep-buffer"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_an_unreadable_scenario_exits_2_naming_the_flag(tmp_path, capsys,
                                                        command, kind):
    rc = main([command, "--scenario", _unreadable_scenario(tmp_path, kind),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --scenario: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["sweep-abandon", "--grid", "1"],
    ["sweep-buffer", "--grid", "10", "--ratios", "2"]])
def test_an_unwritable_out_is_no_configuration_error(tmp_path, argv):
    """Only reading the scenario is a configuration error: an --out that
    is a file fails as a runtime error."""
    (tmp_path / "o").write_text("")
    with pytest.raises(FileExistsError):
        main([*argv, "--scenario", BUNDLED, "--out", str(tmp_path / "o")])


def test_load_scenario_takes_a_path_object():
    sc = load_scenario(Path(BUNDLED))
    assert sc.name == "youtube_onoffm_hspa"
    assert sc == load_scenario(BUNDLED)


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
    trace.write_text(records_to_csv(records_from_events(expand_ticks(events))))
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


def _scenario_with(tmp_path, *lines):
    """A valid scenario file with each key = value line set."""
    table = {"stream.duration_s": "600",
             "stream.encoding_rate_bps": "2000000",
             "link.bandwidth_bps": "8000000",
             "technique.kind": "fast_caching",
             "radio.technology": "hspa",
             "profile.name": "gs3-lte"}
    for line in lines:
        key, _, value = line.partition(" = ")
        table[key] = value
    scn = tmp_path / "bad.scn"
    scn.write_text("".join(f"{k} = {v}\n" for k, v in table.items()))
    return str(scn)


# "; " joins the lines of a case that sets several keys
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
    ("link.segments = 0:8000000, nan:0, 5:1000000", "link.segments"),
    ("stream.size_bytes = nan", "stream.size_bytes"),
    ("radio.t1_s = nan", "radio.t1_s"),
    # no number where one is declared, or an unknown field
    ("technique.kind = hls; technique.ladder = ld:abc", "technique.ladder"),
    ("seed = abc", "seed"),
    ("abandon_at_s = abc", "abandon_at_s"),
    ("technique.kind = hls; technique.chunk_s = abc", "technique.chunk_s"),
    ("radio.t1_s = abc", "radio.t1_s"),
    ("profile.wifi_active = abc", "profile.wifi_active"),
    ("radio.foo = 1", "radio.foo"),
    # a section's name alone names no field: it used to be dropped
    ("stream = 600", "stream"), ("link = 8000000", "link"),
    ("technique = hls", "technique"), ("radio = lte", "radio"),
    ("profile = nonsense", "profile"),
    # NaN, which every range check used to let through or crash on
    ("technique.kind = on_off_m; technique.lower_s = nan",
     "technique.lower_s"),
    ("technique.kind = on_off_s; technique.upper_bytes = nan",
     "technique.upper_bytes"),
    ("technique.preset = youtube_onoffm; technique.off_fixed_s = nan",
     "technique.off_fixed_s"),
    ("abandon_at_s = nan", "abandon_at_s"),
    ("radio.technology = lte; profile.drx_on_overstay_ms = nan",
     "profile.drx_on_overstay_ms"),
    ("technique.kind = throttling; technique.chunk_bytes = nan",
     "technique.chunk_bytes"),
    ("technique.kind = mss; technique.video_chunk_s = nan",
     "technique.video_chunk_s"),
    # infinities that hung delivery or broke the summary or a count
    ("technique.preset = youtube_onoffm; technique.off_fixed_s = inf",
     "technique.off_fixed_s"),
    ("technique.preset = netflix_onoffs; technique.off_fixed_s = inf",
     "technique.off_fixed_s"),
    ("profile.playback_ma = inf", "profile.playback_ma"),
    ("link.bandwidth_bps = inf", "link.bandwidth_bps"),
    ("seed = inf", "seed"),
    ("technique.kind = hls; technique.initial_chunks = inf",
     "technique.initial_chunks"),
    ("technique.kind = hls; technique.ladder = ld:inf", "technique.ladder"),
    ("technique.kind = mss; technique.audio_rate_bps = inf",
     "technique.audio_rate_bps"),
    ("technique.kind = hls; technique.audio_video_split = true; "
     "technique.audio_rate_bps = inf", "technique.audio_rate_bps"),
    # a full buffer (20 MiB, 83.9 s at 2 Mbps) below lower_s: no OFF
    # period ends above it, so delivery used to repeat empty turns
    ("technique.kind = on_off_s; technique.lower_s = 90", "technique.lower_s"),
    # a chunk of under a byte moved nothing while each request cost a
    # round trip, so delivery never ended
    ("technique.preset = vimeo_iphone5; technique.chunk_bytes = 0",
     "technique.chunk_bytes"),
    ("technique.kind = on_off_m; technique.chunk_bytes = -5",
     "technique.chunk_bytes"),
    ("technique.kind = on_off_m; technique.chunk_bytes = 0.4",
     "technique.chunk_bytes"),
    # continuous reception held past the 10 s RRC release
    ("radio.technology = lte; radio.drx_inactivity_ms = 20000",
     "radio.drx_inactivity_ms"),
    # an OFF period of no time: OnOffS repeated empty turns, OnOffM ran
    # unchecked
    ("technique.kind = on_off_s; technique.off_fixed_s = 0",
     "technique.off_fixed_s"),
    ("technique.kind = on_off_s; technique.off_fixed_s = -5",
     "technique.off_fixed_s"),
    ("technique.preset = youtube_onoffm; technique.off_fixed_s = 0",
     "technique.off_fixed_s"),
    ("technique.preset = youtube_onoffm; technique.off_fixed_s = -5",
     "technique.off_fixed_s"),
    # a first fill of under a byte, by chunk_bytes' rule
    ("technique.preset = vimeo_iphone5; technique.faststart_bytes = -5",
     "technique.faststart_bytes"),
    ("technique.preset = vimeo_iphone5; technique.faststart_bytes = 0",
     "technique.faststart_bytes"),
    # an integer past the largest float, which float() overflowed on
    pytest.param("technique.preset = youtube_onoffm; technique.upper_s = 1"
                 + "0" * 400, "technique.upper_s",
                 id="technique.upper_s = a 400-digit integer"),
    # out of a field's declared domain, or of a cross-field rule, where the
    # error named only its section or the value passed unchecked (a
    # negative voltage gave -760 J)
    ("profile.nominal_voltage_v = -5", "profile.nominal_voltage_v"),
    ("technique.preset = youtube_onoffm; technique.upper_s = 0",
     "technique.upper_s"),
    ("technique.preset = youtube_onoffm; technique.lower_s = -5",
     "technique.lower_s"),
    ("technique.kind = throttling; technique.factor = 1", "technique.factor"),
    ("technique.kind = on_off_s; technique.keepalive_interval_s = -5",
     "technique.keepalive_interval_s"),
    ("technique.kind = hls; technique.up_consecutive = 0",
     "technique.up_consecutive"),
    ("profile.hspa_fach = 1e300", "profile.hspa_fach"),
    ("profile.playback_ma = -5", "profile.playback_ma"),
    ("radio.fd_timer_s = -5", "radio.fd_timer_s"),
    ("radio.technology = lte; radio.promotion_latency_ms = -5",
     "radio.promotion_latency_ms"),
])
def test_non_finite_inputs_exit_2_naming_field(tmp_path, capsys, line, field):
    rc = main(["simulate", "--scenario",
               _scenario_with(tmp_path, *line.split("; ")),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("segments, message", [
    ("0:5e6,1:-4", "segment 1 (1.0, -4.0): bandwidth must be a finite "
     "number >= 0, not -4.0"),
    ("0:5e6,0:4e6", "segment 1 (0.0, 4000000.0): link segments must be "
     "strictly ordered"),
    ("0:5e6,nan:3e6", "segment 1 (nan, 3000000.0): link segments must be "
     "strictly ordered"),
])
def test_a_bad_link_segment_exits_2_naming_it(tmp_path, capsys, segments,
                                              message):
    rc = main(["simulate", "--scenario",
               _scenario_with(tmp_path, f"link.segments = {segments}"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"link.segments: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_an_infinite_throttle_factor_still_simulates(tmp_path):
    """technique.factor is the one field where inf means something: a
    server that does not throttle."""
    rc = main(["simulate", "--scenario",
               _scenario_with(tmp_path, "technique.kind = throttling",
                              "technique.factor = inf"),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "session_summary.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("sweep-abandon", "--grid", "nan,0.5"),
    ("sweep-buffer", "--grid", "10,nan"),
    ("sweep-buffer", "--ratios", "2,abc"),
    ("sweep-buffer", "--ratios", "nan"),
    # out of range, which the sweeps used to reject with exit 1
    ("sweep-abandon", "--grid", "2"),
    ("sweep-buffer", "--grid", "-5"),
    ("sweep-buffer", "--ratios", "inf"),
    # finite, but the link it asks for (ratio x encoding rate) is not
    ("sweep-buffer", "--ratios", "1e303"),
])
def test_sweep_grid_exits_2_naming_its_flag(tmp_path, capsys, command, flag,
                                            value):
    rc = main([command, "--scenario", BUNDLED, "--out", str(tmp_path / "o"),
               flag, value])
    assert rc == 2
    assert f"{flag}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_buffer_on_another_technique_exits_2_naming_it(capsys,
                                                            tmp_path):
    scn = str(ir.files("streamsim") / "scenarios" / "fast_caching_wifi.scn")
    rc = main(["sweep-buffer", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "technique.kind: " in err and "on_off_m" in err
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


def test_a_whole_float_reaches_an_int_field_as_an_int(tmp_path):
    """1e300 is a whole number: the record gets int(1e300), which range()
    takes, where the float crashed it."""
    scn = _scenario_with(tmp_path, "technique.kind = hls",
                         "technique.initial_chunks = 1e300", "seed = 7.0")
    sc = load_scenario(scn)
    assert type(sc.technique.initial_chunks) is int
    assert sc.technique.initial_chunks == int(1e300)
    assert type(sc.seed) is int
    assert main(["simulate", "--scenario", scn,
                 "--out", str(tmp_path / "o")]) == 0


def _exit(run, argv, capsys):
    """(exit code, stdout, stderr) of run(argv), which argparse ends."""
    with pytest.raises(SystemExit) as stop:
        run(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("tail", [["--help"], ["--no-such-flag"]])
def test_a_command_prints_what_the_full_parser_prints(monkeypatch, capsys,
                                                      command, tail):
    """A command's own parser prints the full parser's help and usage
    errors; an unknown flag of profiles is reported by the main parser,
    whose usage line lists every command."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit(build_parser().parse_args, [command, *tail], capsys)
    assert _exit(main, [command, *tail], capsys) == full
    assert full[0] == (0 if tail == ["--help"] else 2)


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit(main, ["--help"], capsys) == (0, """\
usage: streamsim [-h]
                 {simulate,sweep-abandon,sweep-buffer,analyze,profiles} ...

Mobile video streaming QoE and energy simulator

positional arguments:
  {simulate,sweep-abandon,sweep-buffer,analyze,profiles}
    simulate            run one scenario
    sweep-abandon       abandonment-penalty sweep
    sweep-buffer        buffer-size/power sweep
    analyze             classify a flow-record CSV
    profiles            list built-in power profiles

options:
  -h, --help            show this help message and exit
""", "")


def test_an_unknown_command_exits_2_listing_every_command(capsys):
    code, out, err = _exit(main, ["bogus"], capsys)
    assert code == 2 and out == ""
    assert "argument command: invalid choice: 'bogus'" in err
    assert all(name in err.split("choose from", 1)[1] for name in COMMANDS)


def test_a_command_builds_only_its_own_subparser(tmp_path, monkeypatch):
    """main builds a command's parser once per process, holding that one
    subcommand, and reuses it on every later call."""
    built = []

    def spy(command=None):
        built.append(real(command))
        return built[-1]
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSERS", {})
    for _ in range(2):
        assert main(["simulate", "--scenario", BUNDLED,
                     "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1
    [sub] = [a for a in built[0]._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["simulate"]


def test_a_reused_parser_leaks_nothing_between_calls(tmp_path, monkeypatch,
                                                     capsys):
    """Usage errors, a configuration error and help between two runs of one
    scenario in one process leave its artifacts the same bytes, and the
    table holds a parser per command plus the full one at most."""
    monkeypatch.setattr(cli, "_PARSERS", {})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(a)]) == 0
    assert _exit(main, ["simulate", "--no-such-flag"], capsys)[0] == 2
    assert main(["sweep-buffer", "--scenario", BUNDLED,
                 "--out", str(tmp_path / "o"), "--grid", "-5"]) == 2
    assert _exit(main, ["--help"], capsys)[0] == 0
    assert _exit(main, ["bogus"], capsys)[0] == 2
    assert main(["simulate", "--scenario", BUNDLED, "--out", str(b)]) == 0
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert sorted(p.name for p in b.iterdir()) == sorted(ARTIFACTS)
    assert not (tmp_path / "o").exists()
    assert len(cli._PARSERS) <= len(cli._COMMANDS) + 1
