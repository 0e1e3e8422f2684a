"""The Record contract: the frozen config records behave as frozen
dataclasses do, and the records the engine builds as the frozen or
mutable dataclasses they replace, through methods they share rather than
compile."""

import dataclasses
import importlib.resources as ir
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from streamsim.analysis import SweepPoint, SweepResult
from streamsim.delivery import DeliveryLog, LogRecord, _Cycle
from streamsim.energy import SessionSummary
from streamsim.playback import BufferTimeline, QoeReport
from streamsim.profiles import BUILTIN_PROFILES, PowerProfile
from streamsim.radio import (HspaRrcConfig, LteDrxConfig, RadioInterval,
                             RadioTimeline, WifiPsmConfig)
from streamsim.scenario import Scenario, load_scenario
from streamsim.session import SessionResult
from streamsim.streams import (ChunkTrain, LinkModel, MutableRecord,
                               PacketEvent, Record, StreamSpec, TransferSpan)
from streamsim.techniques import (EncodingRate, FastCaching, Hls, Mss, OnOffM,
                                  OnOffS, Throttling)
from streamsim.traces import Classification, FlowRecord

SCENARIOS = ir.files("streamsim") / "scenarios"
BASE = load_scenario(str(SCENARIOS / "youtube_onoffm_hspa.scn"))

# one instance of each config record a scenario file builds
CONFIGS = [
    EncodingRate(), Throttling(), OnOffS(), OnOffM(off_fixed_s=60.0),
    FastCaching(), Hls(), Mss(),
    WifiPsmConfig(), HspaRrcConfig(), LteDrxConfig(),
    BUILTIN_PROFILES["gs3-lte"],
    StreamSpec(600.0, 2e6, vbr_trace=[(0.0, 1e6), (300.0, 3e6)]),
    LinkModel(((0.0, 8e6), (10.0, 2e6)), rtt_ms=50.0),
    BASE,
]
IDS = [type(c).__name__ for c in CONFIGS]


def test_the_configs_are_the_fourteen_record_classes():
    classes = {type(c) for c in CONFIGS}
    assert len(classes) == 14
    assert all(issubclass(cls, Record) for cls in classes)
    assert classes >= {PowerProfile, Scenario}


@pytest.mark.parametrize("cls", sorted({type(c) for c in CONFIGS},
                                       key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_each_class_shares_records_methods(cls):
    """The cost model: a record class compiles no method of its own."""
    for name in ("__init__", "__repr__", "__eq__", "__hash__",
                 "__setattr__", "__delattr__"):
        assert getattr(cls, name) is getattr(Record, name), name
        assert name not in vars(cls), name


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_fields_and_replace(cfg):
    names = [f.name for f in fields(cfg)]
    assert names == list(vars(cfg))[:len(names)]   # vars() in field order
    same = replace(cfg)
    assert same == cfg and same is not cfg
    if not isinstance(cfg, StreamSpec):   # a VBR trace is a list
        assert hash(same) == hash(cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_repr_matches_a_frozen_dataclass(cfg):
    """Scenario.fingerprint hashes the repr, so it must not move."""
    twin = dataclasses.make_dataclass(
        type(cfg).__name__, [f.name for f in fields(cfg)], frozen=True)
    values = [getattr(cfg, f.name) for f in fields(cfg)]
    assert repr(cfg) == repr(twin(*values))


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_assignment_and_deletion_raise(cfg):
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(cfg, f.name)
    with pytest.raises(FrozenInstanceError):
        cfg.not_a_field = 1


def test_replace_runs_post_init_validation():
    with pytest.raises(ValueError, match="on_rate_factor"):
        replace(OnOffM(), on_rate_factor=0.5)
    assert replace(OnOffM(), upper_s=90.0).upper_s == 90.0


def test_defaults_positional_and_keyword_arguments():
    assert Throttling(1.5).factor == 1.5
    assert Throttling(1.5, chunk_bytes=1000.0) == Throttling(
        factor=1.5, chunk_bytes=1000.0)
    assert Throttling().chunk_bytes == 64 * 1024
    assert StreamSpec(600, 2e6).size_bytes == 600 * 2e6 / 8


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing required argument "
                                        "'encoding_rate_bps'"):
        StreamSpec(600)
    with pytest.raises(TypeError, match="'bogus'"):
        OnOffM(bogus=1)
    with pytest.raises(TypeError, match="'upper_s'"):
        OnOffM(90.0, upper_s=80.0)   # given twice
    with pytest.raises(TypeError, match="takes 0 arguments but 1"):
        FastCaching(1)


class _A(Record):
    x: float = 1.0


class _B(Record):
    x: float = 1.0


def test_equality_holds_only_within_a_class():
    assert _A() == _A() and hash(_A()) == hash(_A())
    assert _A() != _B()
    assert _A(2.0) != _A()
    assert EncodingRate() != OnOffS()
    assert OnOffM() != BASE.technique


@pytest.mark.parametrize("name,fingerprint", [
    ("encoding_rate_lte", "471b77c3399aa9e1"),
    ("fast_caching_wifi", "06e44b7b29bca831"),
    ("youtube_onoffm_hspa", "cffd67587606bf03"),
])
def test_bundled_scenario_fingerprints_are_unchanged(name, fingerprint):
    assert load_scenario(str(SCENARIOS / f"{name}.scn")).fingerprint() \
        == fingerprint


# one instance of each record the engine, the sweeps and the trace reader
# build, with the text its dataclass's __repr__ wrote
RUNTIME = [
    (PacketEvent(1.5, 1500, 2),
     "PacketEvent(t_s=1.5, bytes=1500, connection_id=2, kind='data')"),
    (TransferSpan(1.0, 0.05, 4, 0, 25000.0, 2.0, 0.01),
     "TransferSpan(t_s=1.0, dt_s=0.05, n=4, connection_id=0, nbytes=25000.0, "
     "buffer_s=2.0, dbuffer_s=0.01)"),
    (ChunkTrain((PacketEvent(0.0, 500, 1, "request"),), 3, 2.0, 0.5),
     "ChunkTrain(cycle=(PacketEvent(t_s=0.0, bytes=500, connection_id=1, "
     "kind='request'),), m=3, period_s=2.0, dbuffer_s=0.5, dconn=0)"),
    (RadioInterval("rx", 0.0, 1.25, 310.0),
     "RadioInterval(state='rx', t_start_s=0.0, t_end_s=1.25, "
     "current_ma=310.0)"),
    (RadioTimeline("lte", [RadioInterval("idle", 0.0, 2.0, 12.0)]),
     "RadioTimeline(technology='lte', intervals=[RadioInterval(state='idle', "
     "t_start_s=0.0, t_end_s=2.0, current_ma=12.0)])"),
    (LogRecord(1.0, "on", 1, 0.0, 2.5),
     "LogRecord(t_s=1.0, event='on', connection_id=1, bytes=0.0, "
     "buffer_s_after=2.5)"),
    (DeliveryLog(),
     "DeliveryLog(records=TickSeq(0 ticks in 0 runs), on_spans=[], "
     "off_spans=[], notes=[], connections_opened=0, "
     "playback=BufferTimeline(joining_time_s=inf, playback_end_s=0.0, "
     "duration_s=0.0, samples=[], resume_threshold_s=4.0, completed=False, "
     "stall_events=[]), bytes_delivered=0.0, "
     "bytes_consumed=0.0, bytes_buffered_end=0.0, bytes_wasted=0.0, "
     "overhead_bytes=0.0, content_delivered_s=0.0, content_consumed_s=0.0, "
     "quality_switches=[])"),
    (_Cycle(0.0, 1.0, (True, False), None),
     "_Cycle(t0=0.0, buffer_s=1.0, phase=(True, False), marks=None, "
     "records=(), spans=(), period_s=0.0, dbuffer_s=0.0, buffered=0.0)"),
    (BufferTimeline(0.5, 10.0, 9.5),
     "BufferTimeline(joining_time_s=0.5, playback_end_s=10.0, duration_s=9.5, "
     "samples=[], resume_threshold_s=4.0, completed=True, stall_events=[])"),
    (QoeReport(0.5, [(3.0, 1.5)], 0.15),
     "QoeReport(joining_time_s=0.5, stall_events=[(3.0, 1.5)], "
     "stall_ratio=0.15)"),
    (SessionSummary(0.5, 0.0, 0, 1e6, 1e6, 0.0, 200.0, 100.0, 300.0, 12.0,
                    10.0),
     "SessionSummary(joining_time_s=0.5, stall_total_s=0.0, stall_count=0, "
     "bytes_downloaded=1000000.0, bytes_consumed=1000000.0, "
     "bytes_wasted=0.0, avg_streaming_current_ma=200.0, "
     "avg_playback_current_ma=100.0, avg_total_current_ma=300.0, "
     "energy_j=12.0, wall_time_s=10.0, state_residency={})"),
    (SessionResult("sc", "events", "dlog", "buffer", "qoe", "radio",
                   "summary"),
     "SessionResult(scenario='sc', events='events', dlog='dlog', "
     "buffer='buffer', qoe='qoe', radio='radio', summary='summary', "
     "compute_ms={})"),
    (SweepPoint(20.0, 250.0, 1.0, 0.0, 0.0),
     "SweepPoint(x=20.0, avg_current_ma=250.0, relative_power=1.0, "
     "bytes_wasted=0.0, stall_total_s=0.0)"),
    (SweepResult("buffer_s"),
     "SweepResult(axis='buffer_s', points=[], fingerprint='', notes=[])"),
    (FlowRecord(0.5, 1500, 1, "down"),
     "FlowRecord(t_s=0.5, bytes=1500, connection_id=1, direction='down', "
     "flags='')"),
    (Classification("on_off_m", 0.9),
     "Classification(technique='on_off_m', confidence=0.9, evidence={})"),
]
RUNTIME_IDS = [type(r).__name__ for r, _ in RUNTIME]
# the classes that were frozen dataclasses; the others were mutable ones
FROZEN = {PacketEvent, RadioInterval, SweepPoint, FlowRecord}
# built once a session or more often, so each writes its own __init__, as
# fast as a generated one; the shared one is several times slower
OWN_INIT = {type(r) for r, _ in RUNTIME} - {SweepResult, Classification}


class _Other:
    """A field value equal to nothing else."""


def test_the_runtime_records_are_sixteen_record_classes():
    classes = {type(r) for r, _ in RUNTIME}
    assert len(classes) == 16
    for cls in classes:
        assert issubclass(cls, Record)
        assert issubclass(cls, MutableRecord) == (cls not in FROZEN)
        assert ("__init__" in vars(cls)) == (cls in OWN_INIT), cls
        for name in ("__repr__", "__eq__", "__hash__", "__setattr__"):
            assert name not in vars(cls), (cls, name)


@pytest.mark.parametrize("rec,text", RUNTIME, ids=RUNTIME_IDS)
def test_runtime_repr_is_the_dataclass_text(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec,text", RUNTIME, ids=RUNTIME_IDS)
def test_runtime_fields_replace_and_equality(rec, text):
    names = [f.name for f in fields(rec)]
    assert names == list(vars(rec))   # vars() in field order
    same = replace(rec)
    assert same == rec and not same != rec and same is not rec
    for name in names:   # every field takes part in ==
        other = replace(rec)
        object.__setattr__(other, name, _Other())
        assert other != rec and not other == rec, name
    assert rec != text and rec != tuple(getattr(rec, n) for n in names)


@pytest.mark.parametrize("rec,text", RUNTIME, ids=RUNTIME_IDS)
def test_frozen_records_hash_and_mutable_ones_do_not(rec, text):
    name = fields(rec)[0].name
    if type(rec) in FROZEN:
        assert hash(replace(rec)) == hash(rec)
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        other = replace(rec)
        setattr(other, name, _Other())
        assert other != rec
        other.extra = 1   # as on a dataclass, any attribute can be set
        del other.extra


@pytest.mark.parametrize("rec,text", RUNTIME, ids=RUNTIME_IDS)
def test_default_factories_give_each_instance_its_own(rec, text):
    made = [f.name for f in fields(rec)
            if f.default_factory is not dataclasses.MISSING]
    required = {f.name: getattr(rec, f.name) for f in fields(rec)
                if f.default is f.default_factory is dataclasses.MISSING}
    a, b = type(rec)(**required), type(rec)(**required)
    for name in made:
        assert getattr(a, name) == getattr(b, name)
        assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("args,message", [
    ((-0.1, 100, 0), "event time must be >= 0"),
    ((0.0, -1, 0), "event bytes must be >= 0"),
    ((0.0, 100, 0, "ack"), "unknown event kind 'ack'"),
    ((0.0, 101, 0, "flow_control"), "control events carry at most 100 bytes"),
    ((0.0, 101, 0, "persist_probe"), "control events carry at most 100 bytes"),
])
def test_packet_event_validation_is_unchanged(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PacketEvent(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(PacketEvent(0.0, 100, 0), **dict(zip(
            ("t_s", "bytes", "connection_id", "kind"), args)))
    assert PacketEvent(0.0, 100, 0, "flow_control").kind == "flow_control"


def test_hand_written_initialisers_take_keywords_and_defaults():
    assert PacketEvent(t_s=1.0, bytes=5, connection_id=0) == \
        PacketEvent(1.0, 5, 0, "data")
    assert TransferSpan(0.0, 0.05, 2, 0, 10.0).buffer_s == 0.0
    assert _Cycle(0.0, 1.0, (False, False), None, period_s=2.0).records == ()
    with pytest.raises(TypeError, match="connection_id"):
        PacketEvent(1.0, 5)
    with pytest.raises(TypeError, match="bogus"):
        RadioInterval("rx", 0.0, 1.0, 2.0, bogus=1)
