"""The Record contract: the frozen config records behave as frozen
dataclasses do, through methods they share rather than compile."""

import dataclasses
import importlib.resources as ir
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from streamsim.profiles import BUILTIN_PROFILES, PowerProfile
from streamsim.radio import HspaRrcConfig, LteDrxConfig, WifiPsmConfig
from streamsim.scenario import Scenario, load_scenario
from streamsim.streams import LinkModel, Record, StreamSpec
from streamsim.techniques import (EncodingRate, FastCaching, Hls, Mss, OnOffM,
                                  OnOffS, Throttling)

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
