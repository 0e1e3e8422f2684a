"""Field domains: each numeric config field's legal values are declared
once, beside the field (streams.domain), and checked in Record's shared
__init__.  These tests are built from the declared table itself, and pin
the artifacts of legal inputs, so a domain can neither let a bad value
through nor narrow a legal one."""

import hashlib
import importlib.resources as ir
import math
from dataclasses import fields, replace

import pytest

from streamsim.cli import main
from streamsim.profiles import PowerProfile, get_profile
from streamsim.radio import HspaRrcConfig, LteDrxConfig
from streamsim.scenario import _RADIO_CFG_TYPES
from streamsim.streams import LinkModel, StreamSpec
from streamsim.techniques import (TECHNIQUE_KINDS, Hls, OnOffM, OnOffS,
                                  Throttling)

BASE = (ir.files("streamsim") / "scenarios" / "youtube_onoffm_hspa.scn"
        ).read_text()
ARTIFACTS = ("session_summary.json", "buffer.csv", "radio_timeline.csv",
             "delivery_log.csv")

# (technique kind or radio technology, section, record) for every
# scenario section whose record declares domains
SECTIONS = ([(kind, "technique", cls) for kind, cls in TECHNIQUE_KINDS.items()]
            + [(tech, "radio", cls) for tech, cls in _RADIO_CFG_TYPES.items()]
            + [("", "profile", PowerProfile), ("", "stream", StreamSpec),
               ("", "link", LinkModel)])


def _scenario(tmp_path, pick: str, key: str, value: str) -> str:
    """The bundled base scenario with technique kind or radio technology
    pick, if any, and key = value, which replaces any line for key."""
    text = BASE
    if pick in TECHNIQUE_KINDS:
        text = text.replace("technique.preset = youtube_onoffm",
                            f"technique.kind = {pick}")
    elif pick:
        text = text.replace("radio.technology = hspa",
                            f"radio.technology = {pick}")
    text = "".join(line for line in text.splitlines(True)
                   if not line.startswith(f"{key} ="))
    scn = tmp_path / "p.scn"
    scn.write_text(f"{text}{key} = {value}\n")
    return str(scn)


def _outside(f) -> list:
    """Values just outside field f's declared domain: past each bound,
    and inf where only finite values are legal."""
    lo, lo_closed, hi, hi_closed = f.metadata["domain"]
    step = 1 if f.type == "int" else 1e-9
    values = [lo - step if lo_closed else lo]
    if hi < math.inf:
        values.append(hi + step)
    elif not hi_closed:
        values.append(math.inf)
    return values


OUTSIDE = [(pick, f"{section}.{f.name}", value)
           for pick, section, cls in SECTIONS for f in fields(cls)
           if "domain" in f.metadata for value in _outside(f)]


@pytest.mark.parametrize("pick,key,value", OUTSIDE,
                         ids=[f"{p or 'base'}-{k}={v!r}"
                              for p, k, v in OUTSIDE])
def test_a_value_just_outside_its_domain_exits_2_naming_its_key(
        tmp_path, capsys, pick, key, value):
    rc = main(["simulate", "--scenario",
               _scenario(tmp_path, pick, key, repr(value)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_every_numeric_config_field_declares_a_domain():
    for _, _, cls in SECTIONS:
        for f in fields(cls):
            if f.type in ("float", "int", "Optional[float]"):
                assert "domain" in f.metadata, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("build,message", [
    (lambda: Throttling(factor=1.0), "factor must be > 1, not 1.0"),
    (lambda: Throttling(factor=math.nan), "factor must be > 1, not nan"),
    (lambda: OnOffS(lower_s=-5), "lower_s must be >= 0, not -5"),
    (lambda: OnOffS(lower_s=math.inf), "lower_s must be finite, not inf"),
    (lambda: Hls(initial_chunks=0), "initial_chunks must be >= 1, not 0"),
    (lambda: Hls(initial_chunks=2.5),
     "initial_chunks must be an int, not 2.5"),
    (lambda: LteDrxConfig(drx_cycle_ms=6000.0),
     "drx_cycle_ms must be <= 5000, not 6000.0"),
    (lambda: LteDrxConfig(drx_cycle_ms=-math.inf),
     "drx_cycle_ms must be finite, not -inf"),
    (lambda: HspaRrcConfig(fd_timer_s=-5.0),
     "fd_timer_s must be >= 0, not -5.0"),
    (lambda: replace(get_profile("gs3-lte"), nominal_voltage_v=-5.0),
     "nominal_voltage_v must be > 0, not -5.0"),
    (lambda: StreamSpec(600.0, 2e6, keyframe_interval_bytes=-math.inf),
     "keyframe_interval_bytes must be > 0, not -inf"),
    # cross-field rules name one of their keys
    (lambda: OnOffM(upper_s=0.0), r"upper_s must be >= lower_s \(40.0\), "
     "not 0.0"),
    (lambda: replace(get_profile("gs3-lte"), hspa_fach=1e300),
     "hspa_fach must lie between hspa_pch"),
    (lambda: StreamSpec(1e300, 1e300),
     "size_bytes must be finite, not duration_s"),
])
def test_an_out_of_domain_value_names_its_field_first(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_optional_fields_take_none_and_inf_only_where_declared():
    assert OnOffM(off_fixed_s=None, chunk_bytes=None).chunk_bytes is None
    assert HspaRrcConfig(fd_timer_s=None).fd_timer_s is None
    assert Throttling(factor=math.inf).factor == math.inf
    assert OnOffM(upper_s=math.inf, chunk_bytes=math.inf).upper_s == math.inf
    with pytest.raises(ValueError, match="off_fixed_s must be finite"):
        OnOffM(off_fixed_s=math.inf)


def _digest(out) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((out / name).read_bytes())
    return h.hexdigest()[:16]


# Legal inputs and the first 16 hex digits of the SHA-256 of their four
# artifacts, which a domain must not change: one legal value of the probe
# grid (-5, 0, 1e-9, 1e300, inf) per field, then every field where inf is
# legal.  Each is set alone on the bundled base scenario, with the
# technique kind or radio technology it picks.
PINNED = [
    ("", "abandon_at_s", "0", "02a0b34232ef2175"),
    ("", "link.bandwidth_bps", "1e300", "619f88c7fe6cb433"),
    ("", "link.rtt_ms", "1e300", "4c4e56fed7a1909e"),
    ("", "profile.drx_on_overstay_ms", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.hspa_dch", "1e300", "6b0161d0695586d5"),
    ("", "profile.hspa_idle", "1e300", "afa9d1a615e3aea8"),
    ("", "profile.hspa_pch", "0", "fc7d1bd25e02fa21"),
    ("", "profile.lte_drx_on", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.lte_drx_sleep", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.lte_idle", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.lte_rx", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.nominal_voltage_v", "1e300", "e508a1c6ac4120ec"),
    ("", "profile.playback_ma", "1e300", "9f9e070db35bcc34"),
    ("", "profile.wifi_active", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.wifi_idle_tail", "1e300", "fc7d1bd25e02fa21"),
    ("", "profile.wifi_sleep", "1e300", "fc7d1bd25e02fa21"),
    ("", "stream.duration_s", "1e-9", "ec6bdd7ccb96de03"),
    ("", "stream.encoding_rate_bps", "1e-9", "4008dc9e8543ff72"),
    ("", "stream.keyframe_interval_bytes", "1e300", "fc7d1bd25e02fa21"),
    ("", "stream.size_bytes", "1e300", "fc7d1bd25e02fa21"),
    ("hspa", "radio.fach_max_bytes", "1e300", "fc7d1bd25e02fa21"),
    ("hspa", "radio.fd_timer_s", "0", "1701b59d971d376a"),
    ("hspa", "radio.promotion_latency_s", "0", "d4932c49b7313b47"),
    ("hspa", "radio.t1_s", "1e300", "fc7d1bd25e02fa21"),
    ("hspa", "radio.t2_s", "1e300", "fc7d1bd25e02fa21"),
    ("hspa", "radio.t3_s", "1e300", "fc7d1bd25e02fa21"),
    ("lte", "radio.drx_inactivity_ms", "0", "b2876ffd60ec7663"),
    ("lte", "radio.drx_on_ms", "0", "5af3188630e37c54"),
    ("lte", "radio.promotion_latency_ms", "0", "a629cb930b447506"),
    ("lte", "radio.rrc_idle_s", "1e300", "2d2a26bc23cc1178"),
    ("wifi", "radio.listen_interval_ms", "1e300", "7d957d35ec849cf7"),
    ("wifi", "radio.tail_ms", "1e300", "c36d784b8d58b5c8"),
    ("encoding_rate", "technique.faststart_target_s",
     "1e300", "d913c1433c14861a"),
    ("hls", "technique.audio_rate_bps", "1e300", "c1ac9b37cd756e61"),
    ("hls", "technique.av_offset_s", "1e300", "c1ac9b37cd756e61"),
    ("hls", "technique.chunk_s", "1e300", "a5ab4249a0ed9b69"),
    ("hls", "technique.initial_chunks", "1e300", "3d22491ce78d5275"),
    ("hls", "technique.up_consecutive", "1e300", "9cec25691eb946fc"),
    ("mss", "technique.audio_every_n_video_chunks",
     "1e300", "2e23e884c9754599"),
    ("mss", "technique.audio_rate_bps", "1e-9", "7b03259635b9f345"),
    ("mss", "technique.startup_buffer_s", "1e300", "cbe2277e5b40efe7"),
    ("mss", "technique.video_chunk_s", "1e300", "a5ab4249a0ed9b69"),
    ("on_off_m", "technique.chunk_bytes", "1e300", "d913c1433c14861a"),
    ("on_off_m", "technique.faststart_bytes", "1e300", "4350804f17747a98"),
    ("on_off_m", "technique.lower_s", "0", "f4a7c3d3ea96c4b2"),
    ("on_off_m", "technique.off_fixed_s", "1e300", "8241ba686fee9354"),
    ("on_off_m", "technique.on_rate_factor", "1e300", "c6b5af58f8d67c89"),
    ("on_off_m", "technique.upper_s", "1e300", "d913c1433c14861a"),
    ("on_off_s", "technique.faststart_target_s", "1e300", "3ed1617e253d3be9"),
    ("on_off_s", "technique.keepalive_bytes", "1e300", "9970e0b2192582f5"),
    ("on_off_s", "technique.keepalive_interval_s",
     "1e300", "17dc60e9d401df5f"),
    ("on_off_s", "technique.lower_s", "0", "16b06c4f58e83a30"),
    ("on_off_s", "technique.off_fixed_s", "1e300", "21bf48262b5af7e0"),
    ("on_off_s", "technique.persist_cap_s", "1e300", "d34dc202a33a9159"),
    ("on_off_s", "technique.upper_bytes", "1e300", "d913c1433c14861a"),
    ("throttling", "technique.chunk_bytes", "1e300", "0b14f34f9a3d249f"),
    ("throttling", "technique.factor", "1e300", "d913c1433c14861a"),
    ("throttling", "technique.faststart_target_s",
     "1e300", "d913c1433c14861a"),
    # inf, where it is legal
    ("encoding_rate", "technique.faststart_target_s",
     "inf", "d913c1433c14861a"),
    ("throttling", "technique.factor", "inf", "d913c1433c14861a"),
    ("throttling", "technique.chunk_bytes", "inf", "0b14f34f9a3d249f"),
    ("throttling", "technique.faststart_target_s", "inf", "d913c1433c14861a"),
    ("on_off_s", "technique.upper_bytes", "inf", "d913c1433c14861a"),
    ("on_off_s", "technique.keepalive_interval_s", "inf", "17dc60e9d401df5f"),
    ("on_off_s", "technique.keepalive_bytes", "inf", "9970e0b2192582f5"),
    ("on_off_s", "technique.persist_cap_s", "inf", "d34dc202a33a9159"),
    ("on_off_s", "technique.faststart_target_s", "inf", "3ed1617e253d3be9"),
    ("on_off_m", "technique.upper_s", "inf", "d913c1433c14861a"),
    ("on_off_m", "technique.chunk_bytes", "inf", "d913c1433c14861a"),
    ("on_off_m", "technique.on_rate_factor", "inf", "c6b5af58f8d67c89"),
    ("on_off_m", "technique.faststart_bytes", "inf", "4350804f17747a98"),
    ("hls", "technique.chunk_s", "inf", "a5ab4249a0ed9b69"),
    ("hls", "technique.av_offset_s", "inf", "c1ac9b37cd756e61"),
    ("mss", "technique.video_chunk_s", "inf", "a5ab4249a0ed9b69"),
    ("mss", "technique.startup_buffer_s", "inf", "cbe2277e5b40efe7"),
    ("", "stream.keyframe_interval_bytes", "inf", "fc7d1bd25e02fa21"),
]


@pytest.mark.parametrize("pick,key,value,digest", PINNED,
                         ids=[f"{p or 'base'}-{k}={v}"
                              for p, k, v, _ in PINNED])
def test_a_legal_value_keeps_its_artifacts(tmp_path, pick, key, value,
                                           digest):
    out = tmp_path / "o"
    assert main(["simulate", "--scenario",
                 _scenario(tmp_path, pick, key, value),
                 "--out", str(out)]) == 0
    assert _digest(out) == digest
