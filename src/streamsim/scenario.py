"""Scenario files: one flat key-value description of a streaming session.

The format is deliberately diff-friendly: one dotted key per line,
`section.key = value`, '#' comments, no nesting.  Example:

    stream.duration_s = 600
    stream.encoding_rate_bps = 2000000
    link.bandwidth_bps = 8000000
    link.rtt_ms = 70
    technique.kind = on_off_m
    technique.preset = youtube_onoffm
    radio.technology = hspa
    profile.name = gs3-lte
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace
from typing import Optional, Union

from . import techniques as T
from .profiles import BUILTIN_PROFILES, PowerProfile
from .radio import HspaRrcConfig, LteDrxConfig, WifiPsmConfig
from .streams import LinkModel, Record, StreamSpec

RadioConfig = Union[WifiPsmConfig, HspaRrcConfig, LteDrxConfig]

_RADIO_CFG_TYPES = {"wifi": WifiPsmConfig, "hspa": HspaRrcConfig,
                    "lte": LteDrxConfig}


class ConfigError(ValueError):
    """Invalid scenario input; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def default_radio_config(radio_tech: str, profile_name: str = "") -> RadioConfig:
    """Per-technology defaults, with the device-specific timer quirks."""
    if radio_tech == "wifi":
        tail = 50.0 if profile_name.startswith("iphone") else 200.0
        return WifiPsmConfig(tail_ms=tail)
    if radio_tech == "hspa":
        fd = 8.0 if profile_name == "iphone5" else 5.0
        return HspaRrcConfig(fd_timer_s=fd)
    if radio_tech == "lte":
        return LteDrxConfig()
    raise ConfigError("radio.technology",
                      f"must be wifi, hspa or lte, not {radio_tech!r}")


class Scenario(Record):
    """Full declarative description of one streaming session."""
    stream: StreamSpec
    link: LinkModel
    technique: T.Technique
    radio_tech: str
    radio_cfg: RadioConfig
    profile: PowerProfile
    abandon_at_s: Optional[float] = None
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        want = _RADIO_CFG_TYPES.get(self.radio_tech)
        if want is None:
            raise ConfigError("radio.technology",
                              f"unknown technology {self.radio_tech!r}")
        if not isinstance(self.radio_cfg, want):
            raise ConfigError(
                "radio", f"config type {type(self.radio_cfg).__name__} does "
                f"not match technology {self.radio_tech!r}")
        if (self.radio_tech == "lte"
                and self.profile.drx_on_overstay_ms < self.radio_cfg.drx_on_ms):
            raise ConfigError(
                "profile.drx_on_overstay_ms",
                "device on-period residency cannot be shorter than the "
                "configured drx_on_ms")
        if self.abandon_at_s is not None and not (
                0 <= self.abandon_at_s <= self.stream.duration_s + 1e-9):
            raise ConfigError("abandon_at_s",
                              "must lie within [0, stream.duration_s]")

    def fingerprint(self) -> str:
        import hashlib
        text = repr((self.stream, self.link, self.technique, self.radio_tech,
                     self.radio_cfg, self.profile, self.abandon_at_s,
                     self.seed))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _coerce(raw: str):
    s = raw.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", ""):
        return None
    if low == "inf":
        return math.inf
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    table: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected 'key = value': {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in table:
            raise ConfigError(key, f"given twice (again on line {lineno})")
        table[key] = _coerce(raw)
    return scenario_from_table(table, name)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".scn"):
        name = name[:-4]
    return parse_scenario_text(text, name)


def _section(table: dict, prefix: str) -> dict[str, object]:
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in table.items() if k.startswith(prefix + ".")}


def _pop_required(section: dict, key: str, prefix: str):
    if key not in section:
        raise ConfigError(f"{prefix}.{key}", "required field is missing")
    return section.pop(key)


def _field_error(exc: Exception, cls, prefix: str) -> ConfigError:
    """A record's validation error, naming the field it starts with
    ("rtt_ms must be ..." in link.segments is link.rtt_ms), else prefix."""
    words = str(exc).split(" ", 2)
    if len(words) > 1 and words[1] == "must" and words[0] in cls._names:
        return ConfigError(f"{prefix.split('.', 1)[0]}.{words[0]}", str(exc))
    return ConfigError(prefix, str(exc))


def _number(raw, field: str) -> float:
    """raw as a float, naming field if it is no number, NaN or an integer
    past the largest float."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(field, f"not a number: {raw!r}") from None
    except OverflowError:
        raise ConfigError(field, "must be finite, not an integer of "
                          f"{len(str(raw))} digits") from None
    if value != value:
        raise ConfigError(field, "must be a number, not NaN")
    return value


def _checked(value, kind: str, field: str):
    """value, if a field declared kind may hold it: a float, int or
    Optional[float] field takes a number, never NaN (None only when
    Optional), and an int field a whole one, which it gets as an int."""
    if kind in ("float", "int") or (kind == "Optional[float]"
                                    and value is not None):
        number = _number(value, field)
        if kind == "int" and not number.is_integer():
            raise ConfigError(field, f"must be a whole number, not {value!r}")
        return int(number) if kind == "int" else value
    return value


def _build(base, fields: dict, prefix: str):
    """A config class built from fields, or a copy of a config instance
    (a preset, a built-in profile, a default radio config) with fields
    overridden; any bad field is named prefix.key."""
    cls = base if isinstance(base, type) else type(base)
    # the config modules postpone annotations, so a type is its text
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    for k, v in fields.items():
        if k not in kinds:
            raise ConfigError(f"{prefix}.{k}",
                              f"unknown field for {cls.__name__}")
        fields[k] = _checked(v, kinds[k], f"{prefix}.{k}")
    if "ladder" in fields:
        fields["ladder"] = _parse_ladder(fields["ladder"], f"{prefix}.ladder")
    try:
        return cls(**fields) if base is cls else replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise _field_error(exc, cls, prefix) from exc


def _parse_ladder(raw: str, prefix: str) -> tuple[tuple[str, float], ...]:
    rungs = []
    for part in str(raw).split(","):
        name, _, rate = part.partition(":")
        bps = _number(rate, prefix) if ":" in part else 0.0
        if not 0 < bps < math.inf:
            raise ConfigError(prefix, f"bad ladder entry {part!r}, "
                              "want name:bps with a finite bps > 0")
        rungs.append((name.strip(), bps))
    return tuple(rungs)


def scenario_from_table(table: dict[str, object], name: str = "scenario"
                        ) -> Scenario:
    known_roots = {"stream", "link", "technique", "radio", "profile"}
    for key in table:
        root = key.split(".", 1)[0]
        if root not in known_roots and key not in ("abandon_at_s", "seed", "name"):
            raise ConfigError(key, "unknown scenario key")

    s = _section(table, "stream")
    stream = _build(StreamSpec, s, "stream")

    li = _section(table, "link")
    rtt = _number(li.pop("rtt_ms", 70.0), "link.rtt_ms")
    if "segments" in li:
        segs = []
        for part in str(li.pop("segments")).split(","):
            t0, _, bw = part.partition(":")
            try:
                segs.append((float(t0), float(bw)))
            except ValueError:
                raise ConfigError("link.segments",
                                  f"bad segment {part!r}, want t:bps") from None
        link = _build(LinkModel, {"segments": tuple(segs), "rtt_ms": rtt},
                      "link.segments")
    elif "bandwidth_bps" in li:
        bw = _number(li.pop("bandwidth_bps"), "link.bandwidth_bps")
        link = _build(LinkModel, {"segments": ((0.0, bw),), "rtt_ms": rtt},
                      "link.bandwidth_bps")
    else:
        raise ConfigError("link.bandwidth_bps",
                          "need link.bandwidth_bps or link.segments")
    if li:
        raise ConfigError(f"link.{sorted(li)[0]}", "unknown field for LinkModel")

    te = _section(table, "technique")
    preset_name = te.pop("preset", None)
    kind = te.pop("kind", None)
    if preset_name is not None:
        try:
            tech = T.preset(str(preset_name))
        except KeyError as exc:
            raise ConfigError("technique.preset", str(exc)) from exc
    elif kind is None:
        raise ConfigError("technique.kind",
                          "need technique.kind or technique.preset")
    else:
        tech = T.TECHNIQUE_KINDS.get(str(kind))
        if tech is None:
            raise ConfigError("technique.kind",
                              f"unknown technique {kind!r} "
                              f"(one of {sorted(T.TECHNIQUE_KINDS)})")
    tech = _build(tech, te, "technique")
    if isinstance(tech, T.OnOffS) and tech.off_fixed_s is None:
        # a full buffer must hold more than lower_s, or no OFF period ends
        # above it and the ON periods find the buffer full
        upper_s = tech.upper_bytes * 8.0 / stream.rate_range_bps()[1]
        if tech.lower_s >= upper_s:
            raise ConfigError("technique.lower_s",
                              f"{tech.lower_s:g} s is at or above upper_bytes "
                              f"({upper_s:.1f} s at the highest rate)")

    ra = _section(table, "radio")
    radio_tech = str(_pop_required(ra, "technology", "radio"))
    prof_section = _section(table, "profile")
    prof_name = str(_pop_required(prof_section, "name", "profile"))
    if prof_name not in BUILTIN_PROFILES:
        raise ConfigError("profile.name",
                          f"unknown power profile {prof_name!r} "
                          f"(built-ins: {sorted(BUILTIN_PROFILES)})")
    profile = _build(BUILTIN_PROFILES[prof_name], prof_section, "profile")
    cfg = _build(default_radio_config(radio_tech, prof_name), ra, "radio")

    return Scenario(
        stream=stream, link=link, technique=tech, radio_tech=radio_tech,
        radio_cfg=cfg, profile=profile,
        abandon_at_s=_checked(table.get("abandon_at_s"), "Optional[float]",
                              "abandon_at_s"),
        seed=_checked(table.get("seed", 0) or 0, "int", "seed"),
        name=str(table.get("name", name)),
    )
