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
from dataclasses import dataclass, replace
from typing import Optional, Union

from . import techniques as T
from .profiles import BUILTIN_PROFILES, PowerProfile
from .radio import HspaRrcConfig, LteDrxConfig, WifiPsmConfig
from .streams import LinkModel, StreamSpec

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


@dataclass(frozen=True)
class Scenario:
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
        if self.abandon_at_s is not None and (
                self.abandon_at_s < 0
                or self.abandon_at_s > self.stream.duration_s + 1e-9):
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


def _pop(section: dict, key: str, prefix: str, required: bool = False,
         default=None):
    if key in section:
        return section.pop(key)
    if required:
        raise ConfigError(f"{prefix}.{key}", "required field is missing")
    return default


def _field_error(exc: Exception, cls, prefix: str) -> ConfigError:
    """A dataclass's validation error, naming the field it starts with
    ("rtt_ms must be ..." in link.segments is link.rtt_ms), else prefix."""
    words = str(exc).split(" ", 2)
    if (len(words) > 1 and words[1] == "must"
            and words[0] in {f.name for f in dataclasses.fields(cls)}):
        return ConfigError(f"{prefix.split('.', 1)[0]}.{words[0]}", str(exc))
    return ConfigError(prefix, str(exc))


def _build(cls, fields: dict, prefix: str):
    valid = {f.name for f in dataclasses.fields(cls)}
    for k in fields:
        if k not in valid:
            raise ConfigError(f"{prefix}.{k}",
                              f"unknown field for {cls.__name__}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise _field_error(exc, cls, prefix) from exc


def _number(raw, field: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(field, f"not a number: {raw!r}") from None


def _parse_ladder(raw: str, prefix: str) -> tuple[tuple[str, float], ...]:
    rungs = []
    for part in str(raw).split(","):
        if ":" not in part:
            raise ConfigError(prefix, f"bad ladder entry {part!r}, want name:bps")
        name, _, rate = part.partition(":")
        rungs.append((name.strip(), float(rate)))
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
        if te:
            tech = _apply_overrides(tech, te, "technique")
    else:
        if kind is None:
            raise ConfigError("technique.kind",
                              "need technique.kind or technique.preset")
        cls = T.TECHNIQUE_KINDS.get(str(kind))
        if cls is None:
            raise ConfigError("technique.kind",
                              f"unknown technique {kind!r} "
                              f"(one of {sorted(T.TECHNIQUE_KINDS)})")
        if "ladder" in te:
            te["ladder"] = _parse_ladder(te["ladder"], "technique.ladder")
        tech = _build(cls, te, "technique")

    ra = _section(table, "radio")
    radio_tech = str(_pop(ra, "technology", "radio", required=True))
    prof_section = _section(table, "profile")
    prof_name = str(_pop(prof_section, "name", "profile", required=True))
    if prof_name not in BUILTIN_PROFILES:
        raise ConfigError("profile.name",
                          f"unknown power profile {prof_name!r} "
                          f"(built-ins: {sorted(BUILTIN_PROFILES)})")
    profile = BUILTIN_PROFILES[prof_name]
    if prof_section:
        try:
            profile = replace(profile, **prof_section)
        except (TypeError, ValueError) as exc:
            raise _field_error(exc, PowerProfile, "profile") from exc

    base_cfg = default_radio_config(radio_tech, prof_name)
    if ra:
        try:
            cfg = replace(base_cfg, **ra)
        except (TypeError, ValueError) as exc:
            raise _field_error(exc, type(base_cfg), "radio") from exc
    else:
        cfg = base_cfg

    return Scenario(
        stream=stream, link=link, technique=tech, radio_tech=radio_tech,
        radio_cfg=cfg, profile=profile,
        abandon_at_s=table.get("abandon_at_s"),
        seed=int(table.get("seed", 0) or 0),
        name=str(table.get("name", name)),
    )


def _apply_overrides(tech: T.Technique, overrides: dict, prefix: str
                     ) -> T.Technique:
    valid = {f.name for f in dataclasses.fields(tech)}
    for k in overrides:
        if k not in valid:
            raise ConfigError(f"{prefix}.{k}",
                              f"unknown field for {type(tech).__name__}")
    if "ladder" in overrides:
        overrides["ladder"] = _parse_ladder(overrides["ladder"],
                                            f"{prefix}.ladder")
    try:
        return replace(tech, **overrides)
    except (TypeError, ValueError) as exc:
        raise _field_error(exc, type(tech), prefix) from exc
