"""What importing streamsim loads, and the public names it keeps.

`import streamsim` loads no submodule, and each public name loads its
module on first use. The contract is checked in a fresh `python -S`
interpreter, whose `sys.modules` no test has filled yet; it takes no
timings.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import streamsim

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name, kept apart from the package's own table so that a name
# dropped there fails here
PUBLIC = {
    "analysis": ["SweepPoint", "SweepResult", "abandonment_sweep",
                 "buffer_size_sweep", "equivalent_buffer_seconds",
                 "recommend_thresholds"],
    "delivery": ["DeliveryLog", "EVENT_TICK_S",
                 "simulate_multi_connection_waste", "simulate_session"],
    "energy": ["SessionSummary", "integrate_energy", "summarize"],
    "playback": ["BufferTimeline", "QoeReport", "compute_buffer",
                 "detect_stalls", "joining_time"],
    "profiles": ["BUILTIN_PROFILES", "PowerProfile", "get_profile"],
    "radio": ["HspaRrcConfig", "LteDrxConfig", "RadioInterval",
              "RadioTimeline", "WifiPsmConfig", "promotion_latency",
              "simulate_hspa", "simulate_lte", "simulate_radio",
              "simulate_wifi"],
    "scenario": ["ConfigError", "Scenario", "default_radio_config",
                 "load_scenario", "parse_scenario_text"],
    "session": ["SessionResult", "run_session"],
    "streams": ["LinkModel", "PacketEvent", "StreamSpec"],
    "techniques": ["EncodingRate", "FastCaching", "Hls", "Mss", "OnOffM",
                   "OnOffS", "Technique", "Throttling", "preset",
                   "technique_kind"],
    "traces": ["Classification", "FlowRecord", "classify",
               "estimate_buffer", "ingest"],
}
NAMES = [(mod, name) for mod, names in PUBLIC.items() for name in names]

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import streamsim
bare = set(sys.modules)
import streamsim.cli
print(json.dumps([sorted(bare - before), sorted(set(sys.modules) - bare)]))
"""


def test_import_loads_only_what_the_cli_runs():
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE.format(src=SRC)],
                         capture_output=True, text=True, check=True).stdout
    bare, cli = json.loads(out)
    assert bare == ["streamsim"]
    assert "streamsim.cli" in cli
    for mod in ("streamsim.traces", "streamsim.analysis", "streamsim.svgplot",
                "hashlib", "logging", "statistics", "tempfile"):
        assert mod not in cli, mod


_SESSION_PROBE = """
import sys
sys.path.insert(0, {src!r})
from streamsim.scenario import load_scenario
from streamsim.session import run_session
run_session(load_scenario({scn!r}))
print("logging" in sys.modules)
"""


def test_an_hspa_session_leaves_logging_unloaded():
    """The bundled HSPA scenario has fast dormancy to IDLE, whose DEBUG
    note goes to logging only if the caller has loaded it; the session
    does not load it."""
    scn = str(Path(SRC, "streamsim", "scenarios", "youtube_onoffm_hspa.scn"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _SESSION_PROBE.format(src=SRC, scn=scn)],
        capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


_RECORDS_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import streamsim.cli, streamsim.analysis, streamsim.traces
out = []
for name, mod in sorted(sys.modules.items()):
    if name.partition(".")[0] != "streamsim":
        continue
    for cls in vars(mod).values():
        if (isinstance(cls, type) and cls.__module__ == name
                and hasattr(cls, "__dataclass_params__")):
            p = cls.__dataclass_params__
            out.append([cls.__qualname__, p.init, p.repr, p.eq, cls.__doc__])
print(json.dumps(out))
"""


def test_registered_classes_compile_nothing_and_carry_docstrings():
    """Every class streamsim registers with dataclass() lets it generate
    no __init__, __repr__ or __eq__, whose code would be compiled through
    exec at import, and has a docstring, without which dataclass() would
    build one through inspect.signature."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", _RECORDS_PROBE.format(src=SRC)],
        capture_output=True, text=True, check=True).stdout
    registered = json.loads(out)
    names = {name for name, *_ in registered}
    assert {"Scenario", "PacketEvent", "RadioTimeline", "_Cycle",
            "SessionResult", "SweepResult", "FlowRecord"} <= names
    for name, init, repr_, eq, doc in registered:
        assert not (init or repr_ or eq), name
        assert doc and not doc.startswith(f"{name}("), name


def test_every_public_name_is_kept():
    assert len(NAMES) == 56
    star: dict = {}
    exec("from streamsim import *", star)
    for mod, name in NAMES:
        ns: dict = {}
        exec(f"from streamsim import {name}", ns)
        want = getattr(importlib.import_module(f"streamsim.{mod}"), name)
        assert ns[name] is want, name
        assert star[name] is want, name
        assert name in dir(streamsim), name
    assert vars(streamsim)["__version__"] == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        streamsim.no_such_name
    with pytest.raises(ImportError):
        exec("from streamsim import no_such_name", {})
    # a submodule's name is no public name, so the import falls back to it
    ns: dict = {}
    exec("from streamsim import svgplot", ns)
    assert ns["svgplot"] is importlib.import_module("streamsim.svgplot")
