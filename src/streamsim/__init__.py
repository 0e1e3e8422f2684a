"""streamsim: a deterministic mobile video streaming simulator.

Co-simulates server delivery techniques, the client playback buffer and
per-technology radio power-state machines, then reports QoE metrics
(joining time, stalls, data waste) and energy metrics (average streaming
current, Joules) per session, plus tradeoff sweeps across abandonment
points and dynamic buffer sizes.
"""

# public name -> its module, imported on first use (PEP 562)
_MODULE_OF = {name: mod for mod, names in {
    "analysis": "SweepPoint SweepResult abandonment_sweep buffer_size_sweep "
                "equivalent_buffer_seconds recommend_thresholds",
    "delivery": "DeliveryLog EVENT_TICK_S simulate_multi_connection_waste "
                "simulate_session",
    "energy": "SessionSummary integrate_energy summarize",
    "playback": "BufferTimeline QoeReport compute_buffer detect_stalls "
                "joining_time",
    "profiles": "BUILTIN_PROFILES PowerProfile get_profile",
    "radio": "HspaRrcConfig LteDrxConfig RadioInterval RadioTimeline "
             "WifiPsmConfig promotion_latency simulate_hspa simulate_lte "
             "simulate_radio simulate_wifi",
    "scenario": "ConfigError Scenario default_radio_config load_scenario "
                "parse_scenario_text",
    "session": "SessionResult run_session",
    "streams": "LinkModel PacketEvent StreamSpec",
    "techniques": "EncodingRate FastCaching Hls Mss OnOffM OnOffS Technique "
                  "Throttling preset technique_kind",
    "traces": "Classification FlowRecord classify estimate_buffer ingest",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_MODULE_OF[name]}")
    return globals().setdefault(name, getattr(module, name))   # cached


def __dir__():
    return sorted(set(globals()) | set(__all__))
