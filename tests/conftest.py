import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from streamsim import (LinkModel, StreamSpec, get_profile)
from streamsim.scenario import Scenario, default_radio_config


@pytest.fixture(scope="session")
def gs3():
    return get_profile("gs3-lte")


@pytest.fixture
def hd_stream():
    """600 s HD stream at 2 Mbps (the standard comparison content)."""
    return StreamSpec(duration_s=600.0, encoding_rate_bps=2_000_000.0)


@pytest.fixture
def ld_stream():
    return StreamSpec(duration_s=600.0, encoding_rate_bps=400_000.0)


@pytest.fixture
def link4(hd_stream):
    """Constant link at 4x the HD encoding rate."""
    return LinkModel.constant(4 * hd_stream.encoding_rate_bps, rtt_ms=70.0)


def make_scenario(stream, link, tech, radio_tech="hspa", profile=None,
                  abandon_at_s=None, cfg=None):
    profile = profile or get_profile("gs3-lte")
    cfg = cfg or default_radio_config(radio_tech, profile.name)
    return Scenario(stream=stream, link=link, technique=tech,
                    radio_tech=radio_tech, radio_cfg=cfg, profile=profile,
                    abandon_at_s=abandon_at_s)


def steady_off_durations(dlog):
    """The length of each OFF period in a delivery log."""
    return [b - a for a, b in dlog.off_spans]


def link_capacity(link, a_s, b_s):
    """The most bytes the link can carry over [a_s, b_s]."""
    total, t = 0.0, a_s
    while t < b_s:
        nxt = min(b_s, link.next_change_after(t))
        total += link.bandwidth_at(t) * (nxt - t) / 8.0
        t = nxt
    return total
