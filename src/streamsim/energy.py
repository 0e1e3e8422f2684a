"""Energy accounting: average currents, Joules and the session summary."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, field

from .delivery import DeliveryLog
from .playback import QoeReport
from .profiles import PowerProfile
from .radio import RadioTimeline
from .streams import MutableRecord


def integrate_energy(timeline: RadioTimeline, profile: PowerProfile,
                     wall_time_s: float) -> tuple[float, float]:
    """Average radio current (mA) and radio energy (J) over the session.

    The timeline must cover [0, wall_time_s] exactly; a coverage gap is a
    modelling error and is rejected.
    """
    return _integrate(timeline, profile, wall_time_s)[:2]


def _integrate(timeline: RadioTimeline, profile: PowerProfile,
               wall_time_s: float) -> tuple[float, float, dict[str, float]]:
    """integrate_energy's figures, then the seconds per state, from one
    pass over the timeline."""
    timeline.validate(wall_time_s)
    residency, charge = timeline.totals()   # mA * s
    if wall_time_s <= 0:
        return 0.0, 0.0, residency
    avg_ma = charge / wall_time_s
    energy_j = (charge / 1000.0) * profile.nominal_voltage_v
    return avg_ma, energy_j, residency


class SessionSummary(MutableRecord):
    """Flat session metrics; the JSON field names are a stable interface."""
    joining_time_s: float
    stall_total_s: float
    stall_count: int
    bytes_downloaded: float
    bytes_consumed: float
    bytes_wasted: float
    avg_streaming_current_ma: float
    avg_playback_current_ma: float
    avg_total_current_ma: float
    energy_j: float
    wall_time_s: float
    state_residency: dict[str, float] = field(default_factory=dict)

    def __init__(self, joining_time_s: float, stall_total_s: float,
                 stall_count: int, bytes_downloaded: float,
                 bytes_consumed: float, bytes_wasted: float,
                 avg_streaming_current_ma: float,
                 avg_playback_current_ma: float, avg_total_current_ma: float,
                 energy_j: float, wall_time_s: float,
                 state_residency: dict[str, float] = MISSING):
        self.joining_time_s = joining_time_s
        self.stall_total_s = stall_total_s
        self.stall_count = stall_count
        self.bytes_downloaded = bytes_downloaded
        self.bytes_consumed = bytes_consumed
        self.bytes_wasted = bytes_wasted
        self.avg_streaming_current_ma = avg_streaming_current_ma
        self.avg_playback_current_ma = avg_playback_current_ma
        self.avg_total_current_ma = avg_total_current_ma
        self.energy_j = energy_j
        self.wall_time_s = wall_time_s
        self.state_residency = ({} if state_residency is MISSING
                                else state_residency)

    def to_json_dict(self) -> dict:
        """The JSON object; a join failure's infinite joining time is
        null, so the object holds no NaN or infinity."""
        return {
            "joining_time_s": (None if math.isinf(self.joining_time_s)
                               else self.joining_time_s),
            "stall_total_s": self.stall_total_s,
            "stall_count": self.stall_count,
            "bytes_downloaded": self.bytes_downloaded,
            "bytes_consumed": self.bytes_consumed,
            "bytes_wasted": self.bytes_wasted,
            "avg_streaming_current_mA": self.avg_streaming_current_ma,
            "avg_playback_current_mA": self.avg_playback_current_ma,
            "avg_total_current_mA": self.avg_total_current_ma,
            "energy_J": self.energy_j,
            "wall_time_s": self.wall_time_s,
            "state_residency": self.state_residency,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True,
                          allow_nan=False)


def summarize(dlog: DeliveryLog, qoe: QoeReport, radio: RadioTimeline,
              profile: PowerProfile, wall_time_s: float) -> SessionSummary:
    """Fuse the per-module artifacts of one scenario into a SessionSummary.

    Byte conservation is the delivery engine's to check: its log's figures
    are the ones reported here.  Radio coverage is integrate_energy's.
    """
    avg_stream_ma, _, residency = _integrate(radio, profile, wall_time_s)
    # The display is lit from the request on, so the playback constant
    # applies to the whole wall time, not just the post-join span.
    avg_playback_ma = profile.playback_ma if wall_time_s > 0 else 0.0
    avg_total_ma = avg_stream_ma + avg_playback_ma
    energy_j = (avg_total_ma / 1000.0) * profile.nominal_voltage_v * wall_time_s

    return SessionSummary(
        joining_time_s=qoe.joining_time_s,
        stall_total_s=qoe.stall_total_s,
        stall_count=len(qoe.stall_events),
        bytes_downloaded=dlog.bytes_delivered,
        bytes_consumed=dlog.bytes_consumed,
        bytes_wasted=dlog.bytes_wasted,
        avg_streaming_current_ma=avg_stream_ma,
        avg_playback_current_ma=avg_playback_ma,
        avg_total_current_ma=avg_total_ma,
        energy_j=energy_j,
        wall_time_s=wall_time_s,
        state_residency=residency,
    )
