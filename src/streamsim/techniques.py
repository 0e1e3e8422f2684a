"""Delivery-technique parameter sets and the named presets seen in the wild."""

from __future__ import annotations

from typing import Optional, Union

from .streams import Record, domain

# Shared client-side constants.
FASTSTART_TARGET_S = 40.0   # content buffered at full rate before steady state
START_THRESHOLD_S = 4.0     # content needed before playback starts
RESUME_THRESHOLD_S = 4.0    # content needed to resume after a stall


class EncodingRate(Record):
    """Receive-window clocked delivery: after the fast start the small client
    buffer back-pressures the sender to exactly the consumption rate."""
    faststart_target_s: float = domain(FASTSTART_TARGET_S, ge=0, inf=True)


class Throttling(Record):
    """Server paces delivery at factor * encoding rate, sent as periodic
    chunks bursted at link speed.

    chunk_jitter draws each chunk size uniformly from +-50% of chunk_bytes
    (some handsets see variable chunk sizes); the session seed makes the
    draw reproducible.
    """
    factor: float = domain(1.25, gt=1, inf=True)   # inf: no throttling
    chunk_bytes: float = domain(64 * 1024, gt=0, inf=True)
    faststart_target_s: float = domain(FASTSTART_TARGET_S, ge=0, inf=True)
    chunk_jitter: bool = False


class OnOffS(Record):
    """Buffer-adaptive delivery over a single persistent connection.

    The player stops reading at upper_bytes of buffered content; the sender
    then probes the closed receive window on a doubling schedule capped at
    persist_cap_s.  A nonzero keepalive interval makes the player take
    keepalive_bytes of data periodically, resetting the probe schedule.
    The OFF period ends after off_fixed_s when set, otherwise when the
    buffer drains to lower_s of content.
    """
    upper_bytes: float = domain(20 * 1024 * 1024, gt=0, inf=True)
    keepalive_interval_s: float = domain(16.0, ge=0, inf=True)  # 0: none
    keepalive_bytes: float = domain(64 * 1024, ge=0, inf=True)
    persist_cap_s: float = domain(5.0, gt=0, inf=True)
    lower_s: float = domain(2.0, ge=0)
    # with no OFF time, ON periods find the buffer full
    off_fixed_s: Optional[float] = domain(None, gt=0)
    faststart_target_s: float = domain(FASTSTART_TARGET_S, ge=0, inf=True)


class OnOffM(Record):
    """Buffer-adaptive delivery over sequential connections.

    The connection closes once upper_s of content is buffered; a new one
    opens after a fixed OFF period (off_fixed_s) or when the buffer drains
    to lower_s.  Refill connections are served at on_rate_factor times the
    encoding rate, matching the server-side throttling observed on refills.
    When chunk_bytes is set, each connection instead downloads exactly that
    many bytes (the fixed-chunk mode) after a faststart_bytes initial fill.
    """
    upper_s: float = domain(100.0, ge=0, inf=True)
    lower_s: float = domain(40.0, ge=0)
    off_fixed_s: Optional[float] = domain(None, gt=0)
    # a refill of less than a byte moves nothing, while each request still
    # costs a round trip
    chunk_bytes: Optional[float] = domain(None, ge=1, inf=True)
    on_rate_factor: float = domain(2.0, gt=1, inf=True)
    # only for the fixed-chunk mode
    faststart_bytes: Optional[float] = domain(None, ge=1, inf=True)

    def __post_init__(self):
        if self.chunk_bytes is None and not self.upper_s >= self.lower_s:
            raise ValueError(f"upper_s must be >= lower_s ({self.lower_s!r}),"
                             f" not {self.upper_s!r}")


class FastCaching(Record):
    """Download the whole content at the maximum available rate."""


class Hls(Record):
    """Chunked rate-adaptive delivery with fixed-duration segments.

    Quality moves up one rung after up_consecutive chunks whose measured
    bandwidth exceeds the next rung's rate, and down after the same count
    below the current rung's rate.  With discard_on_upswitch the buffered
    lower-quality seconds are dropped and re-fetched at the new quality.
    """
    chunk_s: float = domain(10.0, gt=0, inf=True)
    # the start-up level is initial_chunks - 1 chunks
    initial_chunks: int = domain(7, ge=1)
    ladder: tuple[tuple[str, float], ...] = (
        ("ld", 400_000.0), ("sd", 1_000_000.0), ("hd", 2_000_000.0))
    discard_on_upswitch: bool = True
    audio_video_split: bool = False
    av_offset_s: float = domain(5.0, ge=0, inf=True)
    audio_rate_bps: float = domain(64_000.0, gt=0)
    up_consecutive: int = domain(3, ge=1)

    def __post_init__(self):
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        rates = [r for _, r in self.ladder]
        if rates != sorted(rates):
            raise ValueError("ladder must be ordered by rate")


class Mss(Record):
    """Smooth-streaming style delivery: short video chunks on one connection
    with an audio chunk interleaved after every N video chunks."""
    video_chunk_s: float = domain(4.0, gt=0, inf=True)
    audio_every_n_video_chunks: int = domain(4, ge=1)
    startup_buffer_s: float = domain(60.0, ge=0, inf=True)
    ladder: tuple[tuple[str, float], ...] = (
        ("ld", 400_000.0), ("sd", 1_000_000.0), ("hd", 2_000_000.0))
    audio_rate_bps: float = domain(64_000.0, gt=0)


Technique = Union[EncodingRate, Throttling, OnOffS, OnOffM, FastCaching, Hls, Mss]

TECHNIQUE_KINDS = {
    "encoding_rate": EncodingRate,
    "throttling": Throttling,
    "on_off_s": OnOffS,
    "on_off_m": OnOffM,
    "fast_caching": FastCaching,
    "hls": Hls,
    "mss": Mss,
}


def technique_kind(tech: Technique) -> str:
    for name, cls in TECHNIQUE_KINDS.items():
        if isinstance(tech, cls):
            return name
    raise TypeError(f"not a technique: {tech!r}")


def preset(name: str, encoding_rate_bps: Optional[float] = None) -> Technique:
    """Named technique configurations matching observed player behaviour."""
    if name == "youtube_onoffm":
        return OnOffM(upper_s=100.0, lower_s=40.0, off_fixed_s=60.0)
    if name == "onoffm_threshold":
        return OnOffM(upper_s=100.0, lower_s=40.0)
    if name == "vimeo_iphone5":
        return OnOffM(chunk_bytes=5 * 1024 * 1024,
                      faststart_bytes=30 * 1024 * 1024)
    if name == "vimeo_onoffs":
        return OnOffS(upper_bytes=20 * 1024 * 1024, keepalive_interval_s=16.0,
                      keepalive_bytes=64 * 1024, persist_cap_s=5.0)
    if name == "netflix_onoffs":
        return OnOffS(upper_bytes=20 * 1024 * 1024, keepalive_interval_s=0.0,
                      persist_cap_s=10.0, off_fixed_s=30.0)
    if name == "legacy_onoffs":
        return OnOffS(upper_bytes=5 * 1024 * 1024, keepalive_interval_s=16.0,
                      keepalive_bytes=64 * 1024, persist_cap_s=5.0,
                      lower_s=0.5)
    raise KeyError(f"unknown technique preset {name!r}")
