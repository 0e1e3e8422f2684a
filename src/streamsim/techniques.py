"""Delivery-technique parameter sets and the named presets seen in the wild."""

from __future__ import annotations

import math
from typing import Optional, Union

from .streams import Record

# Shared client-side constants.
FASTSTART_TARGET_S = 40.0   # content buffered at full rate before steady state
START_THRESHOLD_S = 4.0     # content needed before playback starts
RESUME_THRESHOLD_S = 4.0    # content needed to resume after a stall


def _check_audio_rate(bps: float) -> None:
    if not 0 < bps < math.inf:
        raise ValueError(
            f"audio_rate_bps must be a finite number > 0, not {bps!r}")


def _check_off_fixed(seconds: Optional[float]) -> None:
    # with no OFF time between them, ON periods find the buffer full
    if seconds is not None and not 0 < seconds < math.inf:
        raise ValueError(
            f"off_fixed_s must be a finite number > 0, not {seconds!r}")


class EncodingRate(Record):
    """Receive-window clocked delivery: after the fast start the small client
    buffer back-pressures the sender to exactly the consumption rate."""
    faststart_target_s: float = FASTSTART_TARGET_S


class Throttling(Record):
    """Server paces delivery at factor * encoding rate, sent as periodic
    chunks bursted at link speed.

    chunk_jitter draws each chunk size uniformly from +-50% of chunk_bytes
    (some handsets see variable chunk sizes); the session seed makes the
    draw reproducible.
    """
    factor: float = 1.25
    chunk_bytes: float = 64 * 1024
    faststart_target_s: float = FASTSTART_TARGET_S
    chunk_jitter: bool = False

    def __post_init__(self):
        if not self.factor > 1.0:
            raise ValueError("throttle factor must be > 1")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be > 0")


class OnOffS(Record):
    """Buffer-adaptive delivery over a single persistent connection.

    The player stops reading at upper_bytes of buffered content; the sender
    then probes the closed receive window on a doubling schedule capped at
    persist_cap_s.  A nonzero keepalive interval makes the player take
    keepalive_bytes of data periodically, resetting the probe schedule.
    The OFF period ends after off_fixed_s when set, otherwise when the
    buffer drains to lower_s of content.
    """
    upper_bytes: float = 20 * 1024 * 1024
    keepalive_interval_s: float = 16.0   # 0 disables keepalives
    keepalive_bytes: float = 64 * 1024
    persist_cap_s: float = 5.0
    lower_s: float = 2.0
    off_fixed_s: Optional[float] = None
    faststart_target_s: float = FASTSTART_TARGET_S

    def __post_init__(self):
        if self.upper_bytes <= 0:
            raise ValueError("upper_bytes must be > 0")
        if self.persist_cap_s <= 0:
            raise ValueError("persist_cap_s must be > 0")
        if self.keepalive_interval_s < 0 or self.lower_s < 0:
            raise ValueError("intervals must be >= 0")
        _check_off_fixed(self.off_fixed_s)


class OnOffM(Record):
    """Buffer-adaptive delivery over sequential connections.

    The connection closes once upper_s of content is buffered; a new one
    opens after a fixed OFF period (off_fixed_s) or when the buffer drains
    to lower_s.  Refill connections are served at on_rate_factor times the
    encoding rate, matching the server-side throttling observed on refills.
    When chunk_bytes is set, each connection instead downloads exactly that
    many bytes (the fixed-chunk mode) after a faststart_bytes initial fill.
    """
    upper_s: float = 100.0
    lower_s: float = 40.0
    off_fixed_s: Optional[float] = None
    chunk_bytes: Optional[float] = None
    on_rate_factor: float = 2.0
    faststart_bytes: Optional[float] = None   # only for the fixed-chunk mode

    def __post_init__(self):
        if self.chunk_bytes is None and not self.lower_s < self.upper_s:
            if self.lower_s != self.upper_s:
                raise ValueError("need lower_s <= upper_s")
        if self.on_rate_factor <= 1.0:
            raise ValueError("on_rate_factor must be > 1")
        _check_off_fixed(self.off_fixed_s)
        # a refill of less than a byte moves nothing, while each request
        # still costs a round trip
        for name in ("chunk_bytes", "faststart_bytes"):
            nbytes = getattr(self, name)
            if nbytes is not None and not nbytes >= 1.0:
                raise ValueError(
                    f"{name} must be at least 1 byte, not {nbytes!r}")


class FastCaching(Record):
    """Download the whole content at the maximum available rate."""


class Hls(Record):
    """Chunked rate-adaptive delivery with fixed-duration segments.

    Quality moves up one rung after up_consecutive chunks whose measured
    bandwidth exceeds the next rung's rate, and down after the same count
    below the current rung's rate.  With discard_on_upswitch the buffered
    lower-quality seconds are dropped and re-fetched at the new quality.
    """
    chunk_s: float = 10.0
    initial_chunks: int = 7
    ladder: tuple[tuple[str, float], ...] = (
        ("ld", 400_000.0), ("sd", 1_000_000.0), ("hd", 2_000_000.0))
    discard_on_upswitch: bool = True
    audio_video_split: bool = False
    av_offset_s: float = 5.0
    audio_rate_bps: float = 64_000.0
    up_consecutive: int = 3

    def __post_init__(self):
        if self.chunk_s <= 0:
            raise ValueError("chunk_s must be > 0")
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        rates = [r for _, r in self.ladder]
        if rates != sorted(rates):
            raise ValueError("ladder must be ordered by rate")
        _check_audio_rate(self.audio_rate_bps)


class Mss(Record):
    """Smooth-streaming style delivery: short video chunks on one connection
    with an audio chunk interleaved after every N video chunks."""
    video_chunk_s: float = 4.0
    audio_every_n_video_chunks: int = 4
    startup_buffer_s: float = 60.0
    ladder: tuple[tuple[str, float], ...] = (
        ("ld", 400_000.0), ("sd", 1_000_000.0), ("hd", 2_000_000.0))
    audio_rate_bps: float = 64_000.0

    def __post_init__(self):
        if self.audio_every_n_video_chunks < 1:
            raise ValueError("audio_every_n_video_chunks must be >= 1")
        if self.video_chunk_s <= 0:
            raise ValueError("video_chunk_s must be > 0")
        _check_audio_rate(self.audio_rate_bps)


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
