"""Per-device current-draw profiles.

Currents are average draws in mA for each radio state plus a constant
playback (decode + display) draw.  The built-in profiles are calibrated so
that the anchored states reproduce published handset measurements: the
GS3 LTE figures of 77 mA (Wi-Fi active), 200/150/50 mA (CELL_DCH/FACH/PCH)
and 310 mA (LTE reception) are measurement-sourced, as are the per-device
DRX on-period overstays (60 ms iPhone5, 45 ms GS3 LTE, 30 ms Lumia825) and
the iOS 50 ms vs 200 ms Wi-Fi idle tails.  Unpublished states carry
plausible fill-in values consistent with the relative device rankings.
"""

from __future__ import annotations

from dataclasses import replace

from .streams import Record, domain


class PowerProfile(Record):
    """One handset's current draw in mA per radio state, plus playback."""
    name: str
    # Wi-Fi
    wifi_active: float = domain(ge=0)
    wifi_idle_tail: float = domain(ge=0)
    wifi_sleep: float = domain(ge=0)
    # HSPA RRC states
    hspa_dch: float = domain(ge=0)
    hspa_fach: float = domain(ge=0)
    hspa_pch: float = domain(ge=0)
    hspa_idle: float = domain(ge=0)
    # LTE
    lte_rx: float = domain(ge=0)
    lte_drx_on: float = domain(ge=0)
    lte_drx_sleep: float = domain(ge=0)
    lte_idle: float = domain(ge=0)
    drx_on_overstay_ms: float = domain(ge=0)  # awake time per DRX on-period
    # Non-radio
    playback_ma: float = domain(ge=0)   # decode + display constant
    nominal_voltage_v: float = domain(3.8, gt=0)

    def __post_init__(self):
        if not self.hspa_dch >= self.hspa_fach >= self.hspa_pch:
            raise ValueError(
                f"hspa_fach must lie between hspa_pch ({self.hspa_pch!r}) and"
                f" hspa_dch ({self.hspa_dch!r}), not {self.hspa_fach!r}")


_GS3_LTE = PowerProfile(
    name="gs3-lte",
    wifi_active=77.0,        # measured (DVFS keeps the Android Wi-Fi path cheap)
    wifi_idle_tail=38.5,     # idle draw is half of active
    wifi_sleep=3.0,
    hspa_dch=200.0,          # measured
    hspa_fach=150.0,         # measured
    hspa_pch=50.0,           # measured
    hspa_idle=5.0,
    lte_rx=310.0,            # measured
    # On/sleep pair solves avg(80 ms cycle) = 120 mA and avg80/avg640 = 3.
    lte_drx_on=191.0,
    lte_drx_sleep=28.6,
    lte_idle=10.0,
    drx_on_overstay_ms=45.0,  # measured
    playback_ma=100.0,
)

BUILTIN_PROFILES: dict[str, PowerProfile] = {
    "gs3-lte": _GS3_LTE,
    # Non-LTE GS3: same radio silicon for Wi-Fi/HSPA; LTE fields unused.
    "gs3": replace(_GS3_LTE, name="gs3"),
    "iphone4s": PowerProfile(
        name="iphone4s",
        wifi_active=50.0, wifi_idle_tail=25.0, wifi_sleep=2.0,
        hspa_dch=150.0, hspa_fach=110.0, hspa_pch=40.0, hspa_idle=5.0,
        lte_rx=300.0, lte_drx_on=190.0, lte_drx_sleep=30.0, lte_idle=10.0,
        drx_on_overstay_ms=45.0,
        playback_ma=80.0,
    ),
    "iphone5": PowerProfile(
        name="iphone5",
        wifi_active=55.0, wifi_idle_tail=27.5, wifi_sleep=2.0,
        hspa_dch=160.0, hspa_fach=120.0, hspa_pch=45.0, hspa_idle=5.0,
        lte_rx=320.0, lte_drx_on=200.0, lte_drx_sleep=35.0, lte_idle=10.0,
        drx_on_overstay_ms=60.0,  # measured: longest on-period residency
        playback_ma=90.0,
    ),
    "lumia825": PowerProfile(
        name="lumia825",
        wifi_active=110.0, wifi_idle_tail=55.0, wifi_sleep=4.0,
        hspa_dch=170.0, hspa_fach=130.0, hspa_pch=45.0, hspa_idle=5.0,
        lte_rx=240.0,             # lowest active LTE draw of the set
        lte_drx_on=160.0, lte_drx_sleep=22.0, lte_idle=8.0,
        drx_on_overstay_ms=30.0,  # measured
        playback_ma=95.0,
    ),
}


def get_profile(name: str) -> PowerProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROFILES))
        raise KeyError(f"unknown power profile {name!r} (built-ins: {known})") from None
