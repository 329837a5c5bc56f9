"""VLC positioning predicate and THz link budget.

Positioning: a user is localized when all three lit VAPs are inside the
receiver field of view (incidence angle measured from the vertical-up
receiver normal) and their optical links are unobstructed by other users.

THz link budget:
    path loss     g = (c / (4 pi f r))^2 * exp(-K(f) r)   (0 when blocked)
    noise         I = I0 + sum_l P (c / (4 pi f r_l))^2 (1 - exp(-K(f) r_l))
    rate          C = W log2(1 + P g / I)
    delay         d = S / C
    transmission  ok when d fits within one slot

The molecular absorption term of I sums over every SBS in the room; the
narrow THz beams carry no inter-SBS interference term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import BodyOccupancy, Point3, distance, los_clear

# Propagation constant used throughout the link budget (m/s).
C_LIGHT = 3.0e8


@dataclass(frozen=True)
class RadioParams:
    """THz band constants, all in SI units (domains in `harness.SCHEMA`)."""

    carrier_freq_hz: float
    bandwidth_hz: float
    tx_power_w: float
    absorption_per_m: float
    noise_density_w_per_hz: float
    image_size_bits: float
    slot_duration_s: float

    @property
    def floor_noise_w(self) -> float:
        """Thermal noise over the receive band (watts)."""
        return self.noise_density_w_per_hz * self.bandwidth_hz


@dataclass(frozen=True)
class OpticsParams:
    """VLC receiver optics. The receiver normal is fixed vertical-up."""

    fov_semi_angle_rad: float


@dataclass(frozen=True)
class LinkBudget:
    """Evaluated THz link between one SBS and one user."""

    path_loss: float
    noise_w: float
    rate_bps: float
    delay_s: float
    tx_ok: bool


def dbm_per_hz_to_w_per_hz(density_dbm_per_hz: float) -> float:
    return 10.0 ** ((density_dbm_per_hz - 30.0) / 10.0)


def incidence_angle(vap: Point3, user: Point3) -> float:
    """Angle (radians) between the user->VAP direction and vertical-up."""
    dz = vap.z - user.z
    if dz <= 0:
        raise ValueError("VAP must sit strictly above the receiver plane")
    dx = vap.x - user.x
    dy = vap.y - user.y
    horiz = math.sqrt(dx * dx + dy * dy)
    return math.atan2(horiz, dz)


def localized(
    user_idx: int,
    user_positions: list[Point3],
    heights: list[float],
    selected_vaps: list[Point3],
    optics: OpticsParams,
    body_radius: float,
) -> bool:
    """True when all three selected VAPs can reach the user's receiver.

    Every selected VAP must be within the FOV semi-angle and have a clear
    optical path past every other user's body.
    """
    if len(selected_vaps) != 3:
        raise ValueError(f"exactly 3 VAPs must be selected, got {len(selected_vaps)}")
    user = user_positions[user_idx]
    blockers = [
        BodyOccupancy(center_xy=(p.x, p.y), height=h, radius=body_radius)
        for m, (p, h) in enumerate(zip(user_positions, heights))
        if m != user_idx
    ]
    for vap in selected_vaps:
        if incidence_angle(vap, user) > optics.fov_semi_angle_rad:
            return False
        if not los_clear(vap, user, blockers):
            return False
    return True


def transmittance(r: float, params: RadioParams) -> float:
    """Beer-Lambert medium transmittance over a path of length r."""
    if r < 0:
        raise ValueError("path length must be nonnegative")
    return math.exp(-params.absorption_per_m * r)


def path_loss(sbs: Point3, user: Point3, los: bool, params: RadioParams) -> float:
    """Spreading loss times transmittance; exactly 0 for a blocked link."""
    if not los:
        return 0.0
    r = distance(sbs, user)
    spreading = C_LIGHT / (4.0 * math.pi * params.carrier_freq_hz * r)
    return spreading * spreading * transmittance(r, params)


def noise_power(user: Point3, all_sbs: list[Point3], params: RadioParams) -> float:
    """Thermal floor plus molecular absorption noise from every SBS."""
    total = params.floor_noise_w
    for sbs in all_sbs:
        r = distance(sbs, user)
        spreading = C_LIGHT / (4.0 * math.pi * params.carrier_freq_hz * r)
        total += params.tx_power_w * spreading * spreading * (1.0 - transmittance(r, params))
    return total


def link_budget(
    sbs: Point3,
    user: Point3,
    blockers: list[BodyOccupancy],
    all_sbs: list[Point3],
    params: RadioParams,
) -> LinkBudget:
    """Full budget for the sbs->user THz link, body blockage included."""
    return budget_given_los(sbs, user, los_clear(sbs, user, blockers), all_sbs, params)


def budget_given_los(
    sbs: Point3,
    user: Point3,
    los: bool,
    all_sbs: list[Point3],
    params: RadioParams,
) -> LinkBudget:
    """Budget for the sbs->user THz link whose line of sight is `los`."""
    g = path_loss(sbs, user, los, params)
    noise = noise_power(user, all_sbs, params)
    rate = params.bandwidth_hz * math.log2(1.0 + params.tx_power_w * g / noise)
    delay = params.image_size_bits / rate if rate > 0 else math.inf
    return LinkBudget(
        path_loss=g,
        noise_w=noise,
        rate_bps=rate,
        delay_s=delay,
        tx_ok=delay <= params.slot_duration_s,
    )
