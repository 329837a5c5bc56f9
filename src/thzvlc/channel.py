"""VLC positioning predicate and THz link budget, each formula written once
over float rows of (x, y, z) points, one value per (unit, point) pair.

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
narrow THz beams carry no inter-SBS interference term. `localized` and
`link_budget` are the formulas at one user, body blockage included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Evaluated THz links, [sbs, point] arrays (noise_w is [point]), or
    floats for one link."""

    path_loss: np.ndarray
    noise_w: np.ndarray
    rate_bps: np.ndarray
    delay_s: np.ndarray
    tx_ok: np.ndarray


def dbm_per_hz_to_w_per_hz(density_dbm_per_hz: float) -> float:
    return 10.0 ** ((density_dbm_per_hz - 30.0) / 10.0)


def _rows(points: list[Point3]) -> np.ndarray:
    return np.array([(p.x, p.y, p.z) for p in points], dtype=float).reshape(-1, 3)


def incidence_angle(units: np.ndarray, points: np.ndarray) -> np.ndarray:
    """[unit, point] angle (radians) between the point->unit direction and
    vertical-up."""
    dx = units[:, None, 0] - points[:, 0]
    dy = units[:, None, 1] - points[:, 1]
    dz = units[:, None, 2] - points[:, 2]
    if (dz <= 0).any():
        raise ValueError("every unit must sit strictly above the receiver plane")
    return np.arctan2(np.sqrt(dx * dx + dy * dy), dz)


def transmittance(r, params: RadioParams):
    """Beer-Lambert medium transmittance over paths of length r."""
    return np.exp(-params.absorption_per_m * r)


def _spreading(r, params: RadioParams):
    return C_LIGHT / (4.0 * math.pi * params.carrier_freq_hz * r)


def path_loss(r, params: RadioParams):
    """Spreading loss times transmittance of clear paths of length r."""
    spreading = _spreading(r, params)
    return spreading * spreading * transmittance(r, params)


def noise_power(r: np.ndarray, params: RadioParams) -> np.ndarray:
    """[point] thermal floor plus the molecular absorption noise of every
    SBS, from the distances r[sbs, point]; added in SBS order."""
    total = np.full(r.shape[1:], params.floor_noise_w)
    for r_sbs in r:
        spreading = _spreading(r_sbs, params)
        total = total + params.tx_power_w * spreading * spreading * (1.0 - transmittance(r_sbs, params))
    return total


def budget_given_los(
    sbs: np.ndarray, points: np.ndarray, los: bool | np.ndarray, all_sbs: np.ndarray, params: RadioParams
) -> LinkBudget:
    """Budget of each sbs->point THz link whose line of sight is `los`
    (broadcast over [sbs, point]); the noise sums over `all_sbs`.

    Out-of-range values become inf or nan, as in Python float arithmetic,
    and fail the delay test.
    """
    with np.errstate(all="ignore"):
        g = np.where(los, path_loss(distance(sbs, points), params), 0.0)
        noise = noise_power(distance(all_sbs, points), params)
        rate = params.bandwidth_hz * np.log2(1.0 + params.tx_power_w * g / noise)
        delay = np.where(rate > 0, params.image_size_bits / rate, math.inf)
    return LinkBudget(g, noise, rate, delay, delay <= params.slot_duration_s)


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
    angles = incidence_angle(_rows(selected_vaps), _rows([user]))[:, 0]
    return all(
        angle <= optics.fov_semi_angle_rad and los_clear(vap, user, blockers)
        for vap, angle in zip(selected_vaps, angles)
    )


def link_budget(
    sbs: Point3,
    user: Point3,
    blockers: list[BodyOccupancy],
    all_sbs: list[Point3],
    params: RadioParams,
) -> LinkBudget:
    """Budget of the one sbs->user THz link, body blockage included."""
    los = los_clear(sbs, user, blockers)
    budget = budget_given_los(_rows([sbs]), _rows([user]), los, _rows(all_sbs), params)
    return LinkBudget(*(value.item() for value in vars(budget).values()))
