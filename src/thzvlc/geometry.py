"""3-D points, the room grid, and body blockage of ceiling-to-user links.

A link is the open straight segment between a ceiling transmitter (VAP or
SBS) and a user's receiver. Other users' bodies are vertical cylinders of
configurable radius; a link is blocked when its XY projection passes within
a body's radius at a point whose height is at or below the body top. With
radius 0 the cylinder degenerates to the vertical line segment of an
infinitely thin body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point3:
    """Position in meters. z is height above the floor."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.z < 0:
            raise ValueError(f"z must be nonnegative, got {self.z}")


@dataclass(frozen=True)
class BodyOccupancy:
    """Vertical cylinder approximating a standing user's body."""

    center_xy: tuple[float, float]
    height: float
    radius: float

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError(f"body height must be positive, got {self.height}")
        if self.radius < 0:
            raise ValueError(f"body radius must be nonnegative, got {self.radius}")


@dataclass(frozen=True)
class RoomGrid:
    """Square room divided into cells_per_side**2 equal cells.

    Cell index convention: idx = iy * cells_per_side + ix, center at
    ((ix + 0.5) * cell, (iy + 0.5) * cell).
    """

    room_side: float
    cells_per_side: int
    cell_centers: tuple[tuple[float, float], ...]

    @property
    def num_cells(self) -> int:
        return self.cells_per_side * self.cells_per_side

    def cell_center(self, idx: int) -> tuple[float, float]:
        return self.cell_centers[idx]


def make_grid(room_side: float, cells_per_side: int) -> RoomGrid:
    if room_side <= 0 or cells_per_side < 1:
        raise ValueError("room_side must be positive and cells_per_side >= 1")
    cell = room_side / cells_per_side
    centers = tuple(
        ((ix + 0.5) * cell, (iy + 0.5) * cell)
        for iy in range(cells_per_side)
        for ix in range(cells_per_side)
    )
    return RoomGrid(room_side=room_side, cells_per_side=cells_per_side, cell_centers=centers)


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    dx = a.x - b.x
    dy = a.y - b.y
    dz = a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def blocked(tx: np.ndarray, rx: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """bool[t, r, b]: body b obstructs the open segment rx[r] -> tx[t].

    tx and rx are float arrays of shape (n, 3) holding (x, y, z); bodies has
    shape (m, 4) holding (center x, center y, height, radius). Masking a
    receiver's own body is the caller's job.

    Points on a segment are P(g) = rx + g*(tx - rx), 0 < g < 1. The set of
    g where the XY projection lies within the body radius is the solution of
    a quadratic; z(g) is linear, so the lowest point of the segment inside
    that g-interval sits at one of the interval's ends. The body blocks iff
    that lowest z is at or below the body top. An XY-vertical segment
    (a == 0) projects to a single point, inside the radius or not.
    """
    tx = tx[:, None, None, :]
    rx = rx[None, :, None, :]
    ex = tx[..., 0] - rx[..., 0]
    ey = tx[..., 1] - rx[..., 1]
    ez = tx[..., 2] - rx[..., 2]
    dx = rx[..., 0] - bodies[:, 0]
    dy = rx[..., 1] - bodies[:, 1]
    radius = bodies[:, 3]

    a = ex * ex + ey * ey
    b = 2.0 * (dx * ex + dy * ey)
    c = dx * dx + dy * dy - radius * radius

    vertical = a == 0.0
    a = np.where(vertical, 1.0, a)  # the vertical entries' roots are unused
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = (-b - root) / (2.0 * a)
    hi = (-b + root) / (2.0 * a)
    meets = np.where(vertical, c <= 0.0, (disc >= 0.0) & (hi > 0.0) & (lo < 1.0))
    lo = np.where(vertical, 0.0, np.maximum(lo, 0.0))
    hi = np.where(vertical, 1.0, np.minimum(hi, 1.0))

    g_low = np.where(ez >= 0.0, lo, hi)
    z_min = rx[..., 2] + g_low * ez
    return meets & (z_min <= bodies[:, 2])


def los_clear(tx: Point3, rx: Point3, blockers: list[BodyOccupancy]) -> bool:
    """True when no body in `blockers` obstructs the tx-rx segment.

    The receiving user's own body must not be in `blockers`; that is the
    caller's responsibility. An empty blocker list is a clear link.
    """
    if tx == rx:
        raise ValueError("tx and rx must be distinct points")
    if not blockers:
        return True
    bodies = np.array([(b.center_xy[0], b.center_xy[1], b.height, b.radius) for b in blockers])
    return not blocked(np.array([[tx.x, tx.y, tx.z]]), np.array([[rx.x, rx.y, rx.z]]), bodies).any()
