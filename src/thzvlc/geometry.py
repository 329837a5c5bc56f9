"""The 3-D point of one-point link calls, and body blockage of ceiling-to-user links.

A link is the open straight segment between a ceiling transmitter (VAP or
SBS) and a user's receiver. Other users' bodies are vertical cylinders of
configurable radius; a link is blocked when its XY projection passes within
a body's radius at a point whose height is at or below the body top. With
radius 0 the cylinder degenerates to the vertical line segment of an
infinitely thin body.
"""

from __future__ import annotations

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
            raise ValueError(f"Point3.z must be >= 0, got {self.z!r}")


@dataclass(frozen=True)
class BodyOccupancy:
    """Vertical cylinder approximating a standing user's body."""

    center_xy: tuple[float, float]
    height: float
    radius: float

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError(f"BodyOccupancy.height must be > 0, got {self.height!r}")
        if self.radius < 0:
            raise ValueError(f"BodyOccupancy.radius must be >= 0, got {self.radius!r}")


def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] Euclidean distance in meters between the (x, y, z) rows a[i]
    and b[j]."""
    dx = a[:, None, 0] - b[:, 0]
    dy = a[:, None, 1] - b[:, 1]
    dz = a[:, None, 2] - b[:, 2]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def crossings(
    tx: np.ndarray, rx: np.ndarray, centers: np.ndarray, radius
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """XY stage of `blocked`: (meets, lo, hi)[t, r, b].

    Reads only columns 0 and 1 (x, y) of tx, rx and centers, plus the body
    radius (one per center, or one for all). Points on a segment are
    P(g) = rx + g*(tx - rx), 0 < g < 1; the set of g where the XY projection
    lies within the radius of center b is the solution of a quadratic.
    meets says whether that set touches the open segment, and [lo, hi] is
    its part inside [0, 1]. An XY-vertical segment (a == 0) projects to a
    single point, inside the radius or not, and spans all of [0, 1].
    """
    tx = tx[:, None, None, :]
    rx = rx[None, :, None, :]
    ex = tx[..., 0] - rx[..., 0]
    ey = tx[..., 1] - rx[..., 1]
    dx = rx[..., 0] - centers[:, 0]
    dy = rx[..., 1] - centers[:, 1]

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
    return meets, lo, hi


def below_top(meets, lo, hi, tx_z: np.ndarray, rx_z: np.ndarray, top: np.ndarray) -> np.ndarray:
    """z stage of `blocked`: bool[t, r, b] from the XY stage's output.

    z(g) is linear, so the lowest point of the segment inside [lo, hi] sits
    at lo when the segment rises towards tx and at hi when it falls; the
    body blocks iff that lowest z is at or below its top.
    """
    ez = tx_z[:, None, None] - rx_z[None, :, None]
    g_low = np.where(ez >= 0.0, lo, hi)
    z_min = rx_z[None, :, None] + g_low * ez
    return meets & (z_min <= top)


def blocked(tx: np.ndarray, rx: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """bool[t, r, b]: body b obstructs the open segment rx[r] -> tx[t].

    tx and rx are float arrays of shape (n, 3) holding (x, y, z); bodies has
    shape (m, 4) holding (center x, center y, height, radius). Masking a
    receiver's own body is the caller's job. The XY stage (`crossings`)
    finds where the segment's projection lies within each body's radius,
    the z stage (`below_top`) whether the segment is that low there.
    """
    meets, lo, hi = crossings(tx, rx, bodies, bodies[:, 3])
    return below_top(meets, lo, hi, tx[:, 2], rx[:, 2], bodies[:, 2])


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
