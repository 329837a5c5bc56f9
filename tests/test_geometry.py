import math

import numpy as np
import pytest

import oracles
from thzvlc.geometry import BodyOccupancy, Point3, distance, los_clear


def body(cx, cy, height, radius=0.2):
    return BodyOccupancy(center_xy=(cx, cy), height=height, radius=radius)


def dist(a, b):
    return distance(np.array([(a.x, a.y, a.z)]), np.array([(b.x, b.y, b.z)]))[0, 0]


class TestDistance:
    def test_identity(self):
        p = Point3(0, 0, 0)
        assert dist(p, p) == 0.0

    def test_345_triangle(self):
        assert dist(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0

    def test_hand_computed(self):
        # sqrt(3^2 + 3^2 + 1.5^2) = sqrt(20.25) = 4.5
        got = dist(Point3(1, 2, 1.5), Point3(4, 5, 3.0))
        assert got == pytest.approx(4.5, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = Point3(*rng.uniform(0, 6, 2), rng.uniform(0, 3))
            b = Point3(*rng.uniform(0, 6, 2), rng.uniform(0, 3))
            assert dist(a, b) == dist(b, a)


class TestLosClear:
    def test_no_blockers(self):
        assert los_clear(Point3(0, 0, 3), Point3(4, 0, 1.5), [])

    def test_blocked_by_tall_body(self):
        # Segment z linearly drops from 3 to 1.5; at the body (x=2) it is 2.25.
        tx, rx = Point3(0, 0, 3), Point3(4, 0, 1.5)
        assert not los_clear(tx, rx, [body(2, 0, height=2.5)])

    def test_clear_over_short_body(self):
        tx, rx = Point3(0, 0, 3), Point3(4, 0, 1.5)
        assert los_clear(tx, rx, [body(2, 0, height=2.0)])

    def test_lateral_offset_beyond_radius(self):
        tx, rx = Point3(0, 0, 3), Point3(4, 0, 1.5)
        assert los_clear(tx, rx, [body(2, 0.5, height=2.9, radius=0.2)])

    def test_identical_endpoints_rejected(self):
        p = Point3(1, 1, 1)
        with pytest.raises(ValueError):
            los_clear(p, p, [])

    def test_vertical_link_same_cell_taller_blocker(self):
        # Another user standing on the receiver's spot blocks iff taller.
        tx = Point3(2, 2, 3)
        rx = Point3(2, 2, 1.5)
        assert not los_clear(tx, rx, [body(2, 2, height=1.8)])
        assert los_clear(tx, rx, [body(2, 2, height=1.4)])

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            tx = Point3(*rng.uniform(0, 6, 2), 3.0)
            rx = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
            blockers = [
                body(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0), 0.2)
                for _ in range(rng.integers(1, 4))
            ]
            assert los_clear(tx, rx, blockers) == los_clear(rx, tx, blockers)

    def test_superset_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            tx = Point3(*rng.uniform(0, 6, 2), 3.0)
            rx = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
            blockers = [
                body(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0), rng.uniform(0, 0.4))
                for _ in range(3)
            ]
            if not los_clear(tx, rx, blockers[:1]):
                assert not los_clear(tx, rx, blockers)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tx = Point3(*rng.uniform(0, 6, 2), 3.0)
            rx = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
            cx, cy = rng.uniform(0, 6, 2)
            h = rng.uniform(1.2, 2.0)
            r = rng.uniform(0.05, 0.3)
            if not los_clear(tx, rx, [body(cx, cy, h, r)]):
                assert not los_clear(tx, rx, [body(cx, cy, h, r + rng.uniform(0, 0.5))])


class TestSweepEquivalence:
    def test_random_bodies_match_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tx = Point3(*rng.uniform(0, 6, 2), 3.0)
            rx = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
            bodies = [
                (tuple(rng.uniform(0, 6, 2)), rng.uniform(1.2, 2.2), rng.uniform(0.05, 0.4))
                for _ in range(rng.integers(1, 4))
            ]
            blockers = [body(c[0], c[1], h, r) for c, h, r in bodies]
            got = los_clear(tx, rx, blockers)
            want = oracles.swept_los_clear(
                (tx.x, tx.y, tx.z), (rx.x, rx.y, rx.z), bodies, samples=4000
            )
            assert got == want

    def test_zero_radius_on_segment_exact(self):
        # Lattice-valued endpoints and sweep-grid parameters keep all the
        # arithmetic exact in both code paths, so equality is bit-for-bit.
        rng = np.random.default_rng(5)
        samples = 2**14
        for _ in range(1000):
            txv = (rng.integers(0, 25) * 0.25, rng.integers(0, 25) * 0.25, 3.0)
            rxv = (rng.integers(0, 25) * 0.25, rng.integers(0, 25) * 0.25, rng.integers(4, 9) * 0.25)
            if txv[:2] == rxv[:2]:
                continue
            g0 = int(rng.integers(1, samples)) / samples
            center = (rxv[0] + g0 * (txv[0] - rxv[0]), rxv[1] + g0 * (txv[1] - rxv[1]))
            height = rng.integers(1, 13) * 0.25
            off_center = (rng.integers(0, 25) * 0.25, rng.integers(0, 25) * 0.25)
            bodies = [(center, height, 0.0), (off_center, height, 0.0)]
            blockers = [body(c[0], c[1], h, r) for c, h, r in bodies]
            tx = Point3(*txv)
            rx = Point3(*rxv)
            got = los_clear(tx, rx, blockers)
            want = oracles.swept_los_clear(txv, rxv, bodies, samples=samples)
            assert got == want


class TestValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            BodyOccupancy(center_xy=(0, 0), height=0.0, radius=0.1)
        with pytest.raises(ValueError):
            Point3(0, 0, -0.1)
