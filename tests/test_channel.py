import math

import numpy as np
import pytest

import oracles
from oracles import distance
from thzvlc import channel, geometry
from thzvlc.channel import OpticsParams, incidence_angle, link_budget, localized, noise_power, path_loss, transmittance
from thzvlc.geometry import BodyOccupancy, Point3


OPTICS = OpticsParams(fov_semi_angle_rad=math.radians(75.0))


def rows(*points):
    return np.array([(p.x, p.y, p.z) for p in points], dtype=float).reshape(-1, 3)


def angle(vap, user):
    return incidence_angle(rows(vap), rows(user))[0, 0]


def noise_at(user, stations, radio):
    return noise_power(geometry.distance(rows(*stations), rows(user)), radio)[0]


class TestIncidenceAngle:
    def test_overhead_is_zero(self):
        assert angle(Point3(2, 2, 3), Point3(2, 2, 1.5)) == 0.0

    def test_45_degrees(self):
        got = angle(Point3(3, 2, 3), Point3(2, 2, 2))
        assert got == pytest.approx(math.pi / 4, rel=1e-12)

    def test_hand_computed(self):
        # horizontal sqrt(1 + 4) = sqrt(5), vertical 1.5
        got = angle(Point3(1, 1, 3), Point3(2, 3, 1.5))
        assert got == pytest.approx(math.atan(math.sqrt(5) / 1.5), rel=1e-12)

    def test_vap_below_receiver_rejected(self):
        with pytest.raises(ValueError):
            angle(Point3(1, 1, 1.0), Point3(1, 2, 1.5))


class TestLocalized:
    def _single_user_setup(self):
        user = Point3(3, 3, 1.5)
        vaps = [Point3(2.5, 3, 3), Point3(3.5, 3, 3), Point3(3, 2.5, 3)]
        return [user], [1.5], vaps

    def test_clear_overhead_vaps(self):
        positions, heights, vaps = self._single_user_setup()
        assert localized(0, positions, heights, vaps, OPTICS, 0.2)

    def test_one_vap_outside_fov(self):
        positions, heights, vaps = self._single_user_setup()
        narrow = OpticsParams(fov_semi_angle_rad=math.radians(10.0))
        far = [vaps[0], vaps[1], Point3(5.9, 5.9, 3)]
        assert not localized(0, positions, heights, far, narrow, 0.2)

    def test_blocked_by_other_body(self):
        # Same geometry as the blockage example: the optical path from the
        # VAP at (0, 0) to the user at (4, 0) dips to 2.25 m over the blocker.
        user = Point3(4, 0, 1.5)
        other = Point3(2, 0, 2.5)
        positions = [user, other]
        heights = [1.5, 2.5]
        vaps = [Point3(0, 0, 3), Point3(4, 1, 3), Point3(4.5, 0, 3)]
        wide = OpticsParams(fov_semi_angle_rad=math.radians(80.0))
        assert not localized(0, positions, heights, vaps, wide, 0.2)
        clear_vaps = [Point3(4, -1, 3), Point3(4, 1, 3), Point3(4.5, 0, 3)]
        assert localized(0, positions, heights, clear_vaps, wide, 0.2)

    def test_wrong_vap_count_rejected(self):
        positions, heights, vaps = self._single_user_setup()
        with pytest.raises(ValueError):
            localized(0, positions, heights, vaps[:2], OPTICS, 0.2)

    def test_monotone_in_fov(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            positions = [Point3(*rng.uniform(0, 6, 2), rng.uniform(1.4, 1.9)) for _ in range(3)]
            heights = [p.z for p in positions]
            vaps = [Point3(*rng.uniform(0, 6, 2), 3.0) for _ in range(3)]
            wide = OpticsParams(fov_semi_angle_rad=1.2)
            tight = OpticsParams(fov_semi_angle_rad=0.6)
            if localized(0, positions, heights, vaps, tight, 0.2):
                assert localized(0, positions, heights, vaps, wide, 0.2)


class TestTransmittance:
    def test_zero_path(self, default_radio):
        assert transmittance(0.0, default_radio) == 1.0

    def test_decay_constant(self, default_radio):
        assert transmittance(1.0 / default_radio.absorption_per_m, default_radio) == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    def test_hand_value(self, default_radio):
        assert transmittance(3.0, default_radio) == pytest.approx(math.exp(-0.03), rel=1e-12)

    def test_strictly_decreasing_in_unit_interval(self, default_radio):
        rs = np.linspace(0, 50, 200)
        vals = [transmittance(r, default_radio) for r in rs]
        assert all(0 < v <= 1 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPathLoss:
    def test_blocked_is_exactly_zero(self, default_radio):
        sbs, user = rows(Point3(0, 0, 3)), rows(Point3(1, 1, 1.5))
        assert channel.budget_given_los(sbs, user, False, sbs, default_radio).path_loss[0, 0] == 0.0

    def test_decreasing_in_distance(self, default_radio):
        sbs = Point3(0, 0, 3)
        vals = [
            path_loss(distance(sbs, Point3(x, 0, 1.5)), default_radio) for x in np.linspace(0.5, 6, 30)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_oracle(self, default_radio):
        sbs = Point3(1, 1, 3)
        user = Point3(2.2, 1.8, 1.6)
        r = distance(sbs, user)
        got = path_loss(r, default_radio)
        want = oracles.path_loss(r, default_radio.carrier_freq_hz, default_radio.absorption_per_m)
        assert got == pytest.approx(want, rel=1e-12)


class TestNoisePower:
    def test_no_sbs_gives_floor(self, default_radio):
        got = noise_at(Point3(3, 3, 1.5), [], default_radio)
        assert got == default_radio.floor_noise_w

    def test_monotone_in_sbs_count(self, default_radio):
        user = Point3(3, 3, 1.5)
        stations = [Point3(x, 2, 3) for x in (1.0, 2.0, 4.0, 5.0)]
        vals = [noise_at(user, stations[:k], default_radio) for k in range(5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_seven_sbs_against_oracle(self, default_radio):
        from thzvlc.env import ring_positions

        stations = [Point3(x, y, 3.0) for x, y in ring_positions(7, 6.0, phase=math.pi / 6)]
        user = Point3(3, 3, 1.6)
        got = noise_at(user, stations, default_radio)
        want = oracles.noise(
            [distance(s, user) for s in stations],
            default_radio.tx_power_w,
            default_radio.carrier_freq_hz,
            default_radio.absorption_per_m,
            default_radio.noise_density_w_per_hz,
            default_radio.bandwidth_hz,
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestLinkBudget:
    def test_blocked_link(self, default_radio):
        sbs = Point3(0, 0, 3)
        user = Point3(4, 0, 1.5)
        blocker = BodyOccupancy(center_xy=(2, 0), height=2.5, radius=0.2)
        budget = link_budget(sbs, user, [blocker], [sbs], default_radio)
        assert budget.path_loss == 0.0
        assert budget.rate_bps == 0.0
        assert budget.delay_s == math.inf
        assert not budget.tx_ok

    def test_bandwidth_scaling_against_oracle(self, default_radio):
        sbs = Point3(2, 3, 3)
        user = Point3(3.5, 2.5, 1.6)
        for factor in (1.0, 2.0):
            radio = channel.RadioParams(
                carrier_freq_hz=default_radio.carrier_freq_hz,
                bandwidth_hz=default_radio.bandwidth_hz * factor,
                tx_power_w=default_radio.tx_power_w,
                absorption_per_m=default_radio.absorption_per_m,
                noise_density_w_per_hz=default_radio.noise_density_w_per_hz,
                image_size_bits=default_radio.image_size_bits,
                slot_duration_s=default_radio.slot_duration_s,
            )
            budget = link_budget(sbs, user, [], [sbs], radio)
            r = distance(sbs, user)
            g = oracles.path_loss(r, radio.carrier_freq_hz, radio.absorption_per_m)
            noise_w = oracles.noise([r], 1.0, radio.carrier_freq_hz, radio.absorption_per_m,
                                    radio.noise_density_w_per_hz, radio.bandwidth_hz)
            want = oracles.rate(g, noise_w, 1.0, radio.bandwidth_hz)
            assert budget.rate_bps == pytest.approx(want, rel=1e-9)

    def test_reference_distance_against_oracle(self, default_radio):
        sbs = Point3(3, 3, 3)
        user = Point3(3.9, 3, 1.8)  # sqrt(0.9^2 + 1.2^2) = 1.5 m
        r = distance(sbs, user)
        assert r == pytest.approx(1.5, rel=1e-12)
        budget = link_budget(sbs, user, [], [sbs], default_radio)
        g = oracles.path_loss(r, default_radio.carrier_freq_hz, default_radio.absorption_per_m)
        noise_w = oracles.noise([r], 1.0, default_radio.carrier_freq_hz,
                                default_radio.absorption_per_m,
                                default_radio.noise_density_w_per_hz,
                                default_radio.bandwidth_hz)
        want_rate = oracles.rate(g, noise_w, 1.0, default_radio.bandwidth_hz)
        want_delay = oracles.delay(default_radio.image_size_bits, want_rate)
        assert budget.rate_bps == pytest.approx(want_rate, rel=1e-9)
        assert budget.delay_s == pytest.approx(want_delay, rel=1e-9)
        assert budget.tx_ok == (want_delay <= default_radio.slot_duration_s)

    def test_delivery_monotone_in_distance(self, default_radio):
        # With fixed noise, shrinking the distance never turns delivery off.
        noise_w = 7e-11
        flips = []
        for r in np.linspace(8.0, 0.3, 60):
            g = oracles.path_loss(r, default_radio.carrier_freq_hz, default_radio.absorption_per_m)
            rate = oracles.rate(g, noise_w, 1.0, default_radio.bandwidth_hz)
            ok = oracles.delay(default_radio.image_size_bits, rate) <= default_radio.slot_duration_s
            flips.append(ok)
        # once delivery succeeds at some distance, it succeeds at all shorter ones
        first_ok = flips.index(True)
        assert all(flips[first_ok:])
