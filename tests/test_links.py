"""Property tests of the per-state link kernel.

The blockage kernel is checked against the dense sweep of `oracles`, and
the rows of `env.slot_links` against the scalar `channel` predicates.
Geometry sits on a 1/4 m lattice, body radii on 1/8 m and body tops on odd
multiples of 1/8 m, so sweeps on a 2**12 grid evaluate exactly and no drawn
body top ties with a link endpoint.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario
from thzvlc import channel, env
from thzvlc.geometry import BodyOccupancy, blocked

SAMPLES = 2**12
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

lattice = st.integers(0, 24).map(lambda k: k * 0.25)
receiver_z = st.integers(2, 10).map(lambda k: k * 0.25)
ceiling_z = st.integers(11, 12).map(lambda k: k * 0.25)
body_top = st.integers(1, 11).map(lambda k: (2 * k + 1) / 8)
radius = st.integers(0, 4).map(lambda k: k / 8)
# body centers relative to a point, in radii: the point lies inside the
# footprint or on its rim
OFFSETS = [(ox, oy) for ox in (-1, -0.5, 0, 0.5, 1) for oy in (-1, -0.5, 0, 0.5, 1)
           if ox * ox + oy * oy <= 1]


@st.composite
def links(draw, vertical=False):
    """(tx, rx): a ceiling unit and a receiver, in either order."""
    rx = (draw(lattice), draw(lattice), draw(receiver_z))
    if vertical:
        tx = (rx[0], rx[1], draw(ceiling_z))
    else:
        tx = (draw(lattice), draw(lattice), draw(ceiling_z))
        assume(tx[:2] != rx[:2])
    return (rx, tx) if draw(st.booleans()) else (tx, rx)


body = st.tuples(st.tuples(lattice, lattice), body_top, radius)


def kernel(tx, rx, bodies):
    table = np.array([(c[0], c[1], h, r) for c, h, r in bodies], dtype=float)
    return blocked(np.array([tx], dtype=float), np.array([rx], dtype=float), table)[0, 0]


def sweep(tx, rx, bodies):
    return [oracles.swept_blocked(tx, rx, c, h, r, samples=SAMPLES) for c, h, r in bodies]


class TestBlockageKernel:
    @PROPERTY
    @given(links(), st.lists(body, min_size=1, max_size=4))
    def test_random_geometry_matches_sweep(self, link, bodies):
        tx, rx = link
        assert kernel(tx, rx, bodies).tolist() == sweep(tx, rx, bodies)

    @PROPERTY
    @given(links(vertical=True), st.integers(1, 4), st.sampled_from(OFFSETS), body_top,
           st.lists(body, max_size=3))
    def test_xy_vertical_links_match_sweep(self, link, r8, offset, top, bodies):
        """The link projects to one point; one body's footprint covers or rims it."""
        tx, rx = link
        r = r8 / 8
        bodies = [((tx[0] + offset[0] * r, tx[1] + offset[1] * r), top, r)] + bodies
        assert kernel(tx, rx, bodies).tolist() == sweep(tx, rx, bodies)

    @PROPERTY
    @given(
        links(),
        st.integers(1, 15),
        st.integers(1, 4),
        st.sampled_from((-0.125, 0.0, 0.125)),
        st.booleans(),
    )
    def test_tangent_bodies_match_sweep(self, link, k, r8, dz, flip):
        """A body whose rim touches the link's XY path at one sweep sample."""
        tx, rx = link
        # Keep the link parallel to an axis so the touching point is exact.
        axis = 1 if flip else 0
        tx = tuple(rx[i] if i == axis else tx[i] for i in range(3))
        assume(tx[:2] != rx[:2])
        g0 = k / 16
        touch = [rx[i] + g0 * (tx[i] - rx[i]) for i in range(3)]
        r = r8 / 8
        center = list(touch[:2])
        center[axis] += r
        top = touch[2] + dz
        assume(top > 0)
        bodies = [(tuple(center), top, r)]
        assert kernel(tx, rx, bodies).tolist() == sweep(tx, rx, bodies)

    @PROPERTY
    @given(links(), st.integers(1, 4), st.sampled_from(OFFSETS), body_top, st.booleans())
    def test_bodies_straddling_an_endpoint_match_sweep(self, link, r8, offset, top, low_end):
        """A body whose footprint covers one end of the link, or whose rim meets it."""
        tx, rx = link
        low, high = sorted((tx, rx), key=lambda p: p[2])
        end = low if low_end else high
        r = r8 / 8
        bodies = [((end[0] + offset[0] * r, end[1] + offset[1] * r), top, r)]
        assert kernel(tx, rx, bodies).tolist() == sweep(tx, rx, bodies)


@st.composite
def rooms(draw):
    """A small scenario plus one state of it, sometimes with a user at a FOV edge."""
    num_users = draw(st.integers(1, 5))
    vap_xy = draw(st.lists(st.tuples(lattice, lattice), min_size=3, max_size=5, unique=True))
    sbs_xy = draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=3, unique=True))
    scenario = make_toy_scenario(
        num_users=num_users, num_sbs=len(sbs_xy), vap_xy=tuple(vap_xy), sbs_xy=tuple(sbs_xy)
    )
    bandwidth = draw(st.sampled_from((1.0e10, 1.5e9, 1.2e9)))
    scenario = dataclasses.replace(
        scenario, radio=dataclasses.replace(scenario.radio, bandwidth_hz=bandwidth)
    )
    grid = scenario.grid
    cells = tuple(draw(st.lists(st.integers(0, grid.num_cells - 1), min_size=num_users, max_size=num_users)))
    heights = tuple(draw(st.lists(st.floats(1.4, 1.9), min_size=num_users, max_size=num_users)))
    state = env.EnvState(user_cells=cells, user_heights=heights, served=(False,) * num_users, slot_index=0)
    if draw(st.booleans()):
        # Open the FOV to exactly the angle of one VAP-user pair.
        k = draw(st.integers(0, len(vap_xy) - 1))
        j = draw(st.integers(0, num_users - 1))
        edge = channel.incidence_angle(scenario.vap_positions[k], env.user_point(state, grid, j))
        assume(0.0 < edge < math.pi / 2)
        scenario = dataclasses.replace(scenario, optics=channel.OpticsParams(edge))
    return scenario, state


class TestSlotLinks:
    @PROPERTY
    @given(rooms())
    def test_rows_match_scalar_channel(self, room):
        scenario, state = room
        links = env.slot_links(state, scenario)
        positions = [env.user_point(state, scenario.grid, j) for j in range(scenario.num_users)]
        heights = list(state.user_heights)
        all_sbs = list(scenario.sbs_positions)
        for j, user in enumerate(positions):
            for k, vap in enumerate(scenario.vap_positions):
                want = channel.localized(
                    j, positions, heights, [vap] * 3, scenario.optics, scenario.body_radius
                )
                assert links.visible[k, j] == want
            blockers = [
                BodyOccupancy(center_xy=(p.x, p.y), height=h, radius=scenario.body_radius)
                for m, (p, h) in enumerate(zip(positions, heights))
                if m != j
            ]
            for i, sbs in enumerate(all_sbs):
                want = channel.link_budget(sbs, user, blockers, all_sbs, scenario.radio).tx_ok
                assert links.h[i, j] == want

    @PROPERTY
    @given(rooms())
    def test_localization_is_an_and_of_rows(self, room):
        scenario, state = room
        links = env.slot_links(state, scenario)
        positions = [env.user_point(state, scenario.grid, j) for j in range(scenario.num_users)]
        vap_set = (0, 1, 2)
        selected = [scenario.vap_positions[k] for k in vap_set]
        want = [
            channel.localized(j, positions, list(state.user_heights), selected, scenario.optics,
                              scenario.body_radius)
            for j in range(scenario.num_users)
        ]
        assert links.localized(vap_set).tolist() == want


class TestNextCells:
    @PROPERTY
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 2))
    def test_matches_per_row_cumsum(self, seed, cells_per_side, locality):
        grid = make_toy_scenario(cells_per_side=cells_per_side).grid
        task = env.sample_task(grid, seed, concentration=0.3, locality_radius=locality)
        rng = np.random.default_rng(seed)
        cells = tuple(int(c) for c in rng.integers(0, grid.num_cells, 8))
        got = env.sample_next_cells(task.pattern, cells, np.random.default_rng([seed, 1]))
        draws = np.random.default_rng([seed, 1]).random(len(cells))
        want = []
        for c, u in zip(cells, draws):
            cum = np.cumsum(task.pattern.transition[c])
            want.append(int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1)))
        assert got == tuple(want)
