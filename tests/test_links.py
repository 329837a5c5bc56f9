"""Property tests of the per-state link kernel.

The blockage kernel is checked against the dense sweep of `oracles` and
against its own two stages, the rows of `env.slot_links` against the
scalar `channel` predicates and against one direct `geometry.blocked` pass
over the state's positions.
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
from thzvlc.geometry import BodyOccupancy, below_top, blocked, crossings

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


class TestKernelStages:
    @PROPERTY
    @given(st.lists(links(), min_size=1, max_size=3), st.lists(body, min_size=1, max_size=4),
           st.booleans())
    def test_blocked_is_the_xy_stage_then_the_z_stage(self, pairs, bodies, vertical):
        if vertical:  # every receiver directly below the first unit
            pairs = [(pairs[0][0], (pairs[0][0][0], pairs[0][0][1], rx[2])) for _, rx in pairs]
            assume(all(tx[2] != rx[2] for tx, rx in pairs))
        tx = np.array([p[0] for p in pairs], dtype=float)
        rx = np.array([p[1] for p in pairs], dtype=float)
        table = np.array([(c[0], c[1], h, r) for c, h, r in bodies], dtype=float)
        # the XY stage gets no z column, so it cannot read one
        meets, lo, hi = crossings(tx[:, :2], rx[:, :2], table[:, :2], table[:, 3])
        staged = below_top(meets, lo, hi, tx[:, 2], rx[:, 2], table[:, 2])
        assert np.array_equal(blocked(tx, rx, table), staged)


def direct_links(state, scenario):
    """(visible, h) from one `geometry.blocked` pass over the state's
    positions and the scalar blockage-free predicates."""
    units = scenario.vap_positions + scenario.sbs_positions
    points = [env.user_point(state, scenario.grid, j) for j in range(scenario.num_users)]
    receivers = np.array([(p.x, p.y, p.z) for p in points])
    bodies = np.column_stack((receivers, np.full(len(points), scenario.body_radius)))
    hit = blocked(np.array([(p.x, p.y, p.z) for p in units]), receivers, bodies)
    for j in range(len(points)):
        hit[:, j, j] = False
    clear = ~hit.any(axis=2)
    all_sbs = list(scenario.sbs_positions)
    fov = np.array([[channel.incidence_angle(vap, p) <= scenario.optics.fov_semi_angle_rad
                     for p in points] for vap in scenario.vap_positions])
    reach = np.array([[channel.budget_given_los(sbs, p, True, all_sbs, scenario.radio).tx_ok
                       for p in points] for sbs in all_sbs])
    return fov & clear[: scenario.num_vaps], reach & clear[scenario.num_vaps :]


@st.composite
def crowded_rooms(draw):
    """A scenario whose units may sit directly above cell centres, plus
    states of it whose users crowd into a few cells."""
    cells_per_side = draw(st.sampled_from((1, 2, 3, 4, 6)))
    grid_centers = make_toy_scenario(cells_per_side=cells_per_side).grid.cell_centers
    unit_xy = st.one_of(st.tuples(lattice, lattice), st.sampled_from(grid_centers))
    vap_xy = draw(st.lists(unit_xy, min_size=3, max_size=5, unique=True))
    sbs_xy = draw(st.lists(unit_xy, min_size=1, max_size=3, unique=True))
    num_users = draw(st.integers(1, 6))
    scenario = make_toy_scenario(
        num_users=num_users, num_sbs=len(sbs_xy), vap_xy=tuple(vap_xy), sbs_xy=tuple(sbs_xy),
        cells_per_side=cells_per_side,
    )
    crowd = draw(st.integers(1, len(grid_centers)))  # users share the first `crowd` cells
    height = st.sampled_from((1.4, 1.5, 1.625, 1.9))  # equal heights tie body tops
    heights = tuple(draw(st.lists(height, min_size=num_users, max_size=num_users)))
    states = [
        env.EnvState(
            user_cells=tuple(draw(st.lists(st.integers(0, crowd - 1), min_size=num_users,
                                           max_size=num_users))),
            user_heights=heights, served=(False,) * num_users, slot_index=0,
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return scenario, states


class TestCrossingTable:
    @PROPERTY
    @given(crowded_rooms())
    def test_slot_links_equal_a_direct_blocked_pass(self, room):
        scenario, states = room
        for state in states:
            links = env.slot_links(state, scenario)
            visible, h = direct_links(state, scenario)
            assert np.array_equal(links.visible, visible)
            assert np.array_equal(links.h, h)

    def test_vertical_link_and_shared_cell(self):
        # VAP 0 and SBS 0 hang over the centre of cell 4; users 0 and 1 share
        # it, so user 1's body stands on user 0's vertical links and c < 0.
        scenario = make_toy_scenario(
            num_users=3, vap_xy=((3.0, 3.0), (1.0, 1.0), (5.0, 1.0), (1.0, 5.0)),
            sbs_xy=((3.0, 3.0), (5.0, 5.0)),
        )
        state = env.EnvState(user_cells=(4, 4, 0), user_heights=(1.5, 1.8, 1.6),
                             served=(False,) * 3, slot_index=0)
        links = env.slot_links(state, scenario)
        visible, h = direct_links(state, scenario)
        assert np.array_equal(links.visible, visible)
        assert np.array_equal(links.h, h)
        # the taller body blocks the shorter user's vertical links, not the reverse
        assert not links.visible[0, 0] and not links.h[0, 0]
        assert links.visible[0, 1] and links.h[0, 1]

    def test_first_slot_fills_only_its_users_rows(self):
        # 400 cells: the full table would be 14 x 400 x 400 entries (38 MB)
        scenario = env.default_scenario(cells_per_side=20)
        task = env.sample_task(scenario.grid, seed=3)
        state = env.reset(task, scenario)
        state = dataclasses.replace(state, user_cells=state.user_cells[:-2] + state.user_cells[:2])
        env._crossings.cache_clear()
        links = env.slot_links(state, scenario)
        filled = env._crossings(scenario).filled
        assert set(np.flatnonzero(filled).tolist()) == set(state.user_cells)
        assert filled.sum() == len(set(state.user_cells)) < scenario.num_users
        visible, h = direct_links(state, scenario)
        assert np.array_equal(links.visible, visible)
        assert np.array_equal(links.h, h)


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
