"""Property tests of the per-state link kernel and the link tables.

The blockage kernel is checked against the dense sweep of `oracles` and
against its own two stages; every flag of a link table against the
plain-math flags of `oracles.free_links`; the rows of `env.slot_links`
against the one-point `channel` entry points (`localized`, `link_budget`)
and against one direct `geometry.blocked` pass over the state's positions;
and `env.ceiling_links`, which works out only the cell pairs that meet,
bit for bit against the dense pass over every pair
(`oracles.dense_ceiling_links`).
Geometry sits on a 1/4 m lattice, body radii on 1/8 m and body tops on odd
multiples of 1/8 m, so sweeps on a 2**12 grid evaluate exactly and no drawn
body top ties with a link endpoint.
"""

import dataclasses
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario, reference_scenario
from thzvlc import channel, env
from thzvlc.geometry import BodyOccupancy, Point3, below_top, blocked, crossings

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


def user_point(state, scenario, user):
    x, y = scenario.cell_centers[state.user_cells[user]]
    return Point3(x, y, state.user_heights[user])


def rows(points):
    return np.array([(p.x, p.y, p.z) for p in points], dtype=float)


def direct_links(state, scenario):
    """(visible, h) from one `geometry.blocked` pass over the state's
    positions and the plain-math flags of `oracles.free_links`."""
    units = oracles.ceiling_points(scenario, "vap_positions") + oracles.ceiling_points(scenario, "sbs_positions")
    points = [user_point(state, scenario, j) for j in range(scenario.num_users)]
    receivers = rows(points)
    bodies = np.column_stack((receivers, np.full(len(points), scenario.body_radius)))
    hit = blocked(rows(units), receivers, bodies)
    for j in range(len(points)):
        hit[:, j, j] = False
    clear = ~hit.any(axis=2)
    ok = np.array([oracles.free_links(scenario, p) for p in points]).T & clear
    return ok[: scenario.num_vaps], ok[scenario.num_vaps :]


def assert_table_matches(scenario, heights, edges=False):
    """Every flag of the link table of these heights equals
    `oracles.free_links` at its point. With `edges`, a flag whose angle or
    delay sits exactly on its bound in the package's own arithmetic, where
    the plain-math oracle may round to either side, must pass instead, as
    the bounds are inclusive, and so must the one-point entry points
    `channel.localized` and `channel.link_budget` there."""
    table = scenario.tables[1](tuple(heights))
    assert table.shape == (len(heights), scenario.num_cells, scenario.num_vaps + scenario.num_sbs)
    fov, slot = scenario.optics.fov_semi_angle_rad, scenario.radio.slot_duration_s
    stations = oracles.ceiling_points(scenario, "sbs_positions")
    wrong = []
    for j, height in enumerate(heights):
        for c, (x, y) in enumerate(scenario.cell_centers):
            point = Point3(x, y, height)
            want = oracles.free_links(scenario, point)
            if edges:
                for k, vap in enumerate(oracles.ceiling_points(scenario, "vap_positions")):
                    if channel.incidence_angle(rows([vap]), rows([point]))[0, 0] == fov:
                        want[k] = True
                        assert channel.localized(0, [point], [height], [vap] * 3, scenario.optics,
                                                 scenario.body_radius)
                for i, sbs in enumerate(stations):
                    budget = channel.link_budget(sbs, point, [], stations, scenario.radio)
                    if budget.delay_s == slot:
                        want[scenario.num_vaps + i] = True
                        assert budget.tx_ok
            if table[j, c].tolist() != want:
                wrong.append((j, c, table[j, c].tolist(), want))
    assert wrong == []


@st.composite
def link_passes(draw):
    """A room and the inputs of two `ceiling_links` passes over it: a first
    pass over some of the states, then one over all of them, so the second
    may visit cells for the first time. Users crowd into a few cells, and
    some stand just below the ceiling."""
    cells_per_side = draw(st.integers(2, 12))
    num_users = draw(st.integers(1, 24))
    scenario = dataclasses.replace(
        make_toy_scenario(num_users=num_users, cells_per_side=cells_per_side),
        body_radius=draw(st.sampled_from((0.0, 0.125, 0.2, 0.5, 1.25))),
    )
    count = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    crowd = draw(st.integers(1, scenario.num_cells))  # users share the first `crowd` cells
    cells = rng.integers(0, crowd, (count, num_users))
    top = scenario.ceiling_z
    heights = rng.choice((1.4, 1.5, 1.9, top - 1e-9, np.nextafter(top, 0.0)), (count, num_users))
    units = scenario.num_vaps + scenario.num_sbs
    free = rng.random((count, num_users, units)) < 0.9
    return scenario, cells, heights, free, draw(st.integers(0, count))


@st.composite
def crowded_rooms(draw):
    """A scenario whose units may sit directly above cell centres, plus
    states of it whose users crowd into a few cells."""
    cells_per_side = draw(st.sampled_from((1, 2, 3, 4, 6)))
    grid_centers = make_toy_scenario(cells_per_side=cells_per_side).cell_centers
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

    @PROPERTY
    @given(crowded_rooms(), st.data())
    def test_one_pass_over_states_of_mixed_heights(self, room, data):
        # one `ceiling_links` pass over every state, some of them with heights
        # of their own, as an evaluation batch of several tasks has
        scenario, states = room
        n = scenario.num_users
        height = st.sampled_from((1.4, 1.5, 1.625, 1.9))
        states = [
            dataclasses.replace(state, user_heights=tuple(data.draw(st.lists(height, min_size=n, max_size=n))))
            if data.draw(st.booleans()) else state
            for state in states
        ]
        cells = np.array([state.user_cells for state in states])
        free = np.array([scenario.tables[1](state.user_heights)[np.arange(n), state.user_cells] for state in states])
        ok = env.ceiling_links(cells, np.array([state.user_heights for state in states]), free, scenario.tables[0])
        for row, state in zip(ok, states):
            visible, h = direct_links(state, scenario)
            assert np.array_equal(row[: scenario.num_vaps], visible)
            assert np.array_equal(row[scenario.num_vaps :], h)

    @PROPERTY
    @given(link_passes())
    def test_ceiling_links_equal_the_dense_pass(self, case):
        # only pairs of cells that meet are worked out; no flag may move
        scenario, cells, heights, free, first = case
        cross = scenario.tables[0]
        early = env.ceiling_links(cells[:first], heights[:first], free[:first], cross)
        late = env.ceiling_links(cells, heights, free, cross)
        assert np.array_equal(early, oracles.dense_ceiling_links(cells[:first], heights[:first], free[:first], scenario))
        assert np.array_equal(late, oracles.dense_ceiling_links(cells, heights, free, scenario))

    def test_a_link_pass_allocates_far_less_than_a_dense_gather(self):
        # the dense (state, user, user, unit) gather alone took 50 x 20 x 20 x 14 floats
        scenario = reference_scenario()
        cross, link_table, _ = scenario.tables
        rng = np.random.default_rng(11)
        cells = rng.integers(0, scenario.num_cells, (50, scenario.num_users))
        heights = rng.uniform(*scenario.user_height_range, (50, scenario.num_users))
        free = np.ones((50, scenario.num_users, len(cross.units)), dtype=bool)
        env.ceiling_links(cells, heights, free, cross)  # fills the crossing table's rows
        dense = 8 * heights.size * scenario.num_users * len(cross.units)
        assert dense == 2_240_000
        tracemalloc.start()
        try:
            env.ceiling_links(cells, heights, free, cross)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * dense  # 1.05 MB when written

    def test_a_user_at_the_ceiling_refused(self, toy_scenario):
        state = env.EnvState(user_cells=(0, 1), user_heights=(1.5, 3.0), served=(False, False), slot_index=0)
        with pytest.raises(ValueError, match="below the ceiling"):
            env.slot_links(state, toy_scenario)

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
        # 400 cells: the full table would be 400 x 400 x 14 floats (18 MB)
        scenario = reference_scenario(cells_per_side=20)
        task = env.sample_task(scenario.cells_per_side, seed=3, concentration=1.0, locality_radius=1, task_id=3)
        state = env.reset(task, scenario)
        state = dataclasses.replace(state, user_cells=state.user_cells[:-2] + state.user_cells[:2])
        links = env.slot_links(state, scenario)
        filled = scenario.tables[0].filled
        assert set(np.flatnonzero(filled).tolist()) == set(state.user_cells)
        assert filled.sum() == len(set(state.user_cells)) < scenario.num_users
        visible, h = direct_links(state, scenario)
        assert np.array_equal(links.visible, visible)
        assert np.array_equal(links.h, h)


@st.composite
def rooms(draw):
    """A small scenario plus one state of it, sometimes with a user at the
    FOV edge of a VAP or at the range edge of an SBS."""
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
    cells = tuple(draw(st.lists(st.integers(0, scenario.num_cells - 1), min_size=num_users, max_size=num_users)))
    heights = tuple(draw(st.lists(st.floats(1.4, 1.9), min_size=num_users, max_size=num_users)))
    state = env.EnvState(user_cells=cells, user_heights=heights, served=(False,) * num_users, slot_index=0)
    if draw(st.booleans()):
        # Open the FOV to exactly the angle of one VAP-user pair.
        k = draw(st.integers(0, len(vap_xy) - 1))
        j = draw(st.integers(0, num_users - 1))
        user = rows([user_point(state, scenario, j)])
        edge = channel.incidence_angle(rows([oracles.ceiling_points(scenario, "vap_positions")[k]]), user)[0, 0]
        assume(0.0 < edge < math.pi / 2)
        scenario = dataclasses.replace(scenario, optics=channel.OpticsParams(edge))
    if draw(st.booleans()):
        # Give one clear SBS-user link exactly one slot to deliver.
        i = draw(st.integers(0, len(sbs_xy) - 1))
        j = draw(st.integers(0, num_users - 1))
        stations = oracles.ceiling_points(scenario, "sbs_positions")
        edge = channel.link_budget(stations[i], user_point(state, scenario, j), [], stations, scenario.radio).delay_s
        assume(0.0 < edge < math.inf)
        scenario = dataclasses.replace(
            scenario, radio=dataclasses.replace(scenario.radio, slot_duration_s=edge)
        )
    return scenario, state


class TestSlotLinks:
    @PROPERTY
    @given(rooms())
    def test_rows_match_scalar_channel(self, room):
        scenario, state = room
        links = env.slot_links(state, scenario)
        positions = [user_point(state, scenario, j) for j in range(scenario.num_users)]
        heights = list(state.user_heights)
        all_sbs = oracles.ceiling_points(scenario, "sbs_positions")
        for j, user in enumerate(positions):
            for k, vap in enumerate(oracles.ceiling_points(scenario, "vap_positions")):
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
        positions = [user_point(state, scenario, j) for j in range(scenario.num_users)]
        vap_set = (0, 1, 2)
        selected = [oracles.ceiling_points(scenario, "vap_positions")[k] for k in vap_set]
        want = [
            channel.localized(j, positions, list(state.user_heights), selected, scenario.optics,
                              scenario.body_radius)
            for j in range(scenario.num_users)
        ]
        assert links.localized(vap_set).tolist() == want


class TestLinkTable:
    """Every flag of a link table against the plain-math oracle."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(1.4, 1.9), min_size=1, max_size=2))
    def test_reference_room_matches_oracle(self, heights):
        assert_table_matches(reference_scenario(), heights)

    @pytest.mark.parametrize("keys", [{}, {"cells_per_side": 1}, {"cells_per_side": 6, "fov_deg": 40.0},
                                      {"num_sbs": 1, "num_users": 1, "fov_deg": 20.0}])
    def test_toy_rooms_match_oracle(self, keys):
        assert_table_matches(make_toy_scenario(**keys), np.linspace(1.4, 1.9, 11).tolist())

    @PROPERTY
    @given(rooms())
    def test_drawn_rooms_match_oracle(self, room):
        scenario, state = room
        assert_table_matches(scenario, state.user_heights, edges=True)

    @PROPERTY
    @given(crowded_rooms())
    def test_crowded_rooms_match_oracle(self, room):
        scenario, states = room
        assert_table_matches(scenario, states[0].user_heights)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("freq", [math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0)])
    def test_carrier_frequency_edges_match_oracle(self, freq):
        """The ends of `radio.carrier_freq_hz`'s domain overflow the spreading
        term to inf or zero: no warning, and no link delivers."""
        scenario = make_toy_scenario()
        scenario = dataclasses.replace(scenario, radio=dataclasses.replace(scenario.radio, carrier_freq_hz=freq))
        heights = np.linspace(1.4, 1.9, 6).tolist()
        assert_table_matches(scenario, heights)
        assert not scenario.tables[1](tuple(heights))[:, :, scenario.num_vaps :].any()

    def test_read_only(self, toy_scenario):
        table = toy_scenario.tables[1]((1.5, 1.7))
        with pytest.raises(ValueError):
            table[0, 0, 0] = not table[0, 0, 0]


class TestNextCells:
    def test_fallback_stays_in_the_row_support(self):
        # Row 0 reaches cells 0, 1 and 3 and sums to 1 - 5e-10, inside
        # MovementPattern's tolerance: a draw above its total falls back to
        # cell 3, its last cell with positive probability, not to cell 8.
        matrix = np.eye(9)
        matrix[0] = 0.0
        matrix[0, [0, 1, 3]] = (0.25, 0.25, 0.5 - 5e-10)
        pattern = oracles.pattern_from_dense(matrix)
        draw = 1.0 - 1e-10
        assert pattern.cumulative[0, -1] < draw
        assert env.next_cells(pattern, [0], np.array([draw])).tolist() == [3]
        assert env.next_cells(pattern, np.array([[0, 4]]), np.array([[draw, draw]])).tolist() == [[3, 4]]
        fixed = types.SimpleNamespace(random=lambda n: np.full(n, draw))
        assert oracles.move(pattern, (0, 4), fixed) == (3, 4)

    @PROPERTY
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 2))
    def test_matches_per_row_cumsum(self, seed, cells_per_side, locality):
        task = env.sample_task(cells_per_side, seed, concentration=0.3, locality_radius=locality, task_id=seed)
        rng = np.random.default_rng(seed)
        cells = tuple(int(c) for c in rng.integers(0, cells_per_side**2, 8))
        got = env.sample_next_cells(task.pattern, cells, np.random.default_rng([seed, 1]))
        draws = np.random.default_rng([seed, 1]).random(len(cells))
        want = []
        matrix = oracles.dense_transition(task.pattern)
        for c, u in zip(cells, draws):
            cum = np.cumsum(matrix[c])
            last = np.flatnonzero(matrix[c])[-1]
            want.append(int(min(np.searchsorted(cum, u, side="right"), last)))
        assert got == tuple(want)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        config=st.sampled_from([
            (6, 1, 1.0), (32, 1, 1.0), (32, 3, 0.05), (11, 2, 0.5),  # the reference and larger rooms
            (6, 1, 1e-6), (11, 2, 1e-6), (32, 3, 1e-6),  # most entries exactly 0.0
            (5, sys.maxsize, 0.5), (32, sys.maxsize, 1e-6),  # every cell a neighbour
        ]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_dense_rule(self, config, seed):
        # the dense rule: count the running sums over all cells at or below
        # the draw, clamped to the row's last cell of positive probability
        cells_per_side, radius, concentration = config
        pattern = env.sample_task(cells_per_side, seed, concentration, radius, task_id=0).pattern
        matrix = oracles.dense_transition(pattern)
        last = matrix.shape[1] - 1 - np.argmax(matrix[:, ::-1] > 0, axis=1)
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, cells_per_side**2, (4, 20))
        draws = rng.random((4, 20))
        totals = pattern.cumulative[cells, -1]
        draws[1, :10] = totals[1, :10]  # at the row's total
        draws[1, 10:] = np.nextafter(totals[1, 10:], 2.0)  # above it
        draws[2, :10] = 0.0
        want = np.minimum((np.cumsum(matrix, axis=1)[cells] <= draws[..., None]).sum(axis=-1), last[cells])
        assert np.array_equal(env.next_cells(pattern, cells, draws), want)
