import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario, reference_scenario
from thzvlc import association, env
from oracles import dual_update, solve_period_association
from thzvlc.association import (
    check_period_feasible,
    hungarian_max,
    slot_assign,
)
from thzvlc.env import EnvState


def matched_value(weights, sol):
    """Total weight of the matched pairs."""
    w = np.asarray(weights, dtype=float)
    return sum(w[i, j] for i, j in sol.matching)


class TestHungarianMax:
    def test_single_entry(self):
        sol = hungarian_max([[5.0]])
        assert sol.matching == ((0, 0),)

    def test_antidiagonal(self):
        w = [[1.0, 2.0], [2.0, 1.0]]
        sol = hungarian_max(w)
        assert matched_value(w, sol) == 4.0
        assert sorted(sol.matching) == [(0, 1), (1, 0)]

    def test_skip_drops_nonpositive(self):
        sol = hungarian_max([[-1.0, -2.0], [-3.0, 0.0]])
        assert sol.matching == ()

    def test_random_square_vs_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            w = rng.uniform(-5, 10, (5, 5))
            sol = hungarian_max(w)
            want = oracles.best_matching_value(w.tolist())
            assert matched_value(w, sol) == pytest.approx(want, abs=1e-9)

    def test_random_rectangular_vs_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m, n = rng.integers(1, 7, 2)
            w = rng.uniform(-5, 10, (int(m), int(n)))
            sol = hungarian_max(w)
            want = oracles.best_matching_value(w.tolist())
            assert matched_value(w, sol) == pytest.approx(want, abs=1e-9)
            rows = [i for i, _ in sol.matching]
            cols = [j for _, j in sol.matching]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=m, max_size=m))))
    def test_small_integer_matrices_vs_permutations(self, rows):
        # integer entries in -2..2: ties everywhere, zeros and negatives
        w = np.array(rows, dtype=float)
        sol = hungarian_max(w)
        assert matched_value(w, sol) == oracles.best_matching_value(rows)
        matched_rows = [i for i, _ in sol.matching]
        matched_cols = [j for _, j in sol.matching]
        assert len(set(matched_rows)) == len(matched_rows)
        assert len(set(matched_cols)) == len(matched_cols)
        assert all(w[i, j] > 0 for i, j in sol.matching)

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 20), st.sampled_from(("binary", "integer", "gaussian")),
           st.integers(0, 2**32 - 1))
    def test_same_matching_as_square_padding(self, m, n, entries, seed):
        # Dropping the dummy rows must keep the square solver's tie order,
        # which the golden runs pin: the same pairs, not just the same value.
        rng = np.random.default_rng(seed)
        if entries == "binary":
            w = rng.integers(0, 2, (m, n)).astype(float)
        elif entries == "integer":
            w = rng.integers(-2, 3, (m, n)).astype(float)
        else:
            w = rng.normal(size=(m, n))
        assert hungarian_max(w).matching == oracles.square_hungarian_max(w)

    def test_all_ones_matches_diagonal(self):
        # `slot_assign` returns these pairs without running the search
        for m in range(1, 9):
            for n in range(1, 22):
                sol = hungarian_max(np.ones((m, n)))
                assert sol.matching == tuple((i, i) for i in range(min(m, n)))

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        w = rng.uniform(0, 1, (6, 6))
        assert hungarian_max(w) == hungarian_max(w)

    def test_empty_and_invalid(self):
        assert hungarian_max(np.zeros((0, 3))).matching == ()
        with pytest.raises(ValueError):
            hungarian_max([[np.inf]])
        with pytest.raises(ValueError):
            hungarian_max([1.0, 2.0])


class TestDualUpdate:
    def test_unserved_user_decreases_lambda(self):
        assert dual_update(np.array([0.5]), [0], 0.1).tolist() == [0.4]

    def test_served_once_unchanged(self):
        assert dual_update(np.array([0.5]), [1], 0.1).tolist() == [0.5]

    def test_projection_clamps_at_zero(self):
        assert dual_update(np.array([0.05]), [0], 0.1).tolist() == [0.0]

    def test_multiply_served_increases_lambda(self):
        got = dual_update(np.array([0.0]), [3], 0.1)
        assert got.tolist() == pytest.approx([0.2])

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            lambdas, step = rng.uniform(0, 1, 4), float(rng.uniform(0.01, 1))
            counts = rng.integers(0, 4, 4)
            assert dual_update(lambdas, counts, step).min() >= 0.0

    def test_validation(self, toy_scenario):
        task = env.sample_task(toy_scenario.cells_per_side, seed=3, concentration=1.0, locality_radius=1, task_id=3)
        real = env.sample_realization(task, toy_scenario, 0)
        vaps = [(0, 1, 2)] * toy_scenario.slots_per_period
        for step in (0.0, -0.1):
            with pytest.raises(ValueError, match="step size must be positive"):
                solve_period_association(vaps, real, toy_scenario, step=step)


class TestSlotAssign:
    def _state(self, scenario, cells, heights=None, served=None):
        u = scenario.num_users
        return EnvState(
            user_cells=tuple(cells),
            user_heights=tuple(heights if heights is not None else [1.5] * u),
            served=tuple(served if served is not None else [False] * u),
            slot_index=0,
        )

    def test_no_localized_users(self):
        sc = make_toy_scenario(fov_deg=5.0)  # nobody sees 3 VAPs
        state = self._state(sc, [0, 8])
        sol = slot_assign(state, (0, 1, 2), env.slot_links(state, sc))
        assert sol.matching == ()

    def test_single_localized_user_matched(self, toy_scenario):
        state = self._state(toy_scenario, [4, 2])
        sol = slot_assign(state, (0, 1, 2), env.slot_links(state, toy_scenario))
        users = {j for _, j in sol.matching}
        assert users == {0, 1}
        assert len(sol.matching) == 2

    def test_served_users_excluded(self, toy_scenario):
        state = self._state(toy_scenario, [4, 2], served=[True, False])
        sol = slot_assign(state, (0, 1, 2), env.slot_links(state, toy_scenario))
        assert all(j != 0 for _, j in sol.matching)

    def test_unlocalized_body_still_blocks_links(self):
        # the matcher only sees localized users, but the link weights count
        # every body in the room: an unlocalized user standing in the beam
        # still kills the link
        sc = make_toy_scenario(num_users=3, num_sbs=1, cells_per_side=6, fov_deg=68.0)
        heights = (1.43, 1.88, 1.73)
        blocked = self._state(sc, [17, 16, 33], heights=heights)
        sol = slot_assign(blocked, (1, 2, 3), env.slot_links(blocked, sc))
        assert sol.matching == ()
        moved = self._state(sc, [17, 0, 33], heights=heights)
        sol = slot_assign(moved, (1, 2, 3), env.slot_links(moved, sc))
        assert sol.matching == ((0, 0),)

    def test_matched_pairs_always_feasible_links(self, toy_scenario):
        rng = np.random.default_rng(35)
        for _ in range(30):
            cells = rng.integers(0, toy_scenario.num_cells, 2)
            state = self._state(toy_scenario, cells, heights=rng.uniform(1.4, 1.9, 2))
            links = env.slot_links(state, toy_scenario)
            sol = slot_assign(state, (0, 1, 3), links)
            for i, j in sol.matching:
                # only links with h = 1 carry positive weight
                joint = env.JointAction(vap_set=(0, 1, 3), assignments=((j, i),))
                assert env.evaluate_service(state, joint, toy_scenario, links).tx_ok[j]

    def test_equals_hungarian_on_reference_room(self):
        sc = reference_scenario()
        vap_sets = env.enumerate_vap_actions(sc.num_vaps)
        u = sc.num_users
        seen = set()

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.lists(st.integers(0, sc.num_cells - 1), min_size=u, max_size=u),
               st.lists(st.floats(1.4, 1.9), min_size=u, max_size=u),
               st.lists(st.booleans(), min_size=u, max_size=u),
               st.sampled_from(vap_sets))
        def check(cells, heights, served, vap_set):
            state = self._state(sc, cells, heights=heights, served=served)
            links = env.slot_links(state, sc)
            pool = np.flatnonzero(links.localized(vap_set) & ~np.array(served))
            weights = links.h[:, pool].astype(float)
            want = hungarian_max(weights)
            got = slot_assign(state, vap_set, links)
            assert got.matching == tuple((i, int(pool[col])) for i, col in want.matching)
            if weights.all():
                seen.add("all ones")
            elif weights.size:
                diagonal = tuple((i, i) for i in range(min(weights.shape)))
                seen.add("mixed" if want.matching == diagonal else "mixed, off the diagonal")

        check()
        # the last kind is the one a wrong shortcut test (say, any() for all()) gets wrong
        assert seen == {"all ones", "mixed", "mixed, off the diagonal"}


def period_tables(scenario, task, vap_sequence, realization):
    """(p*h) feasibility tables per slot for the exhaustive oracle."""
    blank = (False,) * scenario.num_users
    tables = []
    for t in range(scenario.slots_per_period):
        state = env.state_at_slot(realization, t, blank)
        links = env.slot_links(state, scenario)
        table = [[0] * scenario.num_users for _ in range(scenario.num_sbs)]
        for i in range(scenario.num_sbs):
            for j in range(scenario.num_users):
                joint = env.JointAction(vap_set=tuple(vap_sequence[t]), assignments=((j, i),))
                out = env.evaluate_service(state, joint, scenario, links)
                table[i][j] = int(out.localized[j] and out.tx_ok[j])
        tables.append(table)
    return tables


class TestSolvePeriodAssociation:
    def test_single_slot_reduces_to_hungarian(self, toy_scenario):
        sc = make_toy_scenario(slots_per_period=1)
        task = env.sample_task(sc.cells_per_side, seed=3, concentration=1.0, locality_radius=1, task_id=3)
        real = env.sample_realization(task, sc, 0)
        per_slot = solve_period_association([(0, 1, 2)], real, sc, dual_iters=5)
        assert len(per_slot) == 1
        state = env.state_at_slot(real, 0, (False,) * sc.num_users)
        direct = slot_assign(state, (0, 1, 2), env.slot_links(state, sc))
        assert set(per_slot[0]) == set(direct.matching)

    def test_feasibility_always(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=2)
        rng = np.random.default_rng(36)
        for seed in range(20):
            task = env.sample_task(sc.cells_per_side, seed=seed, concentration=1.0, locality_radius=1, task_id=seed)
            real = env.sample_realization(task, sc, 0)
            vaps = [tuple(sorted(rng.choice(4, 3, replace=False))) for _ in range(2)]
            per_slot = solve_period_association(vaps, real, sc, dual_iters=20)
            assert check_period_feasible(per_slot, sc.num_users, sc.num_sbs)

    def test_matches_exhaustive_optimum(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=2)
        rng = np.random.default_rng(37)
        for seed in range(40):
            task = env.sample_task(sc.cells_per_side, seed=100 + seed, concentration=1.0, locality_radius=1,
                                   task_id=100 + seed)
            real = env.sample_realization(task, sc, 0)
            vaps = [tuple(sorted(rng.choice(4, 3, replace=False))) for _ in range(2)]
            per_slot = solve_period_association(vaps, real, sc, dual_iters=40)
            got = len({j for slot in per_slot for _, j in slot})
            tables = period_tables(sc, task, vaps, real)
            want = oracles.best_period_service(tables, sc.num_users, sc.num_sbs, 2)
            assert got == want
