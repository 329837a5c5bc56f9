import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario
from thzvlc import association, env
from thzvlc.association import (
    AssignmentSolution,
    DualVars,
    check_period_feasible,
    dual_update,
    hungarian_max,
    slot_assign,
    solve_period_association,
)
from thzvlc.env import EnvState


class TestHungarianMax:
    def test_single_entry(self):
        sol = hungarian_max([[5.0]])
        assert sol.matching == ((0, 0),)
        assert sol.objective_value == 5.0

    def test_antidiagonal(self):
        sol = hungarian_max([[1.0, 2.0], [2.0, 1.0]])
        assert sol.objective_value == 4.0
        assert sorted(sol.matching) == [(0, 1), (1, 0)]

    def test_skip_drops_nonpositive(self):
        sol = hungarian_max([[-1.0, -2.0], [-3.0, 0.0]], allow_skip=True)
        assert sol.matching == ()
        assert sol.objective_value == 0.0

    def test_no_skip_matches_through_negatives(self):
        sol = hungarian_max([[-1.0, -2.0], [-3.0, -1.0]], allow_skip=False)
        assert len(sol.matching) == 2
        assert sol.objective_value == -2.0

    def test_random_square_vs_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            w = rng.uniform(-5, 10, (5, 5))
            for allow_skip in (True, False):
                sol = hungarian_max(w, allow_skip=allow_skip)
                want = oracles.best_matching_value(w.tolist(), allow_skip)
                assert sol.objective_value == pytest.approx(want, abs=1e-9)
                # the reported matching must attain the reported value
                recomputed = sum(w[i, j] for i, j in sol.matching)
                assert recomputed == pytest.approx(sol.objective_value, abs=1e-12)

    def test_random_rectangular_vs_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m, n = rng.integers(1, 7, 2)
            w = rng.uniform(-5, 10, (int(m), int(n)))
            for allow_skip in (True, False):
                sol = hungarian_max(w, allow_skip=allow_skip)
                want = oracles.best_matching_value(w.tolist(), allow_skip)
                assert sol.objective_value == pytest.approx(want, abs=1e-9)
                rows = [i for i, _ in sol.matching]
                cols = [j for _, j in sol.matching]
                assert len(set(rows)) == len(rows)
                assert len(set(cols)) == len(cols)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=m, max_size=m))), st.booleans())
    def test_small_integer_matrices_vs_permutations(self, rows, allow_skip):
        # integer entries in -2..2: ties everywhere, zeros and negatives
        w = np.array(rows, dtype=float)
        sol = hungarian_max(w, allow_skip=allow_skip)
        assert sol.objective_value == oracles.best_matching_value(rows, allow_skip)
        assert sum(w[i, j] for i, j in sol.matching) == sol.objective_value
        matched_rows = [i for i, _ in sol.matching]
        matched_cols = [j for _, j in sol.matching]
        assert len(set(matched_rows)) == len(matched_rows)
        assert len(set(matched_cols)) == len(matched_cols)
        if allow_skip:
            assert all(w[i, j] > 0 for i, j in sol.matching)
        else:
            assert len(sol.matching) == min(w.shape)

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
        duals = DualVars(lambdas=(0.5,), step=0.1)
        assert dual_update(duals, [0]).lambdas == (0.4,)

    def test_served_once_unchanged(self):
        duals = DualVars(lambdas=(0.5,), step=0.1)
        assert dual_update(duals, [1]).lambdas == (0.5,)

    def test_projection_clamps_at_zero(self):
        duals = DualVars(lambdas=(0.05,), step=0.1)
        assert dual_update(duals, [0]).lambdas == (0.0,)

    def test_multiply_served_increases_lambda(self):
        duals = DualVars(lambdas=(0.0,), step=0.1)
        got = dual_update(duals, [3])
        assert got.lambdas == pytest.approx((0.2,))

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            duals = DualVars(lambdas=tuple(rng.uniform(0, 1, 4)), step=float(rng.uniform(0.01, 1)))
            counts = rng.integers(0, 4, 4)
            assert min(dual_update(duals, counts).lambdas) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DualVars(lambdas=(-0.1,), step=0.1)
        with pytest.raises(ValueError):
            DualVars(lambdas=(0.0,), step=0.0)


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
        sol = slot_assign(state, (0, 1, 2), sc)
        assert sol.matching == ()

    def test_single_localized_user_matched(self, toy_scenario):
        state = self._state(toy_scenario, [4, 2])
        sol = slot_assign(state, (0, 1, 2), toy_scenario)
        users = {j for _, j in sol.matching}
        assert users == {0, 1}
        assert sol.objective_value == pytest.approx(2.0)

    def test_served_users_excluded(self, toy_scenario):
        state = self._state(toy_scenario, [4, 2], served=[True, False])
        sol = slot_assign(state, (0, 1, 2), toy_scenario)
        assert all(j != 0 for _, j in sol.matching)

    def test_unlocalized_body_still_blocks_links(self):
        # the matcher only sees localized users, but the link weights count
        # every body in the room: an unlocalized user standing in the beam
        # still kills the link
        sc = make_toy_scenario(num_users=3, num_sbs=1, cells_per_side=6, fov_deg=68.0)
        heights = (1.43, 1.88, 1.73)
        blocked = self._state(sc, [17, 16, 33], heights=heights)
        sol = slot_assign(blocked, (1, 2, 3), sc)
        assert sol.matching == ()
        moved = self._state(sc, [17, 0, 33], heights=heights)
        sol = slot_assign(moved, (1, 2, 3), sc)
        assert sol.matching == ((0, 0),)

    def test_matched_pairs_always_feasible_links(self, toy_scenario):
        rng = np.random.default_rng(35)
        for _ in range(30):
            cells = rng.integers(0, toy_scenario.grid.num_cells, 2)
            state = self._state(toy_scenario, cells, heights=rng.uniform(1.4, 1.9, 2))
            sol = slot_assign(state, (0, 1, 3), toy_scenario)
            for i, j in sol.matching:
                # only links with h = 1 carry positive weight
                joint = env.JointAction(vap_set=(0, 1, 3), assignments=((j, i),))
                assert env.evaluate_service(state, joint, toy_scenario).tx_ok[j]


def period_tables(scenario, task, vap_sequence, realization):
    """(p*h) feasibility tables per slot for the exhaustive oracle."""
    blank = (False,) * scenario.num_users
    tables = []
    for t in range(scenario.slots_per_period):
        state = env.state_at_slot(realization, t, blank)
        table = [[0] * scenario.num_users for _ in range(scenario.num_sbs)]
        for i in range(scenario.num_sbs):
            for j in range(scenario.num_users):
                joint = env.JointAction(vap_set=tuple(vap_sequence[t]), assignments=((j, i),))
                out = env.evaluate_service(state, joint, scenario)
                table[i][j] = int(out.localized[j] and out.tx_ok[j])
        tables.append(table)
    return tables


class TestSolvePeriodAssociation:
    def test_single_slot_reduces_to_hungarian(self, toy_scenario):
        sc = make_toy_scenario(slots_per_period=1)
        task = env.sample_task(sc.grid, seed=3, locality_radius=1)
        real = env.sample_realization(task, sc, 0)
        per_slot = solve_period_association([(0, 1, 2)], real, sc, dual_iters=5)
        assert len(per_slot) == 1
        state = env.state_at_slot(real, 0, (False,) * sc.num_users)
        direct = slot_assign(state, (0, 1, 2), sc)
        assert set(per_slot[0]) == set(direct.matching)

    def test_feasibility_always(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=2)
        rng = np.random.default_rng(36)
        for seed in range(20):
            task = env.sample_task(sc.grid, seed=seed, locality_radius=1)
            real = env.sample_realization(task, sc, 0)
            vaps = [tuple(sorted(rng.choice(4, 3, replace=False))) for _ in range(2)]
            per_slot = solve_period_association(vaps, real, sc, dual_iters=20)
            assert check_period_feasible(per_slot, sc.num_users, sc.num_sbs)

    def test_matches_exhaustive_optimum(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=2)
        rng = np.random.default_rng(37)
        for seed in range(40):
            task = env.sample_task(sc.grid, seed=100 + seed, locality_radius=1)
            real = env.sample_realization(task, sc, 0)
            vaps = [tuple(sorted(rng.choice(4, 3, replace=False))) for _ in range(2)]
            per_slot = solve_period_association(vaps, real, sc, dual_iters=40)
            got = len({j for slot in per_slot for _, j in slot})
            tables = period_tables(sc, task, vaps, real)
            want = oracles.best_period_service(tables, sc.num_users, sc.num_sbs, 2)
            assert got == want
