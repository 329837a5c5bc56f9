import dataclasses
import itertools
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_toy_scenario, reference_learning, reference_scenario
import oracles
from oracles import dense_transition, sample_transition, step
from thzvlc import env, harness, meta_rl
from thzvlc.env import (
    EnvState,
    JointAction,
    JointActionSpace,
    Trajectory,
    brute_force_oracle,
    enumerate_joint_actions,
    evaluate_service,
    reset,
    sample_task,
)


def identity_task(scenario, seed=0):
    return sample_task(scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=0, task_id=seed)


def make_state(scenario, cells, heights=None, served=None, slot=0):
    u = scenario.num_users
    return EnvState(
        user_cells=tuple(cells),
        user_heights=tuple(heights or [1.5] * u),
        served=tuple(served or [False] * u),
        slot_index=slot,
    )


class TestScenarioHash:
    def test_equal_scenarios_hash_alike_and_pickles_drop_the_cache(self):
        # the cache is the scenario's link tables, built on first use
        scenario = reference_scenario()
        tables = scenario.tables
        assert scenario.tables is tables
        assert hash(scenario) == hash(reference_scenario())
        copy = pickle.loads(pickle.dumps(scenario))
        assert "tables" not in copy.__dict__
        assert copy == scenario and hash(copy) == hash(scenario)
        assert copy.tables is not tables
        moved = dataclasses.replace(scenario, body_radius=0.3)
        assert "tables" not in moved.__dict__ and moved != scenario


    @pytest.mark.parametrize("cells_per_side", [6, 32])
    def test_pickles_carry_no_cache(self, cells_per_side):
        scenario = reference_scenario(cells_per_side=cells_per_side)
        before = pickle.dumps(scenario)
        task = sample_task(cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        env.slot_links(reset(task, scenario), scenario)
        assert {"tables", "cell_centers"} <= set(scenario.__dict__)
        assert pickle.dumps(scenario) == before


class TestTaskStarts:
    """Each task's start is drawn once per scenario and seed."""

    @pytest.mark.parametrize("keys", [{}, {"num_users": 3, "cells_per_side": 2}, {"body_radius": 0.5}])
    def test_reset_equals_a_fresh_draw(self, keys):
        scenario = reference_scenario(**keys)
        for seed in range(300):
            task = identity_task(scenario, seed)
            assert reset(task, scenario) == oracles.reset_uncached(task, scenario)
            assert reset(task, scenario) == oracles.reset_uncached(task, scenario)  # read from the cache

    def test_start_links_are_the_links_of_the_start(self):
        scenario = reference_scenario()
        for seed in range(40):
            start = scenario.tables[2](seed)
            links = env.slot_links(reset(identity_task(scenario, seed), scenario), scenario)
            assert np.array_equal(start.links, np.concatenate((links.visible, links.h)))
            assert not start.links.flags.writeable and not start.cells.flags.writeable

    def test_an_evaluation_over_more_tasks_stays_at_the_bound(self):
        spec = harness.load_spec(None, environ={}, overrides={
            ("scenario", "num_users"): 2, ("scenario", "cells_per_side"): 2, ("learning", "hidden_sizes"): (4,),
        })
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, spec.master_seed)
        harness.evaluate_policy(params, spec, env._CACHE_SIZE + 50)
        _, link_table, start_of = spec.scenario.tables
        assert start_of.cache_info().currsize == env._CACHE_SIZE
        assert link_table.cache_info().currsize == env._CACHE_SIZE

    def test_a_pickled_scenario_carries_no_starts(self):
        scenario = reference_scenario()
        before = pickle.dumps(scenario)
        reset(identity_task(scenario, 5), scenario)
        assert scenario.tables[2].cache_info().currsize == 1
        assert pickle.dumps(scenario) == before
        assert "tables" not in pickle.loads(pickle.dumps(scenario)).__dict__

    def test_rooms_never_share_starts(self):
        # a room freed and another made in its place may get its id back;
        # each must still read its own starts
        for radius, users in [(0.2, 20), (0.5, 20), (0.2, 5), (0.2, 20)] * 3:
            scenario = reference_scenario(body_radius=radius, num_users=users)
            for seed in (1, 2, 3):
                task = identity_task(scenario, seed)
                assert reset(task, scenario) == oracles.reset_uncached(task, scenario)
                links = env.slot_links(oracles.reset_uncached(task, scenario), scenario)
                assert np.array_equal(scenario.tables[2](seed).links, np.concatenate((links.visible, links.h)))
            del scenario


class TestScenarioCells:
    def test_centers_inside(self):
        scenario = make_toy_scenario(cells_per_side=6)
        assert scenario.num_cells == 36
        for cx, cy in scenario.cell_centers:
            assert 0 < cx < 6 and 0 < cy < 6

    def test_index_convention(self):
        scenario = make_toy_scenario(cells_per_side=3)
        assert scenario.cell_centers[0] == (1.0, 1.0)
        assert scenario.cell_centers[1] == (3.0, 1.0)
        assert scenario.cell_centers[3] == (1.0, 3.0)


class TestSampleTask:
    def test_locality_zero_is_identity(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=5, concentration=1.0, locality_radius=0, task_id=5)
        assert np.array_equal(dense_transition(task.pattern), np.eye(toy_scenario.num_cells))

    def test_rows_are_stochastic(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=9, concentration=0.5, locality_radius=1, task_id=9)
        sums = dense_transition(task.pattern).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_deterministic_in_seed(self, toy_scenario):
        a = sample_task(toy_scenario.cells_per_side, seed=42, concentration=1.0, locality_radius=1, task_id=42)
        b = sample_task(toy_scenario.cells_per_side, seed=42, concentration=1.0, locality_radius=1, task_id=42)
        assert np.array_equal(dense_transition(a.pattern), dense_transition(b.pattern))

    def test_locality_limits_support(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        n = toy_scenario.cells_per_side
        t = dense_transition(task.pattern)
        for idx in range(toy_scenario.num_cells):
            ix, iy = idx % n, idx // n
            for jdx in np.nonzero(t[idx])[0]:
                jx, jy = jdx % n, jdx // n
                assert max(abs(jx - ix), abs(jy - iy)) <= 1

    @pytest.mark.parametrize("cells_per_side", [1, 2, 3, 6, 11, 32])
    def test_equals_one_dirichlet_call_per_row(self, cells_per_side):
        n = cells_per_side
        # both sides of numpy's switch to stick-breaking below 0.1
        for radius in (0, 1, 2, n - 1, n, sys.maxsize):
            for concentration in (1e-6, 0.05, np.nextafter(0.1, 0.0), 0.1, 1.0, 1e6):
                task = sample_task(n, seed=n, concentration=concentration, locality_radius=radius, task_id=0)
                expected = sample_transition(n, n, concentration, radius)
                assert np.array_equal(dense_transition(task.pattern), expected), (radius, concentration)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        cells_per_side=st.integers(1, 12),
        radius=st.one_of(st.integers(0, 13), st.just(sys.maxsize)),
        concentration=st.floats(1e-9, 1e6, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_dirichlet_call_per_row_drawn(self, cells_per_side, radius, concentration, seed):
        task = sample_task(cells_per_side, seed=seed, concentration=concentration, locality_radius=radius, task_id=0)
        expected = sample_transition(cells_per_side, seed, concentration, radius)
        assert np.array_equal(dense_transition(task.pattern), expected)

    @pytest.mark.parametrize("concentration", [0.05, 1.0])
    def test_huge_radius_stays_small(self, concentration):
        bounded = sample_task(32, seed=4, concentration=concentration, locality_radius=31, task_id=0)
        matrix_bytes = 1024**2 * 8  # one dense float matrix over the 32 x 32 cells
        env._neighbours.cache_clear()  # count building the neighbour table too
        tracemalloc.start()
        try:
            task = sample_task(32, seed=4, concentration=concentration, locality_radius=sys.maxsize, task_id=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for field in dataclasses.fields(env.MovementPattern):
            assert np.array_equal(getattr(task.pattern, field.name), getattr(bounded.pattern, field.name)), field.name
        assert peak <= 4 * matrix_bytes, peak / matrix_bytes

    def test_holds_its_neighbour_rows_only(self):
        # 1024 cells by 9 neighbours: probs and the running sums, 72 KiB each,
        # their int32 cells, 36 KiB, and one last entry per row
        pattern = sample_task(32, seed=4, concentration=1.0, locality_radius=1, task_id=0).pattern
        env.next_cells(pattern, [0, 1023], np.array([0.5, 0.5]))
        held = sum(value.nbytes for value in vars(pattern).values() if isinstance(value, np.ndarray))
        assert held <= 256 * 1024, held


class TestMovementPattern:
    def make(self, to, probs):
        return env.MovementPattern(np.array(to), np.array(probs, dtype=float))

    def test_accepts_neighbour_rows(self):
        pattern = self.make([[0, 0, 1], [0, 0, 1]], [[0.0, 0.5, 0.5], [0.0, 0.25, 0.75]])
        assert pattern.last_support.tolist() == [2, 2]
        with pytest.raises(ValueError):
            pattern.probs[0, 0] = 1.0

    @pytest.mark.parametrize(
        "to, probs",
        [
            ([[0, 1], [0, 1]], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
            ([0, 1], [1.0, 1.0]),
            ([[0, 1]], [[0.5, 0.5], [0.5, 0.5]]),
        ],
    )
    def test_refuses_mismatched_shapes(self, to, probs):
        with pytest.raises(ValueError, match="MovementPattern.to"):
            self.make(to, probs)

    @pytest.mark.parametrize(
        "probs, match",
        [
            ([[1.5, -0.5], [0.5, 0.5]], ">= 0"),
            ([[-1e-300, 1.0], [0.5, 0.5]], ">= 0"),
            ([[np.nan, 1.0], [0.5, 0.5]], "finite"),
            ([[np.inf, 1.0], [0.5, 0.5]], "finite"),
            ([[0.5, 0.5], [0.5, 0.5 - 1e-8]], "sum to 1"),
            ([[0.5, 0.5], [0.5, 0.5 + 1e-8]], "sum to 1"),
        ],
    )
    def test_refuses_bad_entries(self, probs, match):
        with pytest.raises(ValueError, match=match):
            self.make([[0, 1], [0, 1]], probs)


class TestReset:
    def test_initial_flags(self, toy_scenario):
        state = reset(identity_task(toy_scenario), toy_scenario)
        assert state.served == (False,) * toy_scenario.num_users
        assert state.slot_index == 0
        lo, hi = toy_scenario.user_height_range
        assert all(lo <= h <= hi for h in state.user_heights)

    def test_deterministic(self, toy_scenario):
        t = identity_task(toy_scenario, seed=3)
        assert reset(t, toy_scenario) == reset(t, toy_scenario)


def find_serving_action(scenario, state, user):
    """First action in enumeration order that serves `user` at this state."""
    for action in enumerate_joint_actions(scenario):
        out = evaluate_service(state, action, scenario, env.slot_links(state, scenario))
        if user in out.newly_served:
            return action
    return None


class TestStep:
    def test_service_conjunction(self, toy_scenario):
        state = make_state(toy_scenario, cells=[4, 2])
        action = find_serving_action(toy_scenario, state, 0)
        assert action is not None
        task = identity_task(toy_scenario)
        next_state, newly = step(state, action, task, toy_scenario)
        assert 0 in newly
        assert next_state.served[0]
        assert next_state.slot_index == 1

    def test_already_served_not_newly(self, toy_scenario):
        state = make_state(toy_scenario, cells=[4, 2])
        action = find_serving_action(toy_scenario, state, 0)
        served_state = make_state(toy_scenario, cells=[4, 2], served=[True, False])
        out = evaluate_service(served_state, action, toy_scenario, env.slot_links(served_state, toy_scenario))
        assert 0 not in out.newly_served
        assert out.served_after[0]

    def test_unlocalized_user_not_served(self, toy_scenario):
        # tall corner user: the far VAP leaves its FOV, so some VAP triples
        # cannot localize it even though the THz side stays fine
        state = make_state(toy_scenario, cells=[0, 2], heights=[1.9, 1.5])
        hits = 0
        for action in enumerate_joint_actions(toy_scenario):
            out = evaluate_service(state, action, toy_scenario, env.slot_links(state, toy_scenario))
            if not out.localized[0] and out.tx_ok[0]:
                assert 0 not in out.newly_served
                hits += 1
        assert hits > 0

    def test_step_past_end_rejected(self, toy_scenario):
        state = make_state(toy_scenario, cells=[4, 2], slot=toy_scenario.slots_per_period)
        action = enumerate_joint_actions(toy_scenario)[0]
        with pytest.raises(ValueError):
            step(state, action, identity_task(toy_scenario), toy_scenario)

    def test_default_rng_deterministic(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=8, concentration=1.0, locality_radius=1, task_id=8)
        state = reset(task, toy_scenario)
        action = enumerate_joint_actions(toy_scenario)[3]
        a1 = step(state, action, task, toy_scenario)
        a2 = step(state, action, task, toy_scenario)
        assert a1 == a2

    def test_served_monotone_within_period(self, toy_scenario):
        rng = np.random.default_rng(21)
        task = sample_task(toy_scenario.cells_per_side, seed=4, concentration=1.0, locality_radius=1, task_id=4)
        space = enumerate_joint_actions(toy_scenario)
        for _ in range(20):
            state = reset(task, toy_scenario)
            prev = state.served
            for _ in range(toy_scenario.slots_per_period):
                action = space[int(rng.integers(len(space)))]
                state, _ = step(state, action, task, toy_scenario, rng)
                assert all(not (p and not c) for p, c in zip(prev, state.served))
                prev = state.served


def one_period(state, slots):
    """A batch of one period from its start state and the (action,
    outcome) of each slot; the users stay where they are."""
    users, n = len(state.served), len(slots)
    assigned = np.full((1, n, users), -1, dtype=np.intp)
    for t, (action, _) in enumerate(slots):
        for j, sbs in action.assignments:
            assigned[0, t, j] = sbs
    return env.Periods(
        heights=np.array([state.user_heights]),
        cells=np.array([[state.user_cells] * (n + 1)], dtype=np.intp),
        served=np.array([[state.served] + [o.served_after for _, o in slots]]),
        action=np.zeros((1, n), dtype=np.intp),
        vap_sets=np.array([[a.vap_set for a, _ in slots]], dtype=np.intp).reshape(1, n, 3),
        assigned=assigned,
        localized=np.array([[o.localized for _, o in slots]]).reshape(1, n, users),
        tx_ok=np.array([[o.tx_ok for _, o in slots]]).reshape(1, n, users),
    )


class TestPeriodReliability:
    def test_empty_service(self, toy_scenario):
        task = identity_task(toy_scenario)
        state = reset(task, toy_scenario)
        nothing = env.ServiceOutcome(localized=(False, False), tx_ok=(False, False),
                                     served_after=state.served, newly_served=())
        action = enumerate_joint_actions(toy_scenario)[0]
        traj = Trajectory(one_period(state, [(action, nothing)] * 2), 0)
        assert traj.total_reward == 0
        assert [s.newly_served for s in traj.steps] == [(), ()]

    def test_saturation_single_slot(self, toy_scenario):
        state = make_state(toy_scenario, cells=[4, 2])
        for action in enumerate_joint_actions(toy_scenario):
            out = evaluate_service(state, action, toy_scenario, env.slot_links(state, toy_scenario))
            if len(out.newly_served) == toy_scenario.num_users:
                traj = Trajectory(one_period(state, [(action, out)]), 0)
                assert traj.total_reward == toy_scenario.num_users
                assert traj.steps[0].newly_served == out.newly_served
                assert traj.steps[0].action == action
                assert traj.final_state.served == out.served_after
                return
        pytest.skip("no single action serves both users in this layout")

    def test_sum_matches_final_popcount(self, toy_scenario):
        rng = np.random.default_rng(22)
        task = sample_task(toy_scenario.cells_per_side, seed=2, concentration=1.0, locality_radius=1, task_id=2)
        space = enumerate_joint_actions(toy_scenario)
        cfg = reference_learning(hidden_sizes=(8,))
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=2)
        for traj in meta_rl.rollout_joint(task, params, meta_rl.joint_decoder(space), toy_scenario, rng, 25).trajectories:
            assert traj.total_reward == sum(traj.final_state.served)
            assert traj.total_reward <= min(
                toy_scenario.num_users,
                toy_scenario.num_sbs * toy_scenario.slots_per_period,
            )


class TestJointActionSpace:
    def test_forced_choice(self):
        space = JointActionSpace(num_vaps=3, num_users=1, num_sbs=1)
        assert len(space) == 1
        assert space[0] == JointAction(vap_set=(0, 1, 2), assignments=((0, 0),))

    def test_headline_count(self):
        space = JointActionSpace(num_vaps=7, num_users=8, num_sbs=7)
        assert len(space) == 1_411_200

    def test_small_enumeration_matches_itertools(self):
        space = JointActionSpace(num_vaps=4, num_users=2, num_sbs=2)
        assert len(space) == 8
        expected = []
        for combo in itertools.combinations(range(4), 3):
            for perm in itertools.permutations(range(2), 2):
                expected.append(JointAction(vap_set=combo, assignments=((0, perm[0]), (1, perm[1]))))
        assert list(space) == expected

    def test_more_users_than_sbs(self):
        space = JointActionSpace(num_vaps=3, num_users=3, num_sbs=2)
        assert len(space) == 1 * 6
        for action in space:
            users = [u for u, _ in action.assignments]
            stations = sorted(s for _, s in action.assignments)
            assert stations == [0, 1]
            assert len(set(users)) == 2

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(3, 6), st.integers(1, 4), st.integers(1, 4), st.booleans())
    def test_getitem_enumerates_in_lexicographic_order(self, vaps, a, b, more_users):
        # both sides of num_users <= num_sbs, with ties (a == b) on the first
        users, sbs = (max(a, b) + 1, min(a, b)) if more_users else (min(a, b), max(a, b))
        space = JointActionSpace(num_vaps=vaps, num_users=users, num_sbs=sbs)
        if users <= sbs:
            assocs = [tuple(enumerate(p)) for p in itertools.permutations(range(sbs), users)]
        else:
            assocs = [tuple(sorted((u, s) for s, u in enumerate(p)))
                      for p in itertools.permutations(range(users), sbs)]
        # checkpoints name actions by index, so the order itself is pinned
        every = [JointAction(vap_set=c, assignments=pairs)
                 for c in itertools.combinations(range(vaps), 3) for pairs in assocs]
        assert [space[i] for i in range(len(space))] == every
        for bad in (-1, len(space)):
            with pytest.raises(IndexError):
                space[bad]

    def test_cap_error_mentions_dual(self, monkeypatch):
        sc = make_toy_scenario(num_users=2)
        monkeypatch.setattr(env, "JOINT_ACTION_CAP", 4)
        with pytest.raises(ValueError, match="dual"):
            enumerate_joint_actions(sc)


class TestJointActionValidation:
    def test_rejects_duplicate_sbs(self):
        with pytest.raises(ValueError):
            JointAction(vap_set=(0, 1, 2), assignments=((0, 0), (1, 0)))

    def test_rejects_bad_vap_set(self):
        with pytest.raises(ValueError):
            JointAction(vap_set=(0, 0, 1), assignments=())
        with pytest.raises(ValueError):
            JointAction(vap_set=(2, 1, 0), assignments=())

    def test_partial_assignment_allowed(self):
        action = JointAction(vap_set=(0, 1, 2), assignments=((1, 0),))
        assert dict(action.assignments) == {1: 0}


class TestBruteForceOracle:
    def test_single_slot_existence(self):
        sc = make_toy_scenario(slots_per_period=1)
        task = sample_task(sc.cells_per_side, seed=1, concentration=1.0, locality_radius=0, task_id=1)
        best, seq = brute_force_oracle(task, sc, 0)
        assert len(seq) == 1
        state = reset(task, sc)
        links = env.slot_links(state, sc)
        could = any(evaluate_service(state, a, sc, links).newly_served for a in enumerate_joint_actions(sc))
        assert (best >= 1) == could

    def test_reward_bound(self, toy_scenario):
        for seed in range(4):
            task = sample_task(toy_scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=1, task_id=seed)
            best, _ = brute_force_oracle(task, toy_scenario, 0)
            assert 0 <= best <= min(
                toy_scenario.num_users,
                toy_scenario.num_sbs * toy_scenario.slots_per_period,
            )

    def test_deterministic(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=6, concentration=1.0, locality_radius=1, task_id=6)
        assert brute_force_oracle(task, toy_scenario, 0) == brute_force_oracle(task, toy_scenario, 0)

    def test_frozen_regression_value(self):
        # exhaustively computed once and pinned; a change here means the
        # world model changed
        sc = make_toy_scenario(fov_deg=70.0)
        task = sample_task(sc.cells_per_side, seed=10, concentration=1.0, locality_radius=0, task_id=10)
        best, seq = brute_force_oracle(task, sc, 0)
        assert best == 2
        assert [a.vap_set for a in seq] == [(0, 2, 3), (1, 2, 3)]

    def test_guard(self):
        sc = make_toy_scenario(slots_per_period=12)
        task = sample_task(sc.cells_per_side, seed=0, concentration=1.0, locality_radius=0, task_id=0)
        with pytest.raises(ValueError, match="guard"):
            brute_force_oracle(task, sc, 0)

    def test_oracle_beats_random_play(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=7, concentration=1.0, locality_radius=0, task_id=7)
        best, seq = brute_force_oracle(task, toy_scenario, 0)
        real = env.sample_realization(task, toy_scenario, 0)
        # replay the winning sequence and confirm the claimed reward
        served = (False,) * toy_scenario.num_users
        total = 0
        for t, action in enumerate(seq):
            state = env.state_at_slot(real, t, served)
            out = evaluate_service(state, action, toy_scenario, env.slot_links(state, toy_scenario))
            total += len(out.newly_served)
            served = out.served_after
        assert total == best
        rng = np.random.default_rng(1)
        space = enumerate_joint_actions(toy_scenario)
        for _ in range(30):
            served = (False,) * toy_scenario.num_users
            total = 0
            for t in range(toy_scenario.slots_per_period):
                state = env.state_at_slot(real, t, served)
                action = space[int(rng.integers(len(space)))]
                out = evaluate_service(state, action, toy_scenario, env.slot_links(state, toy_scenario))
                total += len(out.newly_served)
                served = out.served_after
            assert total <= best


class TestRealization:
    def test_deterministic(self, toy_scenario):
        task = sample_task(toy_scenario.cells_per_side, seed=13, concentration=1.0, locality_radius=1, task_id=13)
        a = env.sample_realization(task, toy_scenario, 5)
        b = env.sample_realization(task, toy_scenario, 5)
        assert a == b
        assert len(a.cells) == toy_scenario.slots_per_period + 1

    def test_identity_mobility_freezes_cells(self, toy_scenario):
        task = identity_task(toy_scenario, seed=2)
        real = env.sample_realization(task, toy_scenario, 0)
        assert all(c == real.cells[0] for c in real.cells)
