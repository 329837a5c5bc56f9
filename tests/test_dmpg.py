from math import comb

import numpy as np
import pytest

from conftest import make_toy_scenario
from thzvlc import association, env, meta_rl
from thzvlc.association import check_period_feasible
from thzvlc.dmpg import enumerate_vap_actions, rollout_vap
from thzvlc.meta_rl import LearningConfig, meta_train


class TestEnumerateVapActions:
    def test_minimum_size(self):
        actions = enumerate_vap_actions(3)
        assert len(actions) == 1
        assert actions[0].vap_set == (0, 1, 2)

    def test_seven_vaps(self):
        assert len(enumerate_vap_actions(7)) == 35

    def test_four_vap_listing(self):
        got = [a.vap_set for a in enumerate_vap_actions(4)]
        assert got == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert [a.action_index for a in enumerate_vap_actions(4)] == [0, 1, 2, 3]

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            enumerate_vap_actions(2)

    def test_size_independent_of_users(self):
        for v in (3, 5, 7, 9):
            assert len(enumerate_vap_actions(v)) == comb(v, 3)


class TestDmpgStep:
    """One slot of a dmpg rollout: the sampled VAP subset plus its matching."""

    def _rollouts(self, scenario, seeds, locality_radius):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        actions = enumerate_vap_actions(scenario.num_vaps)
        for seed in seeds:
            params = meta_rl.new_policy("dmpg", scenario, cfg, seed=seed)
            task = env.sample_task(scenario.grid, seed=seed, locality_radius=locality_radius)
            yield actions, rollout_vap(task, params, actions, scenario, np.random.default_rng(seed))

    def test_no_localized_users_zero_reward(self):
        sc = make_toy_scenario(fov_deg=5.0)
        for _, traj in self._rollouts(sc, range(4), 0):
            assert traj.total_reward == 0
            assert all(step.action.assignments == () for step in traj.steps)

    def test_matches_external_composition(self, toy_scenario):
        for actions, traj in self._rollouts(toy_scenario, range(6), 1):
            for step in traj.steps:
                vap_set = actions[step.action_index].vap_set
                sol = association.slot_assign(step.state, vap_set, toy_scenario)
                assert step.action.vap_set == vap_set
                assert step.action.assignments == tuple(sorted((u, s) for s, u in sol.matching))

    def test_reward_bounded_by_joint_oracle(self, toy_scenario):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        for seed in range(5):
            task = env.sample_task(toy_scenario.grid, seed=seed, locality_radius=0)
            best, _ = env.brute_force_oracle(task, toy_scenario, 0)
            real = env.sample_realization(task, toy_scenario, 0)
            params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=seed)
            actions = enumerate_vap_actions(toy_scenario.num_vaps)
            for k in range(4):
                traj = rollout_vap(
                    task, params, actions, toy_scenario,
                    np.random.default_rng(k), realization=real,
                )
                assert traj.total_reward <= best


class TestRolloutVap:
    def test_constraints_hold_on_rollouts(self, toy_scenario):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=0)
        actions = enumerate_vap_actions(toy_scenario.num_vaps)
        for seed in range(6):
            task = env.sample_task(toy_scenario.grid, seed=seed, locality_radius=1)
            traj = rollout_vap(task, params, actions, toy_scenario, np.random.default_rng(seed))
            per_slot = [
                tuple((s, u) for u, s in step.action.assignments) for step in traj.steps
            ]
            assert check_period_feasible(per_slot, toy_scenario.num_users, toy_scenario.num_sbs)
            assert traj.total_reward <= min(
                toy_scenario.num_users,
                toy_scenario.num_sbs * toy_scenario.slots_per_period,
            )

    def test_served_user_never_reassigned(self, toy_scenario):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=3)
        actions = enumerate_vap_actions(toy_scenario.num_vaps)
        for seed in range(8):
            task = env.sample_task(toy_scenario.grid, seed=seed, locality_radius=1)
            traj = rollout_vap(task, params, actions, toy_scenario, np.random.default_rng(seed))
            served = set()
            for step in traj.steps:
                for u, _ in step.action.assignments:
                    assert u not in served
                served.update(step.newly_served)


class TestTrainDmpg:
    def test_metrics_and_determinism(self, toy_scenario):
        cfg = LearningConfig(
            inner_lr=0.1, meta_lr=0.05, inner_rollouts=3, outer_rollouts=2,
            meta_iterations=3, tasks_per_batch=2, hidden_sizes=(8,),
        )
        tasks = [
            env.sample_task(toy_scenario.grid, seed=s, locality_radius=1, task_id=s)
            for s in range(3)
        ]
        p1, m1 = meta_train(cfg, toy_scenario, tasks, "dmpg", master_seed=5)
        p2, m2 = meta_train(cfg, toy_scenario, tasks, "dmpg", master_seed=5)
        assert len(m1) == 3
        assert np.array_equal(p1.flat, p2.flat)
        assert [m.mean_reward for m in m1] == [m.mean_reward for m in m2]
        assert p1.action_count == comb(toy_scenario.num_vaps, 3)

    def test_action_head_independent_of_user_count(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=1)
        cfg = LearningConfig(
            inner_rollouts=2, outer_rollouts=2, meta_iterations=1,
            tasks_per_batch=1, hidden_sizes=(8,),
        )
        tasks = [env.sample_task(sc.grid, seed=0, locality_radius=0, task_id=0)]
        params, _ = meta_train(cfg, sc, tasks, "dmpg", master_seed=0)
        assert params.action_count == comb(sc.num_vaps, 3)
