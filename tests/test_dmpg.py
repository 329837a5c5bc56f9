from math import comb

import numpy as np

import oracles
from conftest import make_toy_scenario, reference_learning
from thzvlc import association, env, meta_rl
from thzvlc.association import check_period_feasible
from thzvlc.dmpg import rollout_vap, vap_decoder
from thzvlc.env import enumerate_vap_actions
from thzvlc.meta_rl import meta_train


class TestEnumerateVapActions:
    def test_minimum_size(self):
        actions = enumerate_vap_actions(3)
        assert len(actions) == 1
        assert actions[0] == (0, 1, 2)

    def test_seven_vaps(self):
        assert len(enumerate_vap_actions(7)) == 35

    def test_four_vap_listing(self):
        assert enumerate_vap_actions(4) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_size_independent_of_users(self):
        for v in (3, 5, 7, 9):
            assert len(enumerate_vap_actions(v)) == comb(v, 3)


class TestDmpgStep:
    """One slot of a dmpg rollout: the sampled VAP subset plus its matching."""

    def _rollouts(self, scenario, seeds, locality_radius):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        actions = enumerate_vap_actions(scenario.num_vaps)
        decode = vap_decoder(actions)
        for seed in seeds:
            params = meta_rl.new_policy("dmpg", scenario, cfg, seed=seed)
            task = env.sample_task(scenario.cells_per_side, seed=seed, concentration=1.0,
                                   locality_radius=locality_radius, task_id=seed)
            periods = rollout_vap(task, params, decode, scenario, np.random.default_rng(seed), 2).periods
            for traj, reward in zip(periods, periods.returns):
                yield actions, traj, reward

    def test_no_localized_users_zero_reward(self):
        sc = make_toy_scenario(fov_deg=5.0)
        for _, traj, reward in self._rollouts(sc, range(4), 0):
            assert reward == 0
            assert all(step.action.assignments == () for step in traj.steps)

    def test_matches_external_composition(self, toy_scenario):
        for actions, traj, _ in self._rollouts(toy_scenario, range(6), 1):
            for step in traj.steps:
                vap_set = actions[step.action_index]
                links = env.slot_links(step.state, toy_scenario)
                sol = association.slot_assign(step.state, vap_set, links)
                assert step.action.vap_set == vap_set
                assert step.action.assignments == tuple(sorted((u, s) for s, u in sol.matching))

    def test_reward_bounded_by_joint_oracle(self, toy_scenario):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        for seed in range(5):
            task = env.sample_task(toy_scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=0, task_id=seed)
            best, _ = env.brute_force_oracle(task, toy_scenario, 0)
            real = env.sample_realization(task, toy_scenario, 0)
            params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=seed)
            decode = oracles.decoder("dmpg", toy_scenario)
            for k in range(4):
                traj = oracles.rollout(
                    task, params, decode, toy_scenario, np.random.default_rng(k), realization=real
                )
                assert traj.total_reward <= best


class TestRolloutVap:
    def test_is_the_joint_phase_entry(self):
        # one phase entry for both heads; the decoder makes it the VAP head's
        assert rollout_vap is meta_rl.rollout_joint

    def test_constraints_hold_on_rollouts(self, toy_scenario):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=0)
        decode = vap_decoder(enumerate_vap_actions(toy_scenario.num_vaps))
        for seed in range(6):
            task = env.sample_task(toy_scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=1, task_id=seed)
            periods = rollout_vap(task, params, decode, toy_scenario, np.random.default_rng(seed), 1).periods
            [traj] = periods
            per_slot = [
                tuple((s, u) for u, s in step.action.assignments) for step in traj.steps
            ]
            assert check_period_feasible(per_slot, toy_scenario.num_users, toy_scenario.num_sbs)
            assert periods.returns[0] <= min(
                toy_scenario.num_users,
                toy_scenario.num_sbs * toy_scenario.slots_per_period,
            )

    def test_served_user_never_reassigned(self, toy_scenario):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        params = meta_rl.new_policy("dmpg", toy_scenario, cfg, seed=3)
        decode = vap_decoder(enumerate_vap_actions(toy_scenario.num_vaps))
        for seed in range(8):
            task = env.sample_task(toy_scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=1, task_id=seed)
            [traj] = rollout_vap(task, params, decode, toy_scenario, np.random.default_rng(seed), 1).periods
            served = set()
            for step in traj.steps:
                for u, _ in step.action.assignments:
                    assert u not in served
                served.update(step.newly_served)


class TestTrainDmpg:
    def test_metrics_and_determinism(self, toy_scenario):
        cfg = reference_learning(
            inner_lr=0.1, meta_lr=0.05, inner_rollouts=3, outer_rollouts=2,
            meta_iterations=3, tasks_per_batch=2, hidden_sizes=(8,),
        )
        tasks = [
            env.sample_task(toy_scenario.cells_per_side, seed=s, concentration=1.0, locality_radius=1, task_id=s)
            for s in range(3)
        ]
        p1, m1 = meta_train(cfg, toy_scenario, tasks, "dmpg", master_seed=5, workers=1)
        p2, m2 = meta_train(cfg, toy_scenario, tasks, "dmpg", master_seed=5, workers=1)
        assert len(m1) == 3
        assert np.array_equal(p1.flat, p2.flat)
        assert [m.mean_reward for m in m1] == [m.mean_reward for m in m2]
        assert p1.action_count == comb(toy_scenario.num_vaps, 3)

    def test_action_head_independent_of_user_count(self):
        sc = make_toy_scenario(num_users=3, slots_per_period=1)
        cfg = reference_learning(
            inner_rollouts=2, outer_rollouts=2, meta_iterations=1,
            tasks_per_batch=1, hidden_sizes=(8,),
        )
        tasks = [env.sample_task(sc.cells_per_side, seed=0, concentration=1.0, locality_radius=0, task_id=0)]
        params, _ = meta_train(cfg, sc, tasks, "dmpg", master_seed=0, workers=1)
        assert params.action_count == comb(sc.num_vaps, 3)
