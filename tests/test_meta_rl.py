import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario
from thzvlc import env, meta_rl, policy_net
from thzvlc.env import EnvState, MovementPattern, Task, Trajectory, TrajectoryStep
from thzvlc.meta_rl import (
    LearningConfig,
    TaskBatchResult,
    adapt,
    collect_trajectories,
    inner_update,
    meta_train,
    meta_update,
    task_gradient,
    train_baseline_pg,
)
from thzvlc.policy_net import (
    AdaptedParams,
    PolicyParams,
    factors_fit,
    forward,
    init_params,
    layer_shapes_for,
)


def dummy_task():
    return Task(pattern=MovementPattern(np.eye(1)), rng_seed=0, id=0)


def dummy_state(num_users=3):
    return EnvState(
        user_cells=(0,) * num_users,
        user_heights=(1.5,) * num_users,
        served=(False,) * num_users,
        slot_index=0,
    )


def synthetic_trajectory(encodings, actions, rewards, scenario=None):
    """Hand-built trajectory; reward per step is the newly-served count."""
    steps = []
    for enc, a, r in zip(encodings, actions, rewards):
        steps.append(
            TrajectoryStep(
                state=dummy_state(),
                encoding=np.asarray(enc, dtype=float),
                action_index=int(a),
                action=env.JointAction(vap_set=(0, 1, 2), assignments=()),
                newly_served=tuple(range(r)),
                localized=(True,) * 3,
                tx_ok=(True,) * 3,
            )
        )
    return Trajectory(task_id=0, steps=tuple(steps), final_state=dummy_state())


def point_mass_params(scenario, action_count, favored=0, hidden=(8,)):
    """Zero weights, one huge bias logit: a policy that always picks `favored`."""
    shapes = layer_shapes_for(4 * scenario.num_users, hidden, action_count)
    size = sum(i * o + o for i, o in shapes)
    flat = np.zeros(size)
    flat[size - action_count + favored] = 25.0
    return PolicyParams(flat, shapes, action_count)


def trajectories_equal(a, b):
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        if sa.state != sb.state or sa.action_index != sb.action_index:
            return False
        if sa.newly_served != sb.newly_served:
            return False
    return a.final_state == b.final_state


class TestCollectTrajectories:
    def test_count_zero(self, toy_scenario):
        task = env.sample_task(toy_scenario.grid, seed=0, locality_radius=0)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space))
        out = collect_trajectories(task, params, 0, np.random.default_rng(0), toy_scenario, space)
        assert out == []

    def test_horizon(self, toy_scenario):
        task = env.sample_task(toy_scenario.grid, seed=1, locality_radius=1)
        space = env.enumerate_joint_actions(toy_scenario)
        params = init_params(layer_shapes_for(8, (8,), len(space)), seed=0)
        trajs = collect_trajectories(task, params, 3, np.random.default_rng(0), toy_scenario, space)
        assert len(trajs) == 3
        assert all(len(t.steps) == toy_scenario.slots_per_period for t in trajs)

    def test_point_mass_deterministic_env_identical(self, toy_scenario):
        task = env.sample_task(toy_scenario.grid, seed=2, locality_radius=0)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space), favored=3)
        trajs = collect_trajectories(task, params, 5, np.random.default_rng(0), toy_scenario, space)
        assert all(trajectories_equal(trajs[0], t) for t in trajs[1:])


class TestTaskGradient:
    def test_zero_returns_zero_gradient(self):
        params = init_params(((2, 4), (4, 3)), seed=0)
        trajs = [synthetic_trajectory([[0.1, 0.2]], [i % 3], [0]) for i in range(4)]
        assert np.all(task_gradient(trajs, params).dense() == 0.0)

    def test_identical_returns_with_baseline(self):
        params = init_params(((2, 4), (4, 3)), seed=1)
        trajs = [synthetic_trajectory([[0.1, 0.2]], [i % 3], [2]) for i in range(4)]
        g = task_gradient(trajs, params, reward_baseline=True)
        assert np.all(g.dense() == 0.0)

    def test_bandit_estimator_unbiased(self):
        # single-state 2-action bandit, rewards 1 and 3
        shapes = ((2, 2),)
        params = init_params(shapes, seed=4)
        x = np.array([1.0, 0.5])
        rewards = {0: 1, 1: 3}

        def exact_value(p):
            d = forward(p, x)
            return d[0] * rewards[0] + d[1] * rewards[1]

        eps = 1e-6
        exact_grad = np.empty(params.size)
        for i in range(params.size):
            plus, minus = params.flat.copy(), params.flat.copy()
            plus[i] += eps
            minus[i] -= eps
            exact_grad[i] = (
                exact_value(PolicyParams(plus, shapes, 2))
                - exact_value(PolicyParams(minus, shapes, 2))
            ) / (2 * eps)

        rng = np.random.default_rng(5)
        dist = forward(params, x)
        n = 30_000
        samples = np.empty((n, params.size))
        for s in range(n):
            a = policy_net.sample_action(dist, rng)
            traj = synthetic_trajectory([x], [a], [rewards[a]])
            samples[s] = task_gradient([traj], params).dense()
        mean = samples.mean(axis=0)
        sem = samples.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(mean - exact_grad) <= 3 * sem + 1e-9)

    def test_leave_one_out_baseline_unbiased(self):
        # with K=2 and the LOO baseline the expectation is unchanged
        shapes = ((2, 2),)
        params = init_params(shapes, seed=6)
        x = np.array([1.0, 0.5])
        rewards = {0: 1, 1: 3}
        rng = np.random.default_rng(7)
        dist = forward(params, x)
        n = 30_000
        plain = np.empty((n, params.size))
        baselined = np.empty((n, params.size))
        for s in range(n):
            pair = [policy_net.sample_action(dist, rng) for _ in range(2)]
            trajs = [synthetic_trajectory([x], [a], [rewards[a]]) for a in pair]
            plain[s] = task_gradient(trajs, params, reward_baseline=False).dense()
            baselined[s] = task_gradient(trajs, params, reward_baseline=True).dense()
        diff = baselined.mean(axis=0) - plain.mean(axis=0)
        sem = (baselined - plain).std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(diff) <= 3 * sem + 1e-9)

    def test_empty_rejected(self):
        params = init_params(((2, 2),), seed=0)
        with pytest.raises(ValueError):
            task_gradient([], params)

    def test_all_zero_coefficients_skip_the_kernel(self, monkeypatch):
        params = init_params(((2, 4), (4, 3)), seed=1)
        calls = []
        monkeypatch.setattr(policy_net, "accumulate_grad_log_prob", lambda *a: calls.append(a))
        zero = [synthetic_trajectory([[0.1, 0.2]] * 2, [i % 3, 1], [0, 0]) for i in range(3)]
        equal = [synthetic_trajectory([[0.1, 0.2]], [i % 3], [2]) for i in range(4)]
        assert np.all(task_gradient(zero, params).dense() == 0.0)
        assert np.all(task_gradient(equal, params, reward_baseline=True).dense() == 0.0)
        assert calls == []

    def test_one_kernel_call_over_nonzero_steps_in_order(self, monkeypatch):
        params = init_params(((2, 4), (4, 3)), seed=2)
        trajs = [
            synthetic_trajectory([[0.1, 0.2], [0.3, 0.4]], [0, 1], [1, 0]),
            synthetic_trajectory([[0.5, 0.6], [0.7, 0.8]], [2, 0], [0, 0]),
            synthetic_trajectory([[0.9, 1.0]], [1], [3]),
        ]
        calls = []
        original = policy_net.accumulate_grad_log_prob

        def spy(params, encodings, action_indices, coeffs):
            calls.append((np.array(encodings), list(action_indices), list(coeffs)))
            return original(params, encodings, action_indices, coeffs)

        monkeypatch.setattr(policy_net, "accumulate_grad_log_prob", spy)
        g = task_gradient(trajs, params, reward_to_go=True)
        assert len(calls) == 1
        encodings, actions, coeffs = calls[0]
        # reward-to-go: 1 then 0 for the first trajectory, 0 and 0 for the second
        assert encodings.tolist() == [[0.1, 0.2], [0.9, 1.0]]
        assert actions == [0, 1]
        assert coeffs == [1 / 3, 3 / 3]
        want = (policy_net.grad_log_prob(params, np.array([0.1, 0.2]), 0)
                + 3 * policy_net.grad_log_prob(params, np.array([0.9, 1.0]), 1)) / 3
        assert np.allclose(g.dense(), want, rtol=1e-12, atol=1e-15)


class TestInnerUpdate:
    def test_zero_gradient_fixed_point(self):
        params = init_params(((2, 3),), seed=0)
        out = inner_update(params, np.zeros(params.size), 0.1)
        assert np.array_equal(out.flat, params.flat)

    def test_zero_rate_fixed_point(self):
        params = init_params(((2, 3),), seed=0)
        out = inner_update(params, np.ones(params.size), 0.0)
        assert np.array_equal(out.flat, params.flat)

    def test_unit_gradient_shift(self):
        params = init_params(((2, 3),), seed=0)
        out = inner_update(params, np.ones(params.size), 0.1)
        assert np.allclose(out.flat - params.flat, 0.1, atol=1e-15)

    def test_ascent_improves_bandit(self):
        shapes = ((2, 2),)
        params = init_params(shapes, seed=8)
        x = np.array([1.0, 0.5])
        rewards = np.array([1.0, 3.0])

        def exact_value(p):
            return float(forward(p, x) @ rewards)

        # exact gradient via the score identity
        dist = forward(params, x)
        g = np.zeros(params.size)
        for a in range(2):
            g += dist[a] * rewards[a] * policy_net.grad_log_prob(params, x, a)
        for lr in (0.01, 0.05, 0.1):
            assert exact_value(inner_update(params, g, lr)) >= exact_value(params)


def make_fixture_result(rng, cfg, shapes=((3, 4), (4, 3))):
    """Synthetic task data consistent with the inner update."""
    params = init_params(shapes, seed=int(rng.integers(1_000_000)))
    enc_dim, act = shapes[0][0], shapes[-1][1]

    def random_trajs(count):
        return [
            synthetic_trajectory(
                rng.normal(size=(2, enc_dim)),
                rng.integers(0, act, 2),
                rng.integers(0, 3, 2),
            )
            for _ in range(count)
        ]

    inner = random_trajs(6)
    g = task_gradient(inner, params, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(params, g, cfg.inner_lr)
    outer = random_trajs(4)
    return params, TaskBatchResult(
        task=dummy_task(), adapted=adapted, inner_trajs=inner, outer_trajs=outer
    )


class TestMetaUpdate:
    def test_zero_task_gradients_leave_params(self):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2)
        params = init_params(((2, 3),), seed=0)
        trajs = [synthetic_trajectory([[0.0, 0.1]], [i % 3], [0]) for i in range(3)]
        res = TaskBatchResult(
            task=dummy_task(), adapted=params, inner_trajs=trajs, outer_trajs=trajs
        )
        out = meta_update(params, [res], cfg)
        assert np.array_equal(out.flat, params.flat)

    def test_converged_point_mass_update_is_tiny(self, toy_scenario):
        cfg = LearningConfig(
            inner_lr=0.1, meta_lr=0.1, inner_rollouts=3, outer_rollouts=3,
            reward_baseline=False, hidden_sizes=(8,),
        )
        task = env.sample_task(toy_scenario.grid, seed=3, locality_radius=0)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space), favored=0)
        rng = np.random.default_rng(1)
        inner = collect_trajectories(task, params, 3, rng, toy_scenario, space)
        g = task_gradient(inner, params, cfg.reward_baseline)
        adapted = inner_update(params, g, cfg.inner_lr)
        outer = collect_trajectories(task, adapted, 3, rng, toy_scenario, space)
        res = TaskBatchResult(task=task, adapted=adapted, inner_trajs=inner, outer_trajs=outer)
        out = meta_update(params, [res], cfg)
        assert np.linalg.norm(out.flat - params.flat) < 1e-6

    def test_first_order_vs_fd_cosine(self):
        rng = np.random.default_rng(40)
        cos = []
        for _ in range(8):
            cfg = LearningConfig(
                inner_lr=0.05, meta_lr=0.01, inner_rollouts=6, outer_rollouts=4,
                reward_baseline=True,
            )
            params, res = make_fixture_result(rng, cfg)
            first = meta_update(params, [res], cfg)
            cfg_fd = LearningConfig(
                inner_lr=0.05, meta_lr=0.01, inner_rollouts=6, outer_rollouts=4,
                reward_baseline=True, meta_order="fd_second_order",
            )
            fd = meta_update(params, [res], cfg_fd)
            da = first.flat - params.flat
            db = fd.flat - params.flat
            denom = np.linalg.norm(da) * np.linalg.norm(db)
            if denom == 0:
                continue
            cos.append(float(da @ db) / denom)
        assert cos and min(cos) > 0.8

    def test_fd_guard(self):
        cfg = LearningConfig(meta_order="fd_second_order")
        params = init_params(((60, 60),), seed=0)  # 3660 params
        res = TaskBatchResult(
            task=dummy_task(),
            adapted=params,
            inner_trajs=[synthetic_trajectory([np.zeros(60)], [0], [1])],
            outer_trajs=[synthetic_trajectory([np.zeros(60)], [0], [1])],
        )
        with pytest.raises(ValueError, match="fd_second_order"):
            meta_update(params, [res], cfg)


class TestAdapt:
    def test_zero_steps(self, toy_scenario):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        task = env.sample_task(toy_scenario.grid, seed=0, locality_radius=0)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        out, curve = adapt(params, task, 0, cfg, toy_scenario)
        assert curve == []
        assert np.array_equal(out.flat, params.flat)

    def test_curve_length(self, toy_scenario):
        cfg = LearningConfig(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        task = env.sample_task(toy_scenario.grid, seed=0, locality_radius=1)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        _, curve = adapt(params, task, 4, cfg, toy_scenario)
        assert len(curve) == 4


def tiny_cfg(**kw):
    defaults = dict(
        inner_lr=0.1, meta_lr=0.05, inner_rollouts=3, outer_rollouts=2,
        meta_iterations=3, tasks_per_batch=2, hidden_sizes=(8,),
    )
    defaults.update(kw)
    return LearningConfig(**defaults)


class TestTraining:
    def _tasks(self, scenario, n=3):
        return [
            env.sample_task(scenario.grid, seed=s, locality_radius=1, task_id=s)
            for s in range(n)
        ]

    def test_zero_iterations_returns_initial(self, toy_scenario):
        cfg = tiny_cfg(meta_iterations=0)
        tasks = self._tasks(toy_scenario)
        init = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        params, metrics = meta_train(cfg, toy_scenario, tasks, "mpg", initial_params=init)
        assert metrics == []
        assert np.array_equal(params.flat, init.flat)

    def test_metrics_length(self, toy_scenario):
        cfg = tiny_cfg()
        params, metrics = meta_train(cfg, toy_scenario, self._tasks(toy_scenario), "mpg", master_seed=1)
        assert len(metrics) == cfg.meta_iterations
        assert [m.iteration for m in metrics] == [0, 1, 2]

    def test_deterministic_across_runs(self, toy_scenario):
        cfg = tiny_cfg()
        tasks = self._tasks(toy_scenario)
        p1, m1 = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=7)
        p2, m2 = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=7)
        assert np.array_equal(p1.flat, p2.flat)
        assert [(m.mean_reward, m.std_reward) for m in m1] == [
            (m.mean_reward, m.std_reward) for m in m2
        ]

    def test_workers_do_not_change_results(self, toy_scenario):
        cfg = tiny_cfg(meta_iterations=2)
        tasks = self._tasks(toy_scenario)
        p1, _ = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=3, workers=1)
        p2, _ = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=3, workers=2)
        assert np.array_equal(p1.flat, p2.flat)

    def test_baseline_pg_deterministic(self, toy_scenario):
        cfg = tiny_cfg()
        tasks = self._tasks(toy_scenario)
        p1, m1 = train_baseline_pg(cfg, toy_scenario, tasks, master_seed=2)
        p2, m2 = train_baseline_pg(cfg, toy_scenario, tasks, master_seed=2)
        assert np.array_equal(p1.flat, p2.flat)
        assert len(m1) == cfg.meta_iterations
        assert [m.mean_reward for m in m1] == [m.mean_reward for m in m2]

    def test_baseline_pg_converges_near_oracle_on_fixed_task(self):
        sc = make_toy_scenario(fov_deg=70.0)
        task = env.sample_task(sc.grid, seed=10, locality_radius=0, task_id=10)
        best, _ = env.brute_force_oracle(task, sc, 0)
        cfg = LearningConfig(
            inner_lr=0.1, meta_lr=0.05, inner_rollouts=10, outer_rollouts=10,
            meta_iterations=250, tasks_per_batch=1, hidden_sizes=(32,),
        )
        _, metrics = train_baseline_pg(cfg, sc, [task], master_seed=0)
        final = np.mean([m.mean_reward for m in metrics[-10:]])
        assert final >= 0.9 * best

    def test_meta_training_beats_plain_pg_on_rotating_stream(self):
        sc = make_toy_scenario(fov_deg=70.0)
        tasks = [
            env.sample_task(sc.grid, seed=s, locality_radius=0, task_id=s)
            for s in (10, 15, 2, 13, 17)
        ]
        cfg = LearningConfig(
            inner_lr=0.1, meta_lr=0.1, inner_rollouts=10, outer_rollouts=10,
            meta_iterations=150, tasks_per_batch=5, hidden_sizes=(32,),
        )
        _, pg_metrics = train_baseline_pg(cfg, sc, tasks, master_seed=0)
        _, mpg_metrics = meta_train(cfg, sc, tasks, "mpg", master_seed=0)
        pg_final = np.mean([m.mean_reward for m in pg_metrics[-10:]])
        mpg_final = np.mean([m.mean_reward for m in mpg_metrics[-10:]])
        assert pg_final <= mpg_final

    def test_trajectory_sink_sees_all_rollouts(self, toy_scenario):
        cfg = tiny_cfg(meta_iterations=2)
        seen = []
        meta_train(cfg, toy_scenario, self._tasks(toy_scenario), "mpg", master_seed=0,
                  trajectory_sink=seen.append)
        expected = 2 * cfg.tasks_per_batch * (cfg.inner_rollouts + cfg.outer_rollouts)
        assert len(seen) == expected


def assert_rel(got, want, scale=None):
    """Agreement within 1e-12 of the larger of 1 and `scale` (default: the
    largest magnitude wanted)."""
    want = np.asarray(want, dtype=float)
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(np.asarray(got) - want).max(initial=0.0) <= 1e-12 * max(scale, 1.0)


def break_even(actions, width):
    """The smallest head-update rank that is folded dense."""
    return next(r for r in range(width + 1) if not factors_fit(r, actions, width))


@st.composite
def low_rank_cases(draw):
    """A small net and task data whose inner gradients have S nonzero rows,
    S drawn from 0, just below, at and above the fold break-even."""
    n_in = draw(st.integers(1, 4))
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    actions = draw(st.integers(1, 12))
    shapes = layer_shapes_for(n_in, hidden, actions)
    even = break_even(actions, shapes[-1][0])
    rng = np.random.default_rng(draw(st.integers(0, 999)))

    def trajs(nonzero):
        # one step each; a zero return gives a zero coefficient, left out of S
        rewards = [int(rng.integers(1, 4)) for _ in range(nonzero)] + [0]
        return [
            synthetic_trajectory([rng.normal(size=n_in)], [rng.integers(actions)], [r])
            for r in rewards
        ]

    ranks = st.sampled_from(sorted({0, even - 1, even, even + 2}))
    batches = [(trajs(draw(ranks)), trajs(draw(ranks))) for _ in range(draw(st.integers(1, 2)))]
    params = init_params(shapes, draw(st.integers(0, 99)))
    lr = draw(st.sampled_from([0.05, 0.5, 3.0]))
    probes = rng.normal(size=(3, n_in))
    return params, batches, lr, probes


class TestLowRankAgainstDense:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(low_rank_cases())
    def test_factored_policy_equals_the_dense_oracle(self, case):
        params, batches, lr, probes = case
        shapes, actions = params.layer_shapes, params.action_count
        width = shapes[-1][0]
        cfg = LearningConfig(inner_lr=lr, meta_lr=0.7, reward_baseline=False)
        results = []
        for inner, outer in batches:
            g = task_gradient(inner, params)
            rank = sum(1 for t in inner if t.total_reward)
            fits = factors_fit(rank, actions, width)
            assert (g.head is None) == fits and g.rank == (rank if fits else 0)
            adapted = inner_update(params, g, lr)
            assert isinstance(adapted, AdaptedParams) == fits
            flat = params.flat + lr * oracles.dense_task_gradient(inner, params.flat, shapes)
            assert_rel(adapted.folded().flat, flat)
            for x in probes:
                assert_rel(policy_net._forward_raw(adapted, x)[1], oracles.dense_logits(flat, shapes, x))
                for a in range(actions):
                    assert_rel(policy_net.log_prob(adapted, x, a), oracles.dense_log_prob(flat, shapes, x, a))
            rows = oracles.score_rows(outer + inner, False, False)
            got = policy_net.accumulate_grad_log_prob(adapted, *map(list, zip(*rows))).dense()
            scale = sum(np.abs(oracles.dense_grad(flat, shapes, [row])).max() for row in rows)
            assert_rel(got, oracles.dense_grad(flat, shapes, rows), scale)
            results.append(TaskBatchResult(dummy_task(), adapted, inner, outer))
        out = meta_update(params, results, cfg)
        assert isinstance(out, PolicyParams)
        assert_rel(out.flat, oracles.dense_meta_update(params.flat, shapes, batches, cfg))


class TestChainedUpdates:
    def _record_updates(self, monkeypatch):
        seen = []
        original = meta_rl.inner_update

        def record(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(meta_rl, "inner_update", record)
        return seen

    def _assert_pending_bounded(self, seen, params):
        width, actions = params.layer_shapes[-1]
        for prev, cur in zip([params] + seen, seen):
            if isinstance(cur, AdaptedParams):
                assert factors_fit(len(cur.d), actions, width)
                assert isinstance(prev, PolicyParams)  # never stacked on a pending update

    def _dense_chain(self, params, steps, cfg, scenario, trajs_at):
        """The dense reference: rollouts from dense parameters, the oracle
        gradient, flat + lr * g."""
        flat = params.flat
        means = []
        for s in range(steps):
            policy = PolicyParams(flat, params.layer_shapes, params.action_count)
            trajs = trajs_at(s, policy)
            means.append(float(np.mean([t.total_reward for t in trajs])))
            g = oracles.dense_task_gradient(
                trajs, flat, params.layer_shapes, cfg.reward_baseline, cfg.reward_to_go
            )
            flat = flat + cfg.inner_lr * g
        return flat, means

    @pytest.mark.parametrize("inner_rollouts", [2, 3])
    def test_adapt_matches_the_dense_chain(self, toy_scenario, monkeypatch, inner_rollouts):
        # head 8 x 16: factors fit up to rank 5, and a step has up to 2 * rollouts rows
        cfg = LearningConfig(inner_lr=0.5, inner_rollouts=inner_rollouts, reward_baseline=False,
                             hidden_sizes=(16,))
        task = env.sample_task(toy_scenario.grid, seed=1, locality_radius=1, task_id=1)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        rollout = meta_rl.make_rollout_fn("mpg", toy_scenario)

        def trajs_at(s, policy):
            rng = meta_rl._phase_rng(3, s, 0, task.id, 2)
            return [rollout(task, policy, rng) for _ in range(cfg.inner_rollouts)]

        seen = self._record_updates(monkeypatch)
        out, curve = adapt(params, task, 6, cfg, toy_scenario, master_seed=3)
        flat, means = self._dense_chain(params, 6, cfg, toy_scenario, trajs_at)
        assert isinstance(out, PolicyParams)
        assert curve == means
        assert_rel(out.flat, flat)
        assert not np.allclose(out.flat, params.flat)
        self._assert_pending_bounded(seen, params)
        if inner_rollouts == 2:  # a factored step, then a fold of it with the next
            assert {type(p) for p in seen} == {AdaptedParams, PolicyParams}

    def test_baseline_pg_matches_the_dense_chain(self, toy_scenario, monkeypatch):
        cfg = tiny_cfg(inner_lr=0.5, inner_rollouts=2, meta_iterations=6, reward_baseline=False,
                       hidden_sizes=(16,))
        tasks = TestTraining()._tasks(toy_scenario)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        rollout = meta_rl.make_rollout_fn("mpg", toy_scenario)

        def trajs_at(s, policy):
            task = tasks[s % len(tasks)]
            rng = meta_rl._phase_rng(2, s, 0, task.id, 3)
            return [rollout(task, policy, rng) for _ in range(cfg.inner_rollouts)]

        seen = self._record_updates(monkeypatch)
        out, metrics = train_baseline_pg(cfg, toy_scenario, tasks, master_seed=2, initial_params=params)
        flat, means = self._dense_chain(params, 6, cfg, toy_scenario, trajs_at)
        assert isinstance(out, PolicyParams)
        assert [m.mean_reward for m in metrics] == means
        assert_rel(out.flat, flat)
        self._assert_pending_bounded(seen, params)
        assert {type(p) for p in seen} == {AdaptedParams, PolicyParams}


class TestScenarioInterning:
    def test_task_phase_compares_scenarios_at_most_once(self, toy_scenario, monkeypatch):
        # as in a pool worker: every payload unpickles a fresh, equal scenario
        cfg = tiny_cfg()
        task = env.sample_task(toy_scenario.grid, seed=1, locality_radius=1, task_id=1)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        payload = pickle.dumps(("mpg", toy_scenario, cfg, task, params, 0, 0, 0))
        monkeypatch.setattr(meta_rl, "_SCENARIOS", {})
        env._crossings.cache_clear()
        env._link_table.cache_clear()
        compares = []
        original = env.ScenarioConfig.__eq__

        def counting(self, other):
            compares.append(1)
            return original(self, other)

        monkeypatch.setattr(env.ScenarioConfig, "__eq__", counting)
        first = meta_rl._run_task_phase(pickle.loads(payload))
        for _ in range(2):
            compares.clear()
            again = meta_rl._run_task_phase(pickle.loads(payload))
            assert len(compares) <= 1
            assert np.array_equal(again.adapted.folded().flat, first.adapted.folded().flat)
