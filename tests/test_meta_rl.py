import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_toy_scenario, reference_learning, reference_scenario
from oracles import dense_gradient, forward_one, kept_rollouts
from thzvlc import env, meta_rl, policy_net
from thzvlc.env import EnvState
from thzvlc.meta_rl import (
    adapt,
    inner_update,
    joint_decoder,
    meta_train,
    meta_update,
    rollout_joint,
    task_gradient,
    train_baseline_pg,
)
from thzvlc.policy_net import (
    AdaptedParams,
    PolicyParams,
    factors_fit,
    init_params,
    layer_shapes_for,
)


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
            oracles.Step(
                state=dummy_state(),
                encoding=np.asarray(enc, dtype=float),
                action_index=int(a),
                action=env.JointAction(vap_set=(0, 1, 2), assignments=()),
                newly_served=tuple(range(r)),
                localized=(True,) * 3,
                tx_ok=(True,) * 3,
            )
        )
    return oracles.Traj(steps, dummy_state())


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
    """`rollout_joint(..., count)`: one phase's rollouts of one task."""

    def test_count_zero(self, toy_scenario):
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=0, task_id=0)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space))
        out = rollout_joint(task, params, joint_decoder(space), toy_scenario, np.random.default_rng(0), 0)
        assert list(out.periods) == [] and len(out.kept.probs) == 0 and len(out.rows) == 0

    def test_horizon(self, toy_scenario):
        task = env.sample_task(toy_scenario.cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        space = env.enumerate_joint_actions(toy_scenario)
        params = init_params(layer_shapes_for(8, (8,), len(space)), seed=0)
        trajs = rollout_joint(task, params, joint_decoder(space), toy_scenario, np.random.default_rng(0), 3).periods
        assert len(trajs) == 3
        assert all(len(t.steps) == toy_scenario.slots_per_period for t in trajs)

    def test_point_mass_deterministic_env_identical(self, toy_scenario):
        task = env.sample_task(toy_scenario.cells_per_side, seed=2, concentration=1.0, locality_radius=0, task_id=2)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space), favored=3)
        trajs = list(rollout_joint(task, params, joint_decoder(space), toy_scenario, np.random.default_rng(0), 5).periods)
        assert all(trajectories_equal(trajs[0], t) for t in trajs[1:])


@st.composite
def lockstep_cases(draw):
    """A toy room, a dense or adapted (pending) policy whose head is at most
    4 wide, so batches above 4 distinct encodings take more than one row
    block, and a seed for tasks and draws."""
    kind = draw(st.sampled_from(("mpg", "dmpg")))
    scenario = make_toy_scenario(num_users=draw(st.sampled_from((2, 3))))
    seed = draw(st.integers(0, 2**16))
    params = meta_rl.new_policy(kind, scenario, reference_learning(hidden_sizes=(4,)), seed)
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        zero = policy_net.Gradient.zero(params.layer_shapes)
        grad = policy_net.Gradient(
            rng.normal(size=zero.body.shape), rng.normal(size=zero.bias.shape),
            rng.normal(size=(1, params.action_count)), rng.normal(size=(1, 4)),
        )
        params = policy_net.ascend(params, grad, 0.7)
        assert isinstance(params, AdaptedParams)
    return kind, scenario, params, seed


def assert_same_rollouts(got, want):
    """Step for step, the periods `got` and the reference rollouts `want`:
    states, action indices, actions and outcomes, with the package's types,
    and the returns."""
    assert len(got) == len(want)
    assert got.returns.tolist() == [b.total_reward for b in want]
    for a, b in zip(got, want):
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert sa.state == sb.state
            assert sa.action_index == sb.action_index
            assert sa.action == sb.action
            assert (sa.newly_served, sa.localized, sa.tx_ok) == (sb.newly_served, sb.localized, sb.tx_ok)
            fields = (*sa.state.user_cells, *sa.state.served, sa.state.slot_index, sa.action_index,
                      *sa.newly_served, *sa.localized, *sa.tx_ok, *sa.action.vap_set,
                      *(x for pair in sa.action.assignments for x in pair))
            assert {type(x) for x in fields} <= {int, bool}
            assert {type(x) for x in sa.state.user_heights} == {float}
        assert a.final_state == b.final_state


class TestLockstep:
    """A lockstep batch equals its rows rolled one period at a time by the
    reference loop, and leaves the rng where those rollouts leave it."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(lockstep_cases(), st.sampled_from((0, 1)), st.integers(0, 9))
    def test_phase_equals_sequential_rollouts(self, case, locality, count):
        kind, scenario, params, seed = case
        task = env.sample_task(scenario.cells_per_side, seed=seed, concentration=1.0, locality_radius=locality, task_id=seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        head = meta_rl.policy_head(kind, scenario)
        got = head.rollout(task, params, head.decode, scenario, rng, count).periods
        decode = oracles.decoder(kind, scenario)
        want = [oracles.rollout(task, params, decode, scenario, ref_rng) for _ in range(count)]
        assert_same_rollouts(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lockstep_cases(), st.lists(st.integers(0, 3), max_size=11))
    def test_evaluation_batch_equals_sequential_rollouts(self, case, picks):
        # tasks from a pool of four (moving and static), repeats allowed, one rng per row
        kind, scenario, params, seed = case
        pool = [
            env.sample_task(scenario.cells_per_side, seed=seed + i, concentration=1.0, locality_radius=i % 2, task_id=i)
            for i in range(4)
        ]
        tasks = [pool[i] for i in picks]
        rngs = [np.random.default_rng([seed, i]) for i in range(len(tasks))]
        draws = [meta_rl.draw_uniforms(rng, 1, scenario) for rng in rngs]
        decode = meta_rl.policy_head(kind, scenario).decode
        shape = (len(tasks), scenario.slots_per_period, 1 + scenario.num_users)
        got = meta_rl.rollout_period(tasks, params, decode, scenario, np.array(draws).reshape(shape), False)
        assert got.kept is None and got.rows is None
        got = got.periods
        ref_rngs = [np.random.default_rng([seed, i]) for i in range(len(tasks))]
        want = [oracles.rollout(t, params, oracles.decoder(kind, scenario), scenario, r)
                for t, r in zip(tasks, ref_rngs)]
        assert_same_rollouts(got, want)
        for a, b in zip(rngs, ref_rngs):
            assert a.bit_generator.state == b.bit_generator.state

    def test_draws_are_the_sequential_draw_order(self, toy_scenario):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        block = meta_rl.draw_uniforms(rng, 10, toy_scenario)
        for row in block:
            for slot in row:
                assert slot[0] == ref.random()
                assert np.array_equal(slot[1:], ref.random(toy_scenario.num_users))

    def test_uniforms_must_match_the_batch(self, toy_scenario):
        params = meta_rl.new_policy("mpg", toy_scenario, reference_learning(hidden_sizes=(4,)), 0)
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=1, task_id=0)
        decode = meta_rl.policy_head("mpg", toy_scenario).decode
        uniforms = meta_rl.draw_uniforms(np.random.default_rng(0), 2, toy_scenario)
        with pytest.raises(ValueError, match="uniforms"):
            meta_rl.rollout_period([task] * 3, params, decode, toy_scenario, uniforms, True)


class TestArrayRollouts:
    """The array loop equals the loop that built one object per step
    (`oracles.object_rollouts`): the same steps with the same types, and,
    kept, the same forward values bit for bit in the same row order."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(lockstep_cases(), st.lists(st.integers(0, 3), max_size=9), st.booleans(), st.booleans())
    def test_equals_the_object_loop(self, case, picks, keep, phase):
        kind, scenario, params, seed = case
        pool = [  # moving and static tasks; two with one seed, so equal heights
            env.sample_task(scenario.cells_per_side, seed=seed + i % 3, concentration=1.0, locality_radius=i % 2,
                            task_id=i)
            for i in range(4)
        ]
        tasks = [pool[0]] * len(picks) if phase else [pool[i] for i in picks]
        uniforms = meta_rl.draw_uniforms(np.random.default_rng(seed), len(tasks), scenario)
        decode = meta_rl.policy_head(kind, scenario).decode
        got = meta_rl.rollout_period(tasks, params, decode, scenario, uniforms, keep)
        want, kept, rows = oracles.object_rollouts(tasks, params, oracles.decoder(kind, scenario), scenario,
                                                   uniforms, keep)
        assert_same_rollouts(got.periods, want)
        assert len(got.periods) == len(tasks)
        if not keep:
            assert got.kept is None and got.rows is None
            return
        assert np.array_equal(got.rows, rows)
        for a, b in zip((*got.kept.inputs, got.kept.probs), (*kept.inputs, kept.probs)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
        encodings = [s.encoding for t in want for s in t.steps]
        assert all(np.array_equal(got.kept.inputs[0][r], x) for r, x in zip(got.rows, encodings))

    @pytest.mark.parametrize("kind", ["mpg", "dmpg"])
    def test_states_of_other_heights_stay_apart(self, kind):
        # one cell: every user of every task stands in it, and the tasks'
        # states differ by their heights alone
        scenario = make_toy_scenario(cells_per_side=1)
        params = meta_rl.new_policy(kind, scenario, reference_learning(hidden_sizes=(4,)), 0)
        tasks = [env.sample_task(1, seed=s, concentration=1.0, locality_radius=0, task_id=s) for s in (0, 1, 0)]
        uniforms = meta_rl.draw_uniforms(np.random.default_rng(0), 3, scenario)
        got = meta_rl.rollout_period(tasks, params, meta_rl.policy_head(kind, scenario).decode, scenario,
                                     uniforms, True)
        want, kept, rows = oracles.object_rollouts(tasks, params, oracles.decoder(kind, scenario), scenario,
                                                   uniforms, True)
        assert_same_rollouts(got.periods, want)
        assert np.array_equal(got.rows, rows) and got.kept.probs.tobytes() == kept.probs.tobytes()
        assert got.rows[0] == got.rows[2 * scenario.slots_per_period] != got.rows[scenario.slots_per_period]

    def test_periods_are_read_only_and_steps_built_once(self, toy_scenario):
        params = meta_rl.new_policy("dmpg", toy_scenario, reference_learning(hidden_sizes=(4,)), 0)
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=1, task_id=0)
        rollouts = rollout_joint(task, params, meta_rl.policy_head("dmpg", toy_scenario).decode, toy_scenario,
                                 np.random.default_rng(0), 3)
        for a in vars(rollouts.periods).values():
            assert not a.flags.writeable
        traj = rollouts.periods[1]
        assert traj.steps is traj.steps and traj.final_state is traj.final_state


class TestTaskGradient:
    def test_zero_returns_zero_gradient(self):
        params = init_params(((2, 4), (4, 3)), seed=0)
        trajs = kept_rollouts([synthetic_trajectory([[0.1, 0.2]], [i % 3], [0]) for i in range(4)], params)
        assert np.all(dense_gradient(task_gradient(trajs, params, reward_baseline=False, reward_to_go=False)) == 0.0)

    def test_identical_returns_with_baseline(self):
        params = init_params(((2, 4), (4, 3)), seed=1)
        trajs = kept_rollouts([synthetic_trajectory([[0.1, 0.2]], [i % 3], [2]) for i in range(4)], params)
        g = task_gradient(trajs, params, reward_baseline=True, reward_to_go=False)
        assert np.all(dense_gradient(g) == 0.0)

    def test_bandit_estimator_unbiased(self):
        # single-state 2-action bandit, rewards 1 and 3
        shapes = ((2, 2),)
        params = init_params(shapes, seed=4)
        x = np.array([1.0, 0.5])
        rewards = {0: 1, 1: 3}

        def exact_value(p):
            d = forward_one(p, x)
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
        dist = forward_one(params, x)
        n = 30_000
        samples = np.empty((n, params.size))
        for s in range(n):
            a = policy_net.sample_action(dist, rng)
            traj = kept_rollouts([synthetic_trajectory([x], [a], [rewards[a]])], params)
            samples[s] = dense_gradient(task_gradient(traj, params, reward_baseline=False, reward_to_go=False))
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
        dist = forward_one(params, x)
        n = 30_000
        plain = np.empty((n, params.size))
        baselined = np.empty((n, params.size))
        for s in range(n):
            pair = [policy_net.sample_action(dist, rng) for _ in range(2)]
            trajs = kept_rollouts([synthetic_trajectory([x], [a], [rewards[a]]) for a in pair], params)
            plain[s] = dense_gradient(task_gradient(trajs, params, reward_baseline=False, reward_to_go=False))
            baselined[s] = dense_gradient(task_gradient(trajs, params, reward_baseline=True, reward_to_go=False))
        diff = baselined.mean(axis=0) - plain.mean(axis=0)
        sem = (baselined - plain).std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(diff) <= 3 * sem + 1e-9)

    def test_empty_rejected(self):
        params = init_params(((2, 2),), seed=0)
        with pytest.raises(ValueError):
            task_gradient(meta_rl.Rollouts([], None, None), params, reward_baseline=False, reward_to_go=False)

    def test_all_zero_coefficients_skip_the_kernel(self, monkeypatch):
        params = init_params(((2, 4), (4, 3)), seed=1)
        calls = []
        monkeypatch.setattr(policy_net, "accumulate_grad_log_prob", lambda *a: calls.append(a))
        zero = kept_rollouts([synthetic_trajectory([[0.1, 0.2]] * 2, [i % 3, 1], [0, 0]) for i in range(3)], params)
        equal = kept_rollouts([synthetic_trajectory([[0.1, 0.2]], [i % 3], [2]) for i in range(4)], params)
        assert np.all(dense_gradient(task_gradient(zero, params, reward_baseline=False, reward_to_go=False)) == 0.0)
        assert np.all(dense_gradient(task_gradient(equal, params, reward_baseline=True, reward_to_go=False)) == 0.0)
        assert calls == []

    def test_one_kernel_call_over_nonzero_steps_in_order(self, monkeypatch):
        params = init_params(((2, 4), (4, 3)), seed=2)
        trajs = kept_rollouts([
            synthetic_trajectory([[0.1, 0.2], [0.3, 0.4]], [0, 1], [1, 0]),
            synthetic_trajectory([[0.5, 0.6], [0.7, 0.8]], [2, 0], [0, 0]),
            synthetic_trajectory([[0.9, 1.0], [0.1, 0.1]], [1, 2], [3, 0]),
        ], params)
        calls = []
        original = policy_net.accumulate_grad_log_prob

        def spy(params, kept, rows, action_indices, coeffs):
            calls.append((kept.inputs[0][rows], list(action_indices), list(coeffs)))
            return original(params, kept, rows, action_indices, coeffs)

        monkeypatch.setattr(policy_net, "accumulate_grad_log_prob", spy)
        g = task_gradient(trajs, params, reward_to_go=True, reward_baseline=False)
        assert len(calls) == 1
        encodings, actions, coeffs = calls[0]
        # reward-to-go: 1 then 0 for the first trajectory, 0 and 0 for the
        # second, 3 then 0 for the third
        assert encodings.tolist() == [[0.1, 0.2], [0.9, 1.0]]
        assert actions == [0, 1]
        assert coeffs == [1 / 3, 3 / 3]
        want = (oracles.grad_log_prob(params, np.array([0.1, 0.2]), 0)
                + 3 * oracles.grad_log_prob(params, np.array([0.9, 1.0]), 1)) / 3
        assert np.allclose(dense_gradient(g), want, rtol=1e-12, atol=1e-15)


class TestInnerUpdate:
    def test_zero_gradient_fixed_point(self):
        params = init_params(((2, 3),), seed=0)
        g = oracles.flat_gradient(np.zeros(params.size), params.layer_shapes)
        out = inner_update(params, g, 0.1)
        assert np.array_equal(out.flat, params.flat)

    def test_zero_rate_fixed_point(self):
        params = init_params(((2, 3),), seed=0)
        g = oracles.flat_gradient(np.ones(params.size), params.layer_shapes)
        out = inner_update(params, g, 0.0)
        assert np.array_equal(out.flat, params.flat)

    def test_unit_gradient_shift(self):
        params = init_params(((2, 3),), seed=0)
        g = oracles.flat_gradient(np.ones(params.size), params.layer_shapes)
        out = inner_update(params, g, 0.1)
        assert np.allclose(out.flat - params.flat, 0.1, atol=1e-15)

    def test_ascent_improves_bandit(self):
        shapes = ((2, 2),)
        params = init_params(shapes, seed=8)
        x = np.array([1.0, 0.5])
        rewards = np.array([1.0, 3.0])

        def exact_value(p):
            return float(forward_one(p, x) @ rewards)

        # exact gradient via the score identity
        dist = forward_one(params, x)
        g = np.zeros(params.size)
        for a in range(2):
            g += dist[a] * rewards[a] * oracles.grad_log_prob(params, x, a)
        g = oracles.flat_gradient(g, shapes)
        for lr in (0.01, 0.05, 0.1):
            assert exact_value(inner_update(params, g, lr)) >= exact_value(params)


def make_fixture_task(rng, cfg, shapes=((3, 4), (4, 3))):
    """Synthetic task data consistent with the inner update: the shared
    parameters and the task's (adapted policy, inner, outer) triple."""
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
    g = task_gradient(kept_rollouts(inner, params), params, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(params, g, cfg.inner_lr)
    return params, (adapted, inner, random_trajs(4))


def updated(params, gradients, cfg):
    """`meta_update` folded into a working copy of params, as `meta_train`
    folds it; params stays as it was."""
    work = PolicyParams(params.flat.copy(), params.layer_shapes, params.action_count)
    assert meta_update(work, gradients, cfg) is None
    return work


class TestMetaUpdate:
    def test_zero_task_gradients_leave_params(self):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2)
        params = init_params(((2, 3),), seed=0)
        trajs = kept_rollouts([synthetic_trajectory([[0.0, 0.1]], [i % 3], [0]) for i in range(3)], params)
        out = updated(params, [task_gradient(trajs, params, cfg.reward_baseline, cfg.reward_to_go)], cfg)
        assert np.array_equal(out.flat, params.flat)

    def test_converged_point_mass_update_is_tiny(self, toy_scenario):
        cfg = reference_learning(
            inner_lr=0.1, meta_lr=0.1, inner_rollouts=3, outer_rollouts=3,
            reward_baseline=False, hidden_sizes=(8,),
        )
        task = env.sample_task(toy_scenario.cells_per_side, seed=3, concentration=1.0, locality_radius=0, task_id=3)
        space = env.enumerate_joint_actions(toy_scenario)
        params = point_mass_params(toy_scenario, len(space), favored=0)
        rng = np.random.default_rng(1)
        decode = joint_decoder(space)
        inner = rollout_joint(task, params, decode, toy_scenario, rng, 3)
        g = task_gradient(inner, params, cfg.reward_baseline, reward_to_go=False)
        adapted = inner_update(params, g, cfg.inner_lr)
        outer = rollout_joint(task, adapted, decode, toy_scenario, rng, 3)
        g_outer = task_gradient(outer, adapted, cfg.reward_baseline, reward_to_go=False)
        out = updated(params, [g_outer], cfg)
        assert np.linalg.norm(out.flat - params.flat) < 1e-6

    def test_first_order_vs_fd_cosine(self):
        rng = np.random.default_rng(40)
        cos = []
        for _ in range(8):
            cfg = reference_learning(
                inner_lr=0.05, meta_lr=0.01, inner_rollouts=6, outer_rollouts=4,
                reward_baseline=True,
            )
            params, task = make_fixture_task(rng, cfg)
            adapted, _, outer = task
            g_outer = task_gradient(kept_rollouts(outer, adapted), adapted, cfg.reward_baseline, cfg.reward_to_go)
            first = updated(params, [g_outer], cfg)
            fd = oracles.fd_meta_update(params.flat, params.layer_shapes, [task], cfg)
            da = first.flat - params.flat
            db = fd - params.flat
            denom = np.linalg.norm(da) * np.linalg.norm(db)
            if denom == 0:
                continue
            cos.append(float(da @ db) / denom)
        assert cos and min(cos) > 0.8


class TestAdapt:
    def test_zero_steps(self, toy_scenario):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=0, task_id=0)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        out, curve = adapt(params, task, 0, cfg, toy_scenario, kind="mpg", master_seed=0)
        assert curve == []
        assert np.array_equal(out.flat, params.flat)

    def test_curve_length(self, toy_scenario):
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=2, hidden_sizes=(8,))
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=1, task_id=0)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        _, curve = adapt(params, task, 4, cfg, toy_scenario, kind="mpg", master_seed=0)
        assert len(curve) == 4


def tiny_cfg(**kw):
    defaults = dict(
        inner_lr=0.1, meta_lr=0.05, inner_rollouts=3, outer_rollouts=2,
        meta_iterations=3, tasks_per_batch=2, hidden_sizes=(8,),
    )
    defaults.update(kw)
    return reference_learning(**defaults)


class TestTraining:
    def _tasks(self, scenario, n=3):
        return [
            env.sample_task(scenario.cells_per_side, seed=s, concentration=1.0, locality_radius=1, task_id=s)
            for s in range(n)
        ]

    def test_zero_iterations_returns_initial(self, toy_scenario):
        cfg = tiny_cfg(meta_iterations=0)
        tasks = self._tasks(toy_scenario)
        init = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        params, metrics = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=0, initial_params=init,
                                     workers=1)
        assert metrics == []
        assert np.array_equal(params.flat, init.flat)

    def test_metrics_length(self, toy_scenario):
        cfg = tiny_cfg()
        tasks = self._tasks(toy_scenario)
        params, metrics = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=1, workers=1)
        assert len(metrics) == cfg.meta_iterations
        assert [m.iteration for m in metrics] == [0, 1, 2]

    def test_deterministic_across_runs(self, toy_scenario):
        cfg = tiny_cfg()
        tasks = self._tasks(toy_scenario)
        p1, m1 = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=7, workers=1)
        p2, m2 = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=7, workers=1)
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

    def test_pool_holds_at_most_one_worker_per_task(self, toy_scenario, monkeypatch):
        # the stand-in pool records its size and runs the phases in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, payloads):
                return map(fn, payloads)

            def shutdown(self):
                pass

        monkeypatch.setattr(meta_rl, "ProcessPoolExecutor", RecordingPool)
        cfg = tiny_cfg(meta_iterations=1, tasks_per_batch=3)
        tasks = self._tasks(toy_scenario)
        want, _ = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=3, workers=1)
        for workers in (2, 3, 4, 100_000):
            got, _ = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=3, workers=workers)
            assert np.array_equal(got.flat, want.flat)
        assert sizes == [2, 3, 3, 3]

    def test_baseline_pg_deterministic(self, toy_scenario):
        cfg = tiny_cfg()
        tasks = self._tasks(toy_scenario)
        p1, m1 = train_baseline_pg(cfg, toy_scenario, tasks, "mpg", master_seed=2)
        p2, m2 = train_baseline_pg(cfg, toy_scenario, tasks, "mpg", master_seed=2)
        assert np.array_equal(p1.flat, p2.flat)
        assert len(m1) == cfg.meta_iterations
        assert [m.mean_reward for m in m1] == [m.mean_reward for m in m2]

    def test_baseline_pg_converges_near_oracle_on_fixed_task(self):
        sc = make_toy_scenario(fov_deg=70.0)
        task = env.sample_task(sc.cells_per_side, seed=10, concentration=1.0, locality_radius=0, task_id=10)
        best, _ = env.brute_force_oracle(task, sc, 0)
        cfg = reference_learning(
            inner_lr=0.1, meta_lr=0.05, inner_rollouts=10, outer_rollouts=10,
            meta_iterations=250, tasks_per_batch=1, hidden_sizes=(32,),
        )
        _, metrics = train_baseline_pg(cfg, sc, [task], "mpg", master_seed=0)
        final = np.mean([m.mean_reward for m in metrics[-10:]])
        assert final >= 0.9 * best

    def test_meta_training_beats_plain_pg_on_rotating_stream(self):
        sc = make_toy_scenario(fov_deg=70.0)
        tasks = [
            env.sample_task(sc.cells_per_side, seed=s, concentration=1.0, locality_radius=0, task_id=s)
            for s in (10, 15, 2, 13, 17)
        ]
        cfg = reference_learning(
            inner_lr=0.1, meta_lr=0.1, inner_rollouts=10, outer_rollouts=10,
            meta_iterations=150, tasks_per_batch=5, hidden_sizes=(32,),
        )
        _, pg_metrics = train_baseline_pg(cfg, sc, tasks, "mpg", master_seed=0)
        _, mpg_metrics = meta_train(cfg, sc, tasks, "mpg", master_seed=0, workers=1)
        pg_final = np.mean([m.mean_reward for m in pg_metrics[-10:]])
        mpg_final = np.mean([m.mean_reward for m in mpg_metrics[-10:]])
        assert pg_final <= mpg_final

    def test_trajectory_sink_sees_all_rollouts(self, toy_scenario):
        cfg = tiny_cfg(meta_iterations=2)
        seen = []
        meta_train(cfg, toy_scenario, self._tasks(toy_scenario), "mpg", master_seed=0, workers=1,
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
        cfg = reference_learning(inner_lr=lr, meta_lr=0.7, reward_baseline=False)
        gradients = []
        for inner, outer in batches:
            g = task_gradient(kept_rollouts(inner, params), params, reward_baseline=False, reward_to_go=False)
            rank = sum(1 for t in inner if t.total_reward)
            fits = factors_fit(rank, actions, width)
            assert (g.head is None) == fits and g.rank == (rank if fits else 0)
            adapted = inner_update(params, g, lr)
            assert isinstance(adapted, AdaptedParams) == fits
            flat = params.flat + lr * oracles.dense_task_gradient(inner, params.flat, shapes)
            assert_rel(adapted.folded().flat, flat)
            for x in probes:
                assert_rel(policy_net._forward_rows(*policy_net._layers(adapted), x[None])[1][0], oracles.dense_logits(flat, shapes, x))
                for a in range(actions):
                    assert_rel(oracles.log_prob(adapted, x, a), oracles.dense_log_prob(flat, shapes, x, a))
            rows = oracles.score_rows(outer + inner, False, False)
            got = dense_gradient(oracles.kept_grad_log_prob(adapted, *map(list, zip(*rows))))
            scale = sum(np.abs(oracles.dense_grad(flat, shapes, [row])).max() for row in rows)
            assert_rel(got, oracles.dense_grad(flat, shapes, rows), scale)
            gradients.append(task_gradient(kept_rollouts(outer, adapted), adapted, reward_baseline=False, reward_to_go=False))
        out = updated(params, gradients, cfg)
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
        cfg = reference_learning(inner_lr=0.5, inner_rollouts=inner_rollouts, reward_baseline=False,
                             hidden_sizes=(16,))
        task = env.sample_task(toy_scenario.cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        decode = oracles.decoder("mpg", toy_scenario)

        def trajs_at(s, policy):
            rng = meta_rl._phase_rng(3, s, 0, task.id, 2)
            return [oracles.rollout(task, policy, decode, toy_scenario, rng)
                    for _ in range(cfg.inner_rollouts)]

        seen = self._record_updates(monkeypatch)
        out, curve = adapt(params, task, 6, cfg, toy_scenario, kind="mpg", master_seed=3)
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
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=2)  # the run's own start
        decode = oracles.decoder("mpg", toy_scenario)

        def trajs_at(s, policy):
            task = tasks[s % len(tasks)]
            rng = meta_rl._phase_rng(2, s, 0, task.id, 3)
            return [oracles.rollout(task, policy, decode, toy_scenario, rng)
                    for _ in range(cfg.inner_rollouts)]

        seen = self._record_updates(monkeypatch)
        out, metrics = train_baseline_pg(cfg, toy_scenario, tasks, "mpg", master_seed=2)
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
        task = env.sample_task(toy_scenario.cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        params = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        payload = pickle.dumps(("mpg", toy_scenario, cfg, task, params, 0, 0, 0))
        monkeypatch.setattr(meta_rl, "_SCENARIO", None)
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
            assert np.array_equal(dense_gradient(again.gradient), dense_gradient(first.gradient))


    def test_training_a_second_room_releases_the_first(self):
        # room sides no other test uses, so the held scenario is one of these
        rooms = [make_toy_scenario(num_users=u, room_side=5.5) for u in (2, 3)]
        for scenario in rooms:
            tasks = [env.sample_task(scenario.cells_per_side, seed=s, concentration=1.0, locality_radius=1,
                                     task_id=s) for s in range(2)]
            meta_train(tiny_cfg(), scenario, tasks, "mpg", master_seed=0, workers=1)
        first, second = (weakref.ref(s) for s in rooms)
        del rooms, scenario
        gc.collect()
        assert first() is None
        assert second() is not None


class TestTaskPhaseResult:
    def test_result_is_far_smaller_than_the_policy(self):
        # the 4-user joint head (29,400 actions, 1.9 M parameters): a task
        # sends back its outer gradient and rollouts, never a policy
        scenario = reference_scenario(num_users=4)
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=1, reward_baseline=False)
        task = env.sample_task(scenario.cells_per_side, seed=1, concentration=1.0, locality_radius=1, task_id=1)
        params = meta_rl.new_policy("mpg", scenario, cfg, seed=0)
        result = meta_rl._run_task_phase(("mpg", scenario, cfg, task, params, 0, 0, 0))
        assert len(pickle.dumps(result)) < params.flat.nbytes / 10


def random_pending(params, seed):
    """params with one random rank-1 head update pending on it."""
    rng = np.random.default_rng(seed)
    zero = policy_net.Gradient.zero(params.layer_shapes)
    grad = policy_net.Gradient(
        rng.normal(size=zero.body.shape), rng.normal(size=zero.bias.shape),
        rng.normal(size=(1, params.action_count)), rng.normal(size=(1, params.layer_shapes[-1][0])),
    )
    adapted = policy_net.ascend(params, grad, 0.7)
    assert isinstance(adapted, AdaptedParams)
    return adapted


class TestKeptGradient:
    """`task_gradient` reads the rollouts' kept forward values; the
    recomputing kernel of `tests/oracles.py`, one row per step, is its
    reference."""

    @pytest.mark.parametrize("kind", ["mpg", "dmpg"])
    @pytest.mark.parametrize("hidden", [(2,), (4, 3), (16,)])
    @pytest.mark.parametrize("pending", [False, True])
    def test_equals_the_recomputing_kernel(self, kind, hidden, pending):
        seen = set()
        for seed in range(12):
            scenario = make_toy_scenario(num_users=2 + seed % 2)
            params = meta_rl.new_policy(kind, scenario, reference_learning(hidden_sizes=hidden), seed)
            if pending:
                params = random_pending(params, seed)
            task = env.sample_task(scenario.cells_per_side, seed=seed, concentration=1.0,
                                   locality_radius=seed % 2, task_id=seed)
            head = meta_rl.policy_head(kind, scenario)
            rollouts = head.rollout(task, params, head.decode, scenario, np.random.default_rng(seed), 1 + seed % 6)
            for baseline, to_go in ((False, False), (True, False), (False, True), (True, True)):
                g = task_gradient(rollouts, params, baseline, to_go)
                scored = oracles.score_rows(oracles.encoded(rollouts.periods, scenario), baseline, to_go)
                steps = [i for i, (_, _, c) in enumerate(scored) if c != 0.0]
                rows = [scored[i] for i in steps]
                merged = len(set(rollouts.rows[steps].tolist()))
                fits = factors_fit(merged, params.action_count, hidden[-1])
                assert (g.head is None) == fits and g.rank == (merged if fits else 0)
                seen.add(("factored" if fits else "dense", merged < len(steps)))
                if not rows:
                    assert np.all(dense_gradient(g) == 0.0)
                    continue
                want = dense_gradient(oracles.recompute_grad_log_prob(params, *map(list, zip(*rows))))
                scale = sum(np.abs(dense_gradient(oracles.recompute_grad_log_prob(params, [x], [a], [c]))).max()
                            for x, a, c in rows)
                assert_rel(dense_gradient(g), want, scale)
        # one-row slots and merged rows on both paths, where the head is narrow
        if hidden != (16,):
            assert {("dense", True), ("dense", False)} <= seen
        assert any(path == "factored" for path, _ in seen)

    def test_steps_of_one_row_merge(self, toy_scenario):
        # slot 0 starts every period of a task from one state: one kept row
        params = meta_rl.new_policy("mpg", toy_scenario, reference_learning(hidden_sizes=(16,)), 0)
        task = env.sample_task(toy_scenario.cells_per_side, seed=0, concentration=1.0, locality_radius=1, task_id=0)
        rollouts = rollout_joint(task, params, meta_rl.policy_head("mpg", toy_scenario).decode, toy_scenario,
                                 np.random.default_rng(0), 4)
        slots = toy_scenario.slots_per_period
        assert np.all(rollouts.rows[::slots] == 0)
        assert len(rollouts.kept.probs) == len(set(rollouts.rows.tolist())) < 4 * slots
        assert not rollouts.kept.probs.flags.writeable
        g = task_gradient(rollouts, params, reward_baseline=False, reward_to_go=False)
        nonzero = np.repeat(rollouts.periods.returns != 0, slots)
        assert g.rank == len(set(rollouts.rows[nonzero].tolist())) < sum(nonzero)


class TestWorkingVector:
    """`meta_train` folds each batch into its own copy of the initial vector."""

    def test_in_place_fold_equals_fold(self):
        # a 9000-action head: three blocks of head rows; factored and dense
        # head gradients in one batch
        shapes = layer_shapes_for(3, (4,), 9000)
        params = init_params(shapes, seed=0)
        rng = np.random.default_rng(1)
        zero = policy_net.Gradient.zero(shapes)

        def factored(rank):
            return policy_net.Gradient(rng.normal(size=zero.body.shape), rng.normal(size=zero.bias.shape),
                                       rng.normal(size=(rank, 9000)), rng.normal(size=(rank, 4)))

        dense = oracles.flat_gradient(rng.normal(size=params.size), shapes)
        cfg = reference_learning(meta_lr=0.3)
        for grads in ([factored(2)], [dense], [factored(3), dense, factored(1)], [dense, dense]):
            want = policy_net.fold(params, grads, cfg.meta_lr)
            got = updated(params, grads, cfg)
            assert got.flat.tobytes() == want.flat.tobytes()
            assert not got.flat.flags.writeable
            assert_rel(got.flat, params.flat + cfg.meta_lr * sum(dense_gradient(g) for g in grads) / len(grads))

    def test_non_finite_update_refused(self):
        params = init_params(((2, 3),), seed=0)
        g = oracles.flat_gradient(np.full(params.size, 1e308), params.layer_shapes)
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            updated(params, [g], reference_learning(meta_lr=1000.0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_meta_train_returns_the_fold_loop_and_writes_no_vector_it_shares(self, toy_scenario, workers):
        cfg = tiny_cfg(meta_iterations=3)
        tasks = TestTraining()._tasks(toy_scenario)
        init = meta_rl.new_policy("mpg", toy_scenario, cfg, seed=0)
        before = init.flat.tobytes()
        got, _ = meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=5, initial_params=init, workers=workers)
        assert init.flat.tobytes() == before
        params = init
        for it in range(cfg.meta_iterations):
            batch = [tasks[(it * cfg.tasks_per_batch + k) % len(tasks)] for k in range(cfg.tasks_per_batch)]
            results = [meta_rl._run_task_phase(("mpg", toy_scenario, cfg, task, params, 5, it, slot))
                       for slot, task in enumerate(batch)]
            params = policy_net.fold(params, [r.gradient for r in results], cfg.meta_lr)
        assert got.flat.tobytes() == params.flat.tobytes()
        returned = got.flat.tobytes()
        meta_train(cfg, toy_scenario, tasks, "mpg", master_seed=6, initial_params=got, workers=workers)
        assert got.flat.tobytes() == returned

    def test_training_call_peak_below_two_vectors(self):
        # the 4-user joint head (29,400 actions, 1.9 M parameters), 6 meta
        # iterations of 2 tasks: one working vector, no second one per update
        import tracemalloc

        scenario = reference_scenario(num_users=4)
        cfg = reference_learning(inner_rollouts=2, outer_rollouts=1, reward_baseline=False,
                                 meta_iterations=6, tasks_per_batch=2)
        tasks = [env.sample_task(scenario.cells_per_side, seed=s, concentration=1.0, locality_radius=1, task_id=s)
                 for s in range(4)]
        params = meta_rl.new_policy("mpg", scenario, cfg, seed=0)
        tracemalloc.start()
        try:
            meta_train(cfg, scenario, tasks, "mpg", master_seed=0, initial_params=params, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * params.flat.nbytes, peak / params.flat.nbytes


def test_evaluation_holds_one_slot_block():
    # 30 evaluation periods on the 4-user joint head: each slot's (30,
    # 29,400) block of probabilities is freed before the next forward
    import tracemalloc

    scenario = reference_scenario(num_users=4)
    params = meta_rl.new_policy("mpg", scenario, reference_learning(), 0)
    tasks = [env.sample_task(scenario.cells_per_side, seed=s, concentration=1.0, locality_radius=1, task_id=s)
             for s in range(30)]
    decode = meta_rl.policy_head("mpg", scenario).decode
    uniforms = meta_rl.draw_uniforms(np.random.default_rng(0), 30, scenario)
    meta_rl.rollout_period(tasks, params, decode, scenario, uniforms, False)  # link tables built
    tracemalloc.start()
    try:
        meta_rl.rollout_period(tasks, params, decode, scenario, uniforms, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 30 * params.action_count * 8
    assert peak < 1.5 * block, peak / block
