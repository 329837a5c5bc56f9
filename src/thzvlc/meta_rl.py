"""Meta policy-gradient training.

Each meta iteration runs two phases per task: a task-learning step
(REINFORCE gradient on K rollouts, one ascent step with the inner rate)
and a meta-learning step (gradient of the post-adaptation objective on K'
rollouts, applied to the shared initialization with the meta rate). The
default meta gradient is the first-order approximation; a finite-difference
second-order mode exists for small networks so tests can bound the
approximation error.

Reproducibility: every rollout draws from an rng stream keyed by
(master seed, iteration, batch slot, task id, phase), so results are
identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import env, policy_net
from .env import JointActionSpace, ScenarioConfig, Task, Trajectory, TrajectoryStep
from .policy_net import Gradient, Policy, PolicyParams

FD_PARAM_GUARD = 2000


@dataclass(frozen=True)
class LearningConfig:
    """Training constants; the inner/outer rollout counts are per task."""

    inner_lr: float = 0.1
    meta_lr: float = 0.01
    inner_rollouts: int = 50
    outer_rollouts: int = 10
    meta_iterations: int = 200
    tasks_per_batch: int = 20
    reward_baseline: bool = True
    reward_to_go: bool = False
    meta_order: str = "first_order"
    hidden_sizes: tuple[int, ...] = (64, 64)
    fd_epsilon: float = 1e-5

    def __post_init__(self):
        if self.inner_lr <= 0 or self.meta_lr <= 0:
            raise ValueError("learning rates must be positive")
        if min(self.inner_rollouts, self.outer_rollouts) < 1:
            raise ValueError("rollout counts must be >= 1")
        if self.meta_iterations < 0 or self.tasks_per_batch < 1:
            raise ValueError("meta_iterations must be >= 0 and tasks_per_batch >= 1")
        if self.meta_order not in ("first_order", "fd_second_order"):
            raise ValueError(f"unknown meta_order {self.meta_order!r}")


@dataclass
class TaskBatchResult:
    """Everything one task contributes to a meta update."""

    task: Task
    adapted: Policy
    inner_trajs: list[Trajectory]
    outer_trajs: list[Trajectory]


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    mean_reward: float
    std_reward: float
    wall_clock_s: float


# ---------------------------------------------------------------------------
# Rollouts


def rollout_period(
    task: Task,
    params: PolicyParams,
    decode,
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    realization: env.MobilityRealization | None = None,
) -> Trajectory:
    """One period: per slot, sample an action index, decode it, serve, move.

    `decode(index, state, links)` turns the sampled index and the slot state
    into the JointAction that is evaluated; `links` are the state's
    `env.slot_links`, computed once per slot for the decoder and the service
    evaluation. The rng is drawn by the action sample and then by the users'
    moves, unless a fixed realization supplies them.
    """
    state = env.reset(task, scenario)
    if realization is not None:
        state = env.state_at_slot(realization, 0, state.served)
    steps = []
    for t in range(scenario.slots_per_period):
        enc = policy_net.encode_state(state, scenario)
        dist = policy_net.forward(params, enc)
        idx = policy_net.sample_action(dist, rng)
        links = env.slot_links(state, scenario)
        action = decode(idx, state, links)
        outcome = env.evaluate_service(state, action, scenario, links)
        if realization is not None:
            next_cells = realization.cells[t + 1]
        else:
            next_cells = env.sample_next_cells(task.pattern, state.user_cells, rng)
        steps.append(
            TrajectoryStep(
                state=state,
                encoding=enc,
                action_index=idx,
                action=action,
                newly_served=outcome.newly_served,
                localized=outcome.localized,
                tx_ok=outcome.tx_ok,
            )
        )
        state = env.EnvState(
            user_cells=next_cells,
            user_heights=state.user_heights,
            served=outcome.served_after,
            slot_index=t + 1,
        )
    return Trajectory(task_id=task.id, steps=tuple(steps), final_state=state)


def rollout_joint(
    task: Task,
    params: PolicyParams,
    space: JointActionSpace,
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    realization: env.MobilityRealization | None = None,
) -> Trajectory:
    """One period under the joint VAP-selection/association policy."""
    return rollout_period(
        task, params, lambda idx, state, links: space[idx], scenario, rng, realization
    )


def collect_trajectories(
    task: Task,
    params: PolicyParams,
    count: int,
    rng: np.random.Generator,
    scenario: ScenarioConfig,
    space: JointActionSpace | None = None,
) -> list[Trajectory]:
    """`count` independent joint-action rollouts drawn from one rng stream."""
    if space is None:
        space = env.enumerate_joint_actions(scenario)
    return [rollout_joint(task, params, space, scenario, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Gradient estimation and updates


def task_gradient(
    trajectories: list[Trajectory],
    params: Policy,
    reward_baseline: bool = False,
    reward_to_go: bool = False,
) -> Gradient:
    """REINFORCE estimate: trajectory return times summed score function.

    The optional baseline is the leave-one-out mean return, which keeps the
    estimator exactly unbiased. reward_to_go swaps the whole-period return
    for the per-step remaining reward. Steps whose coefficient is zero are
    left out, so the head-weight factors have one row per other step.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    k = len(trajectories)
    returns = np.array([float(t.total_reward) for t in trajectories])
    if reward_baseline and k > 1:
        baselines = (returns.sum() - returns) / (k - 1)
    else:
        baselines = np.zeros(k)

    encodings, actions, weights = [], [], []
    for ti, traj in enumerate(trajectories):
        if reward_to_go:
            gains = np.array([float(len(s.newly_served)) for s in traj.steps])
            coeffs = np.cumsum(gains[::-1])[::-1] - baselines[ti]
        else:
            coeffs = np.full(len(traj.steps), returns[ti] - baselines[ti])
        for step, coeff in zip(traj.steps, coeffs):
            if coeff != 0.0:
                encodings.append(step.encoding)
                actions.append(step.action_index)
                weights.append(coeff / k)
    if not weights:
        return Gradient.zero(params.layer_shapes)
    return policy_net.accumulate_grad_log_prob(params, encodings, actions, weights)


def inner_update(params: Policy, gradient: Gradient | np.ndarray, lr: float) -> Policy:
    """One gradient-ascent step; returns new parameters.

    A factored head update stays pending on the shared parameters while it
    can (`policy_net.ascend`); a dense flat gradient vector is also taken.
    """
    if isinstance(gradient, np.ndarray):
        if gradient.shape != (params.size,):
            raise ValueError("gradient shape does not match the parameter vector")
        gradient = Gradient.of_flat(gradient, params.layer_shapes)
    return policy_net.ascend(params, gradient, lr)


def _trajectory_log_prob(params: Policy, traj: Trajectory) -> float:
    return sum(
        policy_net.log_prob(params, s.encoding, s.action_index) for s in traj.steps
    )


def _adapted_objective(
    base: PolicyParams, result: TaskBatchResult, cfg: LearningConfig
) -> float:
    """Post-adaptation return estimate as a smooth function of `base`.

    Re-adapts from `base` on the frozen inner trajectories, then importance-
    weights the frozen outer trajectories from their sampling policy to the
    re-adapted one. Returns are centered with the same leave-one-out baseline
    the gradient estimator uses, so differentiating this surrogate and the
    first-order path estimate the same quantity on the same data. At the
    original parameters the weights are exactly 1.
    """
    g = task_gradient(result.inner_trajs, base, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(base, g, cfg.inner_lr)
    returns = np.array([float(t.total_reward) for t in result.outer_trajs])
    k = len(returns)
    if cfg.reward_baseline and k > 1:
        baselines = (returns.sum() - returns) / (k - 1)
    else:
        baselines = np.zeros(k)
    total = 0.0
    for traj, ret, base_val in zip(result.outer_trajs, returns, baselines):
        lw = _trajectory_log_prob(adapted, traj) - _trajectory_log_prob(result.adapted, traj)
        total += float(np.exp(lw)) * (ret - base_val)
    return total / k


def meta_update(
    params: PolicyParams, task_results: list[TaskBatchResult], cfg: LearningConfig
) -> PolicyParams:
    """Meta step on the shared initialization from a batch of task results.

    first_order: the post-adaptation gradient of each task, evaluated at its
    adapted parameters, applied to the shared ones in one fold (one copy of
    the head weight, one gemm over every task's factors). fd_second_order:
    central finite differences of the adapted objective along every
    coordinate (small networks only), which keeps the chain term through
    the inner update.
    """
    if not task_results:
        raise ValueError("need at least one task result")
    n = len(task_results)
    if cfg.meta_order == "first_order":
        grads = [
            task_gradient(res.outer_trajs, res.adapted, cfg.reward_baseline, cfg.reward_to_go)
            for res in task_results
        ]
        return policy_net.fold(params, grads, cfg.meta_lr)

    if params.size > FD_PARAM_GUARD:
        raise ValueError(
            f"fd_second_order supports at most {FD_PARAM_GUARD} parameters, got {params.size}"
        )
    if cfg.reward_to_go:
        raise ValueError("fd_second_order supports whole-trajectory returns only")
    eps = cfg.fd_epsilon
    grad = np.zeros_like(params.flat)
    for i in range(params.size):
        for sign in (1.0, -1.0):
            shifted = params.flat.copy()
            shifted[i] += sign * eps
            probe = PolicyParams(
                flat=shifted, layer_shapes=params.layer_shapes, action_count=params.action_count
            )
            value = sum(_adapted_objective(probe, res, cfg) for res in task_results)
            grad[i] += sign * value / (2.0 * eps)
    return inner_update(params, grad / n, cfg.meta_lr)


# ---------------------------------------------------------------------------
# Training loops


def make_rollout_fn(kind: str, scenario: ScenarioConfig):
    if kind == "mpg":
        space = env.enumerate_joint_actions(scenario)
        return lambda task, params, rng: rollout_joint(task, params, space, scenario, rng)
    if kind == "dmpg":
        from . import dmpg

        actions = dmpg.enumerate_vap_actions(scenario.num_vaps)
        return lambda task, params, rng: dmpg.rollout_vap(task, params, actions, scenario, rng)
    raise ValueError(f"unknown rollout kind {kind!r}")


def action_count_for(kind: str, scenario: ScenarioConfig) -> int:
    if kind == "mpg":
        return len(env.enumerate_joint_actions(scenario))
    if kind == "dmpg":
        from math import comb

        return comb(scenario.num_vaps, 3)
    raise ValueError(f"unknown rollout kind {kind!r}")


def _phase_rng(master_seed: int, iteration: int, slot: int, task_id: int, phase: int):
    return np.random.default_rng([master_seed, iteration, slot, task_id, phase])


# One instance per distinct scenario in this process. A payload unpickled in
# a pool worker carries a fresh equal ScenarioConfig; looked up here once per
# task phase, it is swapped for the first one seen, so the per-slot table
# caches in `env` match it by identity instead of comparing every field.
_SCENARIOS: dict[ScenarioConfig, ScenarioConfig] = {}


def _run_task_phase(payload) -> TaskBatchResult:
    (kind, scenario, cfg, task, params, master_seed, iteration, slot) = payload
    scenario = _SCENARIOS.setdefault(scenario, scenario)
    rollout = make_rollout_fn(kind, scenario)
    rng_inner = _phase_rng(master_seed, iteration, slot, task.id, 0)
    inner = [rollout(task, params, rng_inner) for _ in range(cfg.inner_rollouts)]
    g = task_gradient(inner, params, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(params, g, cfg.inner_lr)
    rng_outer = _phase_rng(master_seed, iteration, slot, task.id, 1)
    outer = [rollout(task, adapted, rng_outer) for _ in range(cfg.outer_rollouts)]
    return TaskBatchResult(task=task, adapted=adapted, inner_trajs=inner, outer_trajs=outer)


def new_policy(kind: str, scenario: ScenarioConfig, cfg: LearningConfig, seed: int) -> PolicyParams:
    shapes = policy_net.layer_shapes_for(
        policy_net.encoding_dim(scenario), cfg.hidden_sizes, action_count_for(kind, scenario)
    )
    return policy_net.init_params(shapes, seed)


def meta_train(
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    tasks: list[Task],
    kind: str,
    master_seed: int = 0,
    initial_params: PolicyParams | None = None,
    workers: int = 1,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[IterationMetrics]]:
    """Meta training of the joint (`mpg`) or VAP-only (`dmpg`) policy."""
    if not tasks:
        raise ValueError("task stream is empty")
    params = initial_params
    if params is None:
        params = new_policy(kind, scenario, cfg, master_seed)

    metrics: list[IterationMetrics] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for it in range(cfg.meta_iterations):
            start = time.perf_counter()
            batch = [
                tasks[(it * cfg.tasks_per_batch + k) % len(tasks)]
                for k in range(cfg.tasks_per_batch)
            ]
            payloads = [
                (kind, scenario, cfg, task, params, master_seed, it, slot)
                for slot, task in enumerate(batch)
            ]
            if pool is None:
                results = [_run_task_phase(p) for p in payloads]
            else:
                results = list(pool.map(_run_task_phase, payloads))

            params = meta_update(params, results, cfg)

            rewards = np.array(
                [t.total_reward for res in results for t in res.outer_trajs], dtype=float
            )
            metrics.append(
                IterationMetrics(
                    iteration=it,
                    mean_reward=float(rewards.mean()),
                    std_reward=float(rewards.std()),
                    wall_clock_s=time.perf_counter() - start,
                )
            )
            if trajectory_sink is not None:
                for res in results:
                    for traj in res.inner_trajs + res.outer_trajs:
                        trajectory_sink(traj)
    finally:
        if pool is not None:
            pool.shutdown()
    return params, metrics


def adapt(
    params: PolicyParams,
    task: Task,
    steps: int,
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    kind: str = "mpg",
    master_seed: int = 0,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[float]]:
    """Task-learning steps only, for specializing to a new movement pattern.

    The reward curve holds the mean return of the rollouts each step was
    computed from (pre-update), so curve[0] is the starting policy's level.
    The returned parameters are dense.
    """
    rollout = make_rollout_fn(kind, scenario)
    curve: list[float] = []
    for s in range(steps):
        rng = _phase_rng(master_seed, s, 0, task.id, 2)
        trajs = [rollout(task, params, rng) for _ in range(cfg.inner_rollouts)]
        curve.append(float(np.mean([t.total_reward for t in trajs])))
        g = task_gradient(trajs, params, cfg.reward_baseline, cfg.reward_to_go)
        params = inner_update(params, g, cfg.inner_lr)
        if trajectory_sink is not None:
            for traj in trajs:
                trajectory_sink(traj)
    return params.folded(), curve


def train_baseline_pg(
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    tasks: list[Task],
    kind: str = "mpg",
    master_seed: int = 0,
    initial_params: PolicyParams | None = None,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[IterationMetrics]]:
    """Plain policy gradient over the task stream as one nonstationary problem.

    The returned parameters are dense.
    """
    if not tasks:
        raise ValueError("task stream is empty")
    params = initial_params
    if params is None:
        params = new_policy(kind, scenario, cfg, master_seed)
    rollout = make_rollout_fn(kind, scenario)
    metrics: list[IterationMetrics] = []
    for it in range(cfg.meta_iterations):
        start = time.perf_counter()
        task = tasks[it % len(tasks)]
        rng = _phase_rng(master_seed, it, 0, task.id, 3)
        trajs = [rollout(task, params, rng) for _ in range(cfg.inner_rollouts)]
        g = task_gradient(trajs, params, cfg.reward_baseline, cfg.reward_to_go)
        params = inner_update(params, g, cfg.inner_lr)
        rewards = np.array([t.total_reward for t in trajs], dtype=float)
        metrics.append(
            IterationMetrics(
                iteration=it,
                mean_reward=float(rewards.mean()),
                std_reward=float(rewards.std()),
                wall_clock_s=time.perf_counter() - start,
            )
        )
        if trajectory_sink is not None:
            for traj in trajs:
                trajectory_sink(traj)
    return params.folded(), metrics
