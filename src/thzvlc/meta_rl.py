"""Meta policy-gradient training.

Each meta iteration runs two phases per task: a task-learning step
(REINFORCE gradient on K rollouts, one ascent step with the inner rate)
and a meta-learning step (gradient of the post-adaptation objective on K'
rollouts, applied to the shared initialization with the meta rate). The
meta gradient is the first-order approximation; the tests bound its error
against a finite-difference second-order reference.

Each phase's gradient reads the forward values its rollouts kept (the
rollouts and the gradient of a phase are at the same parameters), so no
row goes through the policy head twice. A call's shared initialization is
one working copy of the initial vector, and each meta update is folded
into it in place.

Reproducibility: every rollout draws from an rng stream keyed by
(master seed, iteration, batch slot, task id, phase), so results are
identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import env, policy_net
from .env import JointActionSpace, ScenarioConfig, Task, Trajectory, TrajectoryStep
from .policy_net import Gradient, Policy, PolicyParams


@dataclass(frozen=True)
class LearningConfig:
    """Training constants, one per `[learning]` key (whose reference values
    and domains are in `harness.SCHEMA`); the inner/outer rollout counts
    are per task."""

    inner_lr: float
    meta_lr: float
    inner_rollouts: int
    outer_rollouts: int
    meta_iterations: int
    tasks_per_batch: int
    reward_baseline: bool
    reward_to_go: bool
    hidden_sizes: tuple[int, ...]


@dataclass
class TaskBatchResult:
    """What one task contributes to a meta update: the post-adaptation
    gradient, taken at its adapted policy, and the rollouts of both phases."""

    gradient: Gradient
    inner_trajs: list[Trajectory]
    outer_trajs: list[Trajectory]


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    mean_reward: float
    std_reward: float
    wall_clock_s: float

    @classmethod
    def of(cls, iteration: int, trajectories: list[Trajectory], start: float) -> IterationMetrics:
        """The returns' mean and spread, timed from `start` (a perf_counter reading)."""
        rewards = np.array([t.total_reward for t in trajectories], dtype=float)
        return cls(iteration, float(rewards.mean()), float(rewards.std()), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Rollouts


def draw_uniforms(rng: np.random.Generator, count: int, scenario: ScenarioConfig) -> np.ndarray:
    """The draws of `count` periods, shaped (count, slots, 1 + users).

    Per slot the action draw comes first, then one move draw per user: the
    order in which the periods would take them one after another.
    """
    return rng.random((count, scenario.slots_per_period, 1 + scenario.num_users))


class Rollouts(NamedTuple):
    """A batch of periods and, when kept, what their gradient reads:
    `kept`, the forward values of every distinct (slot, state) row they
    drew from, and `rows`, each step's row there, in period then slot
    order."""

    trajectories: list[Trajectory]
    kept: policy_net.Forward | None
    rows: np.ndarray | None


def rollout_period(
    tasks: list[Task],
    params: Policy,
    decode,
    scenario: ScenarioConfig,
    uniforms: np.ndarray,
    keep: bool,
) -> Rollouts:
    """One period per task, all advanced slot by slot together.

    Row b rolls tasks[b] on uniforms[b] (see `draw_uniforms`): per slot,
    the action index is the inverse-CDF draw of the policy at
    uniforms[b, t, 0], `decode(index, state, links)` turns it into the
    JointAction that is evaluated, and the users move by uniforms[b, t, 1:].
    What rows share is worked out once: a reset per task, an encoding per
    distinct state, a `policy_net.forward` per block of at most the head's
    input width of distinct encodings (so no temporary outgrows the head
    weight), an `env.slot_links` per distinct (cells, heights) and a decode
    and service evaluation per distinct (state, index). Each block is freed
    before the next forward; with `keep`, its forward values are first
    copied into the returned `kept` rows, for `task_gradient`.
    """
    u = np.asarray(uniforms, dtype=float)
    count, slots = len(tasks), scenario.slots_per_period
    if u.shape != (count, slots, 1 + scenario.num_users):
        raise ValueError("need one (slots, 1 + users) block of uniforms per task")
    kept = rows_of = None
    if keep:  # room for one row per step; a slot's distinct states take the next rows
        kept = policy_net.Forward(
            [np.empty((count * slots, n_in)) for n_in, _ in params.layer_shapes],
            np.empty((count * slots, params.action_count)),
        )
        rows_of = np.empty((count, slots), dtype=np.intp)
    filled = 0
    groups: dict[int, list[int]] = {}  # the rows of each task
    for b, task in enumerate(tasks):
        groups.setdefault(id(task), []).append(b)
    states: list[env.EnvState] = [None] * len(tasks)
    for group in groups.values():
        start = env.reset(tasks[group[0]], scenario)
        for b in group:
            states[b] = start
    width = params.layer_shapes[-1][0]
    links: dict[tuple, env.SlotLinks] = {}
    served: dict[tuple, tuple[env.JointAction, env.ServiceOutcome]] = {}
    steps: list[list[TrajectoryStep]] = [[] for _ in tasks]
    for t in range(slots):
        distinct = {state: i for i, state in enumerate(dict.fromkeys(states))}
        x = np.array([policy_net.encode_state(state, scenario) for state in distinct])
        x.setflags(write=False)  # rows are shared by the steps of equal states
        rows = [distinct[state] for state in states]
        indices = [0] * len(states)
        for lo in range(0, len(x), width):
            fw = policy_net.forward(params, x[lo : lo + width])
            if keep:
                at = slice(filled + lo, filled + lo + len(fw.probs))
                for mine, block in zip(kept.inputs, fw.inputs):
                    mine[at] = block
                kept.probs[at] = fw.probs
            cum = np.cumsum(fw.probs, axis=1, out=fw.probs)
            for b, r in enumerate(rows):
                if lo <= r < lo + width:
                    indices[b] = policy_net.inverse_cdf(cum[r - lo], u[b, t, 0])
            del fw, cum  # so the next forward does not hold two blocks
        if keep:
            rows_of[:, t] = [filled + r for r in rows]
            filled += len(x)

        for b, (state, idx) in enumerate(zip(states, indices)):
            key = (state, idx)
            if key not in served:
                where = (state.user_cells, state.user_heights)
                if where not in links:
                    links[where] = env.slot_links(state, scenario)
                action = decode(idx, state, links[where])
                served[key] = action, env.evaluate_service(state, action, scenario, links[where])
            action, outcome = served[key]
            steps[b].append(
                TrajectoryStep(
                    state=state,
                    encoding=x[distinct[state]],
                    action_index=idx,
                    action=action,
                    newly_served=outcome.newly_served,
                    localized=outcome.localized,
                    tx_ok=outcome.tx_ok,
                )
            )

        cells = np.array([state.user_cells for state in states])
        for group in groups.values():
            cells[group] = env.next_cells(tasks[group[0]].pattern, cells[group], u[group, t, 1:])
        states = [
            env.EnvState(
                user_cells=tuple(moved),
                user_heights=state.user_heights,
                served=served[(state, idx)][1].served_after,
                slot_index=t + 1,
            )
            for state, idx, moved in zip(states, indices, cells.tolist())
        ]
    trajectories = [
        Trajectory(task_id=task.id, steps=tuple(row), final_state=state)
        for task, row, state in zip(tasks, steps, states)
    ]
    if not keep:
        return Rollouts(trajectories, None, None)
    kept = policy_net.Forward([a[:filled] for a in kept.inputs], kept.probs[:filled])
    for a in (*kept.inputs, kept.probs):
        a.setflags(write=False)
    return Rollouts(trajectories, kept, rows_of.ravel())


def joint_decoder(space: JointActionSpace):
    """Decoder for `rollout_period`: the joint action of the sampled index."""
    return lambda idx, state, links: space[idx]


def rollout_joint(
    task: Task,
    params: Policy,
    decode,
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    count: int,
) -> Rollouts:
    """`count` periods of one task under the head that `decode` belongs to,
    in lockstep, from one draw of the rng, with the forward values their
    gradient reads: the phase entry of both heads."""
    return rollout_period([task] * count, params, decode, scenario, draw_uniforms(rng, count, scenario), True)


# ---------------------------------------------------------------------------
# Gradient estimation and updates


def task_gradient(
    rollouts: Rollouts,
    params: Policy,
    reward_baseline: bool,
    reward_to_go: bool,
) -> Gradient:
    """REINFORCE estimate: trajectory return times summed score function,
    from the forward values the rollouts kept at `params`.

    reward_baseline subtracts the leave-one-out mean return, which keeps
    the estimator exactly unbiased. reward_to_go swaps the whole-period
    return for the per-step remaining reward. Steps whose coefficient is
    zero are left out, and steps of one kept row share a gradient row, so
    the head-weight factors have one row per distinct row of the others.
    """
    trajectories = rollouts.trajectories
    if not trajectories:
        raise ValueError("need at least one trajectory")
    k = len(trajectories)
    returns = np.array([float(t.total_reward) for t in trajectories])
    if reward_baseline and k > 1:
        baselines = (returns.sum() - returns) / (k - 1)
    else:
        baselines = np.zeros(k)
    coeffs, actions = [], []
    for ti, traj in enumerate(trajectories):
        if reward_to_go:
            gains = np.array([float(len(s.newly_served)) for s in traj.steps])
            coeffs.append(np.cumsum(gains[::-1])[::-1] - baselines[ti])
        else:
            coeffs.append(np.full(len(traj.steps), returns[ti] - baselines[ti]))
        actions += [s.action_index for s in traj.steps]
    c = np.concatenate(coeffs)
    if len(c) != len(rollouts.rows):
        raise ValueError("need one kept row per step")
    steps = np.flatnonzero(c)
    if not len(steps):
        return Gradient.zero(params.layer_shapes)
    return policy_net.accumulate_grad_log_prob(
        params, rollouts.kept, rollouts.rows[steps], np.array(actions)[steps], c[steps] / k
    )


def inner_update(params: Policy, gradient: Gradient, lr: float) -> Policy:
    """One gradient-ascent step; returns new parameters.

    A factored head update stays pending on the shared parameters while it
    can (`policy_net.ascend`).
    """
    return policy_net.ascend(params, gradient, lr)


def meta_update(params: PolicyParams, gradients: list[Gradient], cfg: LearningConfig) -> None:
    """First-order meta step on the shared initialization, in place: the
    batch's post-adaptation gradients, each taken at its task's adapted
    parameters, folded into params' own vector (one gemm over every task's
    factors per block of head rows), in batch order.

    `params` is `meta_train`'s working copy: the one `PolicyParams` vector
    that is ever written, here and only between batches.
    """
    if not gradients:
        raise ValueError("need at least one task gradient")
    params.flat.setflags(write=True)
    try:
        policy_net.fold_into(params.flat, params, gradients, cfg.meta_lr)
    finally:
        params.flat.setflags(write=False)


# ---------------------------------------------------------------------------
# Training loops


class PolicyHead(NamedTuple):
    """What rolls a head: its phase entry point, taking (task, params,
    decode, scenario, rng, count); its `rollout_period` decoder; and its
    action table, one entry per output of the policy."""

    rollout: Callable[..., Rollouts]
    decode: Callable
    actions: JointActionSpace | tuple


def policy_head(kind: str, scenario: ScenarioConfig) -> PolicyHead:
    """The joint (`mpg`) head, or the VAP-only (`dmpg`) head with its slot
    matching. Entry points are looked up per call, so wrapping them in
    their modules takes effect."""
    if kind == "mpg":
        space = env.enumerate_joint_actions(scenario)
        return PolicyHead(rollout_joint, joint_decoder(space), space)
    if kind == "dmpg":
        from . import dmpg

        actions = env.enumerate_vap_actions(scenario.num_vaps)
        return PolicyHead(dmpg.rollout_vap, dmpg.vap_decoder(actions), actions)
    raise ValueError(f"unknown rollout kind {kind!r}")


def rollout_phase(
    kind: str,
    task: Task,
    params: Policy,
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    count: int,
) -> Rollouts:
    """`count` rollouts of one task phase through the head's entry point."""
    head = policy_head(kind, scenario)
    return head.rollout(task, params, head.decode, scenario, rng, count)


def _phase_rng(master_seed: int, iteration: int, slot: int, task_id: int, phase: int):
    return np.random.default_rng([master_seed, iteration, slot, task_id, phase])


# The scenario of this process's latest task phase. A payload unpickled in
# a pool worker carries a fresh equal ScenarioConfig without its tables;
# swapped here for the held one, it reuses the tables of the run's earlier
# phases. Holding one only, a process releases each room as the next starts.
_SCENARIO: ScenarioConfig | None = None


def _run_task_phase(payload) -> TaskBatchResult:
    global _SCENARIO
    (kind, scenario, cfg, task, params, master_seed, iteration, slot) = payload
    if scenario != _SCENARIO:
        _SCENARIO = scenario
    scenario = _SCENARIO
    rng_inner = _phase_rng(master_seed, iteration, slot, task.id, 0)
    inner = rollout_phase(kind, task, params, scenario, rng_inner, cfg.inner_rollouts)
    g = task_gradient(inner, params, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(params, g, cfg.inner_lr)
    inner_trajs = inner.trajectories
    del inner  # its kept rows, before the outer phase keeps its own
    rng_outer = _phase_rng(master_seed, iteration, slot, task.id, 1)
    outer = rollout_phase(kind, task, adapted, scenario, rng_outer, cfg.outer_rollouts)
    g_outer = task_gradient(outer, adapted, cfg.reward_baseline, cfg.reward_to_go)
    return TaskBatchResult(gradient=g_outer, inner_trajs=inner_trajs, outer_trajs=outer.trajectories)


def new_policy(kind: str, scenario: ScenarioConfig, cfg: LearningConfig, seed: int) -> PolicyParams:
    shapes = policy_net.layer_shapes_for(
        policy_net.encoding_dim(scenario), cfg.hidden_sizes, len(policy_head(kind, scenario).actions)
    )
    return policy_net.init_params(shapes, seed)


def meta_train(
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    tasks: list[Task],
    kind: str,
    *,
    master_seed: int,
    initial_params: PolicyParams | None = None,
    workers: int,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[IterationMetrics]]:
    """Meta training of the joint (`mpg`) or VAP-only (`dmpg`) policy.

    The initial vector is copied once; every meta update is folded into
    that copy in place, which is returned.
    """
    if not tasks:
        raise ValueError("task stream is empty")
    initial = initial_params if initial_params is not None else new_policy(kind, scenario, cfg, master_seed)
    params = PolicyParams(initial.flat.copy(), initial.layer_shapes, initial.action_count)

    metrics: list[IterationMetrics] = []
    workers = min(workers, cfg.tasks_per_batch)  # a batch keeps no more busy
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

            meta_update(params, [res.gradient for res in results], cfg)
            outer = [t for res in results for t in res.outer_trajs]
            metrics.append(IterationMetrics.of(it, outer, start))
            if trajectory_sink is not None:
                for res in results:
                    for traj in res.inner_trajs + res.outer_trajs:
                        trajectory_sink(traj)
            del results, outer  # before the next batch's phases
    finally:
        if pool is not None:
            pool.shutdown()
    return params, metrics


def _policy_gradient(
    params: Policy,
    tasks: list[Task],
    phase: int,
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    kind: str,
    master_seed: int,
    trajectory_sink,
) -> tuple[PolicyParams, list[IterationMetrics]]:
    """Plain policy-gradient steps, step i on tasks[i]: its rollouts, their
    gradient and one inner-rate ascent. Step i draws from the rng keyed by
    (master seed, i, 0, task id, phase); its metrics are those of the
    rollouts it was computed from. The returned parameters are dense."""
    metrics: list[IterationMetrics] = []
    for it, task in enumerate(tasks):
        start = time.perf_counter()
        rng = _phase_rng(master_seed, it, 0, task.id, phase)
        rollouts = rollout_phase(kind, task, params, scenario, rng, cfg.inner_rollouts)
        g = task_gradient(rollouts, params, cfg.reward_baseline, cfg.reward_to_go)
        params = inner_update(params, g, cfg.inner_lr)
        metrics.append(IterationMetrics.of(it, rollouts.trajectories, start))
        if trajectory_sink is not None:
            for traj in rollouts.trajectories:
                trajectory_sink(traj)
    return params.folded(), metrics


def adapt(
    params: PolicyParams,
    task: Task,
    steps: int,
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    kind: str,
    master_seed: int,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[float]]:
    """Task-learning steps only, for specializing to a new movement pattern.

    The reward curve holds the mean return of the rollouts each step was
    computed from (pre-update), so curve[0] is the starting policy's level.
    The returned parameters are dense.
    """
    adapted, metrics = _policy_gradient(
        params, [task] * steps, 2, cfg, scenario, kind, master_seed, trajectory_sink
    )
    return adapted, [m.mean_reward for m in metrics]


def train_baseline_pg(
    cfg: LearningConfig,
    scenario: ScenarioConfig,
    tasks: list[Task],
    kind: str,
    master_seed: int,
    trajectory_sink=None,
) -> tuple[PolicyParams, list[IterationMetrics]]:
    """Plain policy gradient over the task stream as one nonstationary problem,
    from the run's fresh policy. The returned parameters are dense.
    """
    if not tasks:
        raise ValueError("task stream is empty")
    params = new_policy(kind, scenario, cfg, master_seed)
    stream = [tasks[it % len(tasks)] for it in range(cfg.meta_iterations)]
    return _policy_gradient(params, stream, 3, cfg, scenario, kind, master_seed, trajectory_sink)
