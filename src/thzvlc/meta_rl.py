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
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import env, policy_net
from .env import JointActionSpace, Periods, ScenarioConfig, Task
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
    gradient, taken at its adapted policy, and the periods of both phases."""

    gradient: Gradient
    inner: Periods
    outer: Periods


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    mean_reward: float
    std_reward: float
    wall_clock_s: float

    @classmethod
    def of(cls, iteration: int, returns: np.ndarray, start: float) -> IterationMetrics:
        """The returns' mean and spread, timed from `start` (a perf_counter reading)."""
        rewards = np.asarray(returns, dtype=float)
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

    periods: Periods
    kept: policy_net.Forward | None
    rows: np.ndarray | None


def _first_of(keys) -> tuple[np.ndarray, np.ndarray]:
    """(first, which) over a sequence of hashable keys: `first` holds the
    position of each distinct key's first appearance, in that order, and
    which[b] is key b's position in it."""
    seen: dict = {}
    first: list[int] = []
    which: list[int] = []
    for b, key in enumerate(keys):
        i = seen.setdefault(key, len(seen))
        if i == len(first):
            first.append(b)
        which.append(i)
    return np.array(first, dtype=np.intp), np.array(which, dtype=np.intp)


def rollout_period(
    tasks: list[Task],
    params: Policy,
    decode,
    scenario: ScenarioConfig,
    uniforms: np.ndarray,
    keep: bool,
) -> Rollouts:
    """One period per task, all advanced slot by slot together, held as
    arrays (`env.Periods`).

    Row b rolls tasks[b] on uniforms[b] (see `draw_uniforms`): per slot,
    the action index is the inverse-CDF draw of the policy at
    uniforms[b, t, 0], `decode(indices, visible, h, served)` turns indices
    into their lit VAP sets, who those localize, and each user's SBS (-1 for
    none), and the users move by uniforms[b, t, 1:]. Each step runs once per
    slot over every distinct state (equal cells, heights and served flags):
    one encoding pass, a `policy_net.forward` per block of at most the
    head's input width of distinct encodings (so no temporary outgrows the
    head weight), one `env.ceiling_links` pass, then one decode and one
    service pass over every distinct (state, index). Each block is freed
    before the next forward; with `keep`, its forward values are first
    copied into the returned `kept` rows, for `task_gradient`. A task's
    start and the links of slot 0, where every state is a task's start,
    come from the scenario's cache of task starts (`env.TaskStart`), so no
    period of a task draws its start or works out those links again.
    """
    u = np.asarray(uniforms, dtype=float)
    count, slots, users = len(tasks), scenario.slots_per_period, scenario.num_users
    if u.shape != (count, slots, 1 + users):
        raise ValueError("need one (slots, 1 + users) block of uniforms per task")
    kept = rows_of = None
    if keep:  # room for one row per step; a slot's distinct states take the next rows
        kept = policy_net.Forward(
            [np.empty((count * slots, n_in)) for n_in, _ in params.layer_shapes],
            np.empty((count * slots, params.action_count)),
        )
        rows_of = np.empty((count, slots), dtype=np.intp)
    filled = 0
    cross, link_table, start_of = scenario.tables
    p = Periods(
        heights=np.empty((count, users)),
        cells=np.empty((count, slots + 1, users), dtype=np.intp),
        served=np.zeros((count, slots + 1, users), dtype=bool),
        action=np.empty((count, slots), dtype=np.intp),
        vap_sets=np.empty((count, slots, 3), dtype=np.intp),
        assigned=np.empty((count, slots, users), dtype=np.intp),
        localized=np.empty((count, slots, users), dtype=bool),
        tx_ok=np.empty((count, slots, users), dtype=bool),
    )
    groups: dict[int, list[int]] = {}  # the rows of each task
    for b, task in enumerate(tasks):
        groups.setdefault(id(task), []).append(b)
    table_of: dict[tuple[float, ...], int] = {}  # each tuple of heights' link table
    kin = np.empty(count, dtype=np.intp)  # each row's link table
    starts = {}
    for key, group in groups.items():
        start = starts[key] = start_of(tasks[group[0]].rng_seed)
        p.cells[group, 0] = start.cells
        p.heights[group] = start.heights
        kin[group] = table_of.setdefault(start.heights, len(table_of))
    link_tables = np.array([link_table(heights) for heights in table_of], dtype=bool).reshape(
        len(table_of), users, scenario.num_cells, len(cross.units)
    )
    # a state is its row's link table (so its heights), cells and served
    # flags, compared as the bytes of one key row
    keys = np.empty((count, 1 + 2 * users), dtype=np.intp)
    keys[:, 0] = kin
    key_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    width = params.layer_shapes[-1][0]
    everyone = np.arange(users)
    for t in range(slots):
        keys[:, 1 : 1 + users] = p.cells[:, t]
        keys[:, 1 + users :] = p.served[:, t]
        first, state_of = _first_of(keys.view(key_bytes).ravel().tolist())
        cells, heights, served = p.cells[first, t], p.heights[first], p.served[first, t]
        x = policy_net.encode_states(cells, heights, served, cross.centers, scenario)
        rows = state_of.tolist()
        draws = u[:, t, 0].tolist()
        indices = [0] * count
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
                    indices[b] = policy_net.inverse_cdf(cum[r - lo], draws[b])
            del fw, cum  # so the next forward does not hold two blocks
        if keep:
            rows_of[:, t] = filled + state_of
            filled += len(x)
        p.action[:, t] = indices

        if t == 0:  # each state is a task's start
            ok = np.array([starts[id(tasks[b])].links for b in first.tolist()], dtype=bool).reshape(
                len(first), len(cross.units), users
            )
        else:
            free = link_tables[kin[first][:, None], everyone, cells]
            ok = env.ceiling_links(cells, heights, free, cross)
        pair, pair_of = _first_of(zip(rows, indices))
        on = state_of[pair]
        h, before = ok[on, scenario.num_vaps :], served[on]
        vap_sets, localized, assigned = decode(p.action[pair, t], ok[on, : scenario.num_vaps], h, before)
        tx_ok, after = env.serve(localized, h, assigned, before)
        p.vap_sets[:, t] = vap_sets[pair_of]
        p.localized[:, t] = localized[pair_of]
        p.assigned[:, t] = assigned[pair_of]
        p.tx_ok[:, t] = tx_ok[pair_of]
        p.served[:, t + 1] = after[pair_of]
        for group in groups.values():
            p.cells[group, t + 1] = env.next_cells(tasks[group[0]].pattern, p.cells[group, t], u[group, t, 1:])
    for a in vars(p).values():
        a.setflags(write=False)
    if not keep:
        return Rollouts(p, None, None)
    kept = policy_net.Forward([a[:filled] for a in kept.inputs], kept.probs[:filled])
    for a in (*kept.inputs, kept.probs):
        a.setflags(write=False)
    return Rollouts(p, kept, rows_of.ravel())


def joint_decoder(space: JointActionSpace):
    """Decoder for `rollout_period`: each index's VAP subset, who it
    localizes, and its association, from the space's index tables."""
    vap_table = np.array(space.vap_sets)

    def decode(indices: np.ndarray, visible: np.ndarray, h: np.ndarray, served: np.ndarray):
        vap, rank = np.divmod(indices, space.assoc_count)
        vap_sets = vap_table[vap]
        return vap_sets, env.lit(visible, vap_sets), space.assigned(rank)

    return decode


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
    periods = rollouts.periods
    k = len(periods)
    if not k:
        raise ValueError("need at least one trajectory")
    gains = periods.newly_served.sum(axis=2).astype(float)
    returns = periods.returns.astype(float)
    if reward_baseline and k > 1:
        baselines = (returns.sum() - returns) / (k - 1)
    else:
        baselines = np.zeros(k)
    if reward_to_go:
        coeffs = np.cumsum(gains[:, ::-1], axis=1)[:, ::-1] - baselines[:, None]
    else:
        coeffs = np.repeat((returns - baselines)[:, None], gains.shape[1], axis=1)
    c = coeffs.ravel()
    if len(c) != len(rollouts.rows):
        raise ValueError("need one kept row per step")
    steps = np.flatnonzero(c)
    if not len(steps):
        return Gradient.zero(params.layer_shapes)
    return policy_net.accumulate_grad_log_prob(
        params, rollouts.kept, rollouts.rows[steps], periods.action.ravel()[steps], c[steps] / k
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
    head = policy_head(kind, scenario)
    rng_inner = _phase_rng(master_seed, iteration, slot, task.id, 0)
    inner = head.rollout(task, params, head.decode, scenario, rng_inner, cfg.inner_rollouts)
    g = task_gradient(inner, params, cfg.reward_baseline, cfg.reward_to_go)
    adapted = inner_update(params, g, cfg.inner_lr)
    inner = inner.periods  # drops its kept rows before the outer phase keeps its own
    rng_outer = _phase_rng(master_seed, iteration, slot, task.id, 1)
    outer = head.rollout(task, adapted, head.decode, scenario, rng_outer, cfg.outer_rollouts)
    g_outer = task_gradient(outer, adapted, cfg.reward_baseline, cfg.reward_to_go)
    return TaskBatchResult(gradient=g_outer, inner=inner, outer=outer.periods)


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
            returns = np.concatenate([res.outer.returns for res in results])
            metrics.append(IterationMetrics.of(it, returns, start))
            if trajectory_sink is not None:
                for res in results:
                    for traj in chain(res.inner, res.outer):
                        trajectory_sink(traj)
            del results  # before the next batch's phases
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
    head = policy_head(kind, scenario)
    for it, task in enumerate(tasks):
        start = time.perf_counter()
        rng = _phase_rng(master_seed, it, 0, task.id, phase)
        rollouts = head.rollout(task, params, head.decode, scenario, rng, cfg.inner_rollouts)
        g = task_gradient(rollouts, params, cfg.reward_baseline, cfg.reward_to_go)
        params = inner_update(params, g, cfg.inner_lr)
        metrics.append(IterationMetrics.of(it, rollouts.periods.returns, start))
        if trajectory_sink is not None:
            for traj in rollouts.periods:
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
