"""User-SBS association: maximum-weight matching, slot by slot and per period.

Per slot, the candidate pool is the localized, not-yet-served users. Each
(SBS, user) pair carries weight h, the binary transmission feasibility of
the THz link. The slot subproblem is a rectangular maximum-weight matching
solved exactly by the Hungarian algorithm. The offline period solver prices
the serve-at-most-once-per-period coupling with per-user multipliers lambda
(weights h - lambda) and runs projected-subgradient ascent on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env


@dataclass(frozen=True)
class DualVars:
    """Nonnegative per-user multipliers and the subgradient step size."""

    lambdas: tuple[float, ...]
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step size must be positive")
        if any(lv < 0 for lv in self.lambdas):
            raise ValueError("dual variables must be nonnegative")


def zero_duals(num_users: int, step: float = 0.1) -> DualVars:
    return DualVars(lambdas=(0.0,) * num_users, step=step)


@dataclass(frozen=True)
class AssignmentSolution:
    """Partial one-to-one matching (row, column) with its total weight."""

    matching: tuple[tuple[int, int], ...]
    objective_value: float


@dataclass(frozen=True)
class SlotAssignmentProblem:
    """One slot's matching instance: candidate users and the link weights.

    candidates are the localized, not-yet-served users; weights[i, col] is
    the binary link feasibility h of SBS i to candidates[col], counting
    every body in the room.
    """

    candidates: tuple[int, ...]
    weights: np.ndarray


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Exact square assignment minimizing total cost, O(n^3).

    Shortest-augmenting-path form with row/column potentials; deterministic,
    scanning columns in index order. Returns column matched to each row.
    """
    n = cost.shape[0]
    table = cost.tolist()  # Python floats: a numpy scalar per read is slow
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: row matched to column j (1-based, 0 free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = table[i0 - 1]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j in range(1, n + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def hungarian_max(weights, allow_skip: bool = True) -> AssignmentSolution:
    """Maximum-weight bipartite matching on a rectangular weight matrix.

    With allow_skip, any pair may be left unmatched, so entries <= 0 never
    appear in the result (skipping them costs nothing). Without it, the full
    smaller side is matched even through negative weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    m, n = w.shape
    if m == 0 or n == 0:
        return AssignmentSolution(matching=(), objective_value=0.0)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")

    effective = np.maximum(w, 0.0) if allow_skip else w
    size = max(m, n)
    padded = np.zeros((size, size))
    padded[:m, :n] = effective
    cost = padded.max() - padded
    row_to_col = _min_cost_assignment(cost)

    pairs = []
    value = 0.0
    for i in range(m):
        j = row_to_col[i]
        if j < 0 or j >= n:
            continue
        if allow_skip and w[i, j] <= 0.0:
            continue
        pairs.append((i, j))
        value += float(w[i, j])
    return AssignmentSolution(matching=tuple(pairs), objective_value=value)


def build_slot_problem(
    state: env.EnvState,
    vap_set: tuple[int, int, int],
    scenario: env.ScenarioConfig,
    links: env.SlotLinks | None = None,
) -> SlotAssignmentProblem:
    """Collect the slot's candidate users and weigh every (SBS, user) link.

    `links` are the state's `env.slot_links`, computed here when not given.
    """
    if len(vap_set) != 3:
        raise ValueError("exactly 3 VAPs must be lit")
    if links is None:
        links = env.slot_links(state, scenario)
    pool = np.flatnonzero(links.localized(vap_set) & ~np.array(state.served))
    return SlotAssignmentProblem(
        candidates=tuple(pool.tolist()), weights=links.h[:, pool].astype(float)
    )


def slot_assign(
    state: env.EnvState,
    vap_set: tuple[int, int, int],
    scenario: env.ScenarioConfig,
    links: env.SlotLinks | None = None,
) -> AssignmentSolution:
    """One slot's matching of SBSs to localized unserved users.

    Weights are the link feasibility h per (SBS, user); physical blockage
    counts every body in the room, localized or not. Matching entries are
    (sbs_index, user_index) with global user indices.
    """
    problem = build_slot_problem(state, vap_set, scenario, links)
    if not problem.candidates:
        return AssignmentSolution(matching=(), objective_value=0.0)
    sol = hungarian_max(problem.weights, allow_skip=True)
    matching = tuple((i, problem.candidates[col]) for i, col in sol.matching)
    return AssignmentSolution(matching=matching, objective_value=sol.objective_value)


def dual_update(duals: DualVars, served_counts, step: float | None = None) -> DualVars:
    """Projected subgradient step on the once-per-period constraint."""
    phi = duals.step if step is None else step
    if phi <= 0:
        raise ValueError("step size must be positive")
    new = tuple(
        max(0.0, lam - phi * (1.0 - float(count)))
        for lam, count in zip(duals.lambdas, served_counts)
    )
    return DualVars(lambdas=new, step=duals.step)


def check_period_feasible(per_slot, num_users: int, num_sbs: int) -> bool:
    """Per-slot one-to-one matching and at most one serving slot per user."""
    serve_count = [0] * num_users
    for matching in per_slot:
        stations = [i for i, _ in matching]
        users = [j for _, j in matching]
        if len(set(stations)) != len(stations) or len(set(users)) != len(users):
            return False
        if any(not 0 <= i < num_sbs for i in stations):
            return False
        for j in users:
            serve_count[j] += 1
    return all(c <= 1 for c in serve_count)


def service_tables(
    vap_sequence,
    realization: env.MobilityRealization,
    scenario: env.ScenarioConfig,
) -> tuple[list[list[bool]], list[np.ndarray]]:
    """Per-slot localization flags and link-feasibility matrices h[t][i, j]."""
    blank = (False,) * scenario.num_users
    loc: list[list[bool]] = []
    feas: list[np.ndarray] = []
    for t in range(scenario.slots_per_period):
        links = env.slot_links(env.state_at_slot(realization, t, blank), scenario)
        loc.append(links.localized(vap_sequence[t]).tolist())
        feas.append(links.h.astype(float))
    return loc, feas


def solve_period_association(
    vap_sequence,
    realization: env.MobilityRealization,
    scenario: env.ScenarioConfig,
    dual_iters: int = 50,
    step: float = 0.1,
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Offline period association given the full mobility outcome.

    Alternates slot-wise Hungarian solves with a dual step on lambda. Each
    round's slot solutions are repaired into a feasible candidate: a user
    multiply served keeps only its earliest slot, then freed capacity is
    greedily rematched to still-unserved feasible users. The best candidate
    across rounds is returned.
    """
    if len(vap_sequence) != scenario.slots_per_period:
        raise ValueError("need one VAP set per slot")
    slots = scenario.slots_per_period
    loc, feas = service_tables(vap_sequence, realization, scenario)
    pools = [[j for j in range(scenario.num_users) if loc[t][j]] for t in range(slots)]

    duals = zero_duals(scenario.num_users, step)
    best: tuple[tuple[tuple[int, int], ...], ...] | None = None
    best_count = -1

    for _ in range(dual_iters):
        round_slots = []
        counts = [0] * scenario.num_users
        for t in range(slots):
            pool = pools[t]
            if not pool:
                round_slots.append(())
                continue
            weights = feas[t][:, pool] - np.asarray(duals.lambdas)[pool]
            sol = hungarian_max(weights, allow_skip=True)
            matched = tuple((i, pool[col]) for i, col in sol.matching)
            round_slots.append(matched)
            for _, j in matched:
                counts[j] += 1

        seen: set[int] = set()
        feasible = []
        for t in range(slots):
            kept = [(i, j) for i, j in round_slots[t] if j not in seen]
            seen.update(j for _, j in kept)
            used = {i for i, _ in kept}
            for i in range(scenario.num_sbs):
                if i in used:
                    continue
                for j in pools[t]:
                    if j not in seen and feas[t][i, j] > 0:
                        kept.append((i, j))
                        used.add(i)
                        seen.add(j)
                        break
            feasible.append(tuple(sorted(kept)))
        if len(seen) > best_count:
            best_count = len(seen)
            best = tuple(feasible)

        duals = dual_update(duals, counts)

    assert best is not None
    return best
