"""User-SBS association: one maximum-weight matching per slot.

Per slot, the candidate pool is the localized, not-yet-served users. Each
(SBS, user) pair carries weight h, the binary transmission feasibility of
the THz link. The slot subproblem is a rectangular maximum-weight matching
solved exactly by the Hungarian algorithm, except where every SBS reaches
every candidate: there `match_slots` returns the Hungarian's own answer in
closed form, SBS i to the i-th candidate, without running it, for every
such matrix of a batch at once. Leaving served users out of the pool
enforces the serve-at-most-once-per-period coupling; the priced period
solver that enforces it with dual multipliers is the reference in
`tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env


@dataclass(frozen=True)
class AssignmentSolution:
    """Partial one-to-one matching as (row, column) pairs."""

    matching: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SlotAssignmentProblem:
    """One slot's matching instance: candidate users and the link weights.

    candidates are the localized, not-yet-served users; weights[i, col] is
    the binary link feasibility h (bool) of SBS i to candidates[col],
    counting every body in the room.
    """

    candidates: tuple[int, ...]
    weights: np.ndarray


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Exact assignment of every row of an m x n cost matrix, m <= n, O(m^2 n).

    Shortest-augmenting-path form with row/column potentials; deterministic,
    scanning columns in index order. Returns column matched to each row.

    It matches the real rows exactly as the square problem padded with
    constant dummy rows would: a dummy row, solved last, always augments
    straight onto a free column, so it never moves a real row's match.
    """
    m, n = cost.shape
    table = cost.tolist()  # Python floats: a numpy scalar per read is slow
    inf = float("inf")
    u = [0.0] * (m + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: row matched to column j (1-based, 0 free)
    way = [0] * (n + 1)
    for i in range(1, m + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        reached = [0]  # columns on the tree, in the order they joined it
        unreached = list(range(1, n + 1))  # the rest, in index order
        while True:
            i0 = match[j0]
            row = table[i0 - 1]
            ui = u[i0]
            delta = inf
            j1 = 0
            for j in unreached:
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta:  # a zero step moves no potential
                for j in reached:
                    u[match[j]] += delta
                    v[j] -= delta
                for j in unreached:
                    minv[j] -= delta
            unreached.remove(j1)
            reached.append(j1)
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * m
    for j in range(1, n + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def hungarian_max(weights) -> AssignmentSolution:
    """Maximum-weight bipartite matching on a rectangular weight matrix.

    Any pair may be left unmatched, so entries <= 0 never appear in the
    result (skipping them costs nothing).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    m, n = w.shape
    if m == 0 or n == 0:
        return AssignmentSolution(matching=())
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")

    # Columns are padded to the row count; rows are not (see
    # `_min_cost_assignment`). The constant is the square padding's maximum.
    padded = np.zeros((m, max(m, n)))
    padded[:, :n] = np.maximum(w, 0.0)
    row_to_col = _min_cost_assignment(padded.max() - padded)
    return AssignmentSolution(
        matching=tuple((i, j) for i, j in enumerate(row_to_col) if j < n and w[i, j] > 0.0)
    )


def build_slot_problem(
    state: env.EnvState, vap_set: tuple[int, int, int], links: env.SlotLinks
) -> SlotAssignmentProblem:
    """Collect the slot's candidate users and their (SBS, user) links.

    `links` are the state's `env.slot_links`.
    """
    if len(vap_set) != 3:
        raise ValueError("exactly 3 VAPs must be lit")
    pool = np.flatnonzero(links.localized(vap_set) & ~np.array(state.served))
    return SlotAssignmentProblem(candidates=tuple(pool.tolist()), weights=links.h[:, pool])


def slot_assign(
    state: env.EnvState, vap_set: tuple[int, int, int], links: env.SlotLinks
) -> AssignmentSolution:
    """One slot's matching of SBSs to localized unserved users (`match_slots`
    of one state).

    Weights are the link feasibility h per (SBS, user) from the state's
    `env.slot_links`; physical blockage counts every body in the room,
    localized or not. Matching entries are (sbs_index, user_index) with
    global user indices, in SBS order.
    """
    pool = links.localized(vap_set) & ~np.array(state.served)
    (assigned,) = match_slots(links.h[None], pool[None]).tolist()
    return AssignmentSolution(matching=tuple(sorted((s, j) for j, s in enumerate(assigned) if s >= 0)))


def match_slots(h: np.ndarray, pools: np.ndarray) -> np.ndarray:
    """assigned[p, user]: the SBS matched to the user in slot matching p,
    -1 for none, from the links h[p, sbs, user] and the candidates
    pools[p, user] (the localized, not-yet-served users).

    Where every SBS reaches every candidate the Hungarian is skipped: on a
    constant matrix it matches row i to column i, the lowest free column,
    for every i < min(m, n), so SBS i takes the i-th candidate. It runs on
    the other matrices, one at a time.
    """
    rank = np.cumsum(pools, axis=1) - 1
    assigned = np.where(pools & (rank < h.shape[1]), rank, -1)
    full = (h | ~pools[:, None, :]).all(axis=(1, 2))
    for p in np.flatnonzero(~full).tolist():
        candidates = np.flatnonzero(pools[p])
        assigned[p] = -1
        for i, col in hungarian_max(h[p][:, candidates]).matching:
            assigned[p, candidates[col]] = i
    return assigned


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
