"""The per-period MDP: mobility, service state, reward, and action spaces.

A period is an episode of T slots. Each slot the controller lights 3 VAPs
and associates users to SBSs (one-to-one); a user becomes served when it is
localized by all 3 VAPs and its assigned THz link delivers the image within
the slot. Service is sticky within a period, and the episode reward is the
number of distinct users served. Users move between slots on the room grid
according to the period's Markov movement pattern; positions are frozen
while a slot is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, permutations
from math import perm
from typing import Callable

import numpy as np

from . import channel
from .geometry import crossings
from .channel import OpticsParams, RadioParams

# Above this many joint actions the flat policy head becomes impractical.
JOINT_ACTION_CAP = 2_000_000

# `brute_force_oracle` refuses to search more action sequences than this.
ORACLE_SEQUENCE_CAP = 10_000_000

# Entries a scenario keeps of its link tables, and of its task starts.
_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable room, radio, optics and episode constants, each held once:
    users walk on cells_per_side**2 equal cells of a square floor, under
    VAPs and SBSs at their (x, y) on the ceiling. Each key's own domain is
    checked at load (`harness.SCHEMA`); this checks what ties keys together."""

    room_side: float
    ceiling_z: float
    vap_positions: tuple[tuple[float, float], ...]
    sbs_positions: tuple[tuple[float, float], ...]
    num_users: int
    user_height_range: tuple[float, float]
    body_radius: float
    cells_per_side: int
    slots_per_period: int
    radio: RadioParams
    optics: OpticsParams

    def __post_init__(self):
        for key in ("vap_positions", "sbs_positions"):
            for x, y in getattr(self, key):
                if not (0 <= x <= self.room_side and 0 <= y <= self.room_side):
                    raise ValueError(
                        f"scenario.{key}: ({x!r}, {y!r}) lies outside the "
                        f"scenario.room_side = {self.room_side!r} m room"
                    )
        lo, hi = self.user_height_range
        if not lo <= hi < self.ceiling_z:
            raise ValueError(
                "scenario.user_height_min <= scenario.user_height_max < scenario.ceiling must hold, "
                f"got {lo!r}, {hi!r}, {self.ceiling_z!r}"
            )

    @property
    def num_cells(self) -> int:
        return self.cells_per_side * self.cells_per_side

    @cached_property
    def cell_centers(self) -> tuple[tuple[float, float], ...]:
        """(x, y) of every cell's centre: idx = iy * cells_per_side + ix,
        centre ((ix + 0.5) * cell, (iy + 0.5) * cell)."""
        n = self.cells_per_side
        cell = self.room_side / n
        return tuple(((ix + 0.5) * cell, (iy + 0.5) * cell) for iy in range(n) for ix in range(n))

    @cached_property
    def tables(self) -> tuple[_Crossings, Callable[[tuple[float, ...]], np.ndarray], Callable[[int], TaskStart]]:
        """The crossing table, the link table of each tuple of user heights
        (see `ceiling_links`), and the start of each task seed.

        A link table is bool[user, cell, unit], VAPs first: the unit's link
        to user j standing in that cell passes its test other than blockage
        (the FOV for a VAP, delivery within the slot over a clear path for
        an SBS). It is built whole on first use, one pass over every cell
        per user, and is read-only. A task's start (`TaskStart`) is drawn
        once per seed. A run keeps revisiting the same tasks and heights;
        the bound keeps an evaluation over many fresh tasks from growing
        either cache without end. The caches hold the crossing table, not
        the scenario, so a room is freed with its last reference. Pickles
        leave the tables out, and the cell centres too.
        """
        cross = _Crossings(self)
        link_table = lru_cache(maxsize=_CACHE_SIZE)(
            partial(_link_table, cross, self.num_vaps, self.optics, self.radio)
        )
        start = partial(_task_start, cross, link_table, self.num_users, self.user_height_range)
        return cross, link_table, lru_cache(maxsize=_CACHE_SIZE)(start)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("tables", None)
        state.pop("cell_centers", None)
        return state

    @property
    def num_vaps(self) -> int:
        return len(self.vap_positions)

    @property
    def num_sbs(self) -> int:
        return len(self.sbs_positions)


def ring_positions(count: int, room_side: float, phase: float) -> tuple[tuple[float, float], ...]:
    """(x, y) of one unit at the room center plus count-1 on a ring of radius side/3."""
    cx = cy = room_side / 2.0
    pts = [(cx, cy)]
    ring = count - 1
    radius = room_side / 3.0
    for i in range(ring):
        ang = phase + 2.0 * math.pi * i / ring
        pts.append((cx + radius * math.cos(ang), cy + radius * math.sin(ang)))
    return tuple(pts[:count])


@dataclass(frozen=True)
class MovementPattern:
    """Markov movement over grid cells, shared by all users, as neighbour
    rows: from cell c a user moves to cell to[c, i] with probability
    probs[c, i]. A row's k entries are its neighbours in row-major order,
    right-aligned and padded on the left with 0.0 entries."""

    to: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        to, p = self.to, self.probs
        if p.ndim != 2 or to.shape != p.shape:
            raise ValueError("MovementPattern.to and .probs must be (cells, k) arrays of one shape")
        if not np.isfinite(p).all():
            raise ValueError("MovementPattern.probs entries must be finite")
        if (p < 0).any():
            raise ValueError("MovementPattern.probs entries must be >= 0")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("every MovementPattern.probs row must sum to 1")
        to.setflags(write=False)
        p.setflags(write=False)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sums along each row, for drawing the next cell."""
        return np.cumsum(self.probs, axis=1)

    @cached_property
    def last_support(self) -> np.ndarray:
        """Each row's last entry with positive probability."""
        p = self.probs
        return p.shape[1] - 1 - np.argmax(p[:, ::-1] > 0, axis=1)


@dataclass(frozen=True)
class Task:
    """One period's mobility pattern plus the seed that replays it."""

    pattern: MovementPattern
    rng_seed: int
    id: int


@dataclass(frozen=True)
class EnvState:
    """World state at the start of a slot."""

    user_cells: tuple[int, ...]
    user_heights: tuple[float, ...]
    served: tuple[bool, ...]
    slot_index: int


@dataclass(frozen=True)
class JointAction:
    """3 lit VAPs plus a partial one-to-one user->SBS association."""

    vap_set: tuple[int, int, int]
    assignments: tuple[tuple[int, int], ...]  # (user, sbs), sorted by user

    def __post_init__(self):
        if len(self.vap_set) != 3 or len(set(self.vap_set)) != 3:
            raise ValueError("vap_set must contain exactly 3 distinct indices")
        if tuple(sorted(self.vap_set)) != tuple(self.vap_set):
            raise ValueError("vap_set must be sorted")
        users = [u for u, _ in self.assignments]
        stations = [s for _, s in self.assignments]
        if len(set(users)) != len(users) or len(set(stations)) != len(stations):
            raise ValueError("association must be one-to-one")
        if sorted(users) != users:
            raise ValueError("assignments must be sorted by user")


@dataclass(frozen=True)
class ServiceOutcome:
    """Per-user outcome of evaluating one slot's action."""

    localized: tuple[bool, ...]
    tx_ok: tuple[bool, ...]
    served_after: tuple[bool, ...]
    newly_served: tuple[int, ...]


@dataclass(frozen=True)
class TrajectoryStep:
    """State seen by the policy, the action taken, and what it produced."""

    state: EnvState
    action_index: int
    action: JointAction
    newly_served: tuple[int, ...]
    localized: tuple[bool, ...]
    tx_ok: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Periods:
    """A batch of periods as arrays: row b is one period of T slots and U users.

    cells[b, t] and served[b, t] hold the users' cells and served flags at
    the start of slot t, and at t = T after the period; heights[b] the
    users' heights. Per slot: action[b, t] the sampled index, vap_sets[b, t]
    its three lit VAPs, assigned[b, t, j] the SBS associated with user j
    (-1 for none), and what the service found, localized and tx_ok.
    """

    heights: np.ndarray
    cells: np.ndarray
    served: np.ndarray
    action: np.ndarray
    vap_sets: np.ndarray
    assigned: np.ndarray
    localized: np.ndarray
    tx_ok: np.ndarray

    def __len__(self) -> int:
        return len(self.action)

    @property
    def newly_served(self) -> np.ndarray:
        """bool[b, t, user]: served after slot t and not before."""
        return self.served[:, 1:] & ~self.served[:, :-1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One rollout of a full period: row `row` of a batch of periods.

    Its steps and final state are built from the arrays the first time
    they are read, with the types of `TrajectoryStep` and `EnvState`.
    """

    periods: Periods
    row: int

    @property
    def total_reward(self) -> int:
        return int(self.periods.newly_served[self.row].sum())

    @cached_property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        p, b = self.periods, self.row
        heights = tuple(p.heights[b].tolist())
        cells, served = p.cells[b].tolist(), p.served[b].tolist()
        newly = p.newly_served[b]
        return tuple(
            TrajectoryStep(
                state=EnvState(tuple(cells[t]), heights, tuple(served[t]), t),
                action_index=int(p.action[b, t]),
                action=JointAction(
                    tuple(p.vap_sets[b, t].tolist()),
                    tuple((j, s) for j, s in enumerate(p.assigned[b, t].tolist()) if s >= 0),
                ),
                newly_served=tuple(np.flatnonzero(newly[t]).tolist()),
                localized=tuple(p.localized[b, t].tolist()),
                tx_ok=tuple(p.tx_ok[b, t].tolist()),
            )
            for t in range(len(p.action[b]))
        )

    @cached_property
    def final_state(self) -> EnvState:
        p, b = self.periods, self.row
        slots = len(p.action[b])
        return EnvState(
            tuple(p.cells[b, slots].tolist()), tuple(p.heights[b].tolist()), tuple(p.served[b, slots].tolist()), slots
        )


def sample_task(
    cells_per_side: int, seed: int, concentration: float, locality_radius: int, task_id: int
) -> Task:
    """Draw a movement pattern: Dirichlet rows over Chebyshev-neighbor cells.

    Row by row, in cell order, it equals `rng.dirichlet([concentration] * k)`
    over a cell's k neighbors in row-major order, drawn in one array pass.
    locality_radius 0 yields one entry per row, the cell itself (users never
    move).
    """
    r = min(locality_radius, cells_per_side - 1)
    counts, to = _neighbours(cells_per_side, r)
    probs = _dirichlet_rows(np.random.default_rng(seed), counts, concentration) if r else np.ones(to.shape)
    return Task(pattern=MovementPattern(to, probs), rng_seed=seed, id=task_id)


@lru_cache(maxsize=8)  # the tasks of a run share their room's table
def _neighbours(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's count of neighbours within r along both axes of an n x n
    grid, and the read-only (cells, max count) int32 table of those
    neighbours in row-major order, right-aligned; padding names the first."""
    lo = np.maximum(np.arange(n, dtype=np.int32) - r, 0)  # i reaches lo[i], ..., lo[i] + span[i] - 1
    span = np.minimum(np.arange(n, dtype=np.int32) + r + 1, n) - lo
    counts = np.outer(span, span)
    # entry j of cell (iy, ix) is its neighbour i = j - padding (0 on the
    # padding): i // span[ix] rows and i % span[ix] columns past the first
    i = np.maximum(np.arange(counts.max(), dtype=np.int32) - (counts.max() - counts)[..., None], 0)
    to = i // span[:, None]
    to *= n - span[:, None]
    to += i
    to += np.add.outer(lo * n, lo)[..., None]
    to.setflags(write=False)
    return counts.ravel(), to.reshape(n * n, -1)


def _dirichlet_rows(rng: np.random.Generator, counts: np.ndarray, concentration: float) -> np.ndarray:
    """Symmetric Dirichlet draws for rows of counts[i] >= 2 entries, bit for
    bit as one `rng.dirichlet` call per row, as a C-ordered (rows, max count)
    table: each row right-aligned and padded on the left with 0.0.

    Both of numpy's branches are followed. One pass over the table's columns
    adds or breaks every row in numpy's order: a leading 0.0 leaves a sum
    unchanged, and a leading 0.0 stick leaves the rest at 1.0.
    """
    width = int(counts.max())
    inside = np.arange(width) >= (width - counts)[:, None]
    table = np.zeros((len(counts), width), order="F")
    if concentration >= 0.1:
        # gammas over their sum, added entry by entry, times its reciprocal
        table[inside] = rng.standard_gamma(concentration, size=int(counts.sum()))
        acc = np.zeros(len(counts))
        for column in table.T:
            acc += column
        table *= (1.0 / acc)[:, None]
    else:
        # stick-breaking: each beta's b is the alpha sum of the row's tail,
        # added from the row's end; the last entry is what is left
        tails = np.cumsum(np.full(width - 1, concentration))[::-1]
        sticks = inside[:, :-1]
        table[:, :-1][sticks] = rng.beta(concentration, np.broadcast_to(tails, sticks.shape)[sticks])
        acc = np.ones(len(counts))
        for column in table.T[:-1]:
            rest = 1.0 - column
            column *= acc
            acc *= rest
        table[:, -1] = acc
    return np.ascontiguousarray(table)


def reset(task: Task, scenario: ScenarioConfig) -> EnvState:
    """Initial state of a period; deterministic in the task seed, and read
    from the scenario's start of that seed (`TaskStart`)."""
    start = scenario.tables[2](task.rng_seed)
    return EnvState(
        user_cells=tuple(start.cells.tolist()),
        user_heights=start.heights,
        served=(False,) * scenario.num_users,
        slot_index=0,
    )


class TaskStart:
    """Where a task's periods start: every user's cell (read-only) and
    height, drawn from the task seed, and the ceiling links there
    (bool[unit, user], `ceiling_links`), worked out when first read."""

    def __init__(self, cells: np.ndarray, heights: tuple[float, ...], cross: _Crossings, link_table):
        self.cells = cells
        self.heights = heights
        self._tables = cross, link_table

    @cached_property
    def links(self) -> np.ndarray:
        cross, link_table = self._tables
        free = link_table(self.heights)[np.arange(len(self.cells)), self.cells]
        (ok,) = ceiling_links(self.cells[None], np.array([self.heights]), free[None], cross)
        ok.setflags(write=False)
        return ok


def _task_start(
    cross: _Crossings, link_table, num_users: int, height_range: tuple[float, float], seed: int
) -> TaskStart:
    rng = np.random.default_rng([seed])
    cells = rng.integers(0, len(cross.centers), num_users)
    lo, hi = height_range
    heights = rng.uniform(lo, hi, num_users)
    cells.setflags(write=False)
    return TaskStart(cells, tuple(heights.tolist()), cross, link_table)


@dataclass(frozen=True)
class SlotLinks:
    """Every ceiling link at one state's positions, every other body counted.

    visible[k, j]: VAP k lies inside user j's FOV and its optical path is
    clear. h[i, j]: SBS i's THz link to user j is clear and delivers the
    image within the slot.
    """

    visible: np.ndarray
    h: np.ndarray

    def localized(self, vap_set: tuple[int, int, int]) -> np.ndarray:
        """bool[user]: all three lit VAPs reach the user."""
        return lit(self.visible[None], np.array([vap_set]))[0]


def lit(visible: np.ndarray, vap_sets: np.ndarray) -> np.ndarray:
    """bool[p, user]: all three VAPs of set p reach the user, from
    visible[p, vap, user] and vap_sets[p, 3]."""
    return visible[np.arange(len(vap_sets))[:, None], vap_sets].all(axis=1)


class _Crossings:
    """The XY stage of the blockage test for every (receiver cell, body
    cell, unit) of a scenario, as one float: where the link's floor
    projection first comes within the body's radius, as a share of the way
    from the receiver up to the unit (`geometry.crossings`' lo), or NaN
    where it never does; and meet[receiver cell, body cell], whether the
    projection of any unit's link to the one comes within that radius of
    the other at all.

    Every unit hangs from the ceiling, above every receiver, so the lowest
    point of a link inside a body's footprint is always that first point
    (`geometry.below_top` takes lo), and lo is all the z stage reads. Users
    stand on cell centres and every body has the scenario's radius, so only
    the z stage depends on a state, and only over cell pairs that meet. A
    receiver cell's row is worked out the first time a user stands there,
    so memory pages are touched only for cells users visit: the whole table
    grows with the fourth power of `cells_per_side`.
    """

    def __init__(self, scenario: ScenarioConfig):
        units = scenario.vap_positions + scenario.sbs_positions
        self.units = np.array([(x, y, scenario.ceiling_z) for x, y in units])
        self.ceiling = scenario.ceiling_z
        self.centers = np.array(scenario.cell_centers)
        self.radius = scenario.body_radius
        self.lo = np.empty((len(self.centers), len(self.centers), len(units)))
        self.meet = np.zeros((len(self.centers), len(self.centers)), dtype=bool)
        self.filled = np.zeros(len(self.centers), dtype=bool)

    def fill(self, cells: np.ndarray) -> None:
        """Work out the rows of the receiver cells among `cells` not yet
        filled."""
        if not self.filled[cells].all():
            visited = np.zeros_like(self.filled)
            visited[cells] = True
            todo = np.flatnonzero(visited & ~self.filled)
            meets, lo, _ = crossings(self.units, self.centers[todo], self.centers, self.radius)
            self.lo[todo] = np.where(meets, lo, np.nan).transpose(1, 2, 0)
            self.meet[todo] = meets.any(axis=0)
            self.filled[todo] = True


def _link_table(
    cross: _Crossings, num_vaps: int, optics: OpticsParams, radio: RadioParams, heights: tuple[float, ...]
) -> np.ndarray:
    vaps, sbs = cross.units[:num_vaps], cross.units[num_vaps:]
    table = np.empty((len(heights), len(cross.centers), len(cross.units)), dtype=bool)
    points = np.column_stack((cross.centers, np.empty(len(cross.centers))))
    for j, height in enumerate(heights):
        points[:, 2] = height
        fov = channel.incidence_angle(vaps, points) <= optics.fov_semi_angle_rad
        reach = channel.budget_given_los(sbs, points, True, sbs, radio).tx_ok
        table[j] = np.concatenate((fov, reach)).T
    table.setflags(write=False)
    return table


def ceiling_links(cells: np.ndarray, heights: np.ndarray, free: np.ndarray, cross: _Crossings) -> np.ndarray:
    """bool[state, unit, user]: the unit's link to the user passes its test
    other than blockage (free[state, user, unit], from the link tables) and
    no other user's body blocks it, for the states of users in
    cells[state, user] at heights[state, user].

    The XY stage comes from the scenario's crossing table (`cross`,
    `ScenarioConfig.tables`); only the z stage runs here, with the float
    operations of `geometry.below_top`, over every unit of each (state,
    user, other user) whose cells meet, in one numpy pass. Every height must
    lie below the ceiling, as a scenario's do.
    """
    _, users, units = free.shape
    cross.fill(cells)
    pair = cells[:, :, None] * len(cross.centers) + cells[:, None, :]  # [state, user, other user]
    meet = cross.meet.ravel()[pair]
    meet[:, np.arange(users), np.arange(users)] = False  # a receiver's own body
    at = np.flatnonzero(meet)
    z = cross.lo.reshape(-1, units).take(pair.ravel()[at], axis=0)
    rx, other = np.divmod(at, users)  # rx: flat (state, user)
    top = heights.ravel()[rx - rx % users + other][:, None]
    rx_z = heights.ravel()[rx][:, None]
    z *= cross.ceiling - rx_z
    z += rx_z
    at, unit = np.nonzero(z <= top)  # NaN, where the XY stage misses, is never
    ok = free.copy()
    ok.reshape(-1, units)[rx[at], unit] = False
    return ok.transpose(0, 2, 1)


def slot_links(state: EnvState, scenario: ScenarioConfig) -> SlotLinks:
    """The state's VAP visibility and SBS feasibility (`ceiling_links` of
    one state)."""
    heights = np.array([state.user_heights])
    if not (heights < scenario.ceiling_z).all():
        raise ValueError(f"every user must stand below the ceiling at {scenario.ceiling_z!r} m")
    cells = np.array([state.user_cells])
    cross, link_table, _ = scenario.tables
    free = link_table(state.user_heights)[np.arange(scenario.num_users), cells]
    (ok,) = ceiling_links(cells, heights, free, cross)
    return SlotLinks(visible=ok[: scenario.num_vaps], h=ok[scenario.num_vaps :])


def serve(
    localized: np.ndarray, h: np.ndarray, assigned: np.ndarray, served: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(tx_ok, served after) of slots: user j's assigned SBS delivers to it
    (False when it has none), and j is served after the slot when it was
    before or is localized with tx_ok. h[p, sbs, user] are slot p's SBS
    links and assigned[p, user] each user's SBS or -1."""
    slots, users = assigned.shape
    reach = h[np.arange(slots)[:, None], np.maximum(assigned, 0), np.arange(users)]
    tx_ok = reach & (assigned >= 0)
    return tx_ok, served | (localized & tx_ok)


def evaluate_service(
    state: EnvState,
    action: JointAction,
    scenario: ScenarioConfig,
    links: SlotLinks,
) -> ServiceOutcome:
    """Evaluate one slot at the state's positions, without advancing time.

    `links` are the state's `slot_links`.
    """
    assigned = np.full(scenario.num_users, -1, dtype=np.intp)
    for j, sbs in action.assignments:
        assigned[j] = sbs
    before = np.array(state.served)
    loc = links.localized(action.vap_set)
    ((tx,), (after,)) = serve(loc[None], links.h[None], assigned[None], before[None])
    return ServiceOutcome(
        localized=tuple(loc.tolist()),
        tx_ok=tuple(tx.tolist()),
        served_after=tuple(after.tolist()),
        newly_served=tuple(np.flatnonzero(after & ~before).tolist()),
    )


def next_cells(pattern: MovementPattern, cells, draws: np.ndarray) -> np.ndarray:
    """One Markov transition for every user, from the users' uniform draws.

    Each user's next cell is that of the first entry of its row whose
    running sum exceeds its draw (else of the row's last entry of positive
    probability). `cells` and `draws` may carry leading row axes, one row
    per period.
    """
    at = np.minimum((pattern.cumulative[cells] <= draws[..., None]).sum(axis=-1), pattern.last_support[cells])
    return pattern.to[cells, at]


def sample_next_cells(pattern: MovementPattern, cells: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
    """`next_cells` of one period, one draw per user from the rng."""
    return tuple(next_cells(pattern, list(cells), rng.random(len(cells))).tolist())


@dataclass(frozen=True)
class MobilityRealization:
    """Pre-drawn user paths: cells[t] holds every user's cell at slot t."""

    cells: tuple[tuple[int, ...], ...]  # slots_per_period + 1 entries
    heights: tuple[float, ...]


def sample_realization(task: Task, scenario: ScenarioConfig, realization_seed: int) -> MobilityRealization:
    """Fix one mobility outcome of the task for replay or exhaustive search."""
    start = reset(task, scenario)
    rng = np.random.default_rng([task.rng_seed, 7919, realization_seed])
    path = [start.user_cells]
    for _ in range(scenario.slots_per_period):
        path.append(sample_next_cells(task.pattern, path[-1], rng))
    return MobilityRealization(cells=tuple(path), heights=start.user_heights)


def state_at_slot(real: MobilityRealization, slot: int, served: tuple[bool, ...]) -> EnvState:
    return EnvState(
        user_cells=real.cells[slot], user_heights=real.heights, served=served, slot_index=slot
    )


def enumerate_vap_actions(num_vaps: int) -> tuple[tuple[int, int, int], ...]:
    """All C(V, 3) VAP subsets in lexicographic order; a subset's position
    is its action index."""
    return tuple(combinations(range(num_vaps), 3))


class JointActionSpace:
    """Deterministically ordered joint actions: every 3-VAP subset crossed
    with every full one-to-one association of the smaller side.

    Index i is assoc_count * v + r: the v-th VAP subset in
    `enumerate_vap_actions` order and the r-th association, the r-th
    permutation in lexicographic order of the larger side's indices taken
    as many at a time as the smaller side has (the SBS of each user when
    users are fewer, else the user of each SBS). Actions are materialized
    on demand from the table of those permutations.
    """

    def __init__(self, num_vaps: int, num_users: int, num_sbs: int):
        self.vap_sets = enumerate_vap_actions(num_vaps)
        self.num_vaps = num_vaps
        self.num_users = num_users
        self.num_sbs = num_sbs
        self.assoc_count = perm(max(num_users, num_sbs), min(num_users, num_sbs))
        self._len = len(self.vap_sets) * self.assoc_count

    def __len__(self) -> int:
        return self._len

    def assigned(self, ranks: np.ndarray) -> np.ndarray:
        """[rank, user]: each user's SBS in these associations, -1 for none."""
        table = _permutations(max(self.num_users, self.num_sbs), min(self.num_users, self.num_sbs))[ranks]
        if self.num_users <= self.num_sbs:
            return table
        out = np.full((len(table), self.num_users), -1, dtype=np.intp)
        np.put_along_axis(out, table, np.arange(self.num_sbs), axis=1)
        return out

    def __getitem__(self, index: int) -> JointAction:
        if not 0 <= index < self._len:
            raise IndexError(index)
        vap_rank, assoc_rank = divmod(index, self.assoc_count)
        (row,) = self.assigned(np.array([assoc_rank])).tolist()
        return JointAction(
            vap_set=self.vap_sets[vap_rank], assignments=tuple((u, s) for u, s in enumerate(row) if s >= 0)
        )


# A head's action space is built again for every task phase; its table is
# kept for the last few room shapes instead.
@lru_cache(maxsize=8)
def _permutations(n: int, k: int) -> np.ndarray:
    """Every k-permutation of range(n), one per row, in lexicographic order
    (read-only)."""
    table = np.fromiter(chain.from_iterable(permutations(range(n), k)), dtype=np.intp, count=perm(n, k) * k)
    table = table.reshape(perm(n, k), k)
    table.setflags(write=False)
    return table


def enumerate_joint_actions(scenario: ScenarioConfig) -> JointActionSpace:
    """Joint action space, refused when its size would exceed JOINT_ACTION_CAP."""
    space = JointActionSpace(scenario.num_vaps, scenario.num_users, scenario.num_sbs)
    if len(space) > JOINT_ACTION_CAP:
        raise ValueError(
            f"scenario.num_vaps, scenario.num_sbs and scenario.num_users give the joint head "
            f"{len(space)} actions (cap {JOINT_ACTION_CAP}); "
            "use the dual-method trainer (run.algorithm = dmpg) for scenarios this large"
        )
    return space


def brute_force_oracle(
    task: Task, scenario: ScenarioConfig, realization_seed: int
) -> tuple[int, tuple[JointAction, ...]]:
    """Best open-loop action sequence against one fixed mobility outcome.

    Exhaustive over action sequences, so for small scenarios only: `thzvlc
    oracle` runs it, and the tests use it as the reference optimum. Returns
    the maximum period reward and the first sequence attaining it.
    """
    actions = enumerate_joint_actions(scenario)
    t_slots = scenario.slots_per_period
    if len(actions) ** t_slots > ORACLE_SEQUENCE_CAP:
        raise ValueError(
            f"{len(actions)}^{t_slots} sequences exceed the {ORACLE_SEQUENCE_CAP} guard"
        )
    real = sample_realization(task, scenario, realization_seed)

    # Physics ignores the served flags, so each (slot, action) has a fixed
    # servable user set; the search only tracks which users are served.
    action_list = list(actions)
    servable: list[list[frozenset[int]]] = []
    blank = (False,) * scenario.num_users
    for t in range(t_slots):
        state = state_at_slot(real, t, blank)
        links = slot_links(state, scenario)
        per_action = []
        for a in action_list:
            out = evaluate_service(state, a, scenario, links)
            per_action.append(
                frozenset(j for j in range(scenario.num_users) if out.localized[j] and out.tx_ok[j])
            )
        servable.append(per_action)

    best_reward = -1
    best_seq: tuple[int, ...] = ()
    users = frozenset(range(scenario.num_users))
    max_per_slot = min(scenario.num_users, scenario.num_sbs)

    def search(t: int, served: frozenset[int], seq: tuple[int, ...]):
        nonlocal best_reward, best_seq
        if t == t_slots:
            if len(served) > best_reward:
                best_reward = len(served)
                best_seq = seq
            return
        bound = len(served) + min(len(users - served), max_per_slot * (t_slots - t))
        if bound <= best_reward:
            return
        for i, can in enumerate(servable[t]):
            search(t + 1, served | can, seq + (i,))

    search(0, frozenset(), ())
    return best_reward, tuple(action_list[i] for i in best_seq)
