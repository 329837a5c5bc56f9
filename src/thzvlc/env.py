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
from itertools import combinations
from math import perm
from typing import Callable

import numpy as np

from . import channel
from .geometry import below_top, crossings
from .channel import OpticsParams, RadioParams

# Above this many joint actions the flat policy head becomes impractical.
JOINT_ACTION_CAP = 2_000_000

# `brute_force_oracle` refuses to search more action sequences than this.
ORACLE_SEQUENCE_CAP = 10_000_000


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
    def tables(self) -> tuple[_Crossings, Callable[[tuple[float, ...]], np.ndarray]]:
        """The crossing table, and the link table of each tuple of user
        heights (see `slot_links`).

        A link table is bool[user, cell, unit], VAPs first: the unit's link
        to user j standing in that cell passes its test other than blockage
        (the FOV for a VAP, delivery within the slot over a clear path for
        an SBS). It is built whole on first use, one pass over every cell
        per user, and is read-only. A run keeps revisiting the same heights,
        as they are fixed per task; the bound keeps an evaluation over many
        fresh tasks from growing the cache without end. Pickles leave the
        tables out, and the cell centres too.
        """
        cross = _Crossings(self)
        link_table = partial(_link_table, cross, self.num_vaps, self.optics, self.radio)
        return cross, lru_cache(maxsize=1024)(link_table)

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
    """Row-stochastic transition matrix over grid cells, shared by all users."""

    transition: np.ndarray

    def __post_init__(self):
        t = self.transition
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("MovementPattern.transition must be a square matrix")
        if not np.isfinite(t).all():
            raise ValueError("MovementPattern.transition entries must be finite")
        if (t < 0).any():
            raise ValueError("MovementPattern.transition entries must be >= 0")
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("every MovementPattern.transition row must sum to 1")
        t.setflags(write=False)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sums along each row, for drawing the next cell."""
        return np.cumsum(self.transition, axis=1)

    @cached_property
    def last_support(self) -> np.ndarray:
        """Each row's last cell with positive probability."""
        t = self.transition
        return t.shape[1] - 1 - np.argmax(t[:, ::-1] > 0, axis=1)


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

    def assigned_sbs(self, user: int) -> int | None:
        for u, s in self.assignments:
            if u == user:
                return s
        return None


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
    encoding: np.ndarray
    action_index: int
    action: JointAction
    newly_served: tuple[int, ...]
    localized: tuple[bool, ...]
    tx_ok: tuple[bool, ...]


@dataclass(frozen=True)
class Trajectory:
    """One rollout of a full period."""

    task_id: int
    steps: tuple[TrajectoryStep, ...]
    final_state: EnvState

    @property
    def total_reward(self) -> int:
        return sum(len(s.newly_served) for s in self.steps)


def sample_task(
    cells_per_side: int, seed: int, concentration: float, locality_radius: int, task_id: int
) -> Task:
    """Draw a movement pattern: Dirichlet rows over Chebyshev-neighbor cells.

    locality_radius 0 yields the identity matrix (users never move).
    """
    n = cells_per_side
    g = n * n
    rng = np.random.default_rng(seed)
    matrix = np.zeros((g, g))
    for idx in range(g):
        ix, iy = idx % n, idx // n
        neighbors = [
            jy * n + jx
            for jy in range(max(0, iy - locality_radius), min(n, iy + locality_radius + 1))
            for jx in range(max(0, ix - locality_radius), min(n, ix + locality_radius + 1))
        ]
        if len(neighbors) == 1:
            matrix[idx, neighbors[0]] = 1.0
        else:
            matrix[idx, neighbors] = rng.dirichlet([concentration] * len(neighbors))
    return Task(pattern=MovementPattern(matrix), rng_seed=seed, id=task_id)


def reset(task: Task, scenario: ScenarioConfig) -> EnvState:
    """Initial state of a period; deterministic in the task seed."""
    rng = np.random.default_rng([task.rng_seed])
    cells = rng.integers(0, scenario.num_cells, scenario.num_users)
    lo, hi = scenario.user_height_range
    heights = rng.uniform(lo, hi, scenario.num_users)
    return EnvState(
        user_cells=tuple(int(c) for c in cells),
        user_heights=tuple(float(h) for h in heights),
        served=(False,) * scenario.num_users,
        slot_index=0,
    )


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
        a, b, c = vap_set
        return self.visible[a] & self.visible[b] & self.visible[c]


class _Crossings:
    """The XY stage of the blockage test for every (receiver cell, unit,
    body cell) of a scenario.

    Users stand on cell centres and every body has the scenario's radius,
    so only the z stage depends on a state. A receiver cell's row is
    worked out the first time a user stands there, so memory pages are
    touched only for cells users visit: the whole table grows with the
    fourth power of `cells_per_side`.
    """

    def __init__(self, scenario: ScenarioConfig):
        units = scenario.vap_positions + scenario.sbs_positions
        self.units = np.array([(x, y, scenario.ceiling_z) for x, y in units])
        self.centers = np.array(scenario.cell_centers)
        self.radius = scenario.body_radius
        shape = (len(self.centers), len(units), len(self.centers))
        self.meets = np.zeros(shape, dtype=bool)
        self.lo = np.zeros(shape)
        self.hi = np.zeros(shape)
        self.filled = np.zeros(len(self.centers), dtype=bool)

    def gather(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(meets, lo, hi)[unit, user, other user] for users in these cells."""
        if not self.filled[cells].all():
            visited = np.zeros_like(self.filled)
            visited[cells] = True
            todo = np.flatnonzero(visited & ~self.filled)
            meets, lo, hi = crossings(self.units, self.centers[todo], self.centers, self.radius)
            self.meets[todo] = meets.transpose(1, 0, 2)
            self.lo[todo] = lo.transpose(1, 0, 2)
            self.hi[todo] = hi.transpose(1, 0, 2)
            self.filled[todo] = True
        # rows first, then their body columns: [user, unit, other user]
        return tuple(a[cells][:, :, cells].transpose(1, 0, 2) for a in (self.meets, self.lo, self.hi))


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


def slot_links(state: EnvState, scenario: ScenarioConfig) -> SlotLinks:
    """The state's VAP visibility and SBS feasibility.

    The blockage test's XY stage comes from the scenario's crossing table;
    only its z stage runs here, with every other body counted.
    """
    cross, link_table = scenario.tables
    users = np.arange(scenario.num_users)
    cells = np.array(state.user_cells)
    free = link_table(state.user_heights)[users, cells]
    heights = np.array(state.user_heights)

    meets, lo, hi = cross.gather(cells)
    hit = below_top(meets, lo, hi, cross.units[:, 2], heights, heights)
    hit[:, users, users] = False  # a receiver's own body
    ok = free.T & ~hit.any(axis=2)
    return SlotLinks(visible=ok[: scenario.num_vaps], h=ok[scenario.num_vaps :])


def evaluate_service(
    state: EnvState,
    action: JointAction,
    scenario: ScenarioConfig,
    links: SlotLinks,
) -> ServiceOutcome:
    """Evaluate one slot at the state's positions, without advancing time.

    `links` are the state's `slot_links`.
    """
    loc = links.localized(action.vap_set).tolist()
    tx = [False] * scenario.num_users
    for j, sbs in action.assignments:
        tx[j] = bool(links.h[sbs, j])

    served_after = tuple((p and h) or w for p, h, w in zip(loc, tx, state.served))
    newly = tuple(j for j in range(scenario.num_users) if served_after[j] and not state.served[j])
    return ServiceOutcome(
        localized=tuple(loc), tx_ok=tuple(tx), served_after=served_after, newly_served=newly
    )


def next_cells(pattern: MovementPattern, cells, draws: np.ndarray) -> np.ndarray:
    """One Markov transition for every user, from the users' uniform draws.

    Each user's next cell is the first whose running row sum exceeds its
    draw (else the row's last cell of positive probability). `cells` and
    `draws` may carry leading row axes, one row per period.
    """
    cumulative = pattern.cumulative[cells]
    return np.minimum((cumulative <= draws[..., None]).sum(axis=-1), pattern.last_support[cells])


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

    Actions are materialized on demand; index i maps to the i-th pair of the
    VAP subset in `enumerate_vap_actions` order and the lexicographic
    assignment permutation.
    """

    def __init__(self, num_vaps: int, num_users: int, num_sbs: int):
        self._vap_sets = enumerate_vap_actions(num_vaps)
        self.num_vaps = num_vaps
        self.num_users = num_users
        self.num_sbs = num_sbs
        hi, lo = max(num_users, num_sbs), min(num_users, num_sbs)
        self._assoc_count = perm(hi, lo)
        self._len = len(self._vap_sets) * self._assoc_count

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> JointAction:
        if not 0 <= index < self._len:
            raise IndexError(index)
        vap_rank, assoc_rank = divmod(index, self._assoc_count)
        vap_set = self._vap_sets[vap_rank]
        if self.num_users <= self.num_sbs:
            stations = _unrank_permutation(assoc_rank, self.num_sbs, self.num_users)
            pairs = tuple((u, s) for u, s in enumerate(stations))
        else:
            users = _unrank_permutation(assoc_rank, self.num_users, self.num_sbs)
            pairs = tuple(sorted((u, s) for s, u in enumerate(users)))
        return JointAction(vap_set=vap_set, assignments=pairs)

    def __iter__(self):
        for i in range(self._len):
            yield self[i]


def _unrank_permutation(rank: int, n: int, k: int) -> tuple[int, ...]:
    avail = list(range(n))
    out = []
    for i in range(k):
        block = perm(n - 1 - i, k - 1 - i)
        idx, rank = divmod(rank, block)
        out.append(avail.pop(idx))
    return tuple(out)


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
