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
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from math import comb, perm

import numpy as np

from . import channel
from .geometry import Point3, RoomGrid, below_top, crossings, make_grid
from .channel import OpticsParams, RadioParams

# Above this many joint actions the flat policy head becomes impractical.
JOINT_ACTION_CAP = 2_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable room, radio, optics and episode constants."""

    room_side: float
    ceiling_z: float
    vap_positions: tuple[Point3, ...]
    sbs_positions: tuple[Point3, ...]
    num_users: int
    user_height_range: tuple[float, float]
    body_radius: float
    grid: RoomGrid
    slots_per_period: int
    num_periods: int
    radio: RadioParams
    optics: OpticsParams

    def __post_init__(self):
        if len(self.vap_positions) < 3:
            raise ValueError("at least 3 VAPs are required")
        if not self.sbs_positions:
            raise ValueError("at least 1 SBS is required")
        for p in self.vap_positions + self.sbs_positions:
            if p.z != self.ceiling_z:
                raise ValueError("all VAPs and SBSs must sit at the ceiling height")
        if self.num_users < 1 or self.slots_per_period < 1:
            raise ValueError("num_users and slots_per_period must be >= 1")
        lo, hi = self.user_height_range
        if not 0 < lo <= hi < self.ceiling_z:
            raise ValueError("user height range must lie strictly below the ceiling")

    def __hash__(self) -> int:
        # The per-scenario tables are looked up every slot, and hashing every
        # field (unit positions, cell centres, ...) costs more than the
        # lookup, so the hash is worked out once. Pickles leave it out: a
        # hash need not agree between processes.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def num_vaps(self) -> int:
        return len(self.vap_positions)

    @property
    def num_sbs(self) -> int:
        return len(self.sbs_positions)


def ring_positions(count: int, room_side: float, z: float, phase: float = 0.0) -> tuple[Point3, ...]:
    """One unit at the room center plus count-1 on a ring of radius side/3."""
    cx = cy = room_side / 2.0
    pts = [Point3(cx, cy, z)]
    ring = count - 1
    radius = room_side / 3.0
    for i in range(ring):
        ang = phase + 2.0 * math.pi * i / ring
        pts.append(Point3(cx + radius * math.cos(ang), cy + radius * math.sin(ang), z))
    return tuple(pts[:count])


def default_scenario(
    num_users: int = 20,
    num_vaps: int = 7,
    num_sbs: int = 7,
    room_side: float = 6.0,
    ceiling_z: float = 3.0,
    cells_per_side: int = 6,
    slots_per_period: int = 3,
    num_periods: int = 20,
    fov_semi_angle_deg: float = 75.0,
    bandwidth_hz: float = 1.0e10,
    slot_duration_s: float = 0.01,
    absorption_per_m: float = 0.01,
) -> ScenarioConfig:
    """Reference indoor scenario: 6 m x 6 m room, ceiling units at 3 m."""
    radio = RadioParams(
        carrier_freq_hz=1.0e12,
        bandwidth_hz=bandwidth_hz,
        tx_power_w=1.0,
        absorption_per_m=absorption_per_m,
        noise_density_w_per_hz=channel.dbm_per_hz_to_w_per_hz(-174.0),
        image_size_bits=20.0e6,
        slot_duration_s=slot_duration_s,
    )
    optics = OpticsParams(fov_semi_angle_rad=math.radians(fov_semi_angle_deg))
    return ScenarioConfig(
        room_side=room_side,
        ceiling_z=ceiling_z,
        vap_positions=ring_positions(num_vaps, room_side, ceiling_z, phase=0.0),
        sbs_positions=ring_positions(num_sbs, room_side, ceiling_z, phase=math.pi / 6.0),
        num_users=num_users,
        user_height_range=(1.4, 1.9),
        body_radius=0.2,
        grid=make_grid(room_side, cells_per_side),
        slots_per_period=slots_per_period,
        num_periods=num_periods,
        radio=radio,
        optics=optics,
    )


@dataclass(frozen=True)
class MovementPattern:
    """Row-stochastic transition matrix over grid cells, shared by all users."""

    transition: np.ndarray

    def __post_init__(self):
        t = self.transition
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition must be a square matrix")
        if (t < 0).any():
            raise ValueError("transition entries must be nonnegative")
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("every transition row must sum to 1")
        t.setflags(write=False)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sums along each row, for drawing the next cell."""
        return np.cumsum(self.transition, axis=1)


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


def user_point(state: EnvState, grid: RoomGrid, user: int) -> Point3:
    cx, cy = grid.cell_center(state.user_cells[user])
    return Point3(cx, cy, state.user_heights[user])


def sample_task(
    grid: RoomGrid,
    seed: int,
    concentration: float = 1.0,
    locality_radius: int = 1,
    task_id: int | None = None,
) -> Task:
    """Draw a movement pattern: Dirichlet rows over Chebyshev-neighbor cells.

    locality_radius 0 yields the identity matrix (users never move).
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if locality_radius < 0:
        raise ValueError("locality_radius yields an empty neighbor set")
    n = grid.cells_per_side
    g = grid.num_cells
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
    return Task(pattern=MovementPattern(matrix), rng_seed=seed, id=seed if task_id is None else task_id)


def reset(task: Task, scenario: ScenarioConfig) -> EnvState:
    """Initial state of a period; deterministic in the task seed."""
    rng = np.random.default_rng([task.rng_seed])
    cells = rng.integers(0, scenario.grid.num_cells, scenario.num_users)
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
    worked out on first use, as `_LinkTable` fills its flags, so memory
    pages are touched only for cells users visit: the whole table grows
    with the fourth power of `cells_per_side`.
    """

    def __init__(self, scenario: ScenarioConfig):
        units = scenario.vap_positions + scenario.sbs_positions
        self.units = np.array([(p.x, p.y, p.z) for p in units])
        self.centers = np.array(scenario.grid.cell_centers)
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


@lru_cache(maxsize=8)
def _crossings(scenario: ScenarioConfig) -> _Crossings:
    """One table per scenario (14 units x 36**2 cell pairs: about 0.3 MB when full)."""
    return _Crossings(scenario)


class _LinkTable:
    """The blockage-free link terms of one task's user heights.

    free[j, cell, unit] is 1 when the unit's link to user j standing in that
    cell passes its blockage-free test (the FOV for a VAP, the range for an
    SBS), 0 when it fails and -1 until first needed. The flags come from the
    scalar `channel` formulas, so they match them bit for bit: the range
    flag is the budget of a clear link, and a blocked link never delivers.
    """

    def __init__(self, scenario: ScenarioConfig, heights: tuple[float, ...]):
        self.heights = np.array(heights)
        units = scenario.num_vaps + scenario.num_sbs
        self.free = np.full((len(heights), scenario.grid.num_cells, units), -1, dtype=np.int8)

    def fill(self, state: EnvState, scenario: ScenarioConfig, user: int) -> np.ndarray:
        point = user_point(state, scenario.grid, user)
        all_sbs = list(scenario.sbs_positions)
        fov = scenario.optics.fov_semi_angle_rad
        row = [channel.incidence_angle(vap, point) <= fov for vap in scenario.vap_positions]
        row += [
            channel.budget_given_los(sbs, point, True, all_sbs, scenario.radio).tx_ok
            for sbs in all_sbs
        ]
        self.free[user, state.user_cells[user]] = row
        return self.free[user, state.user_cells[user]]


@lru_cache(maxsize=1024)
def _link_table(scenario: ScenarioConfig, heights: tuple[float, ...]) -> _LinkTable:
    """The table shared by every state of the tasks with these heights.

    Heights are fixed per task and a run keeps revisiting the same cells, so
    the blockage-free terms are worked out once per (user, cell). The bound
    keeps an evaluation over many fresh tasks from growing the cache
    without end.
    """
    return _LinkTable(scenario, heights)


def slot_links(state: EnvState, scenario: ScenarioConfig) -> SlotLinks:
    """The state's VAP visibility and SBS feasibility.

    The blockage test's XY stage comes from the scenario's crossing table;
    only its z stage runs here, with every other body counted.
    """
    cross = _crossings(scenario)
    table = _link_table(scenario, state.user_heights)
    users = np.arange(scenario.num_users)
    cells = np.array(state.user_cells)
    free = table.free[users, cells]
    for j in np.flatnonzero(free[:, 0] < 0):
        free[j] = table.fill(state, scenario, int(j))

    meets, lo, hi = cross.gather(cells)
    hit = below_top(meets, lo, hi, cross.units[:, 2], table.heights, table.heights)
    hit[:, users, users] = False  # a receiver's own body
    ok = (free.T == 1) & ~hit.any(axis=2)
    return SlotLinks(visible=ok[: scenario.num_vaps], h=ok[scenario.num_vaps :])


def evaluate_service(
    state: EnvState,
    action: JointAction,
    scenario: ScenarioConfig,
    links: SlotLinks | None = None,
) -> ServiceOutcome:
    """Evaluate one slot at the state's positions, without advancing time.

    `links` are the state's `slot_links`, computed here when not given.
    """
    if links is None:
        links = slot_links(state, scenario)
    loc = links.localized(action.vap_set).tolist()
    tx = [False] * scenario.num_users
    for j, sbs in action.assignments:
        tx[j] = bool(links.h[sbs, j])

    served_after = tuple((p and h) or w for p, h, w in zip(loc, tx, state.served))
    newly = tuple(j for j in range(scenario.num_users) if served_after[j] and not state.served[j])
    return ServiceOutcome(
        localized=tuple(loc), tx_ok=tuple(tx), served_after=served_after, newly_served=newly
    )


def sample_next_cells(pattern: MovementPattern, cells: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
    """One Markov transition for every user.

    Each user's next cell is the first whose running row sum exceeds its
    uniform draw (the last cell when rounding leaves the sum below it).
    """
    draws = rng.random(len(cells))
    cumulative = pattern.cumulative[list(cells)]
    nxt = np.minimum((cumulative <= draws[:, None]).sum(axis=1), cumulative.shape[1] - 1)
    return tuple(nxt.tolist())


def step(
    state: EnvState,
    action: JointAction,
    task: Task,
    scenario: ScenarioConfig,
    rng: np.random.Generator | None = None,
) -> tuple[EnvState, set[int]]:
    """Evaluate service at the current positions, then move the users.

    With no rng supplied the transition draw is seeded by (task seed, slot),
    making the step a deterministic function of its arguments.
    """
    if state.slot_index >= scenario.slots_per_period:
        raise ValueError("cannot step past the end of the period")
    outcome = evaluate_service(state, action, scenario)
    if rng is None:
        rng = np.random.default_rng([task.rng_seed, state.slot_index])
    next_cells = sample_next_cells(task.pattern, state.user_cells, rng)
    next_state = EnvState(
        user_cells=next_cells,
        user_heights=state.user_heights,
        served=outcome.served_after,
        slot_index=state.slot_index + 1,
    )
    return next_state, set(outcome.newly_served)


def period_reliability(traj: Trajectory) -> int:
    """Number of distinct users served during the period."""
    if not traj.steps:
        raise ValueError("trajectory must span at least one slot")
    return traj.total_reward


@dataclass(frozen=True)
class MobilityRealization:
    """Pre-drawn user paths: cells[t] holds every user's cell at slot t."""

    cells: tuple[tuple[int, ...], ...]  # slots_per_period + 1 entries
    heights: tuple[float, ...]


def sample_realization(task: Task, scenario: ScenarioConfig, realization_seed: int = 0) -> MobilityRealization:
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


class JointActionSpace:
    """Deterministically ordered joint actions: every 3-VAP subset crossed
    with every full one-to-one association of the smaller side.

    Actions are materialized on demand; index i maps to the i-th pair of the
    lexicographic VAP combination and lexicographic assignment permutation.
    """

    def __init__(self, num_vaps: int, num_users: int, num_sbs: int):
        if num_vaps < 3:
            raise ValueError("need at least 3 VAPs")
        self.num_vaps = num_vaps
        self.num_users = num_users
        self.num_sbs = num_sbs
        self._vap_count = comb(num_vaps, 3)
        hi, lo = max(num_users, num_sbs), min(num_users, num_sbs)
        self._assoc_count = perm(hi, lo)
        self._len = self._vap_count * self._assoc_count

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> JointAction:
        if not 0 <= index < self._len:
            raise IndexError(index)
        vap_rank, assoc_rank = divmod(index, self._assoc_count)
        vap_set = _unrank_combination(vap_rank, self.num_vaps, 3)
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

    def index(self, action: JointAction) -> int:
        vap_rank = _rank_combination(action.vap_set, self.num_vaps)
        if self.num_users <= self.num_sbs:
            if len(action.assignments) != self.num_users:
                raise ValueError("expected a full association of every user")
            stations = tuple(s for _, s in action.assignments)
            assoc_rank = _rank_permutation(stations, self.num_sbs)
        else:
            if len(action.assignments) != self.num_sbs:
                raise ValueError("expected a full association of every SBS")
            by_sbs = sorted(action.assignments, key=lambda p: p[1])
            users = tuple(u for u, _ in by_sbs)
            assoc_rank = _rank_permutation(users, self.num_users)
        return vap_rank * self._assoc_count + assoc_rank


def _unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    x = 0
    for i in range(k):
        while comb(n - 1 - x, k - 1 - i) <= rank:
            rank -= comb(n - 1 - x, k - 1 - i)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _rank_combination(combo: tuple[int, ...], n: int) -> int:
    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for x in range(prev + 1, c):
            rank += comb(n - 1 - x, k - 1 - i)
        prev = c
    return rank


def _unrank_permutation(rank: int, n: int, k: int) -> tuple[int, ...]:
    avail = list(range(n))
    out = []
    for i in range(k):
        block = perm(n - 1 - i, k - 1 - i)
        idx, rank = divmod(rank, block)
        out.append(avail.pop(idx))
    return tuple(out)


def _rank_permutation(values: tuple[int, ...], n: int) -> int:
    avail = list(range(n))
    k = len(values)
    rank = 0
    for i, v in enumerate(values):
        idx = avail.index(v)
        rank += idx * perm(n - 1 - i, k - 1 - i)
        avail.pop(idx)
    return rank


def enumerate_joint_actions(scenario: ScenarioConfig, cap: int = JOINT_ACTION_CAP) -> JointActionSpace:
    """Joint action space, refused when its size would exceed the cap."""
    space = JointActionSpace(scenario.num_vaps, scenario.num_users, scenario.num_sbs)
    if len(space) > cap:
        raise ValueError(
            f"joint action space has {len(space)} actions (cap {cap}); "
            "use the dual-method trainer for scenarios this large"
        )
    return space


def brute_force_oracle(
    task: Task,
    scenario: ScenarioConfig,
    fixed_realization_seed: int = 0,
    max_sequences: int = 10_000_000,
) -> tuple[int, tuple[JointAction, ...]]:
    """Best open-loop action sequence against one fixed mobility outcome.

    Exhaustive over action sequences; used as a test oracle only. Returns
    the maximum period reward and the first sequence attaining it.
    """
    actions = enumerate_joint_actions(scenario)
    t_slots = scenario.slots_per_period
    if len(actions) ** t_slots > max_sequences:
        raise ValueError(
            f"{len(actions)}^{t_slots} sequences exceed the {max_sequences} guard"
        )
    real = sample_realization(task, scenario, fixed_realization_seed)

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
