"""VAP-only policy trained with the meta loop; association by matching.

The policy picks which 3 VAPs to light; the user-SBS association for that
slot is the Hungarian matching over localized unserved users. Leaving
already-served users out of the matching enforces the serve-once-per-period
rule directly during rollouts, so no prices are needed there; the priced
period solver is `association.solve_period_association`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import association, env, meta_rl
from .env import JointAction, ScenarioConfig, Task, Trajectory
from .policy_net import PolicyParams


@dataclass(frozen=True)
class VapAction:
    """One 3-subset of VAPs plus its index in the lexicographic enumeration."""

    vap_set: tuple[int, int, int]
    action_index: int


def enumerate_vap_actions(num_vaps: int) -> tuple[VapAction, ...]:
    """All C(V, 3) subsets in lexicographic order."""
    if num_vaps < 3:
        raise ValueError("need at least 3 VAPs")
    return tuple(
        VapAction(vap_set=c, action_index=i)
        for i, c in enumerate(combinations(range(num_vaps), 3))
    )


def vap_decoder(actions: tuple[VapAction, ...], scenario: ScenarioConfig):
    """Decoder for `meta_rl.rollout_period`: the VAP subset plus its slot matching."""

    def decode(idx: int, state: env.EnvState, links: env.SlotLinks) -> JointAction:
        vap_set = actions[idx].vap_set
        solution = association.slot_assign(state, vap_set, scenario, links)
        pairs = tuple(sorted((user, sbs) for sbs, user in solution.matching))
        return JointAction(vap_set=vap_set, assignments=pairs)

    return decode


def rollout_vap(
    task: Task,
    params: PolicyParams,
    actions: tuple[VapAction, ...],
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    realization: env.MobilityRealization | None = None,
) -> Trajectory:
    """One period under the VAP-selection policy with per-slot matching."""
    return meta_rl.rollout_period(
        task, params, vap_decoder(actions, scenario), scenario, rng, realization
    )
