"""VAP-only policy trained with the meta loop; association by matching.

The policy picks which 3 VAPs to light; the user-SBS association for that
slot is the Hungarian matching over localized unserved users. Leaving
already-served users out of the matching enforces the serve-once-per-period
rule directly during rollouts, so no prices are needed there; the priced
period solver is the reference in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from . import association, env, meta_rl
from .env import JointAction, ScenarioConfig, Task, Trajectory
from .policy_net import Policy


def vap_decoder(actions: tuple[tuple[int, int, int], ...], scenario: ScenarioConfig):
    """Decoder for `meta_rl.rollout_period`: the VAP subset plus its slot matching."""

    def decode(idx: int, state: env.EnvState, links: env.SlotLinks) -> JointAction:
        vap_set = actions[idx]
        solution = association.slot_assign(state, vap_set, scenario, links)
        pairs = tuple(sorted((user, sbs) for sbs, user in solution.matching))
        return JointAction(vap_set=vap_set, assignments=pairs)

    return decode


def rollout_vap(
    task: Task,
    params: Policy,
    actions: tuple[tuple[int, int, int], ...],
    scenario: ScenarioConfig,
    rng: np.random.Generator,
    count: int,
) -> list[Trajectory]:
    """`count` periods of one task under the VAP-selection policy with
    per-slot matching, in lockstep, from one draw of the rng."""
    return meta_rl.rollout_period(
        [task] * count,
        params,
        vap_decoder(actions, scenario),
        scenario,
        meta_rl.draw_uniforms(rng, count, scenario),
    )
