"""VAP-only policy trained with the meta loop; association by matching.

The policy picks which 3 VAPs to light; the user-SBS association for that
slot is the Hungarian matching over localized unserved users. Leaving
already-served users out of the matching enforces the serve-once-per-period
rule directly during rollouts, so no prices are needed there; the priced
period solver is the reference in `tests/oracles.py`.
"""

from __future__ import annotations

from . import association, env, meta_rl
from .env import JointAction


def vap_decoder(actions: tuple[tuple[int, int, int], ...]):
    """Decoder for `meta_rl.rollout_period`: the VAP subset plus its slot matching."""

    def decode(idx: int, state: env.EnvState, links: env.SlotLinks) -> JointAction:
        vap_set = actions[idx]
        solution = association.slot_assign(state, vap_set, links)
        pairs = tuple(sorted((user, sbs) for sbs, user in solution.matching))
        return JointAction(vap_set=vap_set, assignments=pairs)

    return decode


# The VAP head's phase entry is the joint head's (the decoder is what tells
# the heads apart), kept under this name for the per-head span in perfbench.
rollout_vap = meta_rl.rollout_joint
