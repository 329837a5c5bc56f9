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


def vap_decoder(actions: tuple[tuple[int, int, int], ...]):
    """Decoder for `meta_rl.rollout_period`: each index's VAP subset, who it
    localizes, and the slot matching of the localized unserved users."""
    vap_table = np.array(actions)

    def decode(indices: np.ndarray, visible: np.ndarray, h: np.ndarray, served: np.ndarray):
        vap_sets = vap_table[indices]
        localized = env.lit(visible, vap_sets)
        return vap_sets, localized, association.match_slots(h, localized & ~served)

    return decode


# The VAP head's phase entry is the joint head's (the decoder is what tells
# the heads apart), kept under this name for the per-head span in perfbench.
rollout_vap = meta_rl.rollout_joint
