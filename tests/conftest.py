import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from thzvlc import channel, env, harness


def reference_scenario(**keys):
    """The config schema's reference room, with these [scenario] keys set."""
    overrides = {("scenario", key): value for key, value in keys.items()}
    return harness.load_spec(None, environ={}, overrides=overrides).scenario


def reference_learning(**keys):
    """The config schema's reference learning settings, with these
    [learning] keys set."""
    overrides = {("learning", key): value for key, value in keys.items()}
    return harness.load_spec(None, environ={}, overrides=overrides).learning


def make_toy_scenario(
    num_users=2,
    num_sbs=2,
    slots_per_period=2,
    vap_xy=((2.0, 2.0), (4.0, 2.0), (2.0, 4.0), (4.0, 4.0)),
    sbs_xy=((2.0, 3.0), (4.0, 3.0)),
    cells_per_side=3,
    fov_deg=75.0,
    room_side=6.0,
    ceiling=3.0,
):
    """Small joint-action scenario with the reference radio; defaults give
    C(4,3) * 2! = 8 actions."""
    return env.ScenarioConfig(
        room_side=room_side,
        ceiling_z=ceiling,
        vap_positions=tuple(vap_xy),
        sbs_positions=tuple(sbs_xy[:num_sbs]),
        num_users=num_users,
        user_height_range=(1.4, 1.9),
        body_radius=0.2,
        cells_per_side=cells_per_side,
        slots_per_period=slots_per_period,
        radio=reference_scenario().radio,
        optics=channel.OpticsParams(fov_semi_angle_rad=math.radians(fov_deg)),
    )


@pytest.fixture
def toy_scenario():
    return make_toy_scenario()


@pytest.fixture
def default_radio():
    return reference_scenario().radio
