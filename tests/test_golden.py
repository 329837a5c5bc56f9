"""Golden runs: the sha256 of each run's metrics.csv and trajectories.csv.

The learning pin also pins the trained parameters: the float64 payload of
checkpoint.bin after its JSON header line (whose config hash covers the
output directory), rounded to 1e-10 so that the summation order of another
CPU's BLAS kernels cannot move the digest.

A refactor that is meant to keep behaviour must keep these bytes. A change
that moves them on purpose updates the digests here and says in CHANGES.md
which predicate or which float moved, and why.
"""

import hashlib

import numpy as np
import pytest

from thzvlc import harness

# the toy config of acceptance criterion 10
TOY_MPG = (
    "[scenario]\nnum_users = 2\ncells_per_side = 3\nslots_per_period = 2\n"
    "vap_positions = 2,2; 4,2; 2,4; 4,4\nsbs_positions = 2,3; 4,3\n"
    "[learning]\ninner_rollouts = 3\nouter_rollouts = 2\nmeta_iterations = 3\n"
    "tasks_per_batch = 2\nhidden_sizes = 8\n[tasks]\ncount = 3\n"
    "[run]\nalgorithm = mpg\nmaster_seed = 7\n"
)

# the ten-second full-room example of the README
README_DMPG = (
    "[learning]\nmeta_iterations = 8\ninner_rollouts = 5\nouter_rollouts = 3\n"
    "tasks_per_batch = 3\n\n[tasks]\ncount = 6\n\n[run]\nalgorithm = dmpg\n"
)

# the toy config without the reward baseline: every coefficient is the
# return 2, so the gradient and the meta update move the policy. The eval
# pass still serves everyone, so only checkpoint.bin shows the update.
TOY_MPG_LEARNING = TOY_MPG.replace("hidden_sizes = 8\n", "hidden_sizes = 8\nreward_baseline = false\n")

GOLDEN = {
    "toy_mpg": (
        TOY_MPG,
        "d4362e10307136a190420fd784fb942c4a8fa108d857c97fd1a10d78591e8668",
        "517ca160c336a459a1b72f0a1a484172af1e994497c628b3ef17c73b653a58ec",
    ),
    "readme_dmpg": (
        README_DMPG,
        "5248a7034f77fd344a81ed2229688cfe311714387819de6838779fe5b0536172",
        "0d3f5d8f9a80f4123f868581594facc818aa777f391631f280bbfda68b6be28c",
    ),
    "toy_mpg_learning": (
        TOY_MPG_LEARNING,
        "d4362e10307136a190420fd784fb942c4a8fa108d857c97fd1a10d78591e8668",
        "517ca160c336a459a1b72f0a1a484172af1e994497c628b3ef17c73b653a58ec",
    ),
}

CHECKPOINTS = {
    "toy_mpg_learning": "ad3dcf7c6e9c92fa35639cb5435410b9e4a1bdafe2f3057d75cc52973c935966",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_digests(name, tmp_path, capsys):
    text, metrics_sha, trajectories_sha = GOLDEN[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert harness.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    expected = {"metrics.csv": metrics_sha, "trajectories.csv": trajectories_sha}
    if name in CHECKPOINTS:
        expected["checkpoint.bin"] = CHECKPOINTS[name]
    digest = {}
    for f in expected:
        data = (out / f).read_bytes()
        if f == "checkpoint.bin":
            flat = np.frombuffer(data.split(b"\n", 1)[1], dtype="<f8")
            data = (np.round(flat, 10) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        digest[f] = hashlib.sha256(data).hexdigest()
    assert digest == expected
