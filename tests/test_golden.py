"""Golden runs: the sha256 of each run's metrics.csv and trajectories.csv,
and of what `simulate`, `eval` and `adapt` write.

The learning pin also pins the trained parameters: the float64 payload of
checkpoint.bin after its JSON header line (whose config hash covers the
output directory), rounded to 1e-10 so that the summation order of another
CPU's BLAS kernels cannot move the digest. The adapted checkpoint is pinned
the same way.

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

# `thzvlc simulate --periods 5`: the untrained policy's rollouts over the
# task stream, one rng per period
SIMULATE = {
    "toy_mpg": (TOY_MPG, "2269392947eea48ffea3f1e161943949b97febfa6cdd820497c888fec685a710"),
    "readme_dmpg": (README_DMPG, "9be94bf263fe9cad424e42cb21d95a442498ccea846047e169b43608cf5a3d70"),
}

# (config_hash, scenario_hash) of each config, as a checkpoint records them;
# the empty config is the reference room. The toy configs' canonical text
# writes each count as the length of its position list.
IDENTITY = {
    "toy_mpg": (TOY_MPG, "0d9c56603d4c7d57", "6e1a249d9b81a4e1"),
    "readme_dmpg": (README_DMPG, "ab770f96390aafb6", "2eae577672a82f51"),
    "toy_mpg_learning": (TOY_MPG_LEARNING, "e5ab846a4c9dfb7d", "6e1a249d9b81a4e1"),
    "empty": ("", "23cd08b5bf0c0b86", "2eae577672a82f51"),
}

CHECKPOINTS = {
    "toy_mpg_learning": "ad3dcf7c6e9c92fa35639cb5435410b9e4a1bdafe2f3057d75cc52973c935966",
}


def _rounded_payload(path) -> bytes:
    """A checkpoint's float64 payload after its JSON header line, rounded to 1e-10."""
    flat = np.frombuffer(path.read_bytes().split(b"\n", 1)[1], dtype="<f8")
    return (np.round(flat, 10) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0


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
        data = _rounded_payload(out / f) if f == "checkpoint.bin" else (out / f).read_bytes()
        digest[f] = hashlib.sha256(data).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_config_identity_hashes(name, tmp_path):
    text, config_hash, scenario_hash = IDENTITY[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    spec = harness.load_spec(cfg, environ={})
    assert (spec.config_hash, spec.scenario_hash) == (config_hash, scenario_hash)


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_golden_simulate_digest(name, tmp_path, capsys):
    text, trajectories_sha = SIMULATE[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert harness.main(["simulate", "--config", str(cfg), "--periods", "5", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest() == trajectories_sha


@pytest.fixture(scope="module")
def learned_toy(tmp_path_factory):
    """The toy learning run's config file and checkpoint."""
    root = tmp_path_factory.mktemp("learned_toy")
    cfg = root / "run.cfg"
    cfg.write_text(TOY_MPG_LEARNING)
    assert harness.main(["train", "--config", str(cfg), "--out", str(root / "train")]) == 0
    return cfg, root / "train" / "checkpoint.bin"


# `thzvlc eval --periods 4` and `thzvlc adapt --steps 3` from the toy
# learning run's checkpoint
EVAL = {
    "trajectories.csv": "b044dbb07f709f05b507fdc0bc1ec7e2bbbad5f176e7130e601145eda2aebd8f",
    "summary.json": "65b6137eff7b9959cf8ecddbce1340523685f4561b01e393a5a52766320f2ba1",
}

ADAPT = {
    "adapt_curve.csv": "aa196df1c7ec2a237877231ea88364473e4c11680687a64aec244c527b53fd38",
    "adapted_checkpoint.bin": "a1e3f5c654b1617edb4735292955fd09fa275fd3de5cf2a1ddc950a7d5cbf7ec",
}


def test_golden_eval_digests(learned_toy, tmp_path, capsys):
    cfg, checkpoint = learned_toy
    out = tmp_path / "out"
    argv = ["eval", "--config", str(cfg), "--checkpoint", str(checkpoint), "--periods", "4"]
    assert harness.main(argv + ["--out", str(out)]) == 0
    digest = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in EVAL}
    assert digest == EVAL


def test_golden_adapt_digests(learned_toy, tmp_path, capsys):
    cfg, checkpoint = learned_toy
    out = tmp_path / "out"
    argv = ["adapt", "--config", str(cfg), "--checkpoint", str(checkpoint), "--steps", "3"]
    assert harness.main(argv + ["--out", str(out)]) == 0
    digest = {
        "adapt_curve.csv": hashlib.sha256((out / "adapt_curve.csv").read_bytes()).hexdigest(),
        "adapted_checkpoint.bin": hashlib.sha256(_rounded_payload(out / "adapted_checkpoint.bin")).hexdigest(),
    }
    assert digest == ADAPT


def test_eval_accepts_the_runs_own_config(learned_toy, tmp_path, capsys):
    # the config.txt a run writes loads back as the config its checkpoint
    # was trained under
    _, checkpoint = learned_toy
    written = checkpoint.parent / "config.txt"
    argv = ["eval", "--config", str(written), "--checkpoint", str(checkpoint), "--periods", "4"]
    assert harness.main(argv + ["--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err
    digest = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in EVAL}
    assert digest == EVAL
