import csv
import json
import math
import os

import numpy as np
import pytest

from thzvlc import env, harness, meta_rl, policy_net
from thzvlc.artifacts import atomic_open
from thzvlc.harness import ConfigError, build_task_stream, load_spec, main, parse_config_text, run, serialize_spec

TOY_CONFIG = """
[scenario]
num_users = 2
cells_per_side = 3
slots_per_period = 2
vap_positions = 2,2; 4,2; 2,4; 4,4
sbs_positions = 2,3; 4,3

[learning]
inner_rollouts = 3
outer_rollouts = 2
meta_iterations = 2
tasks_per_batch = 2
hidden_sizes = 8

[tasks]
count = 3
locality_radius = 1

[run]
algorithm = mpg
master_seed = 0
eval_periods = 2
"""


def _die_in_worker(payload):
    """A task phase that kills the forked pool worker running it."""
    os._exit(3)


def toy_spec(tmp_path, out_name="out", extra=None):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    overrides = {("run", "output_dir"): str(tmp_path / out_name)}
    overrides.update(extra or {})
    return load_spec(cfg, environ={}, overrides=overrides)


class TestLoadSpec:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        spec = load_spec(cfg, environ={})
        radio = spec.scenario.radio
        assert radio.carrier_freq_hz == 1e12
        assert radio.tx_power_w == 1.0
        assert radio.image_size_bits == 2e7
        assert radio.noise_density_w_per_hz == pytest.approx(10 ** ((-174 - 30) / 10))
        assert spec.scenario.slots_per_period == 3
        assert spec.scenario.room_side == 6.0
        assert spec.scenario.ceiling_z == 3.0
        assert spec.scenario.num_vaps == 7
        assert spec.scenario.num_sbs == 7
        assert spec.scenario.num_users == 20
        assert spec.learning.inner_rollouts == 50
        assert spec.learning.outer_rollouts == 10
        assert spec.learning.inner_lr == 0.1
        assert spec.learning.meta_lr == 0.01

    def test_misspelled_key_named(self):
        with pytest.raises(ConfigError, match="inner_lrr"):
            parse_config_text("[learning]\ninner_lrr = 0.1\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="radioo"):
            parse_config_text("[radioo]\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[learning]\ninner_lr = 0.1\ninner_rollouts = many\n")

    def test_constraint_violation_names_field(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[radio]\ntx_power_w = -1\n")
        with pytest.raises(ConfigError, match="tx_power_w"):
            load_spec(cfg, environ={})

    def test_round_trip_canonical(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        once = serialize_spec(parse_config_text(TOY_CONFIG))
        twice = serialize_spec(parse_config_text(once))
        assert once == twice

    def test_env_overrides(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        spec = load_spec(cfg, environ={"THZVLC_RUN__MASTER_SEED": "9"})
        assert spec.master_seed == 9

    def test_unknown_env_override_rejected(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("")
        with pytest.raises(ConfigError, match="THZVLC_RUN__MASTRE_SEED"):
            load_spec(cfg, environ={"THZVLC_RUN__MASTRE_SEED": "9"})

    def test_mpg_over_cap_rejected(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[scenario]\nnum_users = 20\n[run]\nalgorithm = mpg\n")
        with pytest.raises(ConfigError, match="dual"):
            load_spec(cfg, environ={})

    def test_dmpg_defaults_load(self, tmp_path):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("")
        spec = load_spec(cfg, environ={})
        assert spec.algorithm == "dmpg"


class TestRun:
    def test_artifacts_and_metrics_length(self, tmp_path):
        spec = toy_spec(tmp_path)
        result = run(spec)
        out = tmp_path / "out"
        assert len(result.iterations) == spec.learning.meta_iterations
        for name in ("metrics.csv", "timing.csv", "checkpoint.bin", "trajectories.csv", "summary.json", "config.txt"):
            assert (out / name).exists()
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_reward", "std_reward"]
        assert len(rows) == 1 + spec.learning.meta_iterations

    def test_metrics_byte_identical_across_runs(self, tmp_path):
        spec_a = toy_spec(tmp_path, out_name="a")
        run(spec_a)
        spec_b = toy_spec(tmp_path, out_name="b")
        run(spec_b)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_reliability_recomputable_from_trajectory_log(self, tmp_path):
        spec = toy_spec(tmp_path)
        result = run(spec)
        served = 0
        periods = set()
        with open(tmp_path / "out" / "trajectories.csv") as fh:
            for row in csv.DictReader(fh):
                served += int(row["newly_served"])
                periods.add(row["period"])
        recomputed = served / (spec.scenario.num_users * len(periods))
        assert recomputed == pytest.approx(result.avg_reliability_per_user)
        assert 0.0 <= result.avg_reliability_per_user <= 1.0

    def test_dmpg_and_mpg_trajectory_headers_match(self, tmp_path):
        headers = []
        for algo in ("mpg", "dmpg"):
            run(toy_spec(tmp_path, out_name=algo, extra={("run", "algorithm"): algo}))
            with open(tmp_path / algo / "trajectories.csv") as fh:
                headers.append(next(csv.reader(fh)))
        assert headers[0] == headers[1]
        assert headers[0] == [
            "period", "slot", "user", "cell_x", "cell_y", "height",
            "localized", "assigned_sbs", "tx_ok", "newly_served",
        ]

    def test_baseline_pg_runs(self, tmp_path):
        spec = toy_spec(tmp_path, out_name="pg", extra={("run", "algorithm"): "pg"})
        result = run(spec)
        assert len(result.iterations) == spec.learning.meta_iterations


class TestCli:
    def test_print_config_reports_reference_defaults(self, capsys):
        for command in (
            ["train"], ["adapt", "--checkpoint", "none.bin"], ["eval", "--checkpoint", "none.bin"],
            ["oracle"], ["simulate"],
        ):
            assert main([*command, "--print-config"]) == 0
            values = parse_config_text(capsys.readouterr().out)
            assert values["radio"]["carrier_freq_hz"] == 1e12
            assert values["radio"]["tx_power_w"] == 1.0
            assert values["radio"]["image_size_bits"] == 2e7
            assert values["radio"]["noise_density_dbm_per_hz"] == -174.0
            assert values["scenario"]["slots_per_period"] == 3
            assert values["scenario"]["room_side"] == 6.0
            assert values["scenario"]["ceiling"] == 3.0
            assert values["scenario"]["num_vaps"] == 7
            assert values["scenario"]["num_sbs"] == 7
            assert values["learning"]["inner_rollouts"] == 50
            assert values["learning"]["outer_rollouts"] == 10
            assert values["learning"]["inner_lr"] == 0.1
            assert values["learning"]["meta_lr"] == 0.01

    def test_usage_error_exit_code_2(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--algo", "nonsense"])
        assert err.value.code == 2

    def test_missing_subcommand_exit_code_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_config_error_exit_code_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[radio]\ntx_power_w = -1\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "tx_power_w" in capsys.readouterr().err

    def _write_toy(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        return cfg

    def test_train_then_adapt_zero_steps_preserves_params(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        out = tmp_path / "run1"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoint.bin"
        out2 = tmp_path / "run2"
        assert main([
            "adapt", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--task-seed", "77", "--steps", "0", "--out", str(out2),
        ]) == 0
        before, _ = policy_net.load_params(ckpt)
        after, _ = policy_net.load_params(out2 / "adapted_checkpoint.bin")
        assert np.array_equal(before.flat, after.flat)
        with open(out2 / "adapt_curve.csv") as fh:
            assert len(list(csv.reader(fh))) == 1  # header only

    def test_adapt_checkpoint_holds_the_folded_vector(self, tmp_path, capsys):
        # without the baseline every step has a nonzero gradient; one rollout
        # of 2 slots gives rank-2 head updates, factored on the 8 x 8 head,
        # so the third step leaves one pending for the checkpoint to fold
        text = TOY_CONFIG.replace("hidden_sizes = 8\n", "hidden_sizes = 8\nreward_baseline = false\n")
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(text.replace("inner_rollouts = 3\n", "inner_rollouts = 1\n"))
        out = tmp_path / "run1"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        before, _ = policy_net.load_params(out / "checkpoint.bin")
        out2 = tmp_path / "run2"
        assert main([
            "adapt", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--task-seed", "77", "--steps", "3", "--out", str(out2),
        ]) == 0
        spec = load_spec(cfg, environ={})
        want, _ = meta_rl.adapt(before, spec.task(77, 77), 3, spec.learning, spec.scenario,
                                kind=spec.kind, master_seed=spec.master_seed)
        after, _ = policy_net.load_params(out2 / "adapted_checkpoint.bin")
        assert isinstance(want, policy_net.PolicyParams)
        assert np.array_equal(after.flat, want.flat)
        assert not np.array_equal(after.flat, before.flat)

    def test_eval_reports_bounded_reliability(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        out2 = tmp_path / "eval"
        assert main([
            "eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--periods", "3", "--out", str(out2),
        ]) == 0
        with open(out2 / "summary.json") as fh:
            summary = json.load(fh)
        assert 0.0 <= summary["avg_reliability_per_user"] <= 1.0

    def test_oracle_matches_direct_computation(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        assert main(["oracle", "--config", str(cfg), "--task-seed", "5"]) == 0
        text = capsys.readouterr().out
        spec = load_spec(cfg, environ={})
        task = env.sample_task(spec.scenario.grid, seed=5, concentration=1.0, locality_radius=1, task_id=5)
        best, _ = env.brute_force_oracle(task, spec.scenario, 0)
        assert f"oracle optimum: {best}" in text

    def test_simulate_writes_log(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--periods", "2", "--out", str(out)]) == 0
        with open(out / "trajectories.csv") as fh:
            rows = list(csv.DictReader(fh))
        spec = load_spec(cfg, environ={})
        assert len(rows) == 2 * spec.scenario.slots_per_period * spec.scenario.num_users

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        for workers in ("0", "-3"):
            assert main(["train", "--config", str(cfg), "--workers", workers,
                         "--out", str(tmp_path / "w")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "run.workers" in err
        assert not (tmp_path / "w").exists()

    def test_eval_periods_below_one_rejected_before_training(self, tmp_path, capsys):
        for periods in ("0", "-2"):
            cfg = tmp_path / f"p{periods}.cfg"
            cfg.write_text(TOY_CONFIG.replace("eval_periods = 2", f"eval_periods = {periods}"))
            out = tmp_path / f"out{periods}"
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "run.eval_periods" in err
            assert not out.exists()

    def test_eval_periods_below_one_rejected(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        for periods in ("0", "-1"):
            out = tmp_path / f"eval{periods}"
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--periods", periods, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--periods" in err
            assert not out.exists()

    def test_simulate_periods_below_one_rejected(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        for periods in ("0", "-1"):
            out = tmp_path / f"sim{periods}"
            assert main(["simulate", "--config", str(cfg), "--periods", periods,
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--periods" in err
            assert not out.exists()

    def _checkpoint(self, tmp_path, algo, **overrides):
        """A fresh policy for the toy scenario under `algo`, saved to disk."""
        spec = toy_spec(tmp_path, extra={("run", "algorithm"): algo, **overrides})
        path = tmp_path / f"{algo}.bin"
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0)
        policy_net.save_params(path, params, kind=spec.kind, scenario_hash=spec.scenario_hash)
        return path

    def _refused(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint" in err
        return err

    def test_dmpg_checkpoint_refused_by_mpg(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "dmpg")  # 4 VAP subsets
        for command in (["eval", "--periods", "1"], ["simulate", "--periods", "1"],
                        ["adapt", "--steps", "1"]):
            err = self._refused([*command, "--config", str(cfg), "--algo", "mpg",
                                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")], capsys)
            assert "has 4 actions" in err and "has 8" in err
        assert not (tmp_path / "o").exists()

    def test_mpg_checkpoint_refused_by_dmpg(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")  # 8 joint actions
        for command in (["eval", "--periods", "1"], ["simulate", "--periods", "1"],
                        ["adapt", "--steps", "1"]):
            err = self._refused([*command, "--config", str(cfg), "--algo", "dmpg",
                                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")], capsys)
            assert "has 8 actions" in err and "has 4" in err
        assert not (tmp_path / "o").exists()

    def test_checkpoint_for_other_user_count_refused(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "dmpg")  # 2 users: 8 inputs
        monkeypatch.setenv("THZVLC_SCENARIO__NUM_USERS", "3")
        err = self._refused(["eval", "--config", str(cfg), "--algo", "dmpg",
                             "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")], capsys)
        assert "takes 8 inputs" in err and "need 12" in err

    def test_checkpoint_of_other_kind_refused_at_equal_widths(self, tmp_path, capsys):
        # one user, one SBS, four VAPs: both heads have 4 actions
        cfg = tmp_path / "one.cfg"
        cfg.write_text(TOY_CONFIG.replace("num_users = 2", "num_users = 1")
                       .replace("sbs_positions = 2,3; 4,3", "sbs_positions = 2,3"))
        for trained, other in (("dmpg", "mpg"), ("mpg", "dmpg")):
            out = tmp_path / trained
            assert main(["train", "--config", str(cfg), "--algo", trained, "--out", str(out)]) == 0
            capsys.readouterr()
            ckpt = out / "checkpoint.bin"
            for command in (["eval", "--periods", "1"], ["simulate", "--periods", "1"],
                            ["adapt", "--steps", "1"]):
                err = self._refused([*command, "--config", str(cfg), "--algo", other,
                                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")], capsys)
                assert f"holds a {trained} policy" in err
            assert main(["eval", "--config", str(cfg), "--algo", trained, "--periods", "1",
                         "--checkpoint", str(ckpt), "--out", str(tmp_path / "ok")]) == 0
        assert not (tmp_path / "o").exists()

    def test_untagged_checkpoint_refused(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        spec = toy_spec(tmp_path)
        ckpt = tmp_path / "untagged.bin"
        policy_net.save_params(ckpt, meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0))
        err = self._refused(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--out", str(tmp_path / "o")], capsys)
        assert "untagged" in err

    def test_checkpoint_of_other_scenario_refused(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        # same widths and head, another room: only the scenario hash differs
        for name, value in (("SCENARIO__BODY_RADIUS", "0.3"), ("RADIO__BANDWIDTH_HZ", "1e9"),
                            ("OPTICS__FOV_SEMI_ANGLE_DEG", "60")):
            monkeypatch.setenv(f"THZVLC_{name}", value)
            for command in (["eval", "--periods", "1"], ["simulate", "--periods", "1"],
                            ["adapt", "--steps", "1"]):
                err = self._refused([*command, "--config", str(cfg), "--checkpoint", str(ckpt),
                                     "--out", str(tmp_path / "o")], capsys)
                assert "trained on scenario" in err
            monkeypatch.delenv(f"THZVLC_{name}")
        assert not (tmp_path / "o").exists()
        # the [learning], [tasks] and [run] sections are not part of the scenario
        monkeypatch.setenv("THZVLC_LEARNING__INNER_LR", "0.5")
        monkeypatch.setenv("THZVLC_TASKS__COUNT", "5")
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--periods", "1",
                     "--seed", "3", "--out", str(tmp_path / "ok")]) == 0

    def test_checkpoint_without_scenario_hash_refused(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        spec = toy_spec(tmp_path)
        ckpt = tmp_path / "unbound.bin"
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0)
        policy_net.save_params(ckpt, params, kind=spec.kind)
        for command in (["eval", "--periods", "1"], ["simulate", "--periods", "1"],
                        ["adapt", "--steps", "1"]):
            err = self._refused([*command, "--config", str(cfg), "--checkpoint", str(ckpt),
                                 "--out", str(tmp_path / "o")], capsys)
            assert "(unrecorded)" in err
        assert not (tmp_path / "o").exists()

    def test_dead_pool_worker_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        cfg = self._write_toy(tmp_path)
        monkeypatch.setattr(meta_rl, "_run_task_phase", _die_in_worker)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--workers", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        assert not (out / "checkpoint.bin").exists()

    def test_truncated_checkpoint_named(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:-3])
        err = self._refused(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--out", str(tmp_path / "o")], capsys)
        assert err == f"error: checkpoint {ckpt} is truncated\n"


class TestAtomicArtifacts:
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path):
        spec = toy_spec(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        task = spec.task(1, 1)
        rollout = meta_rl.make_rollout_fn(spec.kind, spec.scenario)
        trajs = [rollout(task, meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0),
                         np.random.default_rng(i)) for i in range(3)]
        harness.write_trajectories(out, trajs[:1], spec.scenario)
        before = (out / "trajectories.csv").read_bytes()
        # the third period breaks the writer after two periods of rows
        with pytest.raises(AttributeError):
            harness.write_trajectories(out, [*trajs[1:], None], spec.scenario)
        assert (out / "trajectories.csv").read_bytes() == before
        with pytest.raises(AttributeError):
            harness.write_trajectories(out, [*trajs, None], spec.scenario, name="fresh.csv")
        assert sorted(p.name for p in out.iterdir()) == ["trajectories.csv"]

    def test_interrupt_inside_atomic_open_keeps_previous(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(b"old")
        for target in (path, tmp_path / "new.bin"):
            with pytest.raises(KeyboardInterrupt):
                with atomic_open(target, "wb") as fh:
                    fh.write(b"partial")
                    raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]
