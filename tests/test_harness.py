import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from thzvlc import env, harness, meta_rl, policy_net
from thzvlc.artifacts import atomic_open
from thzvlc.harness import ConfigError, build_task_stream, load_spec, main, parse_config_text, run, serialize_spec

# Every toy rollout serves both users, so the leave-one-out baseline would
# zero each advantage; without it every run takes real learning steps.
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
reward_baseline = false

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


def assert_learned(spec, checkpoint):
    """The checkpoint's policy moved away from the run's initial policy."""
    params, _ = policy_net.load_params(checkpoint)
    initial = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, spec.master_seed)
    assert not np.array_equal(params.flat, initial.flat)


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

    def test_key_set_twice_in_a_section_refused(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[learning]\ninner_lr = 0.5\ninner_lr = 0.2\n")
        assert str(exc.value) == "line 3: learning.inner_lr is already set on line 2"

    def test_key_set_again_under_a_repeated_header_refused(self):
        text = "[learning]\ninner_lr = 0.5\n[run]\nmaster_seed = 1\n[learning]\ninner_lr = 0.3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == "line 6: learning.inner_lr is already set on line 2"

    def test_repeated_header_with_distinct_keys_loads(self):
        values = parse_config_text("[learning]\ninner_lr = 0.5\n[run]\nmaster_seed = 1\n[learning]\nmeta_lr = 0.3\n")
        assert (values["learning"]["inner_lr"], values["learning"]["meta_lr"]) == (0.5, 0.3)
        assert values["run"]["master_seed"] == 1

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
        metrics, _ = run(spec)
        out = tmp_path / "out"
        assert len(metrics) == spec.learning.meta_iterations
        for name in ("metrics.csv", "timing.csv", "checkpoint.bin", "trajectories.csv", "summary.json", "config.txt"):
            assert (out / name).exists()
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_reward", "std_reward"]
        assert len(rows) == 1 + spec.learning.meta_iterations
        assert_learned(spec, out / "checkpoint.bin")

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
        _, avg = run(spec)
        served = 0
        periods = set()
        with open(tmp_path / "out" / "trajectories.csv") as fh:
            for row in csv.DictReader(fh):
                served += int(row["newly_served"])
                periods.add(row["period"])
        recomputed = served / (spec.scenario.num_users * len(periods))
        assert recomputed == pytest.approx(avg)
        assert 0.0 <= avg <= 1.0

    def test_dmpg_and_mpg_trajectory_headers_match(self, tmp_path):
        headers = []
        for algo in ("mpg", "dmpg"):
            spec = toy_spec(tmp_path, out_name=algo, extra={("run", "algorithm"): algo})
            run(spec)
            assert_learned(spec, tmp_path / algo / "checkpoint.bin")
            with open(tmp_path / algo / "trajectories.csv") as fh:
                headers.append(next(csv.reader(fh)))
        assert headers[0] == headers[1]
        assert headers[0] == [
            "period", "slot", "user", "cell_x", "cell_y", "height",
            "localized", "assigned_sbs", "tx_ok", "newly_served",
        ]

    def test_baseline_pg_runs(self, tmp_path):
        spec = toy_spec(tmp_path, out_name="pg", extra={("run", "algorithm"): "pg"})
        metrics, _ = run(spec)
        assert len(metrics) == spec.learning.meta_iterations
        assert_learned(spec, tmp_path / "pg" / "checkpoint.bin")


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

    @pytest.mark.parametrize("name, value, field", [
        *[(f"RADIO__{key.upper()}", value, key) for key, value in (
            ("carrier_freq_hz", "nan"), ("carrier_freq_hz", "inf"), ("bandwidth_hz", "nan"),
            ("tx_power_w", "inf"), ("absorption_per_m", "nan"), ("image_size_bits", "inf"),
            ("slot_duration_s", "nan"),
        )],
        *[("RADIO__NOISE_DENSITY_DBM_PER_HZ", value, "radio.noise_density_dbm_per_hz")
          for value in ("nan", "inf", "-inf", "5000")],
        ("RUN__MASTER_SEED", "-1", "run.master_seed"),
        ("SCENARIO__CELLS_PER_SIDE", "0", "scenario.cells_per_side"),
        ("SCENARIO__CELLS_PER_SIDE", "33", "scenario.cells_per_side"),  # small if ever let through
        ("SCENARIO__NUM_VAPS", "65", "scenario.num_vaps"),  # C(65, 3) = 43,680 subsets if let through
        ("SCENARIO__VAP_POSITIONS", "2,2; 4,2", "scenario.vap_positions"),
        *[("OPTICS__FOV_SEMI_ANGLE_DEG", value, "optics.fov_semi_angle_deg") for value in ("90", "nan")],
        ("SCENARIO__BODY_RADIUS", "nan", "body_radius"),
        ("SCENARIO__BODY_RADIUS", "inf", "body_radius"),
        ("SCENARIO__BODY_RADIUS", "-1", "body_radius"),
        ("SCENARIO__ROOM_SIDE", "inf", "scenario.room_side"),
        ("SCENARIO__ROOM_SIDE", "nan", "scenario.room_side"),
        ("SCENARIO__CEILING", "inf", "scenario.ceiling"),
        ("SCENARIO__VAP_POSITIONS", "100,100; 2,4; 4,4", "scenario.vap_positions"),
        ("SCENARIO__SBS_POSITIONS", "2,3; 4,-0.5", "scenario.sbs_positions"),
        ("LEARNING__INNER_LR", "nan", "inner_lr"),
        ("LEARNING__INNER_LR", "inf", "inner_lr"),
        ("LEARNING__META_LR", "nan", "meta_lr"),
        ("LEARNING__META_LR", "-inf", "meta_lr"),
        ("LEARNING__HIDDEN_SIZES", "0", "learning.hidden_sizes"),
        ("LEARNING__HIDDEN_SIZES", "8,-1", "learning.hidden_sizes"),
        *[("TASKS__CONCENTRATION", value, "tasks.concentration") for value in ("nan", "inf", "0", "-1")],
        ("TASKS__COUNT", "0", "tasks.count"),
        ("TASKS__LOCALITY_RADIUS", "-1", "tasks.locality_radius"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_negative_value_named(self, tmp_path, capsys, monkeypatch, name, value, field):
        cfg = self._write_toy(tmp_path)
        monkeypatch.setenv(f"THZVLC_{name}", value)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert name.lower().replace("__", ".") in err  # the key as section.key
        assert not out.exists()

    def test_cells_per_side_bound_itself_loads(self):
        bound = harness.SCHEMA["scenario"]["cells_per_side"][2].hi
        spec = harness.load_spec(None, environ={}, overrides={("scenario", "cells_per_side"): bound})
        assert spec.scenario.num_cells == bound * bound

    def test_removed_meta_order_key_refused(self, tmp_path, capsys, monkeypatch):
        # the meta update is first-order only; the old selector key is unknown now
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[learning]\ninner_lr = 0.1\nmeta_order = first_order\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: line 3: unknown key 'meta_order' in section [learning]\n"
        monkeypatch.setenv("THZVLC_LEARNING__META_ORDER", "first_order")
        assert main(["train", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: environment variable THZVLC_LEARNING__META_ORDER: "
            "unknown config key learning.meta_order\n"
        )
        assert not out.exists()

    def _write_toy(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG)
        return cfg

    def test_train_then_adapt_zero_steps_preserves_params(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        out = tmp_path / "run1"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoint.bin"
        assert_learned(load_spec(cfg, environ={}), ckpt)
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
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG.replace("inner_rollouts = 3\n", "inner_rollouts = 1\n"))
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

    def test_eval_periods_default_to_the_config(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)  # run.eval_periods = 2
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(self._checkpoint(tmp_path, "mpg")),
                     "--out", str(out)]) == 0
        with open(out / "summary.json") as fh:
            assert json.load(fh)["eval_periods"] == 2

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
        task = env.sample_task(spec.scenario.cells_per_side, seed=5, concentration=1.0, locality_radius=1, task_id=5)
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

    def test_workers_above_the_bound_rejected_at_load(self, tmp_path, capsys, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} was started")

        monkeypatch.setattr(meta_rl, "ProcessPoolExecutor", no_pool)
        cfg = self._write_toy(tmp_path)
        for workers in ("257", "100000"):
            assert main(["train", "--config", str(cfg), "--workers", workers,
                         "--out", str(tmp_path / "w")]) == 1
            err = capsys.readouterr().err
            assert err == f"error: run.workers must be in [1, 256], got {workers}\n"
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

    def test_adapt_negative_steps_rejected(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        out = tmp_path / "adapt"
        assert main(["adapt", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--steps", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --steps must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--task-seed", "--realization-seed"])
    def test_oracle_negative_seed_named(self, tmp_path, capsys, flag):
        cfg = self._write_toy(tmp_path)
        assert main(["oracle", "--config", str(cfg), flag, "-1"]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -1\n"

    def test_adapt_negative_task_seed_named_before_the_checkpoint_loads(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        out = tmp_path / "adapt"
        assert main(["adapt", "--config", str(cfg), "--checkpoint", str(tmp_path / "missing.bin"),
                     "--task-seed", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --task-seed must be >= 0, got -3\n"
        assert not out.exists()

    def _checkpoint(self, tmp_path, algo, **overrides):
        """A fresh policy for the toy scenario under `algo`, saved to disk."""
        spec = toy_spec(tmp_path, extra={("run", "algorithm"): algo, **overrides})
        path = tmp_path / f"{algo}.bin"
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0)
        policy_net.save_params(path, params, "", spec.kind, spec.scenario_hash)
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
        policy_net.save_params(ckpt, meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0), "", "", "")
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
        policy_net.save_params(ckpt, params, "", spec.kind, "")
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

    def test_checkpoint_header_not_json_named(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        payload = ckpt.read_bytes().split(b"\n", 1)[1]
        for header in (b"not json", b"\xff\xfe"):
            ckpt.write_bytes(header + b"\n" + payload)
            err = self._refused(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                                 "--out", str(tmp_path / "o")], capsys)
            assert err == f"error: checkpoint {ckpt} header is not a JSON line\n"

    def test_checkpoint_header_missing_a_field_named(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        payload = ckpt.read_bytes().split(b"\n", 1)[1]
        for header, field in ((b"{}", "action_count"), (b"[]", "action_count"),
                              (b'{"action_count": 8, "layer_shapes": []}', "param_count")):
            ckpt.write_bytes(header + b"\n" + payload)
            for command in (["eval"], ["simulate"], ["adapt", "--steps", "1"]):
                out = tmp_path / "o"
                err = self._refused([*command, "--config", str(cfg), "--checkpoint", str(ckpt),
                                     "--out", str(out)], capsys)
                assert err == f"error: checkpoint {ckpt} header has no {field!r} field\n"
                assert not out.exists()

    def test_checkpoint_header_field_of_wrong_type_named(self, tmp_path, capsys):
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        header, payload = ckpt.read_bytes().split(b"\n", 1)
        for field, value, kind in (
            ("param_count", "x", "an int"), ("param_count", None, "an int"),
            ("layer_shapes", 5, "a list of int pairs"),
            ("layer_shapes", [[8, "4"], [4, 3]], "a list of int pairs"),
        ):
            fields = {**json.loads(header), field: value}
            ckpt.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
            for command in (["eval"], ["simulate"], ["adapt", "--steps", "1"]):
                out = tmp_path / "o"
                err = self._refused([*command, "--config", str(cfg), "--checkpoint", str(ckpt),
                                     "--out", str(out)], capsys)
                assert err == f"error: checkpoint {ckpt} header field {field!r} is not {kind}: {value!r}\n"
                assert not out.exists()

    def test_checkpoint_layers_that_do_not_chain_named(self, tmp_path, capsys):
        # input width and action count fit the spec; the hidden widths do not meet
        cfg = self._write_toy(tmp_path)
        ckpt = self._checkpoint(tmp_path, "mpg")
        header = {**json.loads(ckpt.read_bytes().split(b"\n", 1)[0]),
                  "layer_shapes": [[8, 4], [5, 8]], "param_count": 84}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(84).astype("<f8").tobytes())
        err = self._refused(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--out", str(tmp_path / "o")], capsys)
        assert err == (f"error: checkpoint {ckpt}: layer_shapes do not chain: "
                       "layer 0 gives 4 outputs, layer 1 takes 5\n")


# The keys whose domain is an interval, each probed by `TestSchemaDomains`.
NUMERIC_KEYS = [
    (section, key)
    for section, keys in harness.SCHEMA.items()
    for key, (_, _, domain) in keys.items()
    if isinstance(domain, harness.Interval)
]

# The integer keys that leave the size of a run alone; the other integer
# keys are only loaded, and only at the ends of their domains.
UNSIZED = {("run", "master_seed"), ("tasks", "locality_radius")}


def trains(section, key):
    """Whether the SCHEMA-wide tests train at the key's values, not only load."""
    return harness.SCHEMA[section][key][0] == "float" or (section, key) in UNSIZED


def outside_values(section, key):
    """nan, +-inf, 0, -1 and one step past each finite end of the key's
    domain, where they lie outside it."""
    tag, _, domain = harness.SCHEMA[section][key]
    values = [math.nan, math.inf, -math.inf, 0, -1]
    for end, closed, away in ((domain.lo, domain.ends[0] == "[", -1), (domain.hi, domain.ends[1] == "]", 1)):
        if not math.isfinite(end):
            continue
        if not closed:
            values.append(end)
        elif tag == "float":
            values.append(math.nextafter(end, away * math.inf))
        else:
            values.append(end + away)
    return [v for v in values if v not in domain]


def inside_edges(section, key):
    """Each end of the key's domain where it is closed, else the nearest
    float inside it; an integer key's open (infinite) end is tried at
    sys.maxsize when the key leaves the run's size alone."""
    tag, _, domain = harness.SCHEMA[section][key]
    edges = []
    for end, closed, inward in ((domain.lo, domain.ends[0] == "[", domain.hi), (domain.hi, domain.ends[1] == "]", domain.lo)):
        if closed:
            edges.append(end)
        elif tag == "float":
            edges.append(math.nextafter(end, inward))
        elif trains(section, key):
            edges.append(sys.maxsize)
    return edges


def partners(section, key, value):
    """The keys a check over several keys ties (section, key) to, set so that
    the check holds at `value`; None where no setting does (no body height
    lies below the smallest positive ceiling). The toy's explicit units
    would lie outside a small room and override the unit counts, so these
    keys get ring-placed units."""
    if key in ("room_side", "num_vaps", "num_sbs"):
        return {("scenario", "vap_positions"): None, ("scenario", "sbs_positions"): None,
                ("scenario", "num_vaps"): 4, ("scenario", "num_sbs"): 2}
    if key == "ceiling":
        h = value / 2
        return {("scenario", "user_height_min"): h, ("scenario", "user_height_max"): h} if h > 0 else None
    if key in ("user_height_min", "user_height_max"):
        return {("scenario", "user_height_min"): value, ("scenario", "user_height_max"): value,
                ("scenario", "ceiling"): harness.SCHEMA["scenario"]["ceiling"][2].hi}
    return {}


def probe_config(directory, section, key, value, others=None) -> Path:
    """The toy config, whose steps all move the policy by the learning
    rates, with `others` set and then `section.key = value`."""
    values = parse_config_text(TOY_CONFIG)
    for (s, k), v in (others or {}).items():
        values[s][k] = v
    values[section][key] = None  # left out, so the file sets it once
    path = Path(directory) / "probe.cfg"
    path.write_text(f"{serialize_spec(values)}\n[{section}]\n{key} = {value}\n")
    return path


def train_probe(cfg, out):
    """`thzvlc train` on the config with warnings as errors: (exit code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(["train", "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue()


class TestSchemaDomains:
    """Every key with an interval domain in `harness.SCHEMA`, probed from
    that domain: each value outside it is one `error:` line naming the key
    before any output exists, and each value inside it loads and, for a key
    that leaves the run's size alone, trains with warnings as errors."""

    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    def test_outside_value_refused_by_key(self, tmp_path, section, key):
        for value in outside_values(section, key):
            out = tmp_path / "out"
            code, err = train_probe(probe_config(tmp_path, section, key, value), out)
            assert code == 1, value
            assert err.startswith("error: ") and err.count("\n") == 1 and f"{section}.{key}" in err, (value, err)
            assert not out.exists()

    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    @pytest.mark.filterwarnings("error")
    def test_edge_inside_loads(self, tmp_path, section, key):
        for value in inside_edges(section, key):
            others = partners(section, key, value)
            if others is None:
                continue
            cfg = probe_config(tmp_path, section, key, value, others)
            load_spec(cfg, environ={})
            if trains(section, key):
                assert train_probe(cfg, tmp_path / "out") == (0, ""), value

    @pytest.mark.parametrize("section, key", [k for k in NUMERIC_KEYS if trains(*k)])
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_value_inside_trains(self, section, key, data):
        tag, _, domain = harness.SCHEMA[section][key]
        if tag == "float":
            values = st.floats(
                min_value=domain.lo, max_value=domain.hi,
                exclude_min=domain.ends[0] == "(", exclude_max=domain.ends[1] == ")",
                allow_nan=False, allow_infinity=False,
            )
        else:
            values = st.integers(min_value=domain.lo, max_value=min(domain.hi, sys.maxsize))
        value = data.draw(st.one_of(st.sampled_from(inside_edges(section, key)), values))
        others = partners(section, key, value)
        assume(others is not None)
        with tempfile.TemporaryDirectory() as directory:
            cfg = probe_config(directory, section, key, value, others)
            assert train_probe(cfg, Path(directory) / "out") == (0, ""), value


class TestWriteTrajectories:
    @pytest.mark.parametrize("algo", ["mpg", "dmpg"])
    def test_bytes_equal_one_row_per_user(self, tmp_path, algo):
        # three users on two SBSs: every slot leaves a user unassigned
        spec = toy_spec(tmp_path, extra={("run", "algorithm"): algo, ("scenario", "num_users"): 3})
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0)
        _, trajectories = harness.evaluate_policy(params, spec, 6)
        harness.write_trajectories(tmp_path, trajectories, spec.scenario)
        text = (tmp_path / "trajectories.csv").read_bytes()
        assert text == oracles.trajectories_csv(trajectories, spec.scenario).encode()
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        assert "-1" in {row["assigned_sbs"] for row in rows}
        assert {row["newly_served"] for row in rows} == {"0", "1"}


class TestAtomicArtifacts:
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path):
        spec = toy_spec(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        task = spec.task(1, 1)
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, 0)
        trajs = meta_rl.rollout_phase(spec.kind, task, params, spec.scenario, np.random.default_rng(0), 3)
        harness.write_trajectories(out, trajs[:1], spec.scenario)
        before = (out / "trajectories.csv").read_bytes()
        # the third period breaks the writer after two periods of rows
        with pytest.raises(AttributeError):
            harness.write_trajectories(out, [*trajs[1:], None], spec.scenario)
        assert (out / "trajectories.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["trajectories.csv"]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        with pytest.raises(AttributeError):
            harness.write_trajectories(fresh, [*trajs, None], spec.scenario)
        assert list(fresh.iterdir()) == []

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
