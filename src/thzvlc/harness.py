"""Experiment harness: config files, seed management, runs, and the CLI.

Config files are sectioned key = value text (see SCHEMA for every section,
key, type and default). Unknown sections or keys are errors. Environment
variables THZVLC_<SECTION>__<KEY> override file values; command-line flags
override both. An empty file yields the reference scenario defaults.

A training run writes into its output directory:
    metrics.csv       iteration, mean_reward, std_reward (deterministic)
    timing.csv        iteration, wall_clock_s
    checkpoint.bin    policy parameters (JSON header + raw float64)
    trajectories.csv  per-user per-slot log of the post-training eval pass
    summary.json      scalars, including avg reliability per user
Each file is written through `artifacts.atomic_open`, so an interrupted run
leaves the previous file or none, never a partial one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import env, meta_rl, policy_net
from .artifacts import atomic_open
from .channel import dbm_per_hz_to_w_per_hz
from .env import ScenarioConfig, Task
from .geometry import Point3, make_grid
from .meta_rl import LearningConfig

ENV_PREFIX = "THZVLC_"

# section -> key -> (type tag, default). None defaults mark optional keys
# that are omitted from the canonical form when unset.
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "scenario": {
        "room_side": ("float", 6.0),
        "ceiling": ("float", 3.0),
        "num_vaps": ("int", 7),
        "num_sbs": ("int", 7),
        "num_users": ("int", 20),
        "user_height_min": ("float", 1.4),
        "user_height_max": ("float", 1.9),
        "body_radius": ("float", 0.2),
        "cells_per_side": ("int", 6),
        "slots_per_period": ("int", 3),
        "vap_positions": ("points", None),
        "sbs_positions": ("points", None),
    },
    "radio": {
        "carrier_freq_hz": ("float", 1.0e12),
        "bandwidth_hz": ("float", 1.0e10),
        "tx_power_w": ("float", 1.0),
        "absorption_per_m": ("float", 0.01),
        "noise_density_dbm_per_hz": ("float", -174.0),
        "image_size_bits": ("float", 2.0e7),
        "slot_duration_s": ("float", 0.01),
    },
    "optics": {
        "fov_semi_angle_deg": ("float", 75.0),
    },
    "learning": {
        "inner_lr": ("float", 0.1),
        "meta_lr": ("float", 0.01),
        "inner_rollouts": ("int", 50),
        "outer_rollouts": ("int", 10),
        "meta_iterations": ("int", 200),
        "tasks_per_batch": ("int", 20),
        "reward_baseline": ("bool", True),
        "reward_to_go": ("bool", False),
        "meta_order": ("str", "first_order"),
        "hidden_sizes": ("int_tuple", (64, 64)),
    },
    "tasks": {
        "count": ("int", 20),
        "concentration": ("float", 1.0),
        "locality_radius": ("int", 1),
    },
    "run": {
        "algorithm": ("str", "dmpg"),
        "master_seed": ("int", 0),
        "output_dir": ("str", "run_output"),
        "workers": ("int", 1),
        "eval_periods": ("int", 5),
    },
}

ALGORITHMS = ("mpg", "dmpg", "pg")


class ConfigError(ValueError):
    pass


def _parse_value(tag: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected true/false")
        if tag == "str":
            return raw
        if tag == "int_tuple":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if tag == "points":
            pts = []
            for chunk in raw.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                x, y = chunk.split(",")
                pts.append((float(x), float(y)))
            return tuple(pts)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {tag}: {exc}") from None
    raise ConfigError(f"{where}: unknown type tag {tag}")


def _format_value(tag: str, value) -> str:
    if tag == "bool":
        return "true" if value else "false"
    if tag == "int_tuple":
        return ",".join(str(v) for v in value)
    if tag == "points":
        return "; ".join(f"{x!r},{y!r}" for x, y in value)
    if tag == "float":
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentSpec:
    """Typed config values plus the objects built from them."""

    values: dict[str, dict[str, object]]
    scenario: ScenarioConfig
    learning: LearningConfig
    algorithm: str
    master_seed: int
    output_dir: str
    workers: int

    @property
    def canonical_text(self) -> str:
        return serialize_spec(self.values)

    @property
    def config_hash(self) -> str:
        return policy_net.config_digest(self.canonical_text)

    @property
    def kind(self) -> str:
        """Policy head the algorithm trains: `dmpg` or the joint `mpg` (also for pg)."""
        return "dmpg" if self.algorithm == "dmpg" else "mpg"

    def task(self, seed: int, task_id: int) -> Task:
        """A movement pattern drawn with the spec's [tasks] settings."""
        tk = self.values["tasks"]
        return env.sample_task(
            self.scenario.grid,
            seed=seed,
            concentration=tk["concentration"],
            locality_radius=tk["locality_radius"],
            task_id=task_id,
        )


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Strict parse of sectioned key = value text into typed values."""
    values: dict[str, dict[str, object]] = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        tag, _ = SCHEMA[section][key]
        values[section][key] = _parse_value(tag, raw, f"line {lineno} ({section}.{key})")
    return values


def apply_env_overrides(values: dict[str, dict[str, object]], environ=None) -> None:
    environ = os.environ if environ is None else environ
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :]
        if "__" not in rest:
            raise ConfigError(f"environment variable {name}: expected SECTION__KEY")
        section, _, key = rest.partition("__")
        section, key = section.lower(), key.lower()
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"environment variable {name}: unknown config key {section}.{key}")
        tag, _ = SCHEMA[section][key]
        values[section][key] = _parse_value(tag, raw, f"env {name}")


def serialize_spec(values: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (tag, _) in keys.items():
            value = values[section][key]
            if value is None:
                continue
            lines.append(f"{key} = {_format_value(tag, value)}")
        lines.append("")
    return "\n".join(lines)


def build_spec(values: dict[str, dict[str, object]]) -> ExperimentSpec:
    sc = values["scenario"]
    rd = values["radio"]
    op = values["optics"]

    def points_or_ring(key: str, count_key: str, phase: float) -> tuple[Point3, ...]:
        pts = sc[key]
        if pts is not None:
            return tuple(Point3(x, y, sc["ceiling"]) for x, y in pts)
        return env.ring_positions(sc[count_key], sc["room_side"], sc["ceiling"], phase=phase)

    try:
        radio = env.RadioParams(
            carrier_freq_hz=rd["carrier_freq_hz"],
            bandwidth_hz=rd["bandwidth_hz"],
            tx_power_w=rd["tx_power_w"],
            absorption_per_m=rd["absorption_per_m"],
            noise_density_w_per_hz=dbm_per_hz_to_w_per_hz(rd["noise_density_dbm_per_hz"]),
            image_size_bits=rd["image_size_bits"],
            slot_duration_s=rd["slot_duration_s"],
        )
        optics = env.OpticsParams(fov_semi_angle_rad=math.radians(op["fov_semi_angle_deg"]))
        scenario = ScenarioConfig(
            room_side=sc["room_side"],
            ceiling_z=sc["ceiling"],
            vap_positions=points_or_ring("vap_positions", "num_vaps", 0.0),
            sbs_positions=points_or_ring("sbs_positions", "num_sbs", math.pi / 6.0),
            num_users=sc["num_users"],
            user_height_range=(sc["user_height_min"], sc["user_height_max"]),
            body_radius=sc["body_radius"],
            grid=make_grid(sc["room_side"], sc["cells_per_side"]),
            slots_per_period=sc["slots_per_period"],
            num_periods=values["tasks"]["count"],
            radio=radio,
            optics=optics,
        )
        ln = values["learning"]
        learning = LearningConfig(
            inner_lr=ln["inner_lr"],
            meta_lr=ln["meta_lr"],
            inner_rollouts=ln["inner_rollouts"],
            outer_rollouts=ln["outer_rollouts"],
            meta_iterations=ln["meta_iterations"],
            tasks_per_batch=ln["tasks_per_batch"],
            reward_baseline=ln["reward_baseline"],
            reward_to_go=ln["reward_to_go"],
            meta_order=ln["meta_order"],
            hidden_sizes=tuple(ln["hidden_sizes"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    algorithm = values["run"]["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"run.algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if algorithm in ("mpg", "pg"):
        try:
            env.enumerate_joint_actions(scenario)  # raises above the action cap
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    workers = values["run"]["workers"]
    if workers < 1:
        raise ConfigError(f"run.workers must be >= 1, got {workers}")
    eval_periods = values["run"]["eval_periods"]
    if eval_periods < 1:
        raise ConfigError(f"run.eval_periods must be >= 1, got {eval_periods}")
    return ExperimentSpec(
        values=values,
        scenario=scenario,
        learning=learning,
        algorithm=algorithm,
        master_seed=values["run"]["master_seed"],
        output_dir=values["run"]["output_dir"],
        workers=workers,
    )


def load_spec(path: str | Path | None, environ=None, overrides: dict | None = None) -> ExperimentSpec:
    """Read a config file, apply env and explicit overrides, build the spec."""
    text = Path(path).read_text() if path is not None else ""
    values = parse_config_text(text)
    apply_env_overrides(values, environ)
    for (section, key), value in (overrides or {}).items():
        values[section][key] = value
    return build_spec(values)


# ---------------------------------------------------------------------------
# Seed derivation and task streams


def derive_task_seeds(master_seed: int, count: int, purpose: int = 11) -> list[int]:
    rng = np.random.default_rng([master_seed, purpose])
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def build_task_stream(spec: ExperimentSpec, purpose: int = 11) -> list[Task]:
    seeds = derive_task_seeds(spec.master_seed, spec.values["tasks"]["count"], purpose)
    return [spec.task(s, i) for i, s in enumerate(seeds)]


# ---------------------------------------------------------------------------
# Output files


def write_metrics(out_dir: Path, metrics: list[meta_rl.IterationMetrics]) -> None:
    with atomic_open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_reward", "std_reward"])
        for m in metrics:
            writer.writerow([m.iteration, repr(m.mean_reward), repr(m.std_reward)])
    with atomic_open(out_dir / "timing.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "wall_clock_s"])
        for m in metrics:
            writer.writerow([m.iteration, repr(m.wall_clock_s)])


def write_trajectories(out_dir: Path, trajectories: list, scenario: ScenarioConfig, name="trajectories.csv") -> None:
    with atomic_open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "period", "slot", "user", "cell_x", "cell_y", "height",
                "localized", "assigned_sbs", "tx_ok", "newly_served",
            ]
        )
        for period, traj in enumerate(trajectories):
            for step in traj.steps:
                newly = set(step.newly_served)
                for j in range(scenario.num_users):
                    cx, cy = scenario.grid.cell_center(step.state.user_cells[j])
                    sbs = step.action.assigned_sbs(j)
                    writer.writerow(
                        [
                            period,
                            step.state.slot_index,
                            j,
                            repr(cx),
                            repr(cy),
                            repr(step.state.user_heights[j]),
                            int(step.localized[j]),
                            -1 if sbs is None else sbs,
                            int(step.tx_ok[j]),
                            int(j in newly),
                        ]
                    )


def evaluate_policy(
    params: policy_net.PolicyParams,
    spec: ExperimentSpec,
    periods: int,
    seed_purpose: int = 13,
) -> tuple[float, list]:
    """Roll a frozen policy on fresh tasks; returns avg reliability per user."""
    rollout = meta_rl.make_rollout_fn(spec.kind, spec.scenario)
    seeds = derive_task_seeds(spec.master_seed, periods, purpose=seed_purpose)
    trajectories = []
    total = 0
    for i, s in enumerate(seeds):
        task = spec.task(s, 10_000 + i)
        rng = np.random.default_rng([spec.master_seed, 17, i])
        traj = rollout(task, params, rng)
        trajectories.append(traj)
        total += traj.total_reward
    avg = total / (spec.scenario.num_users * periods) if periods else 0.0
    return avg, trajectories


@dataclass
class RunMetrics:
    iterations: list[meta_rl.IterationMetrics]
    avg_reliability_per_user: float
    summary: dict


def run(spec: ExperimentSpec) -> RunMetrics:
    """Train as the experiment spec describes, then evaluate and write artifacts."""
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = build_task_stream(spec)
    started = time.perf_counter()

    if spec.algorithm == "pg":
        params, metrics = meta_rl.train_baseline_pg(
            spec.learning, spec.scenario, tasks, kind=spec.kind, master_seed=spec.master_seed
        )
    else:
        params, metrics = meta_rl.meta_train(
            spec.learning, spec.scenario, tasks, spec.kind,
            master_seed=spec.master_seed, workers=spec.workers,
        )

    write_metrics(out_dir, metrics)
    policy_net.save_params(out_dir / "checkpoint.bin", params, spec.config_hash, spec.kind)
    eval_periods = spec.values["run"]["eval_periods"]
    avg, trajectories = evaluate_policy(params, spec, eval_periods)
    write_trajectories(out_dir, trajectories, spec.scenario)

    summary = {
        "algorithm": spec.algorithm,
        "master_seed": spec.master_seed,
        "iterations": len(metrics),
        "final_mean_reward": metrics[-1].mean_reward if metrics else None,
        "avg_reliability_per_user": avg,
        "eval_periods": eval_periods,
        "num_users": spec.scenario.num_users,
        "config_hash": spec.config_hash,
        "total_wall_clock_s": time.perf_counter() - started,
    }
    with atomic_open(out_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with atomic_open(out_dir / "config.txt") as fh:
        fh.write(spec.canonical_text)
    return RunMetrics(iterations=metrics, avg_reliability_per_user=avg, summary=summary)


# ---------------------------------------------------------------------------
# CLI


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="config file path (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    parser.add_argument("--algo", choices=ALGORITHMS, default=None, help="override run.algorithm")
    parser.add_argument("--out", default=None, help="override run.output_dir")
    parser.add_argument("--workers", type=int, default=None, help="override run.workers")
    parser.add_argument("--print-config", action="store_true", help="print the canonical config and exit")


def _spec_from_args(args) -> ExperimentSpec:
    overrides = {}
    if args.seed is not None:
        overrides[("run", "master_seed")] = args.seed
    if args.algo is not None:
        overrides[("run", "algorithm")] = args.algo
    if args.out is not None:
        overrides[("run", "output_dir")] = args.out
    if args.workers is not None:
        overrides[("run", "workers")] = args.workers
    return load_spec(args.config, overrides=overrides)


def _load_checkpoint(path, spec: ExperimentSpec) -> policy_net.PolicyParams:
    """Load a checkpoint, refusing one whose widths or head kind misfit the spec."""
    params, header = policy_net.load_params(path)
    inputs = policy_net.encoding_dim(spec.scenario)
    if params.layer_shapes[0][0] != inputs:
        raise ConfigError(
            f"checkpoint {path} takes {params.layer_shapes[0][0]} inputs; "
            f"the spec's {spec.scenario.num_users} users need {inputs}"
        )
    actions = meta_rl.action_count_for(spec.kind, spec.scenario)
    if params.action_count != actions:
        raise ConfigError(
            f"checkpoint {path} has {params.action_count} actions; "
            f"{spec.kind} on the spec's scenario has {actions}"
        )
    if header.get("kind") != spec.kind:
        raise ConfigError(
            f"checkpoint {path} holds a {header.get('kind') or 'untagged'} policy; "
            f"{spec.algorithm} needs {spec.kind}"
        )
    return params


def _cmd_train(spec: ExperimentSpec, args) -> int:
    result = run(spec)
    print(
        f"trained {spec.algorithm} for {len(result.iterations)} iterations; "
        f"avg reliability per user {result.avg_reliability_per_user:.4f}; "
        f"artifacts in {spec.output_dir}"
    )
    return 0


def _cmd_adapt(spec: ExperimentSpec, args) -> int:
    params = _load_checkpoint(args.checkpoint, spec)
    task = spec.task(args.task_seed, args.task_seed)
    adapted, curve = meta_rl.adapt(
        params, task, args.steps, spec.learning, spec.scenario, kind=spec.kind,
        master_seed=spec.master_seed,
    )
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy_net.save_params(out_dir / "adapted_checkpoint.bin", adapted, spec.config_hash, spec.kind)
    with atomic_open(out_dir / "adapt_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_reward"])
        for i, r in enumerate(curve):
            writer.writerow([i, repr(r)])
    print(f"adapted for {args.steps} steps; artifacts in {spec.output_dir}")
    return 0


def _check_periods(args) -> None:
    if args.periods < 1:
        raise ConfigError(f"--periods must be >= 1, got {args.periods}")


def _cmd_eval(spec: ExperimentSpec, args) -> int:
    _check_periods(args)
    params = _load_checkpoint(args.checkpoint, spec)
    avg, trajectories = evaluate_policy(params, spec, args.periods)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectories(out_dir, trajectories, spec.scenario)
    with atomic_open(out_dir / "summary.json") as fh:
        json.dump(
            {"avg_reliability_per_user": avg, "eval_periods": args.periods},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"avg reliability per user {avg:.4f} over {args.periods} periods")
    return 0


def _cmd_oracle(spec: ExperimentSpec, args) -> int:
    task = spec.task(args.task_seed, args.task_seed)
    best, sequence = env.brute_force_oracle(task, spec.scenario, args.realization_seed)
    print(f"oracle optimum: {best}")
    for t, action in enumerate(sequence):
        print(f"  slot {t}: vaps {action.vap_set}, assignments {action.assignments}")
    return 0


def _cmd_simulate(spec: ExperimentSpec, args) -> int:
    _check_periods(args)
    if args.checkpoint:
        params = _load_checkpoint(args.checkpoint, spec)
    else:
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, spec.master_seed)
    rollout = meta_rl.make_rollout_fn(spec.kind, spec.scenario)
    tasks = build_task_stream(spec)
    trajectories = []
    for i in range(args.periods):
        task = tasks[i % len(tasks)]
        rng = np.random.default_rng([spec.master_seed, 19, i])
        trajectories.append(rollout(task, params, rng))
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectories(out_dir, trajectories, spec.scenario)
    total = sum(t.total_reward for t in trajectories)
    print(f"simulated {args.periods} periods, total reward {total}; log in {spec.output_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thzvlc",
        description="Indoor THz/VLC VR network simulator and trainers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy and write run artifacts")
    _add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_adapt = sub.add_parser("adapt", help="task-learning steps from a checkpoint on a new task")
    _add_common(p_adapt)
    p_adapt.add_argument("--checkpoint", required=True)
    p_adapt.add_argument("--task-seed", type=int, default=12345)
    p_adapt.add_argument("--steps", type=int, default=50)
    p_adapt.set_defaults(func=_cmd_adapt)

    p_eval = sub.add_parser("eval", help="roll a frozen policy on fresh tasks")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--periods", type=int, default=5)
    p_eval.set_defaults(func=_cmd_eval)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum on a small scenario")
    _add_common(p_oracle)
    p_oracle.add_argument("--task-seed", type=int, default=0)
    p_oracle.add_argument("--realization-seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sim = sub.add_parser("simulate", help="roll random or checkpoint actions, dump trajectories")
    _add_common(p_sim)
    p_sim.add_argument("--checkpoint", default=None)
    p_sim.add_argument("--periods", type=int, default=3)
    p_sim.set_defaults(func=_cmd_simulate)

    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.print_config:
            print(spec.canonical_text, end="")
            return 0
        return args.func(spec, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
