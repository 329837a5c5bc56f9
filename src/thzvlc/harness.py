"""Experiment harness: config files, seed management, runs, and the CLI.

Config files are sectioned key = value text (see SCHEMA for every section,
key, type, default and domain). Unknown sections or keys are errors, and so
is a value outside its key's domain. Environment
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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import env, meta_rl, policy_net
from .artifacts import atomic_open
from .channel import dbm_per_hz_to_w_per_hz
from .env import ScenarioConfig, Task
from .meta_rl import LearningConfig

ENV_PREFIX = "THZVLC_"


@dataclass(frozen=True)
class Interval:
    """The numbers from `lo` to `hi` (each an int or inf, as shown). `ends`
    holds the two brackets: "[" and "]" take their end in, "(" and ")"
    leave it out. NaN lies in no interval, and an open infinite end leaves
    inf out."""

    lo: float
    hi: float
    ends: str

    def __contains__(self, value) -> bool:
        above = self.lo <= value if self.ends[0] == "[" else self.lo < value
        below = value <= self.hi if self.ends[1] == "]" else value < self.hi
        return above and below

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"


POSITIVE = Interval(0, math.inf, "()")
NONNEGATIVE = Interval(0, math.inf, "[)")
COUNT = Interval(1, math.inf, "[)")
ALGORITHMS = ("mpg", "dmpg", "pg")

# section -> key -> (type tag, default, domain). None defaults mark optional
# keys that are omitted from the canonical form when unset. The domain is an
# Interval (each width of an int_tuple must lie in it), a tuple of the
# accepted values, or None where no bound holds for the key on its own;
# `build_spec` refuses a value outside it. The finite upper bounds:
# - room_side, ceiling and user heights at most 1 km: the blockage test
#   squares floor distances and scales heights, and overflows at room sides
#   near 1e154 m and heights near 1e307 m.
# - num_vaps <= 64: a run lists all C(V, 3) subsets of 3 VAPs at load,
#   41,664 at 64 VAPs (a million VAPs ask for 1.7e17).
# - cells_per_side <= 32: the crossing table holds one float per (receiver
#   cell, body cell, unit), cells_per_side^4 of them per ceiling unit: 8 MiB
#   per unit at 32 (112 MiB for the reference 14 units) and 128 MiB per
#   unit at 64, touched only in the rows of cells users visit.
# - noise_density_dbm_per_hz in [-3000, 3000]: the density in W/Hz overflows
#   to inf above about 3112 and underflows to 0 below about -3203.
# - concentration <= 1e6: numpy's Dirichlet rows come back all zero from
#   about 1e306, and at 1e6 a row is already uniform to within 1%.
# - inner_lr, meta_lr <= 1000: a rate near 1e300 overflows the policy's
#   forward pass after one step; 1000 is four decades above the reference.
# - workers <= 256: the pool forks all its workers at its first task, so a
#   slip such as 100000 would fill the process table; 256 is more cores
#   than one machine gives a run, which uses at most tasks_per_batch.
SCHEMA: dict[str, dict[str, tuple[str, object, object]]] = {
    "scenario": {
        "room_side": ("float", 6.0, Interval(0, 1000, "(]")),
        "ceiling": ("float", 3.0, Interval(0, 1000, "(]")),
        "num_vaps": ("int", 7, Interval(3, 64, "[]")),
        "num_sbs": ("int", 7, COUNT),
        "num_users": ("int", 20, COUNT),
        "user_height_min": ("float", 1.4, Interval(0, 1000, "()")),
        "user_height_max": ("float", 1.9, Interval(0, 1000, "()")),
        "body_radius": ("float", 0.2, NONNEGATIVE),
        "cells_per_side": ("int", 6, Interval(1, 32, "[]")),
        "slots_per_period": ("int", 3, COUNT),
        "vap_positions": ("points", None, None),
        "sbs_positions": ("points", None, None),
    },
    "radio": {
        "carrier_freq_hz": ("float", 1.0e12, POSITIVE),
        "bandwidth_hz": ("float", 1.0e10, POSITIVE),
        "tx_power_w": ("float", 1.0, POSITIVE),
        "absorption_per_m": ("float", 0.01, POSITIVE),
        "noise_density_dbm_per_hz": ("float", -174.0, Interval(-3000, 3000, "[]")),
        "image_size_bits": ("float", 2.0e7, POSITIVE),
        "slot_duration_s": ("float", 0.01, POSITIVE),
    },
    "optics": {
        "fov_semi_angle_deg": ("float", 75.0, Interval(0, 90, "()")),
    },
    "learning": {
        "inner_lr": ("float", 0.1, Interval(0, 1000, "(]")),
        "meta_lr": ("float", 0.01, Interval(0, 1000, "(]")),
        "inner_rollouts": ("int", 50, COUNT),
        "outer_rollouts": ("int", 10, COUNT),
        "meta_iterations": ("int", 200, NONNEGATIVE),
        "tasks_per_batch": ("int", 20, COUNT),
        "reward_baseline": ("bool", True, (True, False)),
        "reward_to_go": ("bool", False, (True, False)),
        "hidden_sizes": ("int_tuple", (64, 64), COUNT),
    },
    "tasks": {
        "count": ("int", 20, COUNT),
        "concentration": ("float", 1.0, Interval(0, 1_000_000, "(]")),
        "locality_radius": ("int", 1, NONNEGATIVE),
    },
    "run": {
        "algorithm": ("str", "dmpg", ALGORITHMS),
        "master_seed": ("int", 0, NONNEGATIVE),
        "output_dir": ("str", "run_output", None),
        "workers": ("int", 1, Interval(1, 256, "[]")),
        "eval_periods": ("int", 5, COUNT),
    },
}

# The sections that define the simulated world; a checkpoint records their
# digest, so it is refused under another room, radio or optics.
SCENARIO_SECTIONS = ("scenario", "radio", "optics")


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
    def scenario_hash(self) -> str:
        """Digest of the canonical [scenario], [radio] and [optics] sections."""
        return policy_net.config_digest(serialize_spec(self.values, SCENARIO_SECTIONS))

    @property
    def kind(self) -> str:
        """Policy head the algorithm trains: `dmpg` or the joint `mpg` (also for pg)."""
        return "dmpg" if self.algorithm == "dmpg" else "mpg"

    def task(self, seed: int, task_id: int) -> Task:
        """A movement pattern drawn with the spec's [tasks] settings."""
        tk = self.values["tasks"]
        return env.sample_task(
            self.scenario.cells_per_side,
            seed=seed,
            concentration=tk["concentration"],
            locality_radius=tk["locality_radius"],
            task_id=task_id,
        )


def parse_config_text(text: str) -> tuple[dict[str, dict[str, object]], set[tuple[str, str]]]:
    """Strict parse of sectioned key = value text into typed values, and the
    (section, key) pairs it sets; a key may be set once."""
    values: dict[str, dict[str, object]] = {
        section: {key: default for key, (_, default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    set_on: dict[tuple[str, str], int] = {}  # (section, key) -> its line
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
        if (section, key) in set_on:
            raise ConfigError(
                f"line {lineno}: {section}.{key} is already set on line {set_on[section, key]}"
            )
        set_on[section, key] = lineno
        tag = SCHEMA[section][key][0]
        values[section][key] = _parse_value(tag, raw, f"line {lineno} ({section}.{key})")
    return values, set(set_on)


def apply_env_overrides(values: dict[str, dict[str, object]], environ) -> set[tuple[str, str]]:
    """Set each key a THZVLC_SECTION__KEY variable names; returns those keys."""
    given = set()
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
        tag = SCHEMA[section][key][0]
        values[section][key] = _parse_value(tag, raw, f"env {name} ({section}.{key})")
        given.add((section, key))
    return given


def serialize_spec(values: dict[str, dict[str, object]], sections=tuple(SCHEMA)) -> str:
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        for key, (tag, _, _) in SCHEMA[section].items():
            value = values[section][key]
            if value is None:
                continue
            lines.append(f"{key} = {_format_value(tag, value)}")
        lines.append("")
    return "\n".join(lines)


def domain_text(tag: str, domain) -> str:
    """The domain as the refusal message and README's config table show it."""
    if domain is None:
        return "-"
    if isinstance(domain, Interval):
        return f"each in {domain}" if tag == "int_tuple" else f"in {domain}"
    return "one of " + ", ".join(_format_value(tag, v) for v in domain)


def build_spec(values: dict[str, dict[str, object]], given: set[tuple[str, str]]) -> ExperimentSpec:
    """The spec of typed values; `given` holds the keys the config set, as
    the checks that tell a set value from a default need them. The spec
    holds a copy of the values in which the count of an explicit position
    list is the list's length, so its canonical text loads back."""
    values = {section: dict(keys) for section, keys in values.items()}
    for section, keys in SCHEMA.items():
        for key, (tag, _, domain) in keys.items():
            value = values[section][key]
            items = value if tag == "int_tuple" else (value,)
            if domain is not None and not all(v in domain for v in items):
                raise ConfigError(f"{section}.{key} must be {domain_text(tag, domain)}, got {value!r}")
    sc = values["scenario"]
    rd = values["radio"]

    def points_or_ring(key: str, count_key: str, phase: float) -> tuple[tuple[float, float], ...]:
        pts = sc[key]
        if pts is None:
            return env.ring_positions(sc[count_key], sc["room_side"], phase=phase)
        count = SCHEMA["scenario"][count_key][2]
        if len(pts) not in count:
            raise ConfigError(
                f"scenario.{key} must hold a number of points in {count}, as scenario.{count_key}, got {len(pts)}"
            )
        if ("scenario", count_key) in given and sc[count_key] != len(pts):
            raise ConfigError(
                f"scenario.{count_key} = {sc[count_key]} disagrees with the {len(pts)} points of scenario.{key}"
            )
        sc[count_key] = len(pts)
        return pts

    # keys named as RadioParams fields pass through; the noise is in dBm/Hz
    radio = env.RadioParams(
        **{k: v for k, v in rd.items() if k != "noise_density_dbm_per_hz"},
        noise_density_w_per_hz=dbm_per_hz_to_w_per_hz(rd["noise_density_dbm_per_hz"]),
    )
    try:
        scenario = ScenarioConfig(
            room_side=sc["room_side"],
            ceiling_z=sc["ceiling"],
            vap_positions=points_or_ring("vap_positions", "num_vaps", 0.0),
            sbs_positions=points_or_ring("sbs_positions", "num_sbs", math.pi / 6.0),
            num_users=sc["num_users"],
            user_height_range=(sc["user_height_min"], sc["user_height_max"]),
            body_radius=sc["body_radius"],
            cells_per_side=sc["cells_per_side"],
            slots_per_period=sc["slots_per_period"],
            radio=radio,
            optics=env.OpticsParams(fov_semi_angle_rad=math.radians(values["optics"]["fov_semi_angle_deg"])),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec = ExperimentSpec(
        values=values,
        scenario=scenario,
        learning=LearningConfig(**values["learning"]),
        algorithm=values["run"]["algorithm"],
        master_seed=values["run"]["master_seed"],
        output_dir=values["run"]["output_dir"],
        workers=values["run"]["workers"],
    )
    try:
        meta_rl.policy_head(spec.kind, scenario)  # the joint head refuses rooms above the action cap
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec


def load_spec(path: str | Path | None, environ=None, overrides: dict | None = None) -> ExperimentSpec:
    """Read a config file, apply env and explicit overrides, build the spec."""
    text = Path(path).read_text() if path is not None else ""
    values, given = parse_config_text(text)
    given |= apply_env_overrides(values, os.environ if environ is None else environ)
    for (section, key), value in (overrides or {}).items():
        values[section][key] = value
        given.add((section, key))
    return build_spec(values, given)


# ---------------------------------------------------------------------------
# Seed derivation and task streams


def derive_task_seeds(master_seed: int, count: int, purpose: int) -> list[int]:
    rng = np.random.default_rng([master_seed, purpose])
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def build_task_stream(spec: ExperimentSpec) -> list[Task]:
    seeds = derive_task_seeds(spec.master_seed, spec.values["tasks"]["count"], 11)
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


def write_trajectories(out_dir: Path, periods: env.Periods, scenario: ScenarioConfig) -> None:
    """One row per (period, slot, user), read from the batch's arrays in
    one pass; a period's rows go in one `writerows`."""
    with atomic_open(out_dir / "trajectories.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "period", "slot", "user", "cell_x", "cell_y", "height",
                "localized", "assigned_sbs", "tx_ok", "newly_served",
            ]
        )
        centers = [(repr(cx), repr(cy)) for cx, cy in scenario.cell_centers]
        p = periods
        count, slots, users = p.assigned.shape
        for b in range(count):
            heights = [repr(h) for h in p.heights[b].tolist()]
            columns = [a.ravel().tolist() for a in (
                p.cells[b, :slots], p.localized[b].view(np.int8), p.assigned[b],
                p.tx_ok[b].view(np.int8), p.newly_served[b].view(np.int8),
            )]
            writer.writerows(
                (b, t, j, *centers[cell], heights[j], localized, sbs, tx_ok, newly)
                for (t, j), cell, localized, sbs, tx_ok, newly in zip(product(range(slots), range(users)), *columns)
            )


def write_summary(out_dir: Path, summary: dict) -> None:
    with atomic_open(out_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def rollout_periods(params: policy_net.Policy, spec: ExperimentSpec, tasks: list[Task], purpose: int) -> env.Periods:
    """One period per task, in lockstep; period i draws from the rng keyed
    by (master seed, purpose, i)."""
    sc = spec.scenario
    uniforms = np.array([
        meta_rl.draw_uniforms(np.random.default_rng([spec.master_seed, purpose, i]), 1, sc)[0]
        for i in range(len(tasks))
    ])
    decode = meta_rl.policy_head(spec.kind, sc).decode
    return meta_rl.rollout_period(tasks, params, decode, sc, uniforms, False).periods


def evaluate_policy(
    params: policy_net.PolicyParams, spec: ExperimentSpec, periods: int
) -> tuple[float, env.Periods]:
    """Roll a frozen policy on fresh tasks; returns avg reliability per user
    and the periods rolled."""
    seeds = derive_task_seeds(spec.master_seed, periods, 13)
    tasks = [spec.task(s, 10_000 + i) for i, s in enumerate(seeds)]
    rolled = rollout_periods(params, spec, tasks, 17)
    return int(rolled.returns.sum()) / (spec.scenario.num_users * periods), rolled


def run(spec: ExperimentSpec) -> tuple[list[meta_rl.IterationMetrics], float]:
    """Train as the experiment spec describes, then evaluate and write
    artifacts; returns the training metrics and the average reliability per
    user of the evaluation."""
    out_dir = _output_dir(spec)
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
    policy_net.save_params(
        out_dir / "checkpoint.bin", params, spec.config_hash, spec.kind, spec.scenario_hash
    )
    eval_periods = spec.values["run"]["eval_periods"]
    avg, rolled = evaluate_policy(params, spec, eval_periods)
    write_trajectories(out_dir, rolled, spec.scenario)

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
    write_summary(out_dir, summary)
    with atomic_open(out_dir / "config.txt") as fh:
        fh.write(spec.canonical_text)
    return metrics, avg


# ---------------------------------------------------------------------------
# CLI


# flag -> the [run] key it overrides, plus its argparse options; every
# command takes these
RUN_FLAGS = {
    "--seed": ("master_seed", {"type": int}),
    "--algo": ("algorithm", {"choices": ALGORITHMS}),
    "--out": ("output_dir", {}),
    "--workers": ("workers", {"type": int}),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="config file path (defaults apply if omitted)")
    for flag, (key, options) in RUN_FLAGS.items():
        parser.add_argument(flag, default=None, help=f"override run.{key}", **options)
    parser.add_argument("--print-config", action="store_true", help="print the canonical config and exit")


def _spec_from_args(args) -> ExperimentSpec:
    given = {("run", key): getattr(args, flag[2:]) for flag, (key, _) in RUN_FLAGS.items()}
    return load_spec(args.config, overrides={k: v for k, v in given.items() if v is not None})


def _check_count(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ConfigError(f"{flag} must be >= {least}, got {value}")


def _output_dir(spec: ExperimentSpec) -> Path:
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _load_checkpoint(path, spec: ExperimentSpec) -> policy_net.PolicyParams:
    """Load a checkpoint, refusing one whose widths, head kind or scenario
    misfit the spec."""
    params, header = policy_net.load_params(path)
    inputs = policy_net.encoding_dim(spec.scenario)
    if params.layer_shapes[0][0] != inputs:
        raise ConfigError(
            f"checkpoint {path} takes {params.layer_shapes[0][0]} inputs; "
            f"the spec's {spec.scenario.num_users} users need {inputs}"
        )
    actions = len(meta_rl.policy_head(spec.kind, spec.scenario).actions)
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
    if header.get("scenario_hash") != spec.scenario_hash:
        raise ConfigError(
            f"checkpoint {path} was trained on scenario "
            f"{header.get('scenario_hash') or '(unrecorded)'}; the spec's is {spec.scenario_hash}"
        )
    return params


def _cmd_train(spec: ExperimentSpec, args) -> int:
    metrics, avg = run(spec)
    print(
        f"trained {spec.algorithm} for {len(metrics)} iterations; "
        f"avg reliability per user {avg:.4f}; "
        f"artifacts in {spec.output_dir}"
    )
    return 0


def _cmd_adapt(spec: ExperimentSpec, args) -> int:
    _check_count("--steps", args.steps, 0)
    _check_count("--task-seed", args.task_seed, 0)
    params = _load_checkpoint(args.checkpoint, spec)
    task = spec.task(args.task_seed, args.task_seed)
    adapted, curve = meta_rl.adapt(
        params, task, args.steps, spec.learning, spec.scenario, kind=spec.kind,
        master_seed=spec.master_seed,
    )
    out_dir = _output_dir(spec)
    policy_net.save_params(
        out_dir / "adapted_checkpoint.bin", adapted, spec.config_hash, spec.kind, spec.scenario_hash
    )
    with atomic_open(out_dir / "adapt_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_reward"])
        for i, r in enumerate(curve):
            writer.writerow([i, repr(r)])
    print(f"adapted for {args.steps} steps; artifacts in {spec.output_dir}")
    return 0


def _cmd_eval(spec: ExperimentSpec, args) -> int:
    periods = spec.values["run"]["eval_periods"] if args.periods is None else args.periods
    _check_count("--periods", periods, 1)
    params = _load_checkpoint(args.checkpoint, spec)
    avg, rolled = evaluate_policy(params, spec, periods)
    out_dir = _output_dir(spec)
    write_trajectories(out_dir, rolled, spec.scenario)
    write_summary(out_dir, {"avg_reliability_per_user": avg, "eval_periods": periods})
    print(f"avg reliability per user {avg:.4f} over {periods} periods")
    return 0


def _cmd_oracle(spec: ExperimentSpec, args) -> int:
    _check_count("--task-seed", args.task_seed, 0)
    _check_count("--realization-seed", args.realization_seed, 0)
    task = spec.task(args.task_seed, args.task_seed)
    best, sequence = env.brute_force_oracle(task, spec.scenario, args.realization_seed)
    print(f"oracle optimum: {best}")
    for t, action in enumerate(sequence):
        print(f"  slot {t}: vaps {action.vap_set}, assignments {action.assignments}")
    return 0


def _cmd_simulate(spec: ExperimentSpec, args) -> int:
    _check_count("--periods", args.periods, 1)
    if args.checkpoint:
        params = _load_checkpoint(args.checkpoint, spec)
    else:
        params = meta_rl.new_policy(spec.kind, spec.scenario, spec.learning, spec.master_seed)
    stream = build_task_stream(spec)
    tasks = [stream[i % len(stream)] for i in range(args.periods)]
    rolled = rollout_periods(params, spec, tasks, 19)
    write_trajectories(_output_dir(spec), rolled, spec.scenario)
    print(f"simulated {args.periods} periods, total reward {rolled.returns.sum()}; log in {spec.output_dir}")
    return 0


def _parser() -> argparse.ArgumentParser:
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
    p_eval.add_argument("--periods", type=int, default=None, help="override run.eval_periods")
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.print_config:
            print(spec.canonical_text, end="")
            return 0
        return args.func(spec, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
