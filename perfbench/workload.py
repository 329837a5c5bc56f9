"""One workload process: set up, train in fixed-length calls, evaluate, audit.

    python3 perfbench/workload.py --config CFG --mode setup|measure|trace --seconds S

`perfbench/run.py` starts this file in a fresh process for every run. It
drives the calls `thzvlc train` makes: `harness.load_spec`,
`harness.build_task_stream`, `meta_rl.new_policy`, `meta_rl.meta_train`,
then `harness.evaluate_policy` and `harness.write_trajectories`.

- setup:   time the imports, the spec, the task stream and the initial
           policy, then time the reference kernel once and exit.
- measure: after set-up, alternate the same fixed-length training call
           from the same initial policy with two evaluations of the policy
           it returns, until the budget is spent, running the reference
           kernel between every two timed calls. Identical calls must give
           identical outputs, which the parent checks.
- trace:   alternate an untraced training call with a traced training call
           plus a traced evaluation until the budget is spent.

Every rollout is audited through `trajectory_sink` (training) or after
`evaluate_policy` (evaluation). The last stdout line is one JSON object of
raw samples; the parent turns them into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

# Short evaluation passes, several per training call, give the eval figure
# as many samples as the training one.
EVAL_PASSES = 2


def audit(traj, scenario, dual: bool, check_period_feasible) -> str | None:
    """First violated rollout invariant, or None.

    Newly served implies localized and tx_ok; the association is one-to-one;
    served flags only ever switch on and are carried between slots; a dmpg
    period is feasible under `association.check_period_feasible`.
    """
    served = traj.steps[0].state.served
    if any(served):
        return "period starts with served users"
    per_slot = []
    for step in traj.steps:
        if step.state.served != served:
            return f"slot {step.state.slot_index}: served flags not carried over"
        for j in step.newly_served:
            if served[j]:
                return f"slot {step.state.slot_index}: user {j} served twice"
            if not (step.localized[j] and step.tx_ok[j]):
                return f"slot {step.state.slot_index}: user {j} served without localization and delivery"
        users = [u for u, _ in step.action.assignments]
        stations = [s for _, s in step.action.assignments]
        if len(set(users)) != len(users) or len(set(stations)) != len(stations):
            return f"slot {step.state.slot_index}: association is not one-to-one"
        per_slot.append(tuple((s, u) for u, s in step.action.assignments))
        newly = set(step.newly_served)
        served = tuple(w or j in newly for j, w in enumerate(served))
    if traj.final_state.served != served:
        return "final served flags disagree with the steps"
    if dual and not check_period_feasible(per_slot, scenario.num_users, scenario.num_sbs):
        return "period association is infeasible"
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Set-up state plus the two timed operations: a training call and an eval pass."""

    def __init__(self, config: Path, tracer_factory=None):
        start = time.perf_counter()
        from thzvlc import association, channel, dmpg, env, harness, meta_rl, policy_net

        self.modules = {
            "association": association, "channel": channel, "dmpg": dmpg, "env": env,
            "harness": harness, "meta_rl": meta_rl, "policy_net": policy_net,
        }
        self.tracer = tracer_factory(self.modules) if tracer_factory else None
        if self.tracer:
            self.tracer.install()
        self.spec = harness.load_spec(config, environ={})
        self.tasks = harness.build_task_stream(self.spec)
        self.params0 = meta_rl.new_policy(
            self.spec.algorithm, self.spec.scenario, self.spec.learning, self.spec.master_seed
        )
        self.setup_s = time.perf_counter() - start
        if self.tracer:
            self.tracer.uninstall()
        self.dual = self.spec.algorithm == "dmpg"
        self.out_dir = Path(self.spec.output_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _audit(self, traj) -> None:
        problem = audit(
            traj, self.spec.scenario, self.dual, self.modules["association"].check_period_feasible
        )
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def train(self) -> dict:
        """One fixed-length `meta_train` call from the initial policy.

        Iteration k's time runs from the end of the sink calls of iteration
        k-1 (or the call's start) to the first sink call of iteration k, so
        the audit is not timed.
        """
        cfg = self.spec.learning
        per_iter = cfg.tasks_per_batch * (cfg.inner_rollouts + cfg.outer_rollouts)
        planned = cfg.meta_iterations * per_iter
        seen = [0]
        sink_s = [0.0]
        bounds: list[float] = []

        def sink(traj):
            enter = time.perf_counter()
            if seen[0] % per_iter == 0:
                bounds.append(enter)
            seen[0] += 1
            self._audit(traj)
            leave = time.perf_counter()
            sink_s[0] += leave - enter
            if seen[0] % per_iter == 0:
                bounds.append(leave)

        meta_rl = self.modules["meta_rl"]
        self.attempted += planned
        start = time.perf_counter()
        bounds.append(start)
        try:
            params, metrics = meta_rl.meta_train(
                cfg, self.spec.scenario, self.tasks, self.spec.algorithm,
                master_seed=self.spec.master_seed, initial_params=self.params0,
                workers=self.spec.workers, trajectory_sink=sink,
            )
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failed += planned - seen[0]
            self.problems.append(f"training raised {exc!r}")
            return {"params": None}
        end = time.perf_counter()
        self.failed += planned - seen[0]
        rewards = "\n".join(f"{m.mean_reward!r},{m.std_reward!r}" for m in metrics)
        return {
            "params": params,
            "wall_s": end - start - sink_s[0],
            "rollouts": seen[0],
            "iter_s": [b - a for a, b in zip(bounds[0::2], bounds[1::2])],
            "rewards_sha256": sha256(rewards.encode()),
        }

    def evaluate(self, params) -> dict:
        """One `evaluate_policy` + `write_trajectories` pass of a frozen policy."""
        harness = self.modules["harness"]
        periods = self.spec.values["run"]["eval_periods"]
        self.attempted += periods
        start = time.perf_counter()
        try:
            avg, trajectories = harness.evaluate_policy(params, self.spec, periods)
            harness.write_trajectories(self.out_dir, trajectories, self.spec.scenario)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failed += periods
            self.problems.append(f"evaluation raised {exc!r}")
            return {}
        wall = time.perf_counter() - start
        for traj in trajectories:
            self._audit(traj)
        self.failed += periods - len(trajectories)
        csv_bytes = (self.out_dir / "trajectories.csv").read_bytes()
        sc = self.spec.scenario
        return {
            "wall_s": wall,
            "periods": periods,
            "reliability": avg,
            "csv_rows_ok": csv_bytes.count(b"\n") == 1 + periods * sc.slots_per_period * sc.num_users,
            "trajectories_sha256": sha256(csv_bytes),
        }


# Reference kernels, shaped like each workload's hot path: (pure-Python
# steps, numpy passes over arrays larger than L2, usual time in seconds on
# the 2-vCPU host the benchmark was built on).
REFERENCE_KERNELS = {
    "python": (10000, 0, 0.004),  # dmpg-room20: physics in pure Python
    "mixed": (3000, 3, 0.0045),  # mpg-head4: the policy head's array passes plus Python
}


def reference_kernel(kind: str) -> float:
    """Wall time of the fixed reference work `kind`; the fastest of three tries.

    The host's speed changes by up to ~2x in spells of seconds to minutes,
    and process CPU time moves with it. A timed call divided by this
    kernel's time around it does not; `run.py` reports times that way.
    """
    import math

    import numpy as np

    steps, passes, _ = REFERENCE_KERNELS[kind]
    if passes and not _KERNEL_ARRAYS:
        rows, cols = 8192, 64  # 4 MiB each
        _KERNEL_ARRAYS.extend([
            np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols),
            np.linspace(0.0, 1.0, cols),
            np.linspace(0.0, 1.0, rows),
            np.empty((rows, cols)),
        ])
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(steps):
            x, y = i * 0.37 % 5.0, i * 0.91 % 5.0
            acc += math.sqrt((x - 2.5) ** 2 + (y - 2.5) ** 2 + 1.44)
        for _ in range(passes):
            mat, vec, col, out = _KERNEL_ARRAYS
            acc += float((mat @ vec).sum())
            np.outer(col, vec, out=out)
        best = min(best, time.perf_counter() - start)
    return best


_KERNEL_ARRAYS: list = []


def run_measure(work: Workload, seconds: float, kernel: str) -> dict:
    """Alternate a training call with evaluations of its policy until the
    budget is spent, so both see the same stretch of host time. Each timed
    call records the reference kernel's mean time just before and after it."""
    end = time.perf_counter() + seconds
    rounds, evals = [], []
    ref = reference_kernel(kernel)
    while True:
        cycle = time.perf_counter()
        r = work.train()
        after = reference_kernel(kernel)
        rounds.append({k: v for k, v in r.items() if k != "params"} | {"ref_s": (ref + after) / 2})
        ref = after
        if r["params"] is None:
            break
        for _ in range(EVAL_PASSES):
            e = work.evaluate(r["params"])
            after = reference_kernel(kernel)
            evals.append(e | {"ref_s": (ref + after) / 2})
            ref = after
        now = time.perf_counter()
        if "wall_s" not in evals[-1] or 2 * now - cycle > end:
            break
    return {"train": rounds, "eval": evals}


def run_trace(work: Workload, seconds: float, spans_path: Path) -> dict:
    from spans import run_metrics

    tracer = work.tracer
    end = time.perf_counter() + seconds
    untraced, traced, layers = [], [], []
    run_id = 0
    while True:
        cycle = time.perf_counter()
        u = work.train()
        run_id += 1
        tracer.begin_run(run_id)
        tracer.install()
        try:
            t = work.train()
            if t["params"] is not None:
                work.evaluate(t["params"])
        finally:
            tracer.uninstall()
        untraced.append({k: v for k, v in u.items() if k != "params"})
        traced.append({k: v for k, v in t.items() if k != "params"})
        layers.append(run_metrics(tracer.runs[run_id]))
        now = time.perf_counter()
        if t["params"] is None or 2 * now - cycle > end:
            break
    setup = tracer.runs[0]["stats"]
    return {
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "setup_layers": {
            f"{name}.s": setup.get(name, (0, 0, 0))[1] / 1e9
            for name in ("harness.load_spec", "harness.build_task_stream")
        },
        "span_count": tracer.write_spans(spans_path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--kernel", choices=REFERENCE_KERNELS, default="python",
                        help="reference kernel that measure and setup times are paired with")
    parser.add_argument("--spans", type=Path, default=None, help="span file written in trace mode")
    args = parser.parse_args(argv)

    tracer_factory = None
    if args.mode == "trace":
        from spans import Tracer

        tracer_factory = Tracer
    work = Workload(args.config, tracer_factory)
    import numpy

    result = {"setup_s": work.setup_s, "setup_ref_s": reference_kernel(args.kernel), "numpy": numpy.__version__}
    if args.mode == "measure":
        result.update(run_measure(work, args.seconds, args.kernel))
    elif args.mode == "trace":
        result.update(run_trace(work, args.seconds, args.spans))
    result.update(attempted=work.attempted, failed=work.failed, problems=work.problems[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
