"""Span tracer that wraps the public functions of the thzvlc modules.

Each wrapped call records one span: name, start, end, parent span and run
id. Spans live in in-memory columns and are written out once, at exit.
Counts and ratios (blocked links, pool sizes, repeated states, ...) are
tallied at the same boundaries, so every ratio is measured where the work
happens.

A function imported by name must be patched in the namespace that calls
it: `geometry.los_clear` is reached as `channel.los_clear`. Private
functions (`geometry._blocks`, `meta_rl._run_task_phase`, ...) are not
wrapped, nor are the small public helpers called thousands of times per
rollout (`geometry.distance`, `channel.transmittance`, `channel.path_loss`,
`channel.noise_power`, `channel.incidence_angle`, `env.user_point`), where
a span would cost more than the call. Their time lands in the self time of
the nearest wrapped caller, which sits in the same layer or the one above.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

# module name -> public functions wrapped there, as (span name, attribute).
TARGETS = {
    "channel": (
        ("geometry.los_clear", "los_clear"),
        ("channel.localized", "localized"),
        ("channel.link_budget", "link_budget"),
    ),
    "env": (
        ("env.reset", "reset"),
        ("env.evaluate_service", "evaluate_service"),
        ("env.sample_next_cells", "sample_next_cells"),
    ),
    "association": (
        ("association.slot_assign", "slot_assign"),
        ("association.build_slot_problem", "build_slot_problem"),
        ("association.hungarian_max", "hungarian_max"),
    ),
    "dmpg": (("dmpg.rollout_vap", "rollout_vap"),),
    "policy_net": (
        ("policy_net.encode_state", "encode_state"),
        ("policy_net.forward", "forward"),
        ("policy_net.sample_action", "sample_action"),
        ("policy_net.accumulate_grad_log_prob", "accumulate_grad_log_prob"),
    ),
    "meta_rl": (
        ("meta_rl.rollout_joint", "rollout_joint"),
        ("meta_rl.task_gradient", "task_gradient"),
        ("meta_rl.inner_update", "inner_update"),
        ("meta_rl.meta_update", "meta_update"),
        ("meta_rl.meta_train", "meta_train"),
    ),
    "harness": (
        ("harness.load_spec", "load_spec"),
        ("harness.build_task_stream", "build_task_stream"),
        ("harness.evaluate_policy", "evaluate_policy"),
        ("harness.write_trajectories", "write_trajectories"),
    ),
}

LAYERS = ("geometry", "channel", "env", "association", "dmpg", "policy_net", "meta_rl", "harness")


class Tracer:
    """Records spans and per-run tallies while its wrappers are installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._originals: dict[tuple[str, str], object] = {}
        self._wrappers: dict[tuple[str, str], object] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.run_id = 0
        self.runs: dict[int, dict] = {}
        self._current_task = None
        self._seen_states: set = set()
        self.begin_run(0)

    # -- run bookkeeping ----------------------------------------------------

    def begin_run(self, run_id: int) -> None:
        """Start a fresh set of tallies; spans keep accumulating."""
        self.run_id = run_id
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl ns, self ns]
        self.tally: dict[str, float] = {}
        self._seen_states = set()
        self.runs[run_id] = {"stats": self.stats, "tally": self.tally}

    def _count(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, enter=None, leave=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_run.append(self.run_id)
            self.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if leave is not None:
                leave(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict[str, tuple]:
        """Per-span observers: (enter(args), leave(args, result))."""

        def set_task(args):
            self._current_task = args[0].id

        def los(args, clear):
            if not clear:
                self._count("geometry.los_clear.blocked")

        def loc(args, ok):
            if ok:
                self._count("channel.localized.true")

        def budget(args, b):
            if b.tx_ok:
                self._count("channel.link_budget.tx_ok")

        def service(args, outcome):
            key = (self._current_task, args[0].user_cells)
            if key in self._seen_states:
                self._count("env.evaluate_service.repeat")
            else:
                self._seen_states.add(key)

        def slot_problem(args, problem):
            self._count("association.build_slot_problem.pool", len(problem.candidates))

        def hungarian(args, sol):
            self._count("association.hungarian_max.size", max(np.shape(args[0])))
            self._count("association.hungarian_max.matched", len(sol.matching))

        def grad(args, _):
            # Bytes of gradient entries written per call, from array sizes.
            self._count("policy_net.grad_bytes.computed", args[0].flat.nbytes)

        def trajectories(args, _):
            name = args[3] if len(args) > 3 else "trajectories.csv"
            self._count("harness.write_trajectories.bytes", (Path(args[0]) / name).stat().st_size)

        return {
            "geometry.los_clear": (None, los),
            "channel.localized": (None, loc),
            "channel.link_budget": (None, budget),
            "env.evaluate_service": (None, service),
            "association.build_slot_problem": (None, slot_problem),
            "association.hungarian_max": (None, hungarian),
            "dmpg.rollout_vap": (set_task, None),
            "meta_rl.rollout_joint": (set_task, None),
            "policy_net.accumulate_grad_log_prob": (None, grad),
            "harness.write_trajectories": (None, trajectories),
        }

    def install(self) -> None:
        """Swap every target for its wrapper (built on first use)."""
        if not self._originals:
            hooks = self._hooks()
            for module_name, targets in TARGETS.items():
                module = self._modules[module_name]
                for span_name, attr in targets:
                    fn = getattr(module, attr)
                    enter, leave = hooks.get(span_name, (None, None))
                    self._originals[(module_name, attr)] = fn
                    self._wrappers[(module_name, attr)] = self._wrap(span_name, fn, enter, leave)
        for (module_name, attr), wrapper in self._wrappers.items():
            setattr(self._modules[module_name], attr, wrapper)

    def uninstall(self) -> None:
        for (module_name, attr), fn in self._originals.items():
            setattr(self._modules[module_name], attr, fn)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write every span as columns of one .npz file; returns the count."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
        return len(self.span_start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(run: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (one training call + one eval)."""
    stats, tally = run["stats"], run["tally"]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def incl(name):
        return stats.get(name, (0, 0, 0))[1] / 1e9

    def own(name):
        return stats.get(name, (0, 0, 0))[2] / 1e9

    out = {
        "geometry.los_clear.calls": calls("geometry.los_clear"),
        "geometry.los_clear.s": incl("geometry.los_clear"),
        "geometry.los_clear.blocked_frac": _ratio(
            tally.get("geometry.los_clear.blocked", 0), calls("geometry.los_clear")
        ),
        "channel.localized.calls": calls("channel.localized"),
        "channel.localized.s": incl("channel.localized"),
        "channel.localized.true_frac": _ratio(
            tally.get("channel.localized.true", 0), calls("channel.localized")
        ),
        "channel.link_budget.calls": calls("channel.link_budget"),
        "channel.link_budget.s": incl("channel.link_budget"),
        "channel.link_budget.tx_ok_frac": _ratio(
            tally.get("channel.link_budget.tx_ok", 0), calls("channel.link_budget")
        ),
        "env.evaluate_service.calls": calls("env.evaluate_service"),
        "env.evaluate_service.self_s": own("env.evaluate_service"),
        "env.evaluate_service.repeat_frac": _ratio(
            tally.get("env.evaluate_service.repeat", 0), calls("env.evaluate_service")
        ),
        "env.sample_next_cells.s": incl("env.sample_next_cells"),
        "association.build_slot_problem.calls": calls("association.build_slot_problem"),
        "association.build_slot_problem.self_s": own("association.build_slot_problem"),
        "association.build_slot_problem.pool_mean": _ratio(
            tally.get("association.build_slot_problem.pool", 0),
            calls("association.build_slot_problem"),
        ),
        "association.hungarian_max.calls": calls("association.hungarian_max"),
        "association.hungarian_max.s": incl("association.hungarian_max"),
        "association.hungarian_max.size_mean": _ratio(
            tally.get("association.hungarian_max.size", 0), calls("association.hungarian_max")
        ),
        "association.hungarian_max.matched_mean": _ratio(
            tally.get("association.hungarian_max.matched", 0), calls("association.hungarian_max")
        ),
        "dmpg.rollout_vap.calls": calls("dmpg.rollout_vap"),
        "dmpg.rollout_vap.self_s": own("dmpg.rollout_vap"),
        "policy_net.forward.calls": calls("policy_net.forward"),
        "policy_net.forward.s": incl("policy_net.forward"),
        "policy_net.accumulate_grad_log_prob.calls": calls("policy_net.accumulate_grad_log_prob"),
        "policy_net.accumulate_grad_log_prob.s": incl("policy_net.accumulate_grad_log_prob"),
        "policy_net.encode_state.s": incl("policy_net.encode_state"),
        "policy_net.grad_bytes.computed": tally.get("policy_net.grad_bytes.computed", 0),
        "meta_rl.rollout_joint.self_s": own("meta_rl.rollout_joint"),
        "meta_rl.task_gradient.calls": calls("meta_rl.task_gradient"),
        "meta_rl.task_gradient.s": incl("meta_rl.task_gradient"),
        "meta_rl.inner_update.s": incl("meta_rl.inner_update"),
        "meta_rl.meta_update.s": incl("meta_rl.meta_update"),
        "meta_rl.meta_train.self_s": own("meta_rl.meta_train"),
        "harness.evaluate_policy.s": incl("harness.evaluate_policy"),
        "harness.write_trajectories.s": incl("harness.write_trajectories"),
        "harness.write_trajectories.bytes": tally.get("harness.write_trajectories.bytes", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            entry[2] for name, entry in stats.items() if name.split(".")[0] == layer
        ) / 1e9
    return out
