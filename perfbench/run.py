"""Benchmark of the thzvlc training loop: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run writes the workload's
config (generated from the seed, `run.master_seed` = seed) under
`perfbench/out/`, times set-up in a few fresh processes, then starts one
fresh workload process (`perfbench/workload.py`) that trains and evaluates
for S seconds. It prints a run header, each metric by name with its unit,
and as the last line one JSON object: `correct`, `attempted` (rollouts),
`failed` (rollouts that raised or failed the audit) and `metrics`. With
`--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json, with
`--trace 1` the `per_layer` ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import REFERENCE_KERNELS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DEADLINE_S = 170.0
SETUP_PROBES = 4
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Both workloads are closed loops: one training process that waits for each
# call to finish before the next. A training call is short (6 meta
# iterations) so that a run repeats it many times; mpg-head4 drops the
# reward baseline so that every step takes the gradient path whatever the
# returns, which keeps its work equal across seeds.
WORKLOADS = {
    "dmpg-room20": {
        "scenario": {"num_users": 20},
        "learning": {"inner_rollouts": 4, "outer_rollouts": 2},
        "tasks": {"count": 20, "locality_radius": 1},
        "run": {"algorithm": "dmpg", "workers": 1, "eval_periods": 20},
        "kernel": "python",
    },
    "mpg-head4": {
        "scenario": {"num_users": 4},
        "learning": {"inner_rollouts": 2, "outer_rollouts": 1, "reward_baseline": "false"},
        "tasks": {"count": 20, "locality_radius": 1},
        "run": {"algorithm": "mpg", "workers": 1, "eval_periods": 30},
        "kernel": "mixed",
    },
}
LEARNING = {"meta_iterations": 6, "tasks_per_batch": 2, "hidden_sizes": "64,64"}


def is_exact(name: str) -> bool:
    """Per-layer counts and ratios, which must repeat exactly for a seed."""
    return name.endswith((".calls", "_frac", ".computed", "_mean", ".bytes")) and name != "trace.overhead_frac"


def config_text(workload: str, seed: int, out_dir: Path) -> str:
    sections = dict(WORKLOADS[workload])
    sections["learning"] = {**LEARNING, **sections["learning"]}
    sections["run"] = {**sections["run"], "master_seed": seed, "output_dir": out_dir.as_posix()}
    lines = []
    for section in ("scenario", "learning", "tasks", "run"):
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in sections[section].items())
    return "\n".join(lines) + "\n"


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thzvlc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(argv: list[str], deadline: float) -> dict:
    """Run one workload process to completion; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("THZVLC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread: on a host of a few cores a second one measures the
    # scheduler, not the program.
    env.update({k: "1" for k in BLAS_THREAD_VARS})
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("workload process timed out") from None
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """p90 by nearest rank, or the highest percentile with ten samples beyond it.

    With eleven samples or fewer no percentile has ten beyond it; the maximum
    stands in. The percentile used is recorded in the run header.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, min(math.ceil(0.9 * n) - 1, n - 11)) if n > 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def in_reference_s(wall: float, ref: float, kernel: str) -> float:
    """A wall time in reference seconds: scaled by how much slower than its
    usual time the workload's reference kernel ran around it. On the host the
    usual times come from, reference seconds read close to plain seconds."""
    return wall * REFERENCE_KERNELS[kernel][2] / ref


def end_to_end(
    result: dict, raw_setups: list[tuple[float, float]], kernel: str, checks: list[str]
) -> tuple[dict, dict]:
    """End-to-end metrics from one measure run; every time is in reference seconds."""
    setups = [in_reference_s(wall, ref, kernel) for wall, ref in raw_setups]
    train = [r for r in result["train"] if "wall_s" in r]
    evals = [e for e in result["eval"] if "wall_s" in e]
    if not train or not evals:
        checks.append("no training call or evaluation completed")
        return {}, {}
    train_s = [in_reference_s(r["wall_s"], r["ref_s"], kernel) for r in train]
    iters = [in_reference_s(t, r["ref_s"], kernel) for r in train for t in r["iter_s"]]
    eval_s = [in_reference_s(e["wall_s"], e["ref_s"], kernel) for e in evals]
    tail, tail_pct = tail_percentile(iters)
    digests = {
        "rewards_sha256": sorted({r["rewards_sha256"] for r in train}),
        "trajectories_sha256": sorted({e["trajectories_sha256"] for e in evals}),
    }
    reliabilities = {e["reliability"] for e in evals}
    if len(digests["rewards_sha256"]) != 1:
        checks.append("identical training calls gave different per-iteration rewards")
    if len(digests["trajectories_sha256"]) != 1 or len(reliabilities) != 1:
        checks.append("identical evaluations gave different trajectories")
    if not all(e["csv_rows_ok"] for e in evals):
        checks.append("trajectories.csv has the wrong number of rows")
    reliability = evals[0]["reliability"]
    if not 0.0 < reliability <= 1.0:
        checks.append(f"reliability {reliability} outside (0, 1]")
    metrics = {
        "setup_s": statistics.median(setups),
        "train_rollouts_per_s": train[0]["rollouts"] / statistics.median(train_s),
        "iter_s.p50": statistics.median(iters),
        "iter_s.p90": tail,
        "eval_periods_per_s": evals[0]["periods"] / statistics.median(eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "reliability": reliability,
    }
    samples = {
        "setup_s.n": len(setups),
        "train_calls": len(train),
        "iter_s.n": len(iters),
        "iter_s.p90.percentile": tail_pct,
        "eval_passes": len(evals),
        "digests": digests,
        # The same medians in plain wall seconds, and the kernel's own time.
        "wall_s": {
            "setup": statistics.median(s for s, _ in raw_setups),
            "train_call": statistics.median(r["wall_s"] for r in train),
            "iteration": statistics.median(t for r in train for t in r["iter_s"]),
            "eval_pass": statistics.median(e["wall_s"] for e in evals),
            "reference_kernel": statistics.median(r["ref_s"] for r in train),
        },
    }
    return metrics, samples


def per_layer(result: dict, checks: list[str]) -> tuple[dict, dict]:
    layers = result["layers"]
    # Adjacent calls see the same machine, so compare them pairwise.
    ratios = [
        t["wall_s"] / u["wall_s"]
        for u, t in zip(result["untraced"], result["traced"])
        if "wall_s" in u and "wall_s" in t
    ]
    if not ratios or not layers:
        checks.append("no traced training call completed")
        return {}, {}
    metrics = {}
    for name in layers[0]:
        values = [run[name] for run in layers]
        if is_exact(name):
            if len(set(values)) != 1:
                checks.append(f"{name} differs between identical traced calls: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics.update(result["setup_layers"])
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    samples = {
        "traced_calls": len(ratios),
        "span_count": result["span_count"],
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "thzvlc" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a thzvlc checkout (need src/thzvlc and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("error: --seconds must lie in [1, 60]", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    cfg = OUT / f"{stem}.cfg"
    cfg.write_text(config_text(args.workload, args.seed, OUT / stem))
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_before": loadavg(),
    }

    kernel = ["--kernel", WORKLOADS[args.workload]["kernel"]]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(["--config", str(cfg), "--mode", "setup", *kernel], deadline)
                setups.append((probe["setup_s"], probe["setup_ref_s"]))
        mode = ["--mode", "trace", "--spans", str(OUT / f"{stem}.spans.npz")] if args.trace else ["--mode", "measure", *kernel]
        result = run_child(["--config", str(cfg), *mode, "--seconds", str(args.seconds)], deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header["loadavg_after"] = loadavg()
    header["numpy"] = result["numpy"]

    checks = list(result["problems"])
    if args.trace:
        metrics, samples = per_layer(result, checks)
    else:
        setups.append((result["setup_s"], result["setup_ref_s"]))
        metrics, samples = end_to_end(result, setups, WORKLOADS[args.workload]["kernel"], checks)
    attempted, failed = result["attempted"], result["failed"]
    header["failed_frac"] = failed / attempted if attempted else 1.0
    header["samples"] = samples
    header["metrics"] = {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in declared}

    out_metrics = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            checks.append(f"metric {m['name']} was not measured")
            value = 0.0
        elif not args.trace and value <= 0:
            checks.append(f"metric {m['name']} is {value}, expected > 0")
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    header["checks_failed"] = checks
    (OUT / f"{stem}-t{args.trace}.json").write_text(
        json.dumps({"header": header, "metrics": out_metrics, "raw": result}, indent=1) + "\n"
    )

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# header " + json.dumps(header))
    for m in declared:
        print(f"{m['name']} = {out_metrics[m['name']]['value']:.6g} {m['unit']} ({m['better']} is better)")
    for problem in checks:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
