"""Steadiness and self-checks for the benchmark, over many runs of run.py.

    python3 perfbench/steady.py --seeds 0,101,102 [--workloads a,b] [--sets 2] [--trace 0|1]

For each set, runs every workload once per seed (seconds from
BENCHMARK.json). For each workload and end-to-end metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, against the metric's bound; with two
sets, the second median's change against the first. It then checks that
runs of one seed agree exactly: the output digests and `reliability` (end
to end), or every count and ratio (traced). Traced runs also print which
layer holds the largest self time. Results go to perfbench/out/steady-*.json.
Exit code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, is_exact  # noqa: E402
from spans import LAYERS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    header = next(json.loads(line[len("# header "):]) for line in lines if line.startswith("# header "))
    return {"header": header, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default=time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs: dict[tuple[int, str, int], dict] = {}
    for k in range(args.sets):
        for seed in seeds:
            for w in workloads:
                started = time.monotonic()
                runs[(k, w, seed)] = r = one_run(w, seed, bench["run_seconds"], args.trace)
                print(f"set {k} {w} seed {seed}: correct={r['result']['correct']} "
                      f"({time.monotonic() - started:.1f} s)", flush=True)

    failures = []
    report = {"seeds": seeds, "sets": args.sets, "trace": args.trace, "workloads": {}}
    for w in workloads:
        rows = {}
        for m in declared:
            name = m["name"]
            per_set = [[runs[(k, w, s)]["result"]["metrics"][name]["value"] for s in seeds]
                       for k in range(args.sets)]
            row = {"values": per_set}
            if not args.trace and len(seeds) >= 2:
                median, q1, q3, frac = spread(per_set[0])
                row.update(median=median, q1=q1, q3=q3, spread=frac)
                line = f"{w:15s} {name:22s} median {median:.6g} IQR/median {frac:.4f} bound {m['bound']}"
                if name != "setup_s" and frac > m["bound"]:
                    failures.append(f"{w} {name}: spread {frac:.4f} above bound {m['bound']}")
                line += "" if frac < m["bound"] / 3 else " (above bound/3)"
                if args.sets > 1:
                    second = statistics.median(per_set[1])
                    change = (second - median) / median
                    worse = -change if m["better"] == "higher" else change
                    row["second_spread"] = spread(per_set[1])[3]
                    row["second_median_change"] = change
                    line += f" | 2nd set IQR/median {row['second_spread']:.4f}, median change {change:+.4f}"
                    if name != "setup_s" and row["second_spread"] > m["bound"]:
                        failures.append(f"{w} {name}: 2nd set spread {row['second_spread']:.4f} above bound")
                    if worse > m["bound"]:
                        failures.append(f"{w} {name}: second median worse by {worse:.4f}")
                print(line)
            rows[name] = row
        for s in seeds:
            results = [runs[(k, w, s)] for k in range(args.sets)]
            if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in results):
                failures.append(f"{w} seed {s}: a run was not correct or had failures")
            if args.trace:
                exact = [{n: v["value"] for n, v in r["result"]["metrics"].items()
                          if is_exact(n)} for r in results]
                if any(e != exact[0] for e in exact):
                    failures.append(f"{w} seed {s}: traced counts differ between runs")
                m = results[0]["result"]["metrics"]
                layers = {layer: m[f"{layer}.self_s"]["value"] for layer in LAYERS}
                top = sorted(layers, key=layers.get, reverse=True)
                total = sum(layers.values())
                print(f"{w:15s} seed {s}: self-time shares "
                      + ", ".join(f"{layer} {layers[layer] / total:.2f}" for layer in top[:4])
                      + f"; overhead {m['trace.overhead_frac']['value']:+.3f}")
            else:
                digests = [r["header"]["samples"]["digests"] for r in results]
                reliab = [r["result"]["metrics"]["reliability"]["value"] for r in results]
                if any(d != digests[0] for d in digests) or len(set(reliab)) != 1:
                    failures.append(f"{w} seed {s}: digests or reliability differ between runs")
                rows.setdefault("digests", {})[s] = digests[0]
        report["workloads"][w] = rows

    report["failures"] = failures
    out = ROOT / "perfbench" / "out" / f"steady-{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for f in failures:
        print(f"FAIL {f}")
    print(f"{'FAIL' if failures else 'OK'}: report in {out.relative_to(ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
