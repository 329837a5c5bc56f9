"""Checks that tie the package to what names it from outside.

The benchmark tracer (`perfbench/spans.py`) wraps package functions by
name, so each name it lists must exist; a missing one would only fail when
a traced run starts. The README's `## CLI` block and the CLI parser must
name the same commands and flags, and the README's config table and the
config schema the same keys with the same domains, so neither drops, gains
or changes one silently, and the README's library layout table the
modules of the package. And
every public definition of the package must be named by package or
benchmark code, so code that no run reaches cannot stay there. And only
the defaults listed here stay in the package: a reference value lives in
the config schema, and a caller passes it. And the benchmark's workload
runs in-process on a toy room of each head, so a change to the calls it
makes fails here rather than in a benchmark run."""

import argparse
import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOAD = ROOT / "perfbench" / "workload.py"
README = ROOT / "README.md"


def traced_targets() -> dict:
    """`TARGETS` of the tracer, from its source; no bytecode cache is written."""
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_function_exists():
    targets = traced_targets()
    assert targets
    missing = [
        f"{span} (thzvlc.{module_name}.{attr})"
        for module_name, pairs in targets.items()
        for span, attr in pairs
        if not callable(getattr(importlib.import_module(f"thzvlc.{module_name}"), attr, None))
    ]
    assert missing == []


def readme_cli_lines() -> dict:
    """command -> the flags on its line of the README's `## CLI` block."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```", 2)[1]
    lines = {}
    for line in block.strip().splitlines():
        words = line.split()
        assert words[0] == "thzvlc"
        lines[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return lines


def parser_flags() -> dict:
    """command -> (every flag its parser takes, those only it takes)."""
    from thzvlc import harness

    parser = harness._parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    common = {"--config", "--print-config", *harness.RUN_FLAGS}
    flags = {}
    for command, p in sub.choices.items():
        taken = {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        assert common <= taken, command
        flags[command] = (taken, taken - common)
    return flags


def test_readme_cli_block_matches_the_parser():
    readme, parser = readme_cli_lines(), parser_flags()
    assert set(readme) == set(parser)
    for command, shown in readme.items():
        taken, own = parser[command]
        assert shown <= taken, (command, shown - taken)
        assert own <= shown, (command, own - shown)


def readme_config_rows() -> dict:
    """(section, key) -> its domain cell, for every row of the README's
    `## Config format` table; a row may list several keys as `a / b`, and
    then as many domains."""
    section = README.read_text().split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("section", "---"):
            continue
        keys, domains = cells[1].split("/"), cells[3].split(" / ")
        assert len(keys) == len(domains), line
        rows.update(((cells[0], key.strip()), domain) for key, domain in zip(keys, domains))
    return rows


def test_readme_config_table_matches_the_schema():
    from thzvlc import harness

    schema = {
        (section, key): harness.domain_text(tag, domain)
        for section, keys in harness.SCHEMA.items()
        for key, (tag, _, domain) in keys.items()
    }
    assert readme_config_rows() == schema


def test_readme_library_layout_names_every_module():
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    shown = [line.split("|")[1].strip().strip("`") for line in section.splitlines() if line.startswith("| `")]
    package = ROOT / "src" / "thzvlc"
    modules = ["thzvlc" if p.stem == "__init__" else f"thzvlc.{p.stem}" for p in package.glob("*.py")]
    assert sorted(shown) == sorted(modules)


def test_learning_config_fields_are_the_learning_keys():
    """Every `LearningConfig` field is a `[learning]` key, so none is set only
    from code."""
    import dataclasses

    from thzvlc import harness
    from thzvlc.meta_rl import LearningConfig

    fields = [f.name for f in dataclasses.fields(LearningConfig)]
    assert fields == list(harness.SCHEMA["learning"])


# What can name a definition: a top-level one is also named bare, a member
# only as an attribute (or by a string, as `getattr` takes it).
ANY_NAME = (ast.Name, ast.Attribute, ast.Constant)
MEMBER_NAME = (ast.Attribute, ast.Constant)


def _mentions(tree, kinds=ANY_NAME) -> Counter:
    """How often each name, attribute or string constant occurs in `tree`,
    counting only nodes of `kinds`; docstrings do not count."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                docs.add(id(body[0].value))
    found = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, kinds):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node.value, str) and id(node) not in docs:
            found[node.value] += 1
    return found


def public_definitions(package, trees):
    """(name, node, kinds) of each public top-level function or class of the
    package and of each public method or property of its public classes,
    with the node kinds that can name it."""
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node, ANY_NAME
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item, MEMBER_NAME


def test_every_public_definition_is_used():
    """Each public top-level function or class of the package, and each
    public method or property of such a class, is named by package or
    benchmark code outside its own body, so code that no run reaches does not
    stay in the package."""
    package = sorted((ROOT / "src" / "thzvlc").glob("*.py"))
    readers = [*package, *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in readers}
    everywhere = {
        kinds: sum((_mentions(tree, kinds) for tree in trees.values()), Counter())
        for kinds in (ANY_NAME, MEMBER_NAME)
    }
    unused = [
        name
        for name, node, kinds in public_definitions(package, trees)
        if everywhere[kinds][node.name] == _mentions(node, kinds)[node.name]
    ]
    assert unused == []


# The package's defaulted parameters and dataclass fields. Each has a second
# value in use or is read by a test through its default; every other value,
# the reference learning settings included, is passed by the caller.
KEPT_DEFAULTS = {
    "artifacts.atomic_open(mode)",
    "harness.serialize_spec(sections)",
    "harness.load_spec(environ)",
    "harness.load_spec(overrides)",
    "harness.main(argv)",
    "meta_rl.meta_train(initial_params)",
    "meta_rl.meta_train(trajectory_sink)",
    "meta_rl.adapt(trajectory_sink)",
    "meta_rl.train_baseline_pg(trajectory_sink)",
    "policy_net.Gradient.head",
}


def package_defaults() -> set:
    """`module.function(parameter)` or `module.Class.field` for each default
    of the package."""
    found = set()
    for path in sorted((ROOT / "src" / "thzvlc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                name = getattr(node, "name", "<lambda>")
                found.update(f"{path.stem}.{name}({arg.arg})" for arg in named)
            elif isinstance(node, ast.ClassDef):
                found.update(
                    f"{path.stem}.{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and item.value is not None
                )
    return found


def test_only_the_kept_defaults_remain():
    """The parameters and fields with a default are exactly `KEPT_DEFAULTS`:
    no other gains one, so the reference configuration has one home,
    `harness.SCHEMA`, and no entry outlives its default."""
    assert package_defaults() == KEPT_DEFAULTS


def _writes_through_flat(tree, module: str):
    """(module.function, what) of each statement that makes an array
    writable again or writes through a `.flat` attribute: `setflags(write=
    True)`, an assignment into `x.flat[...]` or to `x.flat`, an `out=` that
    names `x.flat`, or `x.flat` passed as a `fold_into` output."""

    def names_flat(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "flat" for n in ast.walk(node))

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute | ast.Name):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            flags = [k.value for k in node.keywords if k.arg == "write"] + node.args[:1]
            if name == "setflags" and any(isinstance(v, ast.Constant) and v.value is True for v in flags):
                found.append((where, "setflags(write=True)"))
            if name == "fold_into" and node.args and names_flat(node.args[0]):
                found.append((where, "fold_into(.flat)"))
            if any(k.arg == "out" and names_flat(k.value) for k in node.keywords):
                found.append((where, "out=.flat"))
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AugAssign) else []
        for target in targets:
            if names_flat(target):
                found.append((where, "assignment to .flat"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_one_site_writes_a_policy_vector():
    """A `PolicyParams` vector is read-only once built. The one site that
    makes it writable again, and writes it, is the meta update's working
    vector: `meta_train`'s own copy, folded in place by `meta_update`."""
    found = []
    for path in sorted((ROOT / "src" / "thzvlc").glob("*.py")):
        found += _writes_through_flat(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == [
        ("meta_rl.meta_update", "fold_into(.flat)"),
        ("meta_rl.meta_update", "setflags(write=True)"),
    ]


def test_traced_calls_give_every_per_layer_metric(tmp_path):
    """Set-up, then a short training call and an evaluation, of `dmpg` and
    of `mpg`, under the benchmark's tracer, as its trace mode runs them: no
    hook raises, and the traced call's `run_metrics` with the set-up spans
    give every per-layer metric of BENCHMARK.json but the tracer's own
    overhead share (which the benchmark's runner adds)."""
    import json

    from thzvlc import association, channel, dmpg, env, harness, meta_rl, policy_net

    spans = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    modules = {
        "association": association, "channel": channel, "dmpg": dmpg, "env": env,
        "harness": harness, "meta_rl": meta_rl, "policy_net": policy_net,
    }
    wanted = {row["name"] for row in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    wanted.discard("trace.overhead_frac")
    for algorithm, users in (("dmpg", 6), ("mpg", 2)):
        overrides = {
            ("scenario", "num_users"): users, ("learning", "inner_rollouts"): 2,
            ("learning", "outer_rollouts"): 1, ("learning", "meta_iterations"): 2,
            ("learning", "tasks_per_batch"): 2, ("learning", "hidden_sizes"): (8,),
            ("tasks", "count"): 2, ("run", "algorithm"): algorithm,
        }
        tracer = spans["Tracer"](modules)  # run 0: set-up
        tracer.install()
        try:
            spec = harness.load_spec(None, environ={}, overrides=overrides)
            tasks = harness.build_task_stream(spec)
        finally:
            tracer.uninstall()
        tracer.begin_run(1)
        tracer.install()
        try:
            params, _ = meta_rl.meta_train(spec.learning, spec.scenario, tasks, spec.kind,
                                           master_seed=spec.master_seed, workers=1)
            _, trajectories = harness.evaluate_policy(params, spec, 2)
            harness.write_trajectories(tmp_path, trajectories, spec.scenario)
        finally:
            tracer.uninstall()
        metrics = spans["run_metrics"](tracer.runs[1])
        names = set(metrics) | {f"{name}.s" for name in tracer.runs[0]["stats"]}
        assert wanted <= names, sorted(wanted - names)
        assert metrics["policy_net.forward.calls"] > 0 and metrics["meta_rl.task_gradient.calls"] == 8
        assert metrics["harness.write_trajectories.bytes"] > 0
        assert (metrics["dmpg.rollout_vap.calls"] > 0) == (algorithm == "dmpg")


WORKLOAD_CONFIG = """
[scenario]
num_users = 3
cells_per_side = 3
slots_per_period = 2
vap_positions = 2,2; 4,2; 2,4; 4,4
sbs_positions = 2,3; 4,3

[learning]
inner_rollouts = 2
outer_rollouts = 1
meta_iterations = 2
tasks_per_batch = 2
hidden_sizes = 8

[tasks]
count = 3
locality_radius = 1

[run]
algorithm = {algorithm}
workers = 1
eval_periods = 3
output_dir = {out}
"""


@pytest.mark.parametrize("algorithm", ["mpg", "dmpg"])
def test_benchmark_workload_runs_in_process(tmp_path, algorithm):
    """The benchmark's workload (`perfbench/workload.py`, read from its
    source, no bytecode cache written) runs on a toy room of each head: set
    up, a training call and two evaluations audit every rollout without a
    failure, the sink sees every rollout, and identical calls give identical
    digests. A change to what it calls fails here, not in a benchmark run."""
    namespace = {"__name__": "workload"}
    exec(compile(WORKLOAD.read_text(), str(WORKLOAD), "exec"), namespace)
    config = tmp_path / "toy.cfg"
    config.write_text(WORKLOAD_CONFIG.format(algorithm=algorithm, out=(tmp_path / "out").as_posix()))
    work = namespace["Workload"](config)
    trained = work.train()
    assert trained["params"] is not None, work.problems
    evals = [work.evaluate(trained["params"]) for _ in range(2)]
    again = work.train()
    assert work.failed == 0 and work.problems == []
    cfg = work.spec.learning
    assert trained["rollouts"] == cfg.meta_iterations * cfg.tasks_per_batch * (cfg.inner_rollouts + cfg.outer_rollouts)
    assert len(trained["iter_s"]) == cfg.meta_iterations
    assert all(e["csv_rows_ok"] and e["periods"] == 3 for e in evals)
    assert evals[0]["trajectories_sha256"] == evals[1]["trajectories_sha256"]
    assert evals[0]["reliability"] == evals[1]["reliability"]
    assert trained["rewards_sha256"] == again["rewards_sha256"]
