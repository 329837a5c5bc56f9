"""The benchmark tracer (`perfbench/spans.py`) wraps package functions by
name, so each name it lists must exist; a missing one would only fail when
a traced run starts."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
