"""Every solstab name the benchmark reaches still exists.

`bench/tracing.py` wraps the (module, attribute) pairs of its TRACED table,
and `bench/worker.py` calls functions of `algebra` and `flow` directly.  A
deleted or renamed one would otherwise show only when the benchmark runs,
and with TRACED only in a traced run.  Both files are read with ast, so
nothing under bench/ is imported or run.
"""

import ast
from pathlib import Path

import solstab
import solstab.cli  # noqa: F401  (the module TRACED names as "cli")

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _missing(pairs):
    return sorted({f"{mod}.{attr}" for mod, attr in pairs
                   if not hasattr(getattr(solstab, mod, None), attr)})


def test_traced_names_resolve():
    assign = next(node for node in _tree("tracing.py").body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    pairs = [pair for targets in ast.literal_eval(assign.value).values() for pair in targets]
    assert len(pairs) > 10
    assert _missing(pairs) == []


def test_worker_names_resolve():
    pairs = [(node.value.id, node.attr) for node in ast.walk(_tree("worker.py"))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in ("algebra", "flow")]
    assert {mod for mod, _ in pairs} == {"algebra", "flow"}
    assert _missing(pairs) == []
