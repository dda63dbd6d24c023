"""Every tolerance of solstab lives in one block of `algebra`.

A float literal in (0, 1e-6] is a tolerance in all but name.  Anywhere but
an assignment to a module-level *_TOL name in algebra.py it would be a
second place that sets tolerances, and most likely an absolute one.
"""

import ast
from pathlib import Path

import solstab

SRC = Path(solstab.__file__).parent


def _block_lines(tree: ast.Module) -> set[int]:
    """Lines of the module-level assignments to *_TOL names."""
    return {node.lineno for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id.endswith("_TOL")}


def test_no_tolerance_outside_the_block():
    stray, block_size = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        block = _block_lines(tree)
        if path.name == "algebra.py":
            block_size = len(block)
        else:
            stray += [f"{path.name}:{line}: a *_TOL name" for line in sorted(block)]
            block = set()
        stray += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < node.value <= 1e-6 and node.lineno not in block]
    assert not stray, "tolerances outside algebra's block: " + ", ".join(stray)
    assert 0 < block_size < 10
