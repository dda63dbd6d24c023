"""Each shared part of an error message, and each rule of the parse stage, is
written in one place.

`cli._stage` names the stage of every error ("<path>: <stage> stage: ..."),
and `algebra.require_in_range` writes the one range error.  A string
literal holding either phrase in any other module would be a second place
that writes it, and the two would drift apart.  Inside `algebra`, the
Jacobi check is `validate_algebra` alone, and `_entry` alone writes the
errors of a bracket entry: a second function writing either message would
be a second statement of its rule.
"""

import ast
from pathlib import Path

import pytest

import solstab

SRC = Path(solstab.__file__).parent


def _literals(phrase: str) -> list[tuple[str, str, bool]]:
    """(file, writer, is a docstring) of each string literal of solstab, f-string
    parts too, that holds phrase.  The writer is module.function, with the
    classes and functions it is nested in, or the module outside any."""
    found = []

    def visit(node, writer, docstring, name):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value:
            found.append((name, writer, node is docstring))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            writer = f"{writer}.{node.name}"
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            docstring = node.body[0].value if ast.get_docstring(node, clean=False) else None
        for child in ast.iter_child_nodes(node):
            visit(child, writer, docstring, name)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None, path.name)
    return found


@pytest.mark.parametrize("phrase, owner", [("stage:", "cli.py"),
                                           ("out of floating-point range", "algebra.py")])
def test_message_phrase_has_one_owner(phrase, owner):
    assert {name for name, _, _ in _literals(phrase)} == {owner}


@pytest.mark.parametrize("phrase, writer", [("Jacobi identity violated", "algebra.validate_algebra"),
                                            ("bracket entry", "algebra._entry")])
def test_parse_rule_has_one_writer(phrase, writer):
    assert {w for _, w, docstring in _literals(phrase) if not docstring} == {writer}
