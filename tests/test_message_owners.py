"""Each shared part of an error message is written in one module.

`cli._stage` names the stage of every error ("<path>: <stage> stage: ..."),
and `algebra.require_in_range` writes the one range error.  A string
literal holding either phrase in any other module would be a second place
that writes it, and the two would drift apart.
"""

import ast
from pathlib import Path

import pytest

import solstab

SRC = Path(solstab.__file__).parent


def _holders(phrase: str) -> set[str]:
    """Modules of solstab with a string literal (f-string parts too) holding phrase."""
    return {path.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and phrase in node.value}


@pytest.mark.parametrize("phrase, owner", [("stage:", "cli.py"),
                                           ("out of floating-point range", "algebra.py")])
def test_message_phrase_has_one_owner(phrase, owner):
    assert _holders(phrase) == {owner}
