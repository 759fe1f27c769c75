"""Only ``model.py`` names the model's arrays: no other module of the
package holds a string constant, or a piece of an f-string, that spells out
part of an array name.  Other modules reach arrays through ``ModelParams``
(``named_arrays()``, ``named_backbone_arrays()``, ``head_names()``), so the
layout stays in the one table of ``model.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "molscreen"
FRAGMENTS = ("node_table", "edge_table", "layer.", "head.", "bn_running")


def _array_name_strings(path: Path) -> list[str]:
    """``line: text`` of every string constant (f-string pieces included,
    since they are constants in the tree) that holds one of the fragments."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(fragment in node.value for fragment in FRAGMENTS):
                found.append(f"{node.lineno}: {node.value!r}")
    return found


def test_fragments_are_found_in_model_py():
    # the scan sees the names where they are meant to be
    assert len(_array_name_strings(PACKAGE / "model.py")) > 10


def test_only_model_py_names_model_arrays():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "model.py":
            continue
        offenders += [f"{path.relative_to(PACKAGE)}:{hit}" for hit in _array_name_strings(path)]
    assert offenders == []
