"""The package ships no dead helpers: every top-level function, class and
constant (``NAME = ...``, dunders aside) under ``src/molscreen/`` is named
by another top-level statement of the package or in ``molscreen.__all__``.
A name that only the benchmark (``perfbench/*.py``) mentions must be in
``BENCH_ONLY``, so a helper that only the tracer keeps alive is a choice,
not an accident.  Helpers that only tests call live under ``tests/``."""

import ast
import re
from pathlib import Path

import molscreen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "molscreen"

# ops.mse_loss: the tracer patches it by name, and only tests call it
BENCH_ONLY = {"mse_loss"}


def _names(node) -> set[str]:
    """Every identifier a statement reads, as a name or an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _defined(stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_top_level_definition_has_a_user():
    statements = []  # (qualified module, statement, names it reads)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((module, stmt, _names(stmt)))
    bench = "\n".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    exported = set(molscreen.__all__)
    dead, bench_only = [], set()
    for module, stmt, _ in statements:
        for name in _defined(stmt):
            used = any(name in names for _, other, names in statements if other is not stmt)
            if used or name in exported:
                continue
            if re.search(rf"\b{re.escape(name)}\b", bench):
                bench_only.add(name)
            else:
                dead.append(f"{module}.{name}")
    assert dead == []
    assert bench_only == BENCH_ONLY
