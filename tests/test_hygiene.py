"""Source hygiene, checked with the stdlib only: no bare assert in src, and no
unused import or private helper in src or tests (conftest.py included)."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATHS = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _name(path: pathlib.Path) -> str:
    return str(path.relative_to(ROOT))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), _name(path))


def test_no_bare_assert_in_src():
    # every certificate failure is an explicit raise, so it survives python -O
    bad = [f"{_name(path)}:{i}: {line.strip()}"
           for path in PATHS if path.parts[len(ROOT.parts)] == "src"
           for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
           if re.match(r"\s*assert\b", line)]
    assert not bad, "\n".join(bad)


def test_no_unused_import():
    # __init__.py is skipped, since it imports to re-export
    bad = []
    for path in PATHS:
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(_tree(path)))
        imported = {(a.asname or a.name).split(".")[0]: node.lineno for node in nodes
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        bad += [f"{_name(path)}:{line}: {name} imported but unused"
                for name, line in imported.items() if name not in used]
    assert not bad, "\n".join(bad)


def test_no_unused_private_helper():
    # every _-prefixed module-level function or class, and every _-prefixed method,
    # is referenced somewhere as a name or an attribute (dunders are exempt)
    trees = {path: _tree(path) for path in PATHS}
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bad = []
    for path, tree in trees.items():
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            bad += [f"{_name(path)}:{d.lineno}: {d.name} is referenced nowhere"
                    for d in [node, *inner]
                    if isinstance(d, defs) and d.name.startswith("_")
                    and not d.name.endswith("__") and d.name not in used]
    assert not bad, "\n".join(bad)
