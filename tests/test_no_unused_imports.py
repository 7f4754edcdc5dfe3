"""Every module-level import in the repo's Python is used.

A stdlib stand-in for pyflakes' F401: parse each module, collect the
names its top-level ``import`` statements bind (including those under a
top-level ``if``/``try``, e.g. ``if TYPE_CHECKING:``), and fail when a
name is never read.  A name counts as read when it appears as a
``Name`` anywhere in the module, inside a quoted annotation, or in
``__all__``.  Package ``__init__.py`` files (re-exports), ``__future__``
imports and lines marked ``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def _top_level_imports(tree):
    """(bound name, line) for every import at module level."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", ()))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def unused_imports(path, root=ROOT):
    source = path.read_text("utf-8")
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    read = _names_read(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _top_level_imports(tree)
        if name not in read and "noqa: F401" not in lines[line - 1]
    ]


def test_no_unused_module_level_imports():
    unused = [
        hit
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert unused == []


def test_the_scan_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: 'Path') -> Dict[str, int]:\n"
        "    return {}\n"
    )
    assert unused_imports(module, root=tmp_path) == [
        "module.py:2: os",
        "module.py:3: List",
    ]
