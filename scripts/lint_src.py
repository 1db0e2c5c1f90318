#!/usr/bin/env python
"""Flag unused module-level imports under ``src/`` (standard library only).

An import counts as used when the name it binds is read anywhere in its
module: as a name, as the base of an attribute, or inside a string
annotation.  Two kinds of re-export are exempt:

* names listed in the module's ``__all__``;
* imports on a line marked ``# noqa: F401``.

Imports inside functions and classes are local and not checked.  Prints
one ``path:line: unused import 'name'`` line per hit and exits 1 if there
are any, 0 otherwise:

    python scripts/lint_src.py            # every .py file under src/
    python scripts/lint_src.py src/repro/bench
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """``(bound name, import statement)`` for every module-level import,
    including those nested in top-level ``if``/``try`` blocks."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg, args.kwarg
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return used


def _exported(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        names.add(elt.value)
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused module-level import in ``path``."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    hits = []
    for name, node in _module_imports(tree):
        if name in used:
            continue
        text = " ".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text:
            continue
        hits.append((node.lineno, name))
    return sorted(hits)


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [REPO / "src"]
    files = sorted(
        f for root in roots
        for f in ([root] if root.is_file() else root.rglob("*.py"))
    )
    count = 0
    for path in files:
        for line, name in unused_imports(path):
            shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            print(f"{shown}:{line}: unused import {name!r}")
            count += 1
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
