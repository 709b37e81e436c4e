"""Flag module-level imports that a module never reads.

Usage, from the repository root:

    python3 scripts/check_imports.py

Scans every ``src/linkmech/*.py``.  A name bound by an ``import`` or ``from
... import`` at the top level of the module counts as read when it occurs
anywhere in the module as a loaded ``Name``, annotations included; one bound
at the top level of a function body counts as read only when it occurs
within that function.  Prints one line per unread name and exits 1 if there
is any, else exits 0 silently.
"""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "linkmech"


def unread_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) for each import binding that ``path`` never reads in the
    scope, module or function, whose body holds the import."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    unread = []
    for scope in scopes:
        bound = []
        for node in scope.body:
            if isinstance(node, ast.Import):
                bound += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(line, name) for line, name in bound if name not in read]
    return sorted(unread)


def main() -> int:
    found = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {name} is imported but never read"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unread_imports(path)
    ]
    print(*found, sep="\n", end="\n" if found else "")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
