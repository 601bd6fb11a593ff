"""Every module-level import in the package is read by its module.

A deletion can leave an import that nothing reads; no lint step runs in
CI, so this check parses each module with ``ast`` instead.  ``__init__.py``
is exempt, since its imports are the package's public names, and so are
``__future__`` imports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrnet"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [name for name in imported_names(tree) if name not in read]
    assert not unread, f"{path.name} imports {', '.join(unread)} and never reads it"
