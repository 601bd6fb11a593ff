"""Every module-level private name in the package is used somewhere else.

A deletion can leave a ``_helper`` that nothing calls any more; no lint step
runs in CI, so this check parses the package with ``ast``.  A module-level
``_name`` (a function, a class or an assigned name; dunders are exempt)
counts as used when a statement other than its own definition reads it,
in its module or in another one: as a name, an attribute or an import.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrnet"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def read_names(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(sources):
    """``(module, name)`` of each module-level private name in ``sources``
    (module name -> source text) that no other statement reads."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    unused = []
    for module, stmt in statements:
        for name in filter(is_private, defined_names(stmt)):
            if not any(name in read_names(other) for _, other in statements
                       if other is not stmt):
                unused.append((module, name))
    return unused


def package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_private_module_name_is_used():
    unused = unused_private_names(package_sources())
    assert not unused, "never used: " + ", ".join(f"{m}:{n}" for m, n in unused)


def test_an_unused_helper_is_reported():
    sources = package_sources()
    sources["planted.py"] = (
        "def _orphan(x):\n    return _orphan(x - 1) if x else 0\n\n"
        "_TABLE, __dunder__ = (1, 2), 3\n"
    )
    assert unused_private_names(sources) == [("planted.py", "_orphan"),
                                             ("planted.py", "_TABLE")]
