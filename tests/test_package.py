"""Package-wide structure checks on the source of ``pursuit_lab``."""

import ast
from pathlib import Path

import pursuit_lab

PACKAGE = Path(pursuit_lab.__file__).parent


def _private_definitions(tree):
    """The names of a module's module-level functions and classes that
    start with an underscore (dunders aside)."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")}


def test_every_private_definition_has_a_package_caller():
    # a name resolves within its module: to the module's own definition,
    # or to the sibling module it is imported from; a definition's own
    # body does not count as a use of it
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "numerics" in trees
    defined = {module: _private_definitions(tree)
               for module, tree in trees.items()}
    used = set()
    for module, tree in trees.items():
        origin = {name: (module, name) for name in defined[module]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name in defined.get(node.module, ()):
                        origin[alias.asname or alias.name] = (node.module,
                                                              alias.name)
        for statement in tree.body:
            owner = (module, getattr(statement, "name", None))
            for node in ast.walk(statement):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in origin
                        and origin[node.id] != owner):
                    used.add(origin[node.id])
    unused = sorted(f"{module}.{name}" for module, names in defined.items()
                    for name in names if (module, name) not in used)
    assert unused == []
