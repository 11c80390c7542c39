"""Static checks on the library's source, with the standard library's ast."""

import ast
from pathlib import Path

import treeprop

SOURCE = Path(treeprop.__file__).parent


def unused_imports(path):
    """The names a module imports and never reads, `from __future__` aside.
    `import a.b` binds a."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to export them
    modules = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 10
    assert {path.name: unused_imports(path) for path in modules
            if unused_imports(path)} == {}


def test_unused_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport sys as system\n"
                      "from .a import b, c as d\n"
                      "def f(x: d) -> None:\n    return b(system.argv)\n")
    assert unused_imports(module) == ["os"]
