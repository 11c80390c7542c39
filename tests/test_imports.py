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


def nested_imports(path):
    """The lines of the import statements inside a function or class body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_every_import_is_at_module_level():
    # a module that one caller alone needs is bound lazily at the top
    # (`from . import qftypes`), which runs it no sooner than an import in
    # that caller would
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 10
    assert {path.name: nested_imports(path) for path in modules if nested_imports(path)} == {}


def test_nested_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom . import qftypes\n"
                      "if os.name:\n    import sys\n"
                      "def f():\n    from .nodes import meet\n    return meet\n"
                      "class C:\n    import json\n"
                      "    def g(self):\n        def h():\n            import re\n"
                      "async def a():\n    import io\n"
                      "b = __import__('math')\n")
    assert nested_imports(module) == [6, 9, 12, 14]


def _module_constants(tree):
    """The UPPER_CASE names that the module assigns at its top level."""
    return {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.isupper()}


def loose_caps(path):
    """The lines raising ResourceCapError(message, cap) whose cap is not a
    module-level UPPER_CASE constant of the same module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = _module_constants(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ResourceCapError":
            caps = node.args[1:] + [k.value for k in node.keywords if k.arg == "cap"]
            if not (len(caps) == 1 and isinstance(caps[0], ast.Name)
                    and caps[0].id in constants):
                out.append(node.lineno)
    return sorted(out)


def called_defaults(path):
    """The functions with a parameter default that calls a function, which
    runs once at import and hides a limit from the module's constants."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name if hasattr(node, "name") else f"lambda at {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and any(isinstance(inner, ast.Call)
                    for default in node.args.defaults + node.args.kw_defaults
                    if default is not None for inner in ast.walk(default))]


def test_every_cap_is_a_module_constant():
    modules = sorted(SOURCE.glob("*.py"))
    raising = [path for path in modules if "ResourceCapError(" in path.read_text(encoding="utf-8")]
    assert len(raising) >= 5
    assert {path.name: loose_caps(path) for path in raising if loose_caps(path)} == {}


def test_loose_caps_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("LIMIT = 8\nlimit = 9\n"
                      "def f(n, cap=LIMIT):\n"
                      "    raise ResourceCapError('a', LIMIT)\n"
                      "    raise ResourceCapError('b', cap)\n"
                      "    raise ResourceCapError('c', limit)\n"
                      "    raise ResourceCapError('d', 2 ** 3)\n"
                      "    raise ResourceCapError('e', cap=LIMIT)\n"
                      "    raise ResourceCapError('f', OTHER)\n")
    assert loose_caps(module) == [5, 6, 7, 9]


def test_no_parameter_default_calls_a_function():
    assert {path.name: called_defaults(path) for path in sorted(SOURCE.glob("*.py"))
            if called_defaults(path)} == {}


def test_called_defaults_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("CAP = 4\n"
                      "def f(n, cap=alpha(6)): pass\n"
                      "def g(n, cap=CAP, k=None, *, s=2 ** 3): pass\n"
                      "class C:\n    def h(self, *, x=[len(s) for s in ()]): pass\n"
                      "key = lambda x, y=sorted([]): x\n")
    assert called_defaults(module) == ["f", "h", "lambda at 6"]


def _hex_spec(spec) -> bool:
    """Whether a format spec node, a constant or an f-string spec, ends in the
    hex type x or X."""
    if isinstance(spec, ast.JoinedStr) and spec.values:
        spec = spec.values[-1]
    return (isinstance(spec, ast.Constant) and isinstance(spec.value, str)
            and spec.value[-1:] in ("x", "X"))


def hex_codecs(path):
    """The lines that write or read hex: a call of hex(), an int() with base
    16, a format() call or an f-string field whose spec ends in x or X."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FormattedValue) and _hex_spec(node.format_spec):
            out.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args[1:] + [k.value for k in node.keywords]
            name = node.func.id
            if (name == "hex"
                    or name == "int" and any(isinstance(a, ast.Constant) and a.value == 16
                                             for a in args)
                    or name == "format" and any(_hex_spec(a) for a in args)):
                out.append(node.lineno)
    return sorted(set(out))


def test_only_witnessio_writes_or_reads_hex():
    # witness params are written and read in one place, in one encoding
    assert hex_codecs(SOURCE / "witnessio.py")
    assert {path.name: hex_codecs(path) for path in sorted(SOURCE.glob("*.py"))
            if path.name != "witnessio.py" and hex_codecs(path)} == {}


def test_hex_codecs_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("a = hex(5)\n"
                      "b = int('ff', 16)\n"
                      "c = int('ff', base=16)\n"
                      "d = f'{a:08x}'\n"
                      "e = f'{a:0{b}X}'\n"
                      "f = format(a, 'x')\n"
                      "g = int('10'), int('10', 2), f'{a:>8}', format(a, 'b'), f'{a!r}'\n")
    assert hex_codecs(module) == [1, 2, 3, 4, 5, 6]


def lax_digit_tests(path):
    """The lines that read a str method isdigit, isdecimal or isnumeric, or
    hold a string constant with the regex class \\d: each takes any Unicode
    digit, where treeprop reads only ASCII ones."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("isdigit", "isdecimal", "isnumeric")
                   or isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "\\d" in node.value})


def test_no_module_tests_for_digits_that_are_not_ascii():
    assert {path.name: lax_digit_tests(path) for path in sorted(SOURCE.glob("*.py"))
            if lax_digit_tests(path)} == {}


def test_lax_digit_tests_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("a = '12'.isdigit()\n"
                      "b = str.isdecimal('1')\n"
                      "c = filter(str.isnumeric, a)\n"
                      "d = re.compile(r'[a-z]\\d+')\n"
                      "e = f'{a}\\\\d'\n"
                      "f = '[0-9]+', r'\\D', '\\\\', 'd', a.isalpha(), a.isascii()\n")
    assert lax_digit_tests(module) == [1, 2, 3, 4, 5]


def int_typed_arguments(path):
    """The lines of add_argument calls that pass type=int, which takes
    non-ASCII digits, signs, spaces and underscores."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "add_argument"
                  and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int"
                          for k in node.keywords))


def test_no_cli_option_is_read_by_int():
    assert "add_argument(" in (SOURCE / "cli.py").read_text(encoding="utf-8")
    assert int_typed_arguments(SOURCE / "cli.py") == []


def test_int_typed_arguments_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("p.add_argument('--n', type=int)\n"
                      "p.add_argument('--m', default=2, type=int, required=True)\n"
                      "add_argument('--k', type=int)\n"
                      "p.add_argument('--j', type=_integer), p.add_argument('--s', type=str)\n"
                      "q = int('3'), dict(type=int), p.add_argument('--i', int)\n")
    assert int_typed_arguments(module) == [1, 2, 3]
