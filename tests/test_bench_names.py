"""Every treeprop name the benchmark uses still resolves.

The benchmark under bench/ is parsed with the standard library's ast, and
nothing is imported from it. It reads names four ways: attributes of a
name bound to treeprop or one of its modules (`tp.verify`,
`witnessio.dumps`), names imported `from treeprop...`, the string constants
a `getattr(tp, name)` loop hands out, and the (module, function) pairs of
`SPANS` and `HOT`, which `Tracer.install()` looks up in every traced run.
"""

import ast
import importlib
from pathlib import Path

from treeprop import antichains

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(dotted):
    """The object a dotted treeprop path names, importing the modules on the
    way; None when some part is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
                continue
            except ImportError:
                return None
        obj = getattr(obj, part)
    return obj


def _bound_names(tree):
    """{local name: dotted path} for every treeprop name the file binds, and
    the dotted paths of the names it imports from treeprop."""
    bound, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "treeprop":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["treeprop"] = "treeprop"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treeprop":
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                imported.append(path)
                bound[alias.asname or alias.name] = path
    return bound, imported


def _attribute_path(node, bound):
    """The dotted path of an attribute chain rooted at a bound treeprop name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(parts)])
    return None


def _getattr_paths(tree, bound):
    """The paths of `getattr(module, name)` calls on a bound treeprop name:
    a constant name, or the constants a `for` loop over a literal tuple of
    tuples binds to it. A name read any other way is returned as None."""
    loop_values = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) \
                and isinstance(node.iter, (ast.Tuple, ast.List)):
            for row in node.iter.elts:
                for target, value in zip(node.target.elts, getattr(row, "elts", ())):
                    if isinstance(target, ast.Name) and isinstance(value, ast.Constant):
                        loop_values.setdefault(target.id, []).append(value.value)
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) and node.args[0].id in bound:
            module, name = bound[node.args[0].id], node.args[1]
            if isinstance(name, ast.Constant):
                paths.append(f"{module}.{name.value}")
            elif isinstance(name, ast.Name) and name.id in loop_values:
                paths += [f"{module}.{value}" for value in loop_values[name.id]]
            else:
                paths.append(None)
    return paths


def _table_paths(tree, tables=("SPANS", "HOT")):
    """treeprop.<module>.<function> for each pair of the named dict tables."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
                isinstance(t, ast.Name) and t.id in tables for t in node.targets):
            for pair in node.value.values:
                module, function = ast.literal_eval(pair)
                paths.append(f"treeprop.{module}.{function}")
    return paths


def bench_names():
    """{bench file: the dotted treeprop paths it reads}, with None for a
    getattr name that is not read from a literal."""
    names = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, imported = _bound_names(tree)
        attributes = {_attribute_path(node, bound) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        attributes.discard(None)
        names[path.name] = (attributes | set(imported) | set(_getattr_paths(tree, bound))
                            | set(_table_paths(tree)))
    return names


def unresolved_bench_names():
    return sorted(f"{name}: {path}" for name, paths in bench_names().items()
                  for path in paths if path is None or _resolve(path) is None)


def test_every_bench_name_resolves():
    # each of the four ways is seen
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    bound, imported = _bound_names(tree)
    assert "treeprop.witnessio.dumps" == _attribute_path(
        ast.parse("witnessio.dumps", mode="eval").body, bound)
    assert "treeprop.errors.ResourceCapError" in imported
    assert {"treeprop.synth_skolem", "treeprop.synth_boolean"} <= set(_getattr_paths(tree, bound))
    spans = _table_paths(ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")))
    assert {"treeprop.antichains.enumerate_antichains", "treeprop.qftypes.sim0"} <= set(spans)
    names = bench_names()
    assert "treeprop.verify" in names["workloads.py"] and "treeprop.cli.main" in names["child.py"]
    assert unresolved_bench_names() == []


def test_a_deleted_function_is_named(monkeypatch):
    monkeypatch.delattr(antichains, "enumerate_antichains")
    missing = unresolved_bench_names()
    assert "spans.py: treeprop.antichains.enumerate_antichains" in missing
