"""Every import in the package is used where it is made.

A module-level name counts as used when the module reads it (as a bare name or
as the base of an attribute access) or lists it in ``__all__`` as a re-export.
An import inside a function body counts as used only when that function
(nested functions included) reads the name, and no function body imports a
``schmidt_norms`` module: the package has no import cycle to break that way.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "schmidt_norms"

# (module, name) pairs imported on purpose without being read.
ALLOWED = {
    # perfbench's tracer test checks that the tracer patches this binding too
    ("cones", "compress_tensor"),
}


def _imported_names(statements):
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read_names(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_local_imports(tree: ast.Module):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = _read_names(func)
            # an import in a nested function is also checked against the
            # nested function's own reads when the walk reaches it
            for name in _imported_names(ast.walk(func)):
                if name not in read:
                    yield "%s: %s" % (func.name, name)


def _used_names(tree: ast.Module) -> set:
    used = _read_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_module_level_imports():
    unused, allowed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name in _imported_names(tree.body):
            if (path.stem, name) in ALLOWED:
                allowed.add((path.stem, name))
            elif name not in used:
                unused.append("%s: %s" % (path.stem, name))
        unused += ["%s.%s" % (path.stem, u) for u in _unused_local_imports(tree)]
    assert not unused, "unused imports: %s" % ", ".join(unused)
    assert allowed == ALLOWED, "stale exceptions: %s" % (ALLOWED - allowed)


def _package_imports_in_functions(tree: ast.Module):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["."]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n == "." or n.split(".")[0] == "schmidt_norms"
                       for n in names):
                    yield "%s: line %d" % (func.name, node.lineno)


def test_no_package_imports_inside_functions():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s.%s" % (path.stem, f)
                  for f in _package_imports_in_functions(tree)]
    assert not found, "function-local package imports: %s" % ", ".join(found)


def _package_modules_imported(tree: ast.Module) -> set:
    """Package modules a module imports, relative or absolute, anywhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "schmidt_norms":
                continue
            parts = parts[1:] if node.level == 0 else [p for p in parts if p]
            # "from . import maps" and "from schmidt_norms import maps" name
            # the modules in the imported names
            found |= {parts[0]} if parts else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("schmidt_norms.")}
    return found


def test_oracle_independent_of_optimizers():
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    imported = _package_modules_imported(tree)
    assert "linalg" in imported  # the scan sees the oracle's own imports
    assert not imported & {"optim", "norms", "cones", "maps"}, imported
