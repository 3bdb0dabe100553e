"""Every import in the package is used where it is made.

A module-level name counts as used when the module reads it (as a bare name or
as the base of an attribute access) or lists it in ``__all__`` as a re-export.
An import inside a function body counts as used only when that function
(nested functions included) reads the name, and no function body imports a
``schmidt_norms`` module: the package has no import cycle to break that way.

The same holds for function parameters: every parameter that a package
function takes is read by its body, so no caller passes an option that does
nothing.  And every name a module lists in ``__all__`` is bound in it, so
``from schmidt_norms.<module> import *`` never meets a stale entry, and
every module-level private function or class is read somewhere in the
package, so none outlives its last caller.
"""

import ast
import importlib
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


def _modules_imported(tree: ast.Module) -> set:
    """Top-level names of the modules a module imports absolutely, anywhere."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
    return found


def test_cli_restates_no_value():
    # every value a recheck compares comes from the library call its
    # command makes; without numpy, cli.py cannot compute one of its own
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert {"cones", "maps"} <= _package_modules_imported(tree)
    assert "json" in _modules_imported(tree)  # the scan sees cli's own imports
    assert "numpy" not in _modules_imported(tree)


# (module, function, parameter) triples that are never read, with the reason.
UNREAD_ALLOWED = {
    ("cli", "_recheck_witness", "report"):
        "every recheck handler takes (report, args)",
    ("norms", "max_order_norm_upper", "cfg"):
        "the benchmark's order_norms workload passes a config positionally",
    ("norms", "block_positive_decomposition", "cfg"):
        "the benchmark's order_norms workload passes a config positionally",
}


def _unread_parameters(tree: ast.Module):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = func.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            # nested functions belong to the body: a closure's read counts
            read = set().union(*(_read_names(stmt) for stmt in func.body))
            for param in params:
                name = param.arg
                if name != "self" and not name.startswith("_") and name not in read:
                    yield func.name, name


def test_no_unread_parameters():
    unread, allowed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name in _unread_parameters(tree):
            if (path.stem, func, name) in UNREAD_ALLOWED:
                allowed.add((path.stem, func, name))
            else:
                unread.append("%s.%s: %s" % (path.stem, func, name))
    assert not unread, "unread parameters: %s" % ", ".join(unread)
    assert allowed == set(UNREAD_ALLOWED), \
        "stale exceptions: %s" % (set(UNREAD_ALLOWED) - allowed)


def test_every_all_entry_is_bound():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "schmidt_norms" + ("" if path.stem == "__init__" else "." + path.stem)
        module = vars(importlib.import_module(name))
        stale += ["%s: %s" % (name, entry) for entry in module.get("__all__", ())
                  if entry not in module]
    assert not stale, "__all__ names nothing bound: %s" % ", ".join(stale)


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node.name


def _reads(tree: ast.Module) -> set:
    """Names a module reads, bare or as an attribute (``module._name``)."""
    return _read_names(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)
                                and isinstance(node.ctx, ast.Load)}


def test_every_private_function_and_class_is_read():
    # a private helper that nothing in the package reads is dead code, even
    # where a test still calls it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = ["%s.%s" % (stem, name) for stem, tree in trees.items()
              for name in _private_definitions(tree) if name not in read]
    assert not unread, "private definitions nothing reads: %s" % ", ".join(unread)
