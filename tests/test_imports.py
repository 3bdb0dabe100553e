"""Every module-level import in the package is used by its module.

A name counts as used when the module reads it (as a bare name or as the base
of an attribute access) or lists it in ``__all__`` as a re-export.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "schmidt_norms"

# (module, name) pairs imported on purpose without being read.
ALLOWED = {
    # perfbench's tracer test checks that the tracer patches this binding too
    ("cones", "compress_tensor"),
}


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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
        for name in _imported_names(tree):
            if (path.stem, name) in ALLOWED:
                allowed.add((path.stem, name))
            elif name not in used:
                unused.append("%s: %s" % (path.stem, name))
    assert not unused, "unused imports: %s" % ", ".join(unused)
    assert allowed == ALLOWED, "stale exceptions: %s" % (ALLOWED - allowed)
