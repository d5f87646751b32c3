"""Rules over the package's own source."""

import ast
from pathlib import Path

import rcm_lab


def _modules():
    files = sorted(Path(rcm_lab.__file__).parent.glob("*.py"))
    assert files
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would go unchecked there: the package raises instead
    found = ["%s:%d" % (path.name, node.lineno)
             for path, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def _run_on_import(node):
    """The statements under node that run when its module is imported:
    everything but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _run_on_import(child)


def test_no_module_level_scipy_import():
    # import scipy.special alone takes about 0.25 s, so scipy is imported
    # inside the functions that use it, never when rcm_lab is imported
    found = []
    for path, tree in _modules():
        for node in _run_on_import(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_no_unused_module_level_imports():
    # a name imported at module level must be read in that module;
    # __init__.py imports to re-export, so it is left out
    found = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_unused_private_names():
    # a module-level function, class or assigned name with one leading
    # underscore serves the package alone, so the package must read it
    # somewhere: as a name, as an attribute or through an import
    defined, read = [], set()
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.name, node.lineno, name) for name in names
                        if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    found = ["%s:%d %s" % entry for entry in defined if entry[2] not in read]
    assert found == []
