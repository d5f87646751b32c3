"""Rules over the package's own source."""

import ast
from pathlib import Path

import rcm_lab


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would go unchecked there: the package raises instead
    files = sorted(Path(rcm_lab.__file__).parent.glob("*.py"))
    assert files
    found = ["%s:%d" % (path.name, node.lineno) for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
