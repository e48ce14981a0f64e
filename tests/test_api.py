import ast
from pathlib import Path

import symroot

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def test_bench_harness_imports_are_exported():
    # the benchmark imports these names from the package; each must stay
    # part of the public API
    tree = ast.parse(HARNESS.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "symroot" and node.level == 0
        for alias in node.names
    ]
    assert names
    for name in names:
        assert name in symroot.__all__, name
        assert hasattr(symroot, name), name
