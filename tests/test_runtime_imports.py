"""The package runs on the standard library alone, as the empty
``dependencies`` list of ``pyproject.toml`` declares."""

import ast
import sys
from pathlib import Path

import orbitcalc

SOURCES = sorted(Path(orbitcalc.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
