"""Every imported name in the package, the tests and the scripts is used.

A static scan over the source: a name bound by ``import`` or ``from ...
import`` must be read somewhere in the same module, as a plain name or as a
name inside a string annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/eshopsim", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "ExperimentConfig"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    src = "import math\nimport os.path\nfrom x import a, b as c\nfrom __future__ import annotations\n"
    assert unused_imports(src + "os.path.join(a)\n") == ["c (line 3)", "math (line 1)"]
    assert unused_imports(src + "def f(y: 'c') -> None: math.pi, os, a\n") == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
