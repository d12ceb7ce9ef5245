"""One artifact-writing path: ``artifacts.py`` is the only module that opens
a file for writing.

A static scan over the package: outside ``artifacts.py`` no module calls
``csv.writer``, ``csv.DictWriter``, ``savetxt``, ``write_text`` or
``write_bytes``, or opens a file for writing in any mode. The model and the
dataset arrays go through ``artifacts.replacing`` in binary mode, so every
artifact is replaced whole or not at all.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eshopsim"
CSV_WRITERS = {"writer", "DictWriter"}


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)`` or ``path.open(mode)`` with a mode that writes, text
    or binary; a mode that is not a constant counts as one that writes."""
    builtin = isinstance(call.func, ast.Name)
    positional = call.args[1:2] if builtin else call.args[:1]
    keyword = [k.value for k in call.keywords if k.arg == "mode"]
    mode = (keyword or positional or [None])[0]
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def table_writes(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [f"csv.{a.name} (line {node.lineno})"
                      for a in node.names if a.name in CSV_WRITERS]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        on_csv = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "csv"
        if on_csv and name in CSV_WRITERS:
            found.append(f"csv.{name} (line {node.lineno})")
        elif name == "savetxt":
            found.append(f"savetxt (line {node.lineno})")
        elif name in ("write_text", "write_bytes") or (name == "open" and _opens_for_writing(node)):
            found.append(f"{name} for writing (line {node.lineno})")
    return sorted(found)


def test_table_writes_detected():
    src = (
        "import csv\nfrom csv import DictWriter\nimport numpy as np\n"
        "csv.writer(fh)\nnp.savetxt(p, a)\nopen(p, 'w', newline='')\nopen(p, mode)\n"
        "path.open('a')\npath.write_text(s)\nopen(p, 'wb')\npath.write_bytes(b)\n"
    )
    assert table_writes(src) == [
        "csv.DictWriter (line 2)", "csv.writer (line 4)", "open for writing (line 10)",
        "open for writing (line 6)", "open for writing (line 7)", "open for writing (line 8)",
        "savetxt (line 5)", "write_bytes for writing (line 11)", "write_text for writing (line 9)",
    ]
    reads = "import csv\ncsv.reader(fh)\nopen(p)\nopen(p, 'rb')\npath.open()\n"
    assert table_writes(reads) == []


def test_only_artifacts_writes_tables():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "artifacts.py" and (names := table_writes(path.read_text()))
    }
    assert found == {}
