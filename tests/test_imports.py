"""The library computes in plain floats: of its modules only ``utilities``
imports numpy, for V on arrays and the transcendental steps of its float
path."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nash_unicast"


def _imported_packages(path: Path) -> set:
    """The top-level package of every absolute import in one source file,
    at any depth (a function-local import counts too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_only_utilities_imports_numpy():
    modules = {path.stem: _imported_packages(path) for path in sorted(SRC.glob("*.py"))}
    assert "utilities" in modules and "numpy" in modules["utilities"]
    assert [name for name, packages in modules.items() if "numpy" in packages and name != "utilities"] == []
