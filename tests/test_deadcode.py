"""Dead-code guard: every function and class defined in the package must
be referenced somewhere in the sources or the tests.

A reference is any bare name, attribute access or import alias, so the
check is purely syntactic (standard-library `ast`).  Dunder names are
exempt because the interpreter calls them implicitly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freecert"


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions() -> list[str]:
    defined: dict[str, str] = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    used: set[str] = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    used.add(node.asname)
    return sorted(where for name, where in defined.items() if name not in used)


def test_no_unreferenced_definitions():
    dead = unreferenced_definitions()
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)
