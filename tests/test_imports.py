"""Static check of the package sources: no unused module-level import."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polyvem"


def unused_imports(path):
    """(line, name) of the module-level imports that the module never
    reads. Names listed in __all__ count as read; a line marked
    `# noqa: F401` is a deliberate re-export."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append((alias.lineno, name))
    return found


def test_no_unused_module_imports():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path)]
    assert found == []
