"""Static checks of the package sources: no unused module-level import,
no unreferenced private module-level name, every name in a module's
__all__ defined, and every function and method the benchmark tracer
wraps exists."""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polyvem"


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


def private_definitions(tree):
    """(line, name) of the private module-level functions, classes and
    constants of a module: `_`-prefixed, not dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def referenced_names(tree):
    """Names a module reads: loaded names, attributes and imported
    names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    found = [f"{name}:{line} {private}" for name, tree in trees.items()
             for line, private in private_definitions(tree)
             if private not in used]
    assert found == []


def tracer_targets():
    """(FUNCTIONS, METHODS) of benchmarks/tracing.py, loaded from its file
    under a private name so that no benchmark module is imported."""
    spec = importlib.util.spec_from_file_location(
        "_tracing_targets", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


def test_every_tracer_target_resolves():
    functions, methods = tracer_targets()
    missing = [f"{mod}.{attr}" for mod, attr, *_ in functions
               if not hasattr(importlib.import_module(mod), attr)]
    for mod, cls_name, attr, *_ in methods:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert missing == []


def test_every_exported_name_resolves():
    # a stale __all__ entry fails `from polyvem.<module> import *`
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "polyvem" if path.stem == "__init__" else f"polyvem.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
