"""Source rules for `src/algebroids`, read from each module's syntax tree.

- No module imports a name that it never uses.  The package's `__init__`
  is exempt: its imports are the public names.
- The unit constants are spelled once.  `Const(0.0)`, `Const(1.0)` and
  `Const(-1.0)` are called only where `expressions` defines `ZERO`, `ONE`
  and `MINUS_ONE`; everything else uses those shared nodes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "algebroids"
MODULES = sorted(SRC.glob("*.py"))
UNITS = {"0.0": "ZERO", "1.0": "ONE", "-1.0": "MINUS_ONE"}


def _annotation_names(tree: ast.Module) -> set:
    """Names in annotations written as strings, such as `chart: "AlgebroidChart"`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _annotation_names(tree)) == []


def _unit_value(node: ast.AST) -> str | None:
    """The unit a call `Const(literal)` builds, as the literal's float text, or None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Const" and len(node.args) == 1 and not node.keywords):
        return None
    try:
        text = repr(float(ast.literal_eval(node.args[0])))
    except (ValueError, TypeError):
        return None
    return text if text in UNITS else None


def test_unit_constants_are_built_once():
    defined, elsewhere = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        definitions = set()
        if path.name == "expressions.py":
            for node in tree.body:
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and UNITS.get(_unit_value(node.value)) == node.targets[0].id):
                    definitions.add(id(node.value))
                    defined.add(node.targets[0].id)
        elsewhere += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _unit_value(node) and id(node) not in definitions]
    assert defined == set(UNITS.values()), "the unit definitions are not found"
    assert elsewhere == []
