"""Every reference route and test construction is listed and used by a test.

`tests/*_oracle.py` and `tests/constructions.py` hold the references that
tests compare `algebroids` against and the constructions they build inputs
with.  A top-level function or class there must be named, in backquotes, in
its module's docstring, which says what `src` route it guards, and by some
`tests/test_*.py`, directly or through another helper that is, so that no
reference outlives the tests that compare against it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
HELPERS = [path for path in sorted(TESTS.glob("*_oracle.py"))
           if not path.name.startswith("test_")] + [TESTS / "constructions.py"]


def _imports(tree: ast.Module, modules) -> tuple[dict, dict]:
    """Local name -> (module, name) for each name imported from a helper
    module, and local name -> module for each helper module imported whole."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
    return names, aliases


def _references(node: ast.AST, names: dict, aliases: dict) -> set:
    """The (module, name) of each helper that the code under `node` names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            found.add(names[sub.id])
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            found.add((aliases[sub.value.id], sub.attr))
    return found


def test_every_helper_is_listed_and_used_by_a_test():
    modules = {path.stem: ast.parse(path.read_text()) for path in HELPERS}
    edges = {}  # each top-level function and class -> the helpers its code names
    for module, tree in modules.items():
        names, aliases = _imports(tree, modules)
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        unlisted = [node.name for node in defs if f"`{node.name}`" not in ast.get_docstring(tree)]
        assert unlisted == [], f"{module}: not in the module docstring"
        names.update({node.name: (module, node.name) for node in defs})
        for node in defs:
            edges[module, node.name] = _references(node, names, aliases)
    used = set()
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text())
        used |= _references(tree, *_imports(tree, modules))
    assert used, "no test names a helper: the import scan is broken"
    stack = list(used)
    while stack:
        for helper in edges.get(stack.pop(), ()):
            if helper not in used:
                used.add(helper)
                stack.append(helper)
    assert sorted(set(edges) - used) == []
