"""Every top-level function or class in the package and the bench harness
has a consumer besides its own unit tests.

A name counts as used when it appears outside its own definition in any
scanned module: as a name, an attribute, an imported name or a string
constant (the bench tracer names the functions it wraps by string).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "rhalylab").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)

#: planned second routes to a verdict (ROADMAP item 3), kept until a verdict
#: uses them
ALLOWED = {"phi_psi_n", "carleson_check"}


def _uses(node: ast.AST) -> Counter:
    """How often each name is referenced under node."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used[n.value] += 1
    return used


def test_every_top_level_name_has_a_consumer():
    trees = {path: ast.parse(path.read_text()) for path in SCANNED}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ALLOWED
        # uses inside the definition itself, such as recursion, do not count
        and total[node.name] == _uses(node)[node.name]
    ]
    assert not orphans, f"top-level names with no consumer: {orphans}"
