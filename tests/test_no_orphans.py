"""Every top-level function or class in the package and the bench harness,
and every method of a top-level class, has a consumer besides its own unit
tests, and every defaulted parameter of the package is passed by some
caller outside the tests.

A name counts as used when it appears outside its own definition in any
scanned module: as a name, an attribute, an imported name or a string
constant (the bench tracer names the functions it wraps by string). A
method counts as used only through an attribute or a string constant, since
a bare name of the same spelling is a local variable or another function.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "rhalylab").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

#: planned second routes to a verdict (ROADMAP item 3), kept until a verdict
#: uses them
ALLOWED = {"phi_psi_n", "carleson_check"}


def _uses(node: ast.AST, method: bool) -> Counter:
    """How often each name is referenced under node, counting only
    attributes and string constants when the name is a method's."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not method:
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias) and not method:
            used[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used[n.value] += 1
    return used


def _definitions(tree: ast.Module):
    """(node, is_method) for the top-level functions and classes, and the
    methods of top-level classes other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from (
                (m, True) for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            )


def test_every_top_level_name_has_a_consumer():
    trees = {path: ast.parse(path.read_text()) for path in SCANNED}
    total = {
        method: sum((_uses(tree, method) for tree in trees.values()), Counter())
        for method in (False, True)
    }
    orphans = [
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, tree in trees.items()
        for node, method in _definitions(tree)
        if node.name not in ALLOWED
        # uses inside the definition itself, such as recursion, do not count
        and total[method][node.name] == _uses(node, method)[node.name]
    ]
    assert not orphans, f"top-level names with no consumer: {orphans}"


#: (function, parameter) pairs kept although no caller passes them: the
#: ignored keywords of construct_upsilon, which the bench tracer reads, and
#: the planned second route of phi_psi_n (see ALLOWED)
UNPASSED_ALLOWED = {
    ("construct_upsilon", "budget_per_block"),
    ("construct_upsilon", "exhaustive_limit"),
    ("phi_psi_n", "a_N"),
}


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, position or None) for every parameter with a
    default. The position is the index among the arguments a caller writes,
    so it leaves out self and cls; it is None for a keyword-only parameter.
    A method is called by its own name, __init__ by its class name."""
    owner = {m: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for m in node.body if isinstance(m, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = owner.get(fn)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if cls is not None and not static else 0
        name = cls.name if cls is not None and fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(trees) -> dict:
    """For each callee name, (positional count, keyword names, passes all)
    of every call; functools.partial(f, ...) counts as a call of f."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            star = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords
            )
            calls.setdefault(name, []).append(
                (len(args), {k.arg for k in node.keywords}, star)
            )
    return calls


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default that no caller in the package or the bench
    harness passes has one value in use: it belongs in a constant."""
    calls = _calls(ast.parse(path.read_text()) for path in SCANNED)
    unpassed = [
        f"{path.relative_to(ROOT)}:{name}({param}=)"
        for path in PACKAGE
        for name, param, position in _defaulted_parameters(ast.parse(path.read_text()))
        if (name, param) not in UNPASSED_ALLOWED
        and not any(
            star or param in keywords or (position is not None and position < count)
            for count, keywords, star in calls.get(name, [])
        )
    ]
    assert not unpassed, f"defaulted parameters no caller passes: {unpassed}"
