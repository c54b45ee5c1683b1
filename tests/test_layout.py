"""Layout rules for the library sources."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reedylab"

# entry points called from outside src/ (the console script)
ENTRY_POINTS = {"cli.main"}


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and non-dunder methods of those
    classes, as (qualified name, bare name, is a method) triples."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, True


def _uses(source: str) -> tuple[Counter, Counter]:
    """Name tokens of a module, leaving out the name a def or class line
    introduces; strings and comments do not count.  Returns all of them,
    and those that do not follow a dot: only these can name a module-level
    function or class, since `x.product` is an attribute of x."""
    uses, bare = Counter(), Counter()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            uses[tok.string] += 1
            if previous != ".":
                bare[tok.string] += 1
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string
    return uses, bare


def test_every_definition_has_a_caller_in_src():
    modules = sorted(SRC.glob("*.py"))
    uses, bare = Counter(), Counter()
    for path in modules:
        module_uses, module_bare = _uses(path.read_text())
        uses += module_uses
        bare += module_bare
    unused = [
        qualname
        for path in modules
        for qualname, name, method in _definitions(ast.parse(path.read_text()))
        if (uses if method else bare)[name] == 0
        and f"{path.stem}.{qualname}" not in ENTRY_POINTS
    ]
    assert unused == [], f"definitions with no caller in src/: {unused}"


def _unread_parameters(tree: ast.Module):
    """(function, parameter) for each parameter of a def or lambda that
    its body, nested functions included, never reads.  `self` and the
    parameter of the `_suite_*` factories, which run_suite calls with a
    config, are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for node in ast.walk(tree):
        if not isinstance(node, functions):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("_suite_"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            if p is not None and p.arg != "self" and p.arg not in read:
                yield name, p.arg


def test_every_parameter_is_read():
    unread = [
        f"{path.stem}.{name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for name, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert unread == [], f"parameters that no body reads: {unread}"


# FinCategory's private layout, and the tuple key that only witnesses use
LAYOUT_NAMES = {"_first", "_column", "_by_id", "_rows", "MorphRef"}


def test_category_layout_stays_in_reedy():
    leaks = {
        path.stem: sorted(LAYOUT_NAMES & set(_uses(path.read_text())[0]))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "reedy"
    }
    assert {stem: names for stem, names in leaks.items() if names} == {}


def test_no_assert_statement_in_src():
    # python -O strips assert, so a check written as one would vanish
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], f"assert statements in src/: {asserts}"
