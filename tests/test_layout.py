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
