"""Layout rules for the library sources."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reedylab"

# entry points called from outside src/
ENTRY_POINTS = {
    "cli.main",  # the console script
    "presheaf.FinPresheaf.validate",  # the functor-law check for caller-built presheaves
    "presheaf.skeleton",  # sk_n as a filter, for callers holding EZ degrees
}


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and non-dunder methods of those
    classes, as (qualified name, bare name, class or None) triples."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, node.name


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


def _annotated_class(annotation, classes):
    """The src class an annotation names, `C`, `"C"` or `C | None`, or
    that the elements of a `list[C]` or `tuple[C, ...]` belong to; for a
    fixed `tuple[A, B, C]`, the tuple of what each element names."""
    if isinstance(annotation, ast.Subscript) and getattr(annotation.value, "id", "") in (
        "list",
        "tuple",
    ):
        inner = annotation.slice
        if not isinstance(inner, ast.Tuple):
            return _annotated_class(inner, classes)
        last = inner.elts[-1]
        if isinstance(last, ast.Constant) and last.value is Ellipsis:
            return _annotated_class(inner.elts[0], classes)
        return tuple(_annotated_class(e, classes) for e in inner.elts)
    if isinstance(annotation, ast.BinOp):
        sides = (_annotated_class(a, classes) for a in (annotation.left, annotation.right))
        return next((c for c in sides if c), None)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value if annotation.value in classes else None
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


class _Members:
    """The members of the src classes, and the class an expression's value
    belongs to where its syntax says so: `self` in a method, a class name,
    a constructor call, an annotated parameter or return value, a method's
    result, an annotated field, a subscript of a list, or a local name
    assigned one of these; a loop variable takes the class of the elements
    of its annotated list, names unpacked from a fixed tuple, or in a loop
    over a list of fixed tuples, take the classes of its elements, and
    `except C as e` gives e the class C.  A parameter of a module-level
    function with no annotation takes the class that all its callers
    pass, where every caller's argument has a known class and it is the
    same one.  Any other value, an imported module among them, belongs to
    no class."""

    def __init__(self, trees):
        self.kind = {}  # member name -> classes with a member of that name
        self.types = {}  # (class, member) -> the class of its value
        self.returns = {}  # module-level function -> the class it returns
        self.signatures = {}  # module-level function -> its parameters
        self.passed = {}  # (function, parameter) -> the class its callers pass; set below
        self.classes = {
            node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
        }
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = _annotated_class(node.returns, self.classes)
                    self.signatures[node.name] = node.args
                if isinstance(node, ast.ClassDef):
                    for item in ast.walk(node):
                        self._member(node.name, item)
        passed = {}
        for tree in trees:
            for (function, param), kind in self._arguments(tree):
                passed.setdefault((function, param), set()).add(kind)
        self.passed = {
            key: next(iter(kinds))
            for key, kinds in passed.items()
            if len(kinds) == 1 and None not in kinds
        }

    def _member(self, cls, item):
        if isinstance(item, ast.FunctionDef):
            name, kind = item.name, _annotated_class(item.returns, self.classes)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            name, kind = item.target.id, _annotated_class(item.annotation, self.classes)
        elif isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store):
            name, kind = item.attr, None
        else:
            return
        self.kind.setdefault(name, set()).add(cls)
        self.types.setdefault((cls, name), kind)

    def type_of(self, expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id) or (expr.id if expr.id in self.classes else None)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            return name if name in self.classes else self.returns.get(name)
        if isinstance(expr, ast.Subscript):
            kind = self.type_of(expr.value, env)
            return None if isinstance(kind, tuple) else kind
        inner = expr.func if isinstance(expr, ast.Call) else expr
        if isinstance(inner, ast.Attribute):
            return self.types.get((self.type_of(inner.value, env), inner.attr))
        return None

    def _walk(self, tree):
        """Each node of the tree with the classes of the names in scope."""
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)

        def visit(node, env, cls):
            if isinstance(node, ast.ClassDef):
                cls = node.name
            if isinstance(node, functions):
                env = dict(env)
                args = node.args
                for a in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs]:
                    if a is not None:
                        kind = _annotated_class(a.annotation, self.classes)
                        env[a.arg] = kind or (None if cls else self.passed.get((node.name, a.arg)))
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if cls and args.args and not static:
                    env[args.args[0].arg] = cls
                for stmt in ast.walk(node):
                    self._bind(stmt, env)
            yield node, env
            for child in ast.iter_child_nodes(node):
                yield from visit(child, env, None if isinstance(node, functions) else cls)

        return visit(tree, {}, None)

    def _arguments(self, tree):
        """((function, parameter), class of the argument) for each argument
        of each call of a module-level function by its bare name, up to
        the first starred one."""
        for node, env in self._walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            name = node.func.id
            if name not in self.signatures:
                continue
            args = self.signatures[name]
            positional = [*args.posonlyargs, *args.args]
            for i, value in enumerate(node.args):
                param = positional[i] if i < len(positional) else args.vararg
                if isinstance(value, ast.Starred) or param is None:
                    break
                yield (name, param.arg), self.type_of(value, env)
            for keyword in node.keywords:
                if keyword.arg:
                    yield (name, keyword.arg), self.type_of(keyword.value, env)

    def uses(self, tree) -> Counter:
        """(class, member) for each attribute read of a member name, with
        the class of its receiver, or None where that is not known."""
        return Counter(
            (self.type_of(node.value, env), node.attr)
            for node, env in self._walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in self.kind
        )

    def _bind(self, stmt, env):
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            for target in stmt.targets:
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    _unpack(target, tuple(self.type_of(v, env) for v in value.elts), env)
                else:
                    _unpack(target, self.type_of(value, env), env)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = _annotated_class(stmt.annotation, self.classes)
        elif isinstance(stmt, (ast.For, ast.comprehension)):
            kind = self.type_of(stmt.iter, env)
            if isinstance(stmt.target, ast.Name) or isinstance(kind, tuple):
                _unpack(stmt.target, kind, env)
        elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
            env[stmt.name] = self.type_of(stmt.type, env)


def _unpack(target, kind, env):
    """Bind a name to kind, or the names of a tuple to the elements of a
    fixed tuple kind of its length, and to no class otherwise."""
    if not isinstance(target, ast.Tuple):
        kinds = [(target, kind)]
    elif isinstance(kind, tuple) and len(kind) == len(target.elts):
        kinds = zip(target.elts, kind)
    else:
        kinds = [(name, None) for name in target.elts]
    for name, kind in kinds:
        if isinstance(name, ast.Name):
            env[name.id] = kind


def test_every_definition_has_a_caller_in_src():
    """A module-level definition needs a bare use of its name; a method
    needs a read of that attribute on a value of its class, so a method
    is not kept alive by a call to another class's method of that name."""
    modules = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in modules]
    members = _Members(trees)
    bare, uses = Counter(), Counter()
    for path, tree in zip(modules, trees):
        bare += _uses(path.read_text())[1]
        uses += members.uses(tree)
    unused = [
        qualname
        for path, tree in zip(modules, trees)
        for qualname, name, cls in _definitions(tree)
        if (uses[cls, name] if cls else bare[name]) == 0
        and f"{path.stem}.{qualname}" not in ENTRY_POINTS
    ]
    assert unused == [], f"definitions with no caller in src/: {unused}"


def test_members_skip_module_receivers_and_type_unpacked_tuples():
    # a module attribute is not a call of the one class method of its name
    poset = ast.parse(
        "import itertools\n"
        "class FinPoset:\n"
        "    def chain(self): ...\n"
        "def flat(xs):\n"
        "    return itertools.chain.from_iterable(xs)\n"
    )
    assert _Members([poset]).uses(poset)["FinPoset", "chain"] == 0
    # each name unpacked from a fixed tuple takes its element's class; a
    # tuple[C, ...] stays homogeneous
    category = ast.parse(
        "class FinCategory:\n"
        "    size: int\n"
        "class ReedyData:\n"
        "    size: int\n"
        "def build() -> tuple[FinCategory, ReedyData, list[int]]: ...\n"
        "def objects() -> tuple[FinCategory, ...]: ...\n"
        "def run():\n"
        "    cat, data, squares = build()\n"
        "    for c in objects():\n"
        "        c.size\n"
        "    return cat.size, data.size, squares.size\n"
    )
    uses = _Members([category]).uses(category)
    assert (uses["FinCategory", "size"], uses["ReedyData", "size"], uses[None, "size"]) == (2, 1, 1)
    # a loop over a list of fixed tuples unpacks each into its classes
    corpus = ast.parse(
        "class Chunk:\n"
        "    def entries(self): ...\n"
        "class Corpus:\n"
        "    chunks: list[tuple[range, Chunk]]\n"
        "def run(corpus: Corpus):\n"
        "    for part, chunk in corpus.chunks:\n"
        "        chunk.entries(), part.entries()\n"
    )
    uses = _Members([corpus]).uses(corpus)
    assert (uses["Chunk", "entries"], uses[None, "entries"]) == (1, 1)


def test_members_type_callers_subscripts_and_handlers():
    program = ast.parse(
        "class Certificate:\n"
        "    def passed(self): ...\n"
        "class ViolatedLaw(Exception):\n"
        "    def __init__(self, law):\n"
        "        self.law = law\n"
        "class FinCategory:\n"
        "    certificates: list[Certificate]\n"
        "    def is_identity(self, f): ...\n"
        "def make() -> Certificate: ...\n"
        "def exit_code(*certs):\n"
        "    return all(c.passed for c in certs)\n"
        "def read(cat):\n"
        "    return cat.is_identity(0), cat.certificates[0].passed\n"
        "def untyped(x):\n"
        "    return x.passed\n"
        "def run(cat: FinCategory, y):\n"
        "    exit_code(make())\n"
        "    read(cat)\n"
        "    untyped(cat)\n"
        "    untyped(y)\n"
        "    try:\n"
        "        pass\n"
        "    except ViolatedLaw as exc:\n"
        "        return exc.law\n"
    )
    uses = _Members([program]).uses(program)
    # a parameter takes the one class its callers pass; untyped's callers
    # pass a FinCategory and a value of no known class
    assert (uses["Certificate", "passed"], uses[None, "passed"]) == (2, 1)
    assert uses["FinCategory", "is_identity"] == 1
    assert uses["ViolatedLaw", "law"] == 1


def _unread_parameters(tree: ast.Module):
    """(function, parameter) for each parameter of a def or lambda that
    its body, nested functions included, never reads, `self` left out.
    A suite factory's parameters are the options its suite accepts, so
    this holds each suite to the options it reads."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for node in ast.walk(tree):
        if not isinstance(node, functions):
            continue
        name = getattr(node, "name", "<lambda>")
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


def _dataclass_fields(tree: ast.Module):
    """(class, field) for each annotated field of each @dataclass class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [getattr(d, "func", d) for d in node.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


# run_suite reads SuiteConfig's fields by getattr, by the names of the
# options each suite factory takes
READ_BY_NAME = {"SuiteConfig"}


def test_every_dataclass_field_is_read():
    """A field of a src dataclass needs a read of that attribute on a value
    of its class in src, as a method needs a caller."""
    modules = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in modules]
    members = _Members(trees)
    uses = Counter()
    for tree in trees:
        uses += members.uses(tree)
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path, tree in zip(modules, trees)
        for cls, name in _dataclass_fields(tree)
        if uses[cls, name] == 0 and cls not in READ_BY_NAME
    ]
    assert unread == [], f"dataclass fields that src never reads: {unread}"


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


# functools' memoizing decorators; cached_property lives and dies with its
# instance, so it is not among them
CACHES = {"lru_cache", "cache"}


def _caches(tree: ast.Module):
    """Each use of a functools cache in a module, an import of it by name
    or a read of it off functools, as the function that it decorates or
    else its line."""
    decorated = {
        id(sub): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        for sub in ast.walk(decorator)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if CACHES & {alias.name for alias in node.names}:
                yield f"line {node.lineno}"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and getattr(node.value, "id", None) == "functools"
        ):
            yield decorated.get(id(node), f"line {node.lineno}")


def test_caches_are_found_as_imports_decorators_and_calls():
    program = ast.parse(
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@functools.cache\n"
        "def f(): ...\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def g(): ...\n"
        "h = functools.lru_cache(None)(f)\n"
    )
    assert list(_caches(program)) == ["line 2", "f", "g", "line 7"]


def test_the_suite_memo_is_the_one_cache_in_src():
    # a cache is explicit and bounded: the suites share their inputs
    # through suites._built, and every other result is computed where it
    # is used and handed on as a value
    caches = [
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _caches(ast.parse(path.read_text()))
    ]
    assert caches == ["suites._built"]


def _functions_around(tree: ast.Module, match):
    """The qualified name of the module-level function or method around
    each node of a module that match accepts."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{node.name}.{d.name}" if d is not node else d.name
            for sub in ast.walk(d):
                if match(sub):
                    yield name


def _is_chunking(node) -> bool:
    """A call of kernel.chunks or _Chunk.of."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return getattr(f, "id", None) == "chunks" or (
        getattr(f, "attr", None) == "of" and getattr(f.value, "id", None) == "_Chunk"
    )


def test_a_corpus_is_laid_out_only_where_it_is_built():
    # Corpus.of cuts a corpus into chunks and assembles each once,
    # coproduct_presheaf assembles its parts, and quotients cuts its
    # draws into the batches it quotients, before any corpus of them
    # exists; every corpus routine reads its corpus's chunks, and the
    # latching outcomes keep them
    tree = ast.parse((SRC / "presheaf.py").read_text())
    assert set(_functions_around(tree, _is_chunking)) == {
        "Corpus.of",
        "coproduct_presheaf",
        "quotients",
    }


def _names_quotient_pass(node) -> bool:
    """A call or read of presheaf._quotients, by its name or off a module."""
    return "_quotients" in (getattr(node, "id", None), getattr(node, "attr", None))


def test_quotients_is_the_one_quotient_route_in_src():
    # every presheaf quotient in src is a draw that goes through
    # presheaf.quotients, which makes one congruence pass per batch; a
    # second caller of the pass would be a second quotient route
    callers = sorted(
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _functions_around(ast.parse(path.read_text()), _names_quotient_pass)
    )
    assert callers == ["presheaf.quotients"]


def _builds_check(node) -> bool:
    """A call of the Check constructor, by its name or off a module."""
    if not isinstance(node, ast.Call):
        return False
    return "Check" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_checks_are_built_only_where_the_scan_rule_is_stated():
    # a check stops at its first failing case, counts the cases examined
    # with it and keeps its witness, and zero cases fail with NO_CASES:
    # verdict, scan and scan_batches state that rule once, for a result,
    # for cases one by one and for batched table scans, and _guard turns
    # a raised budget or law into a check; a scan that built its own
    # Check would state the rule again, and could drift from it
    builders, calls = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        builders += [f"{path.stem}.{where}" for where in _functions_around(tree, _builds_check)]
        calls += sum(map(_builds_check, ast.walk(tree)))
    assert len(builders) == calls, "a Check built outside any function"
    assert sorted(set(builders)) == [
        "certificates.scan",
        "certificates.scan_batches",
        "certificates.verdict",
        "suites._guard",
    ]


def _raises_over_budget(node) -> bool:
    """A raise of CandidateSpaceExceeded, called or bare."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) == "CandidateSpaceExceeded"


def test_the_search_budget_is_charged_only_where_the_search_runs():
    # MonotoneAssignments counts the candidates every map search tries and
    # is the one place a budget refuses a search; all_functions_homs'
    # BRUTE_FORCE_CAP bounds a literal filter, not a search
    raises = sorted(
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _functions_around(ast.parse(path.read_text()), _raises_over_budget)
    )
    assert raises == ["semilattice.MonotoneAssignments.__iter__", "semilattice.all_functions_homs"]


def test_private_names_are_imported_only_from_kernel():
    # a module's private names are its own; kernel's are the numpy
    # helpers that the presheaf layer shares with it
    imports = sorted(
        f"{path.stem}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module != "kernel"
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert imports == []


def _follows_pointers(node) -> bool:
    """A loop that steps a name along its own table, x = p[x], or jumps
    pointers, p[p[x]] or p[p]: a union-find's find."""
    if not isinstance(node, ast.While):
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            inner = sub.slice.value if isinstance(sub.slice, ast.Subscript) else sub.slice
            if ast.unparse(inner) == ast.unparse(sub.value):
                return True
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Subscript):
            if any(ast.unparse(t) == ast.unparse(sub.value.slice) for t in sub.targets):
                return True
    return False


def test_kernel_join_is_the_one_union_find_in_src():
    # the set pushouts, the congruences' spans and the presheaf layer's
    # gluings all go through kernel._join; the Python union-find it
    # replaced is a reference in tests/, where the rule sees its find
    finds = sorted(
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in set(_functions_around(ast.parse(path.read_text()), _follows_pointers))
    )
    assert finds == ["kernel._join"]
    reference = ast.parse((SRC.parents[1] / "tests" / "reedy_reference.py").read_text())
    assert "UnionFind.find" in set(_functions_around(reference, _follows_pointers))
