"""Outside-in tracer for reedylab.

Wraps the public module-level functions of the layers named in LAYERS
from outside the package, so the program itself is unchanged.  A
function imported by name into another module (``enumerate_homs`` is
bound in five of them) is a separate module attribute, so every module
attribute that *is* the original function is replaced, not only the one
in the defining module.  ``FinCategory.from_objects`` is wrapped to count
category builds, morphisms and composition entries, and
``SLatMorphism.__post_init__`` is wrapped to count morphism validations.

Spans are kept in memory as ``(name, parent span, start, end)`` and
written out by ``dump`` when the traced process ends; ``restore`` puts
every original object back and reports any that did not come back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("semilattice", "reedy", "elegance", "presheaf", "cubes", "obstruction", "suites")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # hooks that the program no longer has; their counts stay 0
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, label=None, after=None):
        """A wrapper recording one span per call of fn.  label(args) picks
        the span name per call; after(result) updates counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = self._name_id(name)
        name_id = self._name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            nid = name_id(label(args)) if label else fixed
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (nid, parent, start, end)
            if after:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        layers = {name: importlib.import_module(f"reedylab.{name}") for name in LAYERS}
        counts = self.counts

        def built(cat):
            # counted through the public hom() so that a change of the
            # composition table's layout does not change the count
            objs = range(len(cat.objects))
            sizes = [[len(cat.hom(a, b)) for b in objs] for a in objs]
            counts["reedy.category_builds"] += 1
            counts["reedy.morphisms"] += sum(map(sum, sizes))
            counts["reedy.composition_entries"] += sum(
                sizes[a][b] * sizes[b][c] for a in objs for b in objs for c in objs
            )

        def squares(result):
            counts["reedy.squares"] += len(result[2])

        def corpus(result):
            counts["presheaf.corpus_size"] += len(result)

        def suite_checks(cert):
            counts["suites.checks"] += len(cert.checks)

        special = {
            "reedy.reedy_category_on": dict(after=squares),
            "presheaf.enumerate_presheaves": dict(after=corpus),
            "presheaf.seeded_corpus": dict(after=corpus),
            "suites.run_suite": dict(
                label=lambda args: f"suites.{getattr(args[0] if args else None, 'suite', '?')}",
                after=suite_checks,
            ),
        }
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, **special.get(name, {}))
                originals[id(fn)] = fn
        # every binding of a wrapped function, in every reedylab module
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "reedylab"]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._patch(mod, attr, wrappers[id(value)])

        FinCategory = getattr(layers["reedy"], "FinCategory", None)
        build = getattr(FinCategory, "__dict__", {}).get("from_objects")
        if isinstance(build, staticmethod):
            wrapped = self._wrap("reedy.category_build", build.__func__, after=built)
            self._patch(FinCategory, "from_objects", staticmethod(wrapped))
        else:
            self.missing.append("reedy.FinCategory.from_objects")
        SLatMorphism = getattr(layers["semilattice"], "SLatMorphism", None)
        validate = getattr(SLatMorphism, "__dict__", {}).get("__post_init__")
        if validate is not None:

            def counted_post_init(morphism):
                counts["semilattice.morphism_validations"] += 1
                validate(morphism)

            self._patch(SLatMorphism, "__post_init__", counted_post_init)
        else:
            self.missing.append("semilattice.SLatMorphism.__post_init__")

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that are not the
        original object afterwards (empty when restoring worked)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if owner.__dict__.get(attr) is not original
        ]
        self._patches.clear()
        return wrong

    @property
    def bindings(self) -> int:
        return len(self._patches)

    def dump(self, path: str) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts},
                fh,
                separators=(",", ":"),
            )


def aggregate(trace: dict) -> tuple[dict, dict]:
    """Self time and call count per span name from a dumped trace.  A
    span's self time is its duration minus the durations of its direct
    children, which cover disjoint parts of it."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: Counter = Counter()
    for sid, (nid, _, start, end) in enumerate(spans):
        name = names[nid]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[sid]
        calls[name] += 1
    return self_s, dict(calls)
