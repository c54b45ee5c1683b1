"""DOT export of Hasse diagrams (covering edges only, stable ordering)."""

from __future__ import annotations

from .errors import InvalidInput
from .obstruction import CrownPoset
from .semilattice import FiniteSemilattice, enumerate_homs


def semilattice_dot(A: FiniteSemilattice) -> str:
    lines = ['digraph "semilattice" {', "  rankdir=BT;"]
    for x in range(A.size):
        lines.append(f'  n{x} [label="{A.label(x)}"];')
    for x, y in A.covers:
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def crown_dot(C: CrownPoset) -> str:
    lines = ['digraph "crown" {', "  rankdir=BT;"]
    for i in range(C.size):
        lines.append(f'  n{i} [label="{i}"];')
    for i in range(0, C.size, 2):
        for j in sorted(set(C.upper_covers(i))):
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def category_dot(objects: list[FiniteSemilattice]) -> str:
    """The full subcategory on the objects: objects as nodes, edges
    labeled by hom-set cardinality."""
    lines = ['digraph "category" {']
    for i, O in enumerate(objects):
        lines.append(f'  n{i} [label="#{i} (size {O.size})"];')
    for a, A in enumerate(objects):
        for b, B in enumerate(objects):
            if k := len(enumerate_homs(A, B)):
                lines.append(f'  n{a} -> n{b} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_json(data) -> str:
    """Dispatch on the JSON shape: semilattice, crown, or category.  A bad
    field value raises InvalidInput."""
    if not isinstance(data, dict):
        data = {}
    if "crown" in data:
        n = data["crown"]
        if not isinstance(n, int) or n < 3:
            raise InvalidInput(f"crown must be an integer >= 3, got {n!r}")
        return crown_dot(CrownPoset(n))
    try:
        if "join" in data:
            return semilattice_dot(FiniteSemilattice.from_json(data))
        if "objects" in data:
            objs = [FiniteSemilattice.from_json(o) for o in data["objects"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad semilattice JSON: {exc!r}") from exc
    if "objects" in data:
        return category_dot(objs)
    raise InvalidInput("unrecognized input: expected semilattice, crown, or category JSON")
