"""DOT export of Hasse diagrams (covering edges only, stable ordering).

Element labels exist only here: a semilattice document is
{"join": table, "labels": [...]}, with one string label per element,
str(x) for element x when "labels" is absent."""

from __future__ import annotations

from .errors import InvalidInput
from .obstruction import CrownPoset
from .semilattice import FiniteSemilattice, enumerate_homs, validate_semilattice


def semilattice_dot(A: FiniteSemilattice, labels: list[str]) -> str:
    """The Hasse diagram of A, element x labelled labels[x]."""
    lines = ['digraph "semilattice" {', "  rankdir=BT;"]
    for x, text in enumerate(labels):
        # escaped so that a label cannot end the DOT string early
        text = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{x} [label="{text}"];')
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


def _semilattice_document(doc) -> tuple[FiniteSemilattice, list[str]]:
    """The validated semilattice of a semilattice document and its labels.
    Raises InvalidInput unless the table is a semilattice and the labels
    are a list of strings, one per element."""
    try:
        A = validate_semilattice(doc["join"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad semilattice JSON: {exc!r}") from exc
    labels = doc.get("labels", [str(x) for x in range(A.size)])
    if not (
        isinstance(labels, list)
        and len(labels) == A.size
        and all(isinstance(text, str) for text in labels)
    ):
        raise InvalidInput(f"labels must be a list of {A.size} strings, got {labels!r}")
    return A, labels


def export_dot_json(data) -> str:
    """Dispatch on the JSON shape: semilattice, crown, or category (a list
    of semilattice documents).  A bad field value raises InvalidInput."""
    if not isinstance(data, dict):
        data = {}
    if "crown" in data:
        n = data["crown"]
        if not isinstance(n, int) or n < 3:
            raise InvalidInput(f"crown must be an integer >= 3, got {n!r}")
        return crown_dot(CrownPoset(n))
    if "join" in data:
        return semilattice_dot(*_semilattice_document(data))
    if "objects" in data:
        objects = data["objects"]
        if not isinstance(objects, list):
            raise InvalidInput(f"objects must be a list, got {objects!r}")
        return category_dot([_semilattice_document(doc)[0] for doc in objects])
    raise InvalidInput("unrecognized input: expected semilattice, crown, or category JSON")
