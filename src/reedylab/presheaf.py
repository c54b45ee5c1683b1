"""Finite presheaves over a finite Reedy category.

Carries the cellular machinery: latching objects by two weights through
one routine, Reedy-monomorphism predicates three ways, EZ
decompositions, skeleta and cell pushout squares.  Everything is
exhaustively checkable.

A presheaf is its levels and one int array of every action, end to end
in morphism-id order; the constructors build that array by gathers.

A presheaf's EZ data is one table: every element's EZ decompositions,
from which its EZ degree and whether its decompositions are all
isomorphic are read.  The skeleton sk_n is then the set of
elements of degree below n, a filter on the degrees rather than a
presheaf of its own; that each skeleton is a sub-presheaf is checked
once per presheaf, as the fact that no restriction raises a degree.

A corpus, presheaves on one base, is laid out once, where it is built:
Corpus.of cuts it with kernel.chunks over the presheaves' action entries
and places each chunk's presheaves side by side in one array, and each
member's values is its view into that array.  Colimits commute with
coproducts, and coproducts of sets are disjoint and stable under
pullback, so a chunk is one presheaf, their coproduct.  Its elements and
nodes are numbered part-major, so each presheaf's elements, nodes and
classes are one run in the order the presheaf alone gives them.  Every
verdict takes a Corpus and makes one numpy pass per chunk: the latching
objects by both weights (latching_objects and
latching_object_via_weights, one routine with two weights), the EZ table
(ez_degrees and has_unique_ez), the pushouts-to-pullbacks criterion and
the cell squares.  The latching objects stay chunk-wide, one Latching per
(chunk, object) that holds each part's ViolatedLaw, if any; they are
computed once, and the injectivity verdict, the route comparison and
the cell squares read their arrays as they are.  The verdicts return,
per presheaf (and per object or degree), the result or the ViolatedLaw
it breaks; the suites replay these in their walk order, presheaf first.

Both latching weights glue along generators only: the base's
non-identity isos and elementary maps (lowering or raising, between
objects one size apart), and for the lowering weight the lowering ones.
A weight is closed under post-composition, so on a functor the gluing
along a composite follows from the gluings along its factors; that the
generators' composites reach every map, and the lowering generators'
every lowering map, is checked once per base by FinCategory.generators.
quotient_presheaf still closes along every map, in one pass that is
closed because every composite is itself a restriction.

seeded_corpus draws every random choice first and quotients its draws
in batches, which kernel.chunks cuts over their action entries: one
congruence pass per batch, on the coproduct of its draws, checked
natural there and then.  No class crosses draws, so each draw's quotient
is one run of the batch's; quotient_presheaf is the one-draw case.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, ViolatedLaw, outcome_value
from .kernel import _class_values, _classes, _distinct, _join, chunks, square_pullbacks
from .reedy import FinCategory, ReedyData, Square


@dataclass(eq=False)
class FinPresheaf:
    """Contravariant finite-set-valued functor: for f: a -> b the action
    maps X_b into X_a.

    values holds every action end to end, in morphism-id order: the action
    of the map with id i is values[start[i] : start[i + 1]], whose entry x
    is the restriction of x in X_b along the map, an element of X_a."""

    base: FinCategory
    levels: tuple[int, ...]
    values: np.ndarray

    @cached_property
    def start(self) -> np.ndarray:
        return _start(self.base, self.levels)

    def action(self, f: int) -> np.ndarray:
        """The action of the map with id f, a view of values."""
        return self.values[self.start[f] : self.start[f + 1]]

    def total_size(self) -> int:
        return sum(self.levels)

    def validate(self) -> None:
        """Raise ViolatedLaw unless the values form a functor."""
        cat, levels, values = self.base, np.array(self.levels, np.int64), np.asarray(self.values)
        if len(levels) != len(cat.objects):
            raise ViolatedLaw("length", ())
        start, owner, x = _layout(cat, levels)
        if values.shape != (start[-1],):
            raise ViolatedLaw("length", (values.shape, int(start[-1])))
        if values.dtype.kind not in "iu":
            raise ViolatedLaw("range", ())
        bad = (values < 0) | (values >= levels[cat.domain][owner])
        if bad.any():
            raise ViolatedLaw("range", cat.ref(owner[bad.argmax()]))
        is_unit = np.zeros(len(cat.domain), bool)
        is_unit[list(cat.identities)] = True
        bad = is_unit[owner] & (values != x)
        if bad.any():
            raise ViolatedLaw("unit", cat.ref(owner[bad.argmax()]))
        for fs, g, x2, bad in _functoriality(cat, levels, values[None]):
            if bad.any():
                i, p = divmod(int(bad.argmax()), bad.shape[2])
                raise ViolatedLaw("functoriality", (cat.ref(fs[i]), cat.ref(g[p]), int(x2[p])))


def _functoriality(cat: FinCategory, levels, values: np.ndarray):
    """Functoriality of candidate values over the given levels, one
    candidate per row of values, checked one composition block (a, b) at
    a time: x.g restricted along f against x.(g f), for f in Hom(a, b) and
    the entries (g, x) of the maps out of b.  Yields, per block in order,
    the ids f, the entries' maps g and elements x, and where they differ,
    of shape (candidates, f, entry)."""
    start, owner, x = _layout(cat, levels)
    for (a, b), block in cat.composition.items():
        gs, fs = cat.out_of(b), cat.refs(a, b)
        out = slice(start[gs.start], start[gs.stop])
        g, x2, y = owner[out], x[out], values[:, out]
        fs = np.arange(fs.start, fs.stop)
        restricted = np.take_along_axis(values[:, None], start[fs][:, None] + y[:, None], 2)
        yield fs, g, x2, restricted != values[:, start[block[:, g - gs.start]] + x2]


def _layout(cat: FinCategory, levels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For values over the given levels: the start of each map's action,
    and for each position the id of its map and its element x."""
    return _segments(np.asarray(levels, np.int64)[cat.codomain])


def _start(cat: FinCategory, levels) -> np.ndarray:
    """The first array of _layout alone: the start of each map's action,
    and the total, last."""
    start = np.zeros(len(cat.codomain) + 1, np.int32)
    np.cumsum(np.asarray(levels, np.int64)[cat.codomain], out=start[1:])
    return start


@dataclass
class PresheafMorphism:
    dom: FinPresheaf
    cod: FinPresheaf
    components: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        """Raise ViolatedLaw unless the components form a natural
        transformation between presheaves on one base."""
        X, Y, comps = self.dom, self.cod, self.components
        cat = X.base
        if Y.base is not cat:
            raise ViolatedLaw("base", ())
        if len(comps) != len(X.levels):
            raise ViolatedLaw("length", ())
        for r, comp in enumerate(comps):
            if len(comp) != X.levels[r]:
                raise ViolatedLaw("length", (r,))
        x_start, level, _ = _segments(np.array(X.levels, np.int64))
        comp = np.fromiter(itertools.chain.from_iterable(comps), np.int64, x_start[-1])
        bad = (comp < 0) | (comp >= np.array(Y.levels, np.int64)[level])
        if bad.any():
            raise ViolatedLaw("range", (int(level[bad.argmax()]),))
        comp = comp.astype(np.int32)  # halves the entry-sized gathers below
        # at each entry (f, x) of X: the component at x.f, against the
        # component at x restricted along f in Y; Y's layout is computed
        # here, not cached on Y, whose start a corpus holds in its chunk
        _, owner, x = _layout(cat, X.levels)
        bad = comp[x_start[cat.domain][owner] + X.values] != Y.values[
            _start(cat, Y.levels)[owner] + comp[x_start[cat.codomain][owner] + x]
        ]
        if bad.any():
            p = bad.argmax()
            raise ViolatedLaw("naturality", (cat.ref(owner[p]), int(x[p])))


# ---------------------------------------------------------------------------
# representables and automorphism quotients
# ---------------------------------------------------------------------------


def representable(cat: FinCategory, r: int) -> FinPresheaf:
    """yo(r): level at s is Hom(s, r), acting by precomposition.  The
    actions of the maps in Hom(s, b) are the rows of composition[(s, b)],
    read at the columns of Hom(b, r)."""
    n = len(cat.objects)
    values = np.concatenate([
        (cat.composition[(s, b)][:, cat.columns(b, r)] - cat.refs(s, r).start).ravel()
        for s in range(n)
        for b in range(n)
    ])
    return FinPresheaf(cat, tuple(len(cat.refs(s, r)) for s in range(n)), values)


def subgroup_closure_ok(cat: FinCategory, r: int, H: list[int]) -> bool:
    group = set(H)
    if cat.identities[r] not in group:
        return False
    for h in group:
        if not cat.mor(h).is_iso or cat.dom(h) != r or cat.cod(h) != r:
            return False
        if cat.find(r, r, cat.mor(h).inverse()) not in group:
            return False
        for k in group:
            if cat.compose(h, k) not in group:
                return False
    return True


def autquo(
    cat: FinCategory, r: int, H: list[int]
) -> tuple[FinPresheaf, PresheafMorphism]:
    """Quotient of yo(r) by post-composition with a subgroup of Aut(r);
    returns the quotient and the projection from the representable.
    Raises InvalidInput unless H is a subgroup of Aut(r)."""
    if not subgroup_closure_ok(cat, r, H):
        H = [cat.ref(h) for h in H]
        raise InvalidInput(f"not a subgroup of the automorphisms of object {r}: {H}")
    orbits = []
    for s in range(len(cat.objects)):
        gs = cat.refs(s, r)
        orbits += [(s, g - gs.start, cat.compose(g, h) - gs.start) for g in gs for h in H]
    return quotient_presheaf(representable(cat, r), orbits)


# ---------------------------------------------------------------------------
# lowering structure helpers
# ---------------------------------------------------------------------------


def strictly_lowering_out_of(cat: FinCategory, data: ReedyData, r: int) -> list[int]:
    return [e for e in data.lowering_out[r] if data.degree[cat.cod(e)] < data.degree[r]]


# ---------------------------------------------------------------------------
# latching machinery
# ---------------------------------------------------------------------------


@dataclass
class Latching:
    """The latching objects at r of every part of a chunk, by one weight,
    as one weighted colimit, its nodes numbered part-major, then as the
    pairs (f, x) sort, f in morphism order out of r: first_node[k, p] is
    the node of (f, 0) in part k when the p-th map f out of r is in the
    weight, and -1 otherwise, and that of (f, x) is first_node[k, p] + x.
    node_class[v] is the class of node v, classes numbered by least node,
    and class_start[k] the first class of part k, the total last.
    latch[c] is the value of class c in X_r, and held[k] the ViolatedLaw
    that part k breaks at r, or None."""

    first_node: np.ndarray
    node_class: np.ndarray
    class_start: np.ndarray
    latch: np.ndarray
    held: list[ViolatedLaw | None]

    def pairs(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pair (f, x) of each node v: its part k, the position p of f
        out of r, and x.  Nodes sort as the pairs do, so v lies in the
        last weight map whose first node is at most v."""
        first = self.first_node.ravel()
        weight = np.flatnonzero(first >= 0)
        i = weight[np.searchsorted(first[weight], v, "right") - 1]
        return (*np.divmod(i, self.first_node.shape[1]), v - first[i])

    def verdicts(self, ok: list[bool]) -> list[bool | ViolatedLaw]:
        """A verdict per part, each held law in its part's place."""
        return [v if law is None else law for v, law in zip(ok, self.held)]


def latching_objects(corpus: Corpus, data: ReedyData) -> list[list[Latching]]:
    """Latching by the lowering weight: the strictly lowering maps e out
    of r, glued along the lowering generators f, (f e, x) ~ (e, x f)."""
    cat, degree = corpus.base, np.array(data.degree)
    weight = data.lowering & (degree[cat.codomain] < degree[cat.domain])
    return _latching(corpus, weight, data.lowering)


def latching_object_via_weights(corpus: Corpus, data: ReedyData) -> list[list[Latching]]:
    """Latching by the degree weight: all maps out of r of degree below
    deg(r), not only lowering ones, glued along every generator."""
    cat = corpus.base
    weight = cat.image_size < np.array(data.degree)[cat.domain]
    return _latching(corpus, weight, np.ones(len(cat.domain), bool))


def _latching(corpus: Corpus, weight: np.ndarray, glued: np.ndarray) -> list[list[Latching]]:
    """The latching objects of a corpus by a weight: the maps f out of r
    with weight[f], glued along the generators g with glued[g] out of each
    codomain b, (g f, x) ~ (f, x g).  Returns the Latching of each chunk
    at each object r.

    The weights are closed under post-composition, so on a functor the
    relation along g = g2 g1 follows from those along g1 and g2, and the
    generators give the classes that every map with glued[g] gives, as
    kernel.generators checks once per base.  One join per (chunk, r)
    glues the nodes of every part, over the edges of every codomain b at
    once.  The gluing of the weight maps into b is one gather from the
    rows of composition[(r, b)] and the actions of the gluing maps.  A
    part whose latching map is ill defined holds 'well-definedness' at
    its first such class.  A law of the base, 'generation' where the
    generators do not generate or 'degree-drop' at r, leaves r with no
    weight maps, and every part holds it."""
    cat, n_obj, n_maps, out = corpus.base, len(corpus.base.objects), len(corpus.base.domain), []
    generators, base_law = cat.generators, None
    if isinstance(generators, ViolatedLaw):
        base_law = ViolatedLaw(generators.law, generators.witness)
        weight = generators = np.zeros(n_maps, bool)
    gluing = [
        ids.start + np.flatnonzero((generators & glued)[ids.start : ids.stop])
        for ids in map(cat.out_of, range(n_obj))
    ]
    plans = [_weight_plan(cat, r, weight, gluing) for r in range(n_obj)]
    for part, chunk in corpus.chunks:
        n_parts, row = len(part), []
        # the entries of the gluing maps out of each b, in every part: entry
        # e sends x2[e] along the map of segment seg[e] (part p[e], the map
        # seg[e] - p[e] |gluing[b]| places into gluing[b]) to y[e]
        entries = [chunk.entries(ids) for ids in gluing]
        for r, (lo, in_weight, law, blocks) in enumerate(plans):
            maps = np.flatnonzero(in_weight)  # the weight maps, as positions out of r
            node_start, owner, index = _segments(chunk.levels[:, cat.codomain[maps + lo]].ravel())
            first_node = np.full((n_parts, len(in_weight)), -1, np.int32)
            first_node[:, maps] = node_start[:-1].reshape(n_parts, len(maps))
            # (g f, x2) ~ (f, y) for the weight maps f into each b, a row
            # per entry
            u, v = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
            for b, fs, gf in blocks:
                p, seg, x2, y = entries[b]
                by_segment = first_node[:, gf].transpose(0, 2, 1).reshape(-1, len(fs))
                u.append((by_segment[seg] + x2[:, None]).ravel())
                v.append((first_node[:, fs][p] + y[:, None]).ravel())
            label = np.arange(node_start[-1], dtype=np.int32)
            label = _join(label, np.concatenate(u), np.concatenate(v))
            roots, node_class = _classes(label)
            # the latching map: the value x.f on the class of each node (f, x)
            at, w = np.divmod(owner, max(len(maps), 1))
            latch, bad = _class_values(
                roots, node_class, chunk.values[chunk.start[at * n_maps + lo + maps[w]] + index]
            )
            class_start = np.searchsorted(roots, node_start[np.arange(n_parts + 1) * len(maps)])
            ill = _first_per_part(np.repeat(np.arange(n_parts), np.diff(class_start)), bad, n_parts)
            held = [law or base_law] * n_parts
            for k in np.flatnonzero(ill >= 0).tolist():
                f, x = cat.ref(lo + maps[w[roots[ill[k]]]]), int(index[roots[ill[k]]])
                held[k] = ViolatedLaw("well-definedness", (r, (f, x)))
            # a corpus's outcomes are held at once, so each array is kept in
            # the smallest integer type that holds it
            nodes, classes = np.min_scalar_type(-len(label) - 1), np.min_scalar_type(len(roots))
            small = [node_class.astype(classes), class_start.astype(classes)]
            latch = latch.astype(np.min_scalar_type(latch.max(initial=0)))
            row.append(Latching(first_node.astype(nodes), *small, latch, held))
        out.append(row)
    return out


def _weight_plan(cat: FinCategory, r: int, weight: np.ndarray, gluing: list[np.ndarray]):
    """What latching by a weight at r reads of the base alone: the id of
    the first map out of r, which maps out of r are in the weight, None,
    and per object b that a weight map reaches, b, the positions out of r
    of the weight maps f into b and those of their composites g f, a row
    per f and a column per gluing map g out of b.  Where some g f leaves
    the weight: no map, ViolatedLaw('degree-drop') at the first, no b."""
    out = cat.out_of(r)
    lo = out.start
    in_weight = weight[lo : out.stop]
    blocks = []
    for b, gs in enumerate(gluing):
        cols = cat.columns(r, b)
        fs = np.flatnonzero(in_weight[cols])
        if not len(fs):
            continue
        # row per f, column per gluing map g
        gf = cat.composition[(r, b)][fs][:, gs - cat.out_of(b).start] - lo
        outside = ~in_weight[gf]
        if outside.any():
            i, j = divmod(int(outside.argmax()), gf.shape[1])
            drop = (cat.ref(lo + cols.start + fs[i]), cat.ref(gs[j]))
            return lo, np.zeros(len(in_weight), bool), ViolatedLaw("degree-drop", drop), []
        blocks.append((b, fs + cols.start, gf))
    return lo, in_weight, None, blocks


@dataclass
class _Chunk:
    """Presheaves on one base side by side, part-major.  levels[p] is the
    levels of part p, values holds every part's values end to end, and
    part p's action of the map with id i is values[start[p M + i] :
    start[p M + i + 1]], for the base's M maps."""

    base: FinCategory
    levels: np.ndarray
    values: np.ndarray
    start: np.ndarray

    @classmethod
    def of(cls, cat: FinCategory, parts: list[FinPresheaf]) -> _Chunk:
        """Raises InvalidInput when a part is on another base."""
        if any(X.base is not cat for X in parts):
            raise InvalidInput("presheaves side by side must share one base")
        levels = np.array([X.levels for X in parts], np.int64).reshape(len(parts), -1)
        values = np.concatenate([X.values for X in parts])
        return cls(cat, levels, values, _segments(levels[:, cat.codomain].ravel())[0])

    def entries(self, ids: np.ndarray):
        """The action entries of the maps with the given ids, in every
        part, part-major, then by map, then by element: each one's part,
        its segment p |ids| + (its map's position in ids), its element x
        and the value at x."""
        n_maps = len(self.base.domain)
        _, seg, x = _segments(self.levels[:, self.base.codomain[ids]].ravel())
        part, k = np.divmod(seg, len(ids))
        return part, seg, x, self.values[self.start[part * n_maps + ids[k]] + x]

    def coproduct(self) -> FinPresheaf:
        """The levelwise disjoint union of the parts: at each object a
        part's elements follow those of the parts before it."""
        cat, levels = self.base, self.levels
        if len(levels) == 1:
            return FinPresheaf(cat, tuple(levels[0].tolist()), self.values.astype(np.int32))
        offset = np.cumsum(levels, 0) - levels
        _, owner, _ = _segments(levels[:, cat.codomain].ravel())
        part, f = np.divmod(owner, len(cat.domain))
        # part-major entries, reordered map-major; the sort keeps each
        # map's entries part after part
        values = (self.values + offset[part, cat.domain[f]])[np.argsort(f, kind="stable")]
        return FinPresheaf(cat, tuple(levels.sum(0).tolist()), values.astype(np.int32))


@dataclass(eq=False)
class Corpus:
    """Presheaves on one base, laid out once: chunks pairs each range of
    consecutive presheaves that kernel.chunks cuts, over their action
    entries, with the _Chunk that holds them side by side.  An empty
    corpus has its base and no chunks."""

    base: FinCategory
    presheaves: list[FinPresheaf]
    chunks: list[tuple[range, _Chunk]]

    @classmethod
    def of(cls, base: FinCategory, presheaves: list[FinPresheaf]) -> Corpus:
        """Lay the presheaves out, each chunk once.  Each presheaf's values
        becomes its view into its chunk, the same entries, so the corpus
        holds each entry once and the arrays the presheaves came with are
        freed chunk by chunk; a presheaf laid out again views its latest
        chunk.  Raises InvalidInput when a presheaf is on another base."""
        laid_out, n_maps = [], len(base.domain)
        for part in chunks([len(X.values) for X in presheaves]):
            chunk = _Chunk.of(base, presheaves[part.start : part.stop])
            # part p's values run from start[p M] to start[(p + 1) M]
            for k, values in zip(part, np.split(chunk.values, chunk.start[n_maps::n_maps])):
                presheaves[k].values = values
            laid_out.append((part, chunk))
        return cls(base, presheaves, laid_out)

    def __len__(self) -> int:
        return len(self.presheaves)

    def __iter__(self):
        return iter(self.presheaves)


def _segments(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the items of consecutive segments of the given sizes: the
    first item of each segment (and the total, last), and each item's
    segment and position in it."""
    start = np.zeros(len(sizes) + 1, np.int32)
    np.cumsum(sizes, out=start[1:])
    owner = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    return start, owner, np.arange(start[-1], dtype=np.int32) - start[owner]


def latching_routes_agree(
    by_lowering: list[list[Latching]], by_degree: list[list[Latching]]
) -> list[list[bool | ViolatedLaw]]:
    """Whether the latching objects of a corpus by the two weights, the
    outcomes of latching_objects and of latching_object_via_weights, are
    in natural bijection over X_r.  Returns, for each presheaf and each
    object r, the verdict, or the ViolatedLaw its part holds, the lowering
    one first.

    Both come from one corpus, so each (chunk, r) is one comparison of
    all its parts.  Both index the maps out of r in morphism order, so the
    node (k, p, x) of A is the node B.first_node[k, p] + x of B.  A part
    agrees when it has equally many classes in A and B, every node of A
    is one of B, the B-classes of the nodes of each A-class are one, which
    makes a map on classes, and that map is one to one and keeps the
    latching values."""
    return _by_presheaf(
        [A.verdicts(B.verdicts(_routes_agree(A, B).tolist())) for A, B in zip(As, Bs)]
        for As, Bs in zip(by_lowering, by_degree)
    )


def _routes_agree(A: Latching, B: Latching) -> np.ndarray:
    """latching_routes_agree at one (chunk, r), a verdict per part."""
    n = len(A.held)

    def any_of(owner, flags):
        return np.bincount(owner, weights=flags, minlength=n) > 0

    b_start = B.class_start.astype(np.int64)
    a_classes, b_classes = np.diff(A.class_start.astype(np.int64)), np.diff(b_start)
    # the B-class of each node of A, -1 where B leaves out its map
    k, p, x = A.pairs(np.arange(len(A.node_class)))
    first = B.first_node[k, p].astype(np.int64)
    outside = first < 0
    image = np.full(len(first), -1)
    image[~outside] = B.node_class[first[~outside] + x[~outside]]
    # each class of A to the B-class of its last node, which the others
    # must share; a class without nodes goes to its part's first B-class
    class_owner = np.repeat(np.arange(n), a_classes)
    mapping = b_start[class_owner]
    mapping[A.node_class] = image
    split = mapping[A.node_class] != image
    inside = (mapping >= b_start[class_owner]) & (mapping < b_start[class_owner + 1])
    kept = np.zeros(len(mapping), bool)
    kept[inside] = A.latch[inside] == B.latch[mapping[inside]]
    hit = np.repeat(np.arange(n), b_classes)[_distinct(mapping[inside])]
    return (
        (a_classes == b_classes)
        & (np.bincount(hit, minlength=n) == b_classes)
        & ~any_of(k, outside | split)
        & ~any_of(class_owner, ~kept)
    )


def latching_injective(latching: list[list[Latching]]) -> list[list[bool | ViolatedLaw]]:
    """Whether each presheaf's latching map at each object r is injective,
    given the outcomes of latching_objects on a corpus, or the ViolatedLaw
    its part holds.  Per (chunk, r), a part's map is injective when its
    classes take distinct values."""
    verdicts = []
    for Ls in latching:
        verdicts.append([])
        for L in Ls:
            classes = np.diff(L.class_start.astype(np.int64))
            width = int(L.latch.max(initial=0)) + 1
            key = np.repeat(np.arange(len(classes)), classes) * width + L.latch
            distinct = np.bincount(_distinct(key) // width, minlength=len(classes))
            verdicts[-1].append(L.verdicts((distinct == classes).tolist()))
    return _by_presheaf(verdicts)


def _by_presheaf(verdicts) -> list[list]:
    """Verdicts by chunk, then r, then part, as one list per presheaf."""
    return [list(row) for by_r in verdicts for row in zip(*by_r)]


def is_reedy_mono(injective: list[bool | ViolatedLaw]) -> bool:
    """Every latching map injective, given a presheaf's latching_injective
    verdicts: read up to the first that is not, a ViolatedLaw raised where
    read."""
    return all(outcome_value(v) for v in injective)


# ---------------------------------------------------------------------------
# EZ decompositions and skeleta
# ---------------------------------------------------------------------------


def ez_degrees(corpus: Corpus, data: ReedyData) -> list[list[list[int]] | ViolatedLaw]:
    """The EZ degrees of each presheaf of a corpus: entry [r][x] is the
    EZ degree of x in X_r, the least degree of the middle object of its
    EZ decompositions.

    A presheaf's outcome is instead the ViolatedLaw 'ez-existence' at its
    first element (r, x) without a decomposition, or else
    'sub-presheaf-closure' at its first action entry (f, x) whose
    restriction raises the degree of x, which is when some skeleton is
    not a sub-presheaf."""
    degree, out = np.array(data.degree, np.int64), []
    for chunk, element, e, _ in _ez_tables(corpus, data):
        cat, levels = chunk.base, chunk.levels
        (n_parts, n_obj), n_maps = levels.shape, len(cat.domain)
        x_start, x_key, x_local = _segments(levels.ravel())
        no_decomposition = np.bincount(element, minlength=len(x_key)) == 0
        missing = _first_per_part(x_key // n_obj, no_decomposition, n_parts)
        # the least degree of a middle object, past every degree where
        # there is none; a run of the sorted elements is one element
        x_degree = np.full(len(x_key), degree.max(initial=0) + 1)
        runs = np.flatnonzero(np.concatenate([[True], element[1:] != element[:-1]]))
        if len(element):
            x_degree[element[runs]] = np.minimum.reduceat(degree[cat.codomain[e]], runs)
        # x.f against x, at every action entry (f, x) of every part; the
        # entries of map f in part p are segment p M + f
        _, seg, x = _segments(levels[:, cat.codomain].ravel())
        at = np.arange(n_parts)[:, None] * n_obj
        dom_start, cod_start = (x_start[(at + ends).ravel()] for ends in (cat.domain, cat.codomain))
        raised = x_degree[dom_start[seg] + chunk.values] > x_degree[cod_start[seg] + x]
        closure = _first_per_part(seg // n_maps, raised, n_parts)
        x_degree, bounds = x_degree.tolist(), x_start.tolist()
        for p, (i, j) in enumerate(zip(missing.tolist(), closure.tolist())):
            if i >= 0:
                out.append(ViolatedLaw("ez-existence", (int(x_key[i] % n_obj), int(x_local[i]))))
            elif j >= 0:
                f = cat.ref(int(seg[j] % n_maps))
                out.append(ViolatedLaw("sub-presheaf-closure", (f, int(x[j]))))
            else:
                row = bounds[p * n_obj : (p + 1) * n_obj + 1]
                out.append([x_degree[lo:hi] for lo, hi in zip(row, row[1:])])
    return out


def has_unique_ez(corpus: Corpus, data: ReedyData) -> list[tuple]:
    """For each presheaf of a corpus, (True, None) when all EZ
    decompositions of each element are isomorphic, and otherwise (False,
    ((r, x), d0, d1)): the first pair of decompositions (e, y) of an
    element x of X_r that no isomorphism links, elements in order and each
    one's pairs in itertools.combinations order.

    (e0, y0) and (e1, y1) are isomorphic when an iso th has th e0 = e1 and
    y1.th = y0.  Lowering maps are epi, so at most one th has th e0 = e1,
    and _iso_links reads it off the base once; each pair of
    decompositions is then one lookup and one gather.  Every pair is
    compared, not only those with an element's first decomposition: on a
    functor the two agree, as isomorphism is an equivalence, but a
    caller's values need not form one."""
    (keys, ths), out = _iso_links(corpus.base, data), []
    for chunk, element, e, y in _ez_tables(corpus, data):
        cat, levels, values = chunk.base, chunk.levels, chunk.values
        (n_parts, n_obj), n_maps = levels.shape, len(cat.domain)
        _, x_key, x_local = _segments(levels.ravel())
        # each decomposition on the left of those of its element after it
        count = np.bincount(element, minlength=len(x_key))
        later = (np.cumsum(count) - 1)[element] - np.arange(len(element))
        left = np.repeat(np.arange(len(element)), later)
        right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(later) - later, later)
        key = e[left] * n_maps + e[right]
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        linked = keys[at] == key if len(keys) else np.zeros(len(key), bool)
        part = x_key[element[left]] // n_obj
        # th's action takes y1 to y0
        th_at = chunk.start[part[linked] * n_maps + ths[at[linked]]]
        linked[linked] = values[th_at + y[right[linked]]] == y[left[linked]]
        for k in _first_per_part(part, ~linked, n_parts).tolist():
            if k < 0:
                out.append((True, None))
                continue
            i = element[left[k]]
            pair = [(int(e[d]), int(y[d])) for d in (left[k], right[k])]
            out.append((False, ((int(x_key[i] % n_obj), int(x_local[i])), *pair)))
    return out


def _ez_tables(corpus: Corpus, data: ReedyData):
    """The EZ table of a corpus, chunk by chunk.

    A decomposition of x in X_r is a pair (e, y) of a lowering map e out
    of r and a nondegenerate y with y.e = x, so it is one action entry of
    e; an element is nondegenerate outside the images of the strictly
    lowering maps out of its object, which are lowering maps too.  So one
    gather of the lowering maps' entries gives both.  Yields each chunk
    and its decompositions, sorted by element y.e (parts, then levels,
    end to end), and for one element in morphism order of e, then y: each
    one's element, e and y."""
    cat, degree = corpus.base, np.array(data.degree, np.int64)
    lowering = np.array([e for out in data.lowering_out for e in out], np.int64)
    for _, chunk in corpus.chunks:
        n_obj = chunk.levels.shape[1]
        x_start = _segments(chunk.levels.ravel())[0]
        p, seg, y, x = chunk.entries(lowering)
        e = lowering[seg % len(lowering)]
        element = x_start[p * n_obj + cat.domain[e]] + x
        nondegenerate = np.ones(x_start[-1], bool)
        nondegenerate[element[degree[cat.codomain[e]] < degree[cat.domain[e]]]] = False
        keep = nondegenerate[x_start[p * n_obj + cat.codomain[e]] + y]
        order = np.argsort(element[keep], kind="stable")
        yield chunk, element[keep][order], e[keep][order], y[keep][order]


def _iso_links(cat: FinCategory, data: ReedyData) -> tuple[np.ndarray, np.ndarray]:
    """The isos th with th e0 = e1, for lowering maps e0 and e1 out of one
    object: the keys e0 M + e1, for the base's M maps, in increasing
    order, and the th of each.  An iso after a lowering map is one, so
    these are th e0 for every th out of the codomain of each e0."""
    sizes = np.array([O.size for O in cat.objects], np.int64)
    iso = (cat.image_size == sizes[cat.domain]) & (cat.image_size == sizes[cat.codomain])
    n_maps, keys, ths = len(cat.domain), [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for r, lows in enumerate(data.lowering_out):
        lows = np.array(lows, np.int64)
        for b in _distinct(cat.codomain[lows]).tolist():
            e0, out = lows[cat.codomain[lows] == b], cat.out_of(b)
            isos = out.start + np.flatnonzero(iso[out.start : out.stop])
            then = cat.composition[(r, b)][e0 - cat.refs(r, b).start][:, isos - out.start]
            keys.append((e0[:, None] * n_maps + then).ravel())
            ths.append(np.broadcast_to(isos, then.shape).ravel())
    keys, ths = np.concatenate(keys), np.concatenate(ths)
    order = np.argsort(keys, kind="stable")
    return keys[order], ths[order]


def _first_per_part(part: np.ndarray, flags: np.ndarray, n_parts: int) -> np.ndarray:
    """The first position where flags holds, for each part, and -1 where
    none does, given the part of each position in increasing order."""
    first = np.full(n_parts, -1)
    at = np.flatnonzero(flags)
    if len(at):
        q = part[at]
        new = np.concatenate([[True], q[1:] != q[:-1]])
        first[q[new]] = at[new]
    return first


def skeleton(degrees: list[list[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The elements of sk_n at each object: those of EZ degree below n,
    in increasing order."""
    return tuple(tuple(x for x, d in enumerate(level) if d < n) for level in degrees)


# ---------------------------------------------------------------------------
# pushouts to pullbacks
# ---------------------------------------------------------------------------


def maps_lowering_pushouts_to_pullbacks(corpus: Corpus, squares: list[Square]) -> list[tuple]:
    """For each presheaf X of a corpus, whether X sends each base square
    to a pullback of sets: z goes to (z.f0, z.f1) one to one and onto the
    pairs (y0, y1) with y0.e0 = y1.e1.  So a square passes when each such
    pair has a fibre of exactly one z and the pairs number |X_p|.
    Returns, per presheaf, (True, None) or (False, square) for the first
    square that fails.

    A chunk is checked as the coproduct of its presheaves, one
    kernel.square_pullbacks call per chunk: each pair is the part of its
    y0, and no pair or fibre crosses parts.  The actions it reads, of the
    identities and the squares' maps, are sliced once per chunk.  A square
    whose maps do not meet raises ViolatedLaw('square-shape') there."""
    cat, out = corpus.base, []
    ids = np.array(squares, np.int64).reshape(-1, 4)
    b0, p_obj = cat.codomain[ids[:, 0]], cat.codomain[ids[:, 2]]
    read = _distinct(np.concatenate([np.array(cat.identities, np.int64), ids.ravel()])).tolist()
    for part, chunk in corpus.chunks:
        n_parts, levels = len(part), chunk.levels
        # the part of each element of the coproduct, level after level
        level_start, owner, _ = _segments(levels.T.ravel())
        part_of, first = owner % n_parts, np.full(n_parts, -1)
        X = chunk.coproduct()
        action = {f: X.action(f) for f in read}
        for sq, square, y0, _, fibre in square_pullbacks(cat, squares, action.__getitem__):
            key = square * n_parts + part_of[level_start[b0[sq.start + square] * n_parts] + y0]
            size = len(sq) * n_parts
            pairs = np.bincount(key, minlength=size).reshape(len(sq), n_parts)
            split = np.bincount(key, weights=fibre != 1, minlength=size).reshape(len(sq), n_parts)
            bad = (split > 0) | (pairs != levels[:, p_obj[sq.start : sq.stop]].T)
            new = bad.any(0) & (first < 0)
            first[new] = sq.start + bad.argmax(0)[new]
            if (first >= 0).all():
                break
        out += [(True, None) if k < 0 else (False, squares[k]) for k in first.tolist()]
    return out


# ---------------------------------------------------------------------------
# cell pushout squares
# ---------------------------------------------------------------------------


@dataclass
class CellSquareReport:
    commutes: bool
    is_pushout: bool
    cell_mono: bool


def verify_cell_square(
    corpus: Corpus,
    data: ReedyData,
    degrees: list[list[list[int]] | ViolatedLaw],
    latching: list[list[Latching]],
) -> list[dict[int, CellSquareReport | ViolatedLaw]]:
    """Certify the cell attachments of each presheaf of a corpus, given
    the outcomes of ez_degrees and of latching_objects on it.  Returns,
    for each presheaf and each degree n in increasing order, the report
    of its degree-n cell square or the ViolatedLaw that it breaks.

    A square builds the two weighted-colimit corners over the groupoid of
    degree-n objects, the cell map between them, and checks levelwise that
    the square onto the skeleta commutes, is a pushout of sets, and has an
    injective cell map whenever X is Reedy monomorphic.  It breaks
    'skeleton-landing' at the first level where the left map leaves sk_n
    or, failing that, the right map leaves sk_{n+1}.  A presheaf whose
    latching object at a degree-n object, or whose EZ degrees, holds a
    law keeps that law, the latching one first, in place of its degree-n
    report: it runs in its chunk with every element of degree 0, meets no
    other part in a join, and its report is dropped.

    There is one join per (chunk, n) and gluing, on the chunk's latching
    outcomes as they are; a (chunk, n) whose parts all hold laws is
    skipped.  Every level of every part is done at once, on integer node
    keys ordered as the pairs are: part first, then level, then (in the
    upper-left corner) the boundary nodes (g, x) before the representable
    nodes (g, c), then g in morphism order, then x or c.  A class is named
    by its least node, and classes are numbered in that order, so each
    part's classes are one run in the order of the part alone, and the
    counts per level become counts per (part, level).
    """
    cat, out = corpus.base, [{} for _ in corpus]
    plans = [_gluing_plan(cat, data, n) for n in sorted(set(data.degree))]
    for (part, chunk), Ls in zip(corpus.chunks, latching):
        for n, objs_n, gluings in plans:
            d = []
            for p, (k, levels) in enumerate(zip(part, chunk.levels.tolist())):
                laws = [*(Ls[r].held[p] for r in objs_n), degrees[k]]
                law = next((v for v in laws if isinstance(v, ViolatedLaw)), None)
                if law is not None:
                    out[k][n] = law
                d.append(degrees[k] if law is None else [[0] * m for m in levels])
            if all(n in out[k] for k in part):
                continue
            reports = _cell_squares(chunk, n, objs_n, gluings, Ls, d)
            for k, report in zip(part, reports):
                out[k].setdefault(n, report)
    return out


def _gluing_plan(cat: FinCategory, data: ReedyData, n: int):
    """What the degree-n cell squares read of the base alone: n, the
    degree-n objects, and per degree-n object r the maps g into r in
    morphism order, which of them have degree below n, and per
    isomorphism th out of r its codomain, th and the composites th g."""
    objs_n = [r for r in range(len(cat.objects)) if data.degree[r] == n]
    gluings = []
    for r in objs_n:
        isos = [(r2, th) for r2 in objs_n for th in cat.isos(r, r2)]
        cols = [th - cat.out_of(r).start for _, th in isos]
        into = np.flatnonzero(cat.codomain == r)
        then = np.vstack([cat.composition[(s, r)][:, cols] for s in range(len(cat.objects))])
        isos = [(r2, th, then[:, j]) for j, (r2, th) in enumerate(isos)]
        gluings.append((r, into, cat.image_size[into] < n, isos))
    return n, objs_n, gluings


def _cell_squares(
    chunk: _Chunk, n: int, objs_n: list[int], gluings: list, L: list[Latching], degrees: list
) -> list[CellSquareReport | ViolatedLaw]:
    """The degree-n cell square of each part of a chunk, given the base's
    gluing plan, the chunk's latching outcome at each object r, read at
    the degree-n objects objs_n, and each part's EZ degrees."""
    cat, levels, values, start = chunk.base, chunk.levels, chunk.values, chunk.start
    n_parts, (n_obj, n_maps) = len(levels), (len(cat.objects), len(cat.domain))
    dom, cod = cat.domain, cat.codomain
    n_classes = np.zeros((n_parts, n_obj), np.int64)
    n_classes[:, objs_n] = np.transpose([np.diff(L[r].class_start) for r in objs_n])
    # class c of part p at a degree-n object r has value latch[latch_start[r, p] + c]
    latch_start = _segments(n_classes.T.ravel())[0][:-1].reshape(n_obj, n_parts)
    latch = np.concatenate([L[r].latch for r in objs_n]).astype(np.int32)

    # upper-right corner: node ur[p, g] + x is (g, x) of part p, for g into
    # a degree-n object and x in X there; ur_value is its image x.g in X
    in_n = np.zeros(n_obj, bool)
    in_n[objs_n] = True
    G = np.flatnonzero(in_n[cod])
    ur_start, owner, ur_x = _segments(levels[:, cod[G]].ravel())
    ur_part, k = np.divmod(owner, len(G))
    ur_g = G[k]
    ur_value = values[start[ur_part * n_maps + ur_g] + ur_x]
    ur = np.full((n_parts, n_maps), -1, np.int32)
    ur[:, G] = ur_start[:-1].reshape(n_parts, len(G))
    del owner, k, ur_x  # node-sized arrays are freed before the joins

    # upper-left corner: boundary nodes bd[p, g] + x for g of degree below
    # n, representable nodes yo[p, g] + c for the latching classes c at
    # cod g; ul_elem is the upper-right node (g, x), or (g, latch of c),
    # each names
    low = G[cat.image_size[G] < n]
    seg_g = np.concatenate([low, G])
    seg_yo = np.arange(len(seg_g)) >= len(low)
    order = np.argsort(dom[seg_g] * 2 + seg_yo, kind="stable")
    sizes = np.where(seg_yo, n_classes[:, cod[seg_g]], levels[:, cod[seg_g]])
    starts, owner, ul_elem = _segments(sizes[:, order].ravel())
    seg_first = np.empty((n_parts, len(seg_g)), np.int32)
    seg_first[:, order] = starts[:-1].reshape(n_parts, len(seg_g))
    bd = np.full((n_parts, n_maps), -1, np.int32)
    bd[:, low] = seg_first[:, : len(low)]
    yo = np.full((n_parts, n_maps), -1, np.int32)
    yo[:, G] = seg_first[:, len(low) :]
    ul_part, k = np.divmod(owner, len(seg_g))
    on_yo, ul_g = seg_yo[order][k], seg_g[order][k]
    c_at = latch_start[cod[ul_g[on_yo]], ul_part[on_yo]]
    ul_elem[on_yo] = latch[c_at + ul_elem[on_yo]]
    ul_elem += ur[ul_part, ul_g]
    del owner, k, on_yo, ul_g, ul_part, c_at

    def nodes(first, p, maps, x):
        """The nodes first[p[e], g] + x[e], a row per e and a column per
        map g: a gather of rows, so that each part's row is read once."""
        return first[:, maps][p] + x[:, None]

    # at each degree-n object, the elements and the latching classes of
    # every part, end to end: each one's part and its index in the part
    elements = {r: _segments(levels[:, r])[1:] for r in objs_n}
    classes = {r: _segments(n_classes[:, r])[1:] for r in objs_n}
    moves = _iso_moves(cat, L, gluings)
    ur_label = np.arange(len(ur_value), dtype=np.int32)
    ul_label = np.arange(len(ul_elem), dtype=np.int32)
    for r, into, g_low, isos in gluings:
        for r2, th, tg in isos:
            # th's action in every part: part p sends x2 to y.  For th the
            # identity, tg is into, so only the entries it moves glue, and
            # it moves no latching class
            p, x2 = elements[r2]
            y = values[start[p * n_maps + th] + x2]
            identity = th == cat.identities[r]
            if identity:
                moved = y != x2
                p, x2, y = p[moved], x2[moved], y[moved]
            ur_label = _join(ur_label, nodes(ur, p, tg, x2), nodes(ur, p, into, y))
            ul_label = _join(
                ul_label, nodes(bd, p, tg[g_low], x2), nodes(bd, p, into[g_low], y)
            )
            if not identity:
                p, c2 = classes[r2]
                ul_label = _join(ul_label, nodes(yo, p, tg, c2), nodes(yo, p, into, moves[th]))
        # glue the two weighted pieces along the boundary-weighted latching
        g = into[g_low]
        p, c = classes[r]
        ul_label = _join(ul_label, nodes(yo, p, g, c), nodes(bd, p, g, L[r].latch))

    ur_roots, ur_class = _classes(ur_label)
    ul_roots, ul_class = _classes(ul_label)
    del ur_label, ul_label
    # each class's part and level, as the key part * n_obj + level
    ur_key = ur_part[ur_roots] * n_obj + dom[ur_g[ur_roots]]
    ul_key = ur_part[ul_elem[ul_roots]] * n_obj + dom[ur_g[ul_elem[ul_roots]]]

    # the four maps of the square on classes, and where they are ill defined
    ur_sknext, right_bad = _class_values(ur_roots, ur_class, ur_value)
    ul_sk, sk_bad = _class_values(ul_roots, ul_class, ur_value[ul_elem])
    ul_ur, ur_bad = _class_values(ul_roots, ul_class, ur_class[ul_elem])
    square = ur_sknext[ul_ur] != ul_sk

    # sk_{n+1} is the set pushout of sk_n and the upper-right classes along
    # the upper-left ones that land in sk_n (one that does not breaks
    # skeleton-landing below): the nodes are the elements of sk_n, all
    # parts and levels end to end, then the upper-right classes
    x_start, x_key, x_local = _segments(levels.ravel())
    x_degree = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(degrees)),
        np.int64,
        len(x_key),
    )
    in_sk = x_degree < n
    sk_node = np.cumsum(in_sk) - 1
    n_sk = int(in_sk.sum())
    ul_x = x_start[ul_key] + ul_sk
    lands = in_sk[ul_x]
    po_roots, po_class = _classes(
        _join(np.arange(n_sk + len(ur_roots)), sk_node[ul_x[lands]], n_sk + ul_ur[lands])
    )
    po_values, po_bad = _class_values(
        po_roots, po_class, np.concatenate([x_local[in_sk], ur_sknext])
    )
    po_key = np.concatenate([x_key[in_sk], ur_key])[po_roots].astype(np.int64)

    def per_level(keys):
        return np.bincount(keys, minlength=n_parts * n_obj).reshape(n_parts, n_obj)

    def any_per_part(keys, flags):
        return np.bincount(keys // n_obj, weights=flags, minlength=n_parts) > 0

    left_off = per_level(ul_key[~lands])
    right_off = per_level(ur_key[x_degree[x_start[ur_key] + ur_sknext] > n])
    # a pushout when the classes take distinct values, which fill sk_{n+1}
    width = max(len(x_key), 1)
    distinct = _distinct(po_key * width + po_values) // width
    pushout_off = (per_level(po_key) != per_level(distinct)) | (
        per_level(distinct) != per_level(x_key[x_degree <= n])
    )
    mono_off = per_level(ul_key) != per_level(ur_key[_distinct(ul_ur)])
    not_commuting = any_per_part(ul_key, sk_bad | ur_bad | square) | any_per_part(
        ur_key, right_bad
    )
    not_pushout = any_per_part(po_key, po_bad) | pushout_off.any(1)
    # each part's first level where a leg leaves its skeleton, if any
    off = (left_off | right_off) > 0
    landing, level = off.any(1).tolist(), off.argmax(1)
    left = left_off[np.arange(n_parts), level].tolist()
    commutes, pushout = (~not_commuting).tolist(), (~not_pushout).tolist()
    mono = (~mono_off.any(1)).tolist()
    return [
        ViolatedLaw("skeleton-landing", (n, s, "left" if left[p] else "right"))
        if landing[p]
        else CellSquareReport(commutes[p], pushout[p], mono[p])
        for p, s in enumerate(level.tolist())
    ]


def _iso_moves(cat: FinCategory, L: list[Latching], gluings: list) -> dict[int, np.ndarray]:
    """Latching classes moved along precomposition with each iso
    th: r -> r2 of a gluing plan, in every part of a chunk at once, given
    the chunk's latching outcome at each object: a class of r2, by its
    least node (e2, x2), goes to the class of (th then e2, x2) at r in its
    part.  Keyed by th, the classes of r2 part after part, each named as
    a class of its part; an identity moves every class to itself and has
    no key."""
    # classes are numbered by least node: the running maximum of the
    # classes first reaches c at the least node of c
    peak = {r: np.maximum.accumulate(L[r].node_class) for r, *_ in gluings}
    least = {r: L[r].pairs(np.searchsorted(m, np.arange(len(L[r].latch)))) for r, m in peak.items()}
    moves = {}
    for r, _, _, isos in gluings:
        at_r, out = L[r], cat.out_of(r)
        for r2, th, _ in isos:
            if th == cat.identities[r]:
                continue
            k, e2, x2 = least[r2]
            then = cat.row(th) - out.start  # th then e2, by e2
            node = at_r.first_node[k, then[e2]] + x2
            moves[th] = at_r.node_class[node] - at_r.class_start[k]
    return moves


def skeleton_chain_report(
    X: FinPresheaf, data: ReedyData, degrees: list[list[int]]
):
    """sk^0 is empty and the chain of skeleta unions to X, given the EZ
    degrees of X.  The skeleta grow by construction, each keeping the
    elements below a larger degree, so their sizes are counted from one
    pass over the degrees: sk^n holds the elements of each degree below n."""
    maxdeg = max(data.degree) if data.degree else 0
    count = Counter(itertools.chain.from_iterable(degrees))
    sizes = [sum(k for d, k in count.items() if d < n) for n in range(maxdeg + 2)]
    return sizes[0] == 0 and sizes[-1] == X.total_size(), sizes


# ---------------------------------------------------------------------------
# presheaf constructions for the corpus
# ---------------------------------------------------------------------------


def empty_presheaf(cat: FinCategory) -> FinPresheaf:
    return FinPresheaf(cat, (0,) * len(cat.objects), np.zeros(0, np.int32))


def terminal_presheaf(cat: FinCategory) -> FinPresheaf:
    return FinPresheaf(cat, (1,) * len(cat.objects), np.zeros(len(cat.domain), np.int32))


def coproduct_presheaf(parts: list[FinPresheaf]) -> FinPresheaf:
    """The levelwise disjoint union, the parts in order: at each object a
    part's elements follow those of the parts before it."""
    if not parts:
        raise InvalidInput("a coproduct of presheaves needs at least one part")
    return _Chunk.of(parts[0].base, parts).coproduct()


def quotient_presheaf(
    X: FinPresheaf, pairs
) -> tuple[FinPresheaf, PresheafMorphism]:
    """Quotient by the presheaf congruence generated by the given pairs
    ((object, i, j) triples), closing under every restriction: the
    one-draw case of _quotients.  Raises ViolatedLaw('naturality') where
    the projection is not natural, which a functor X never gives."""
    r, i, j = np.asarray(pairs, np.int64).reshape(-1, 3).T
    pairs = np.stack([np.zeros_like(r), r, i, j], 1)
    levels, values, _, comp = _quotients(X, np.array([X.levels], np.int64), pairs)
    Q = FinPresheaf(X.base, tuple(levels[0].tolist()), values)
    comp, bounds = comp.tolist(), [0, *itertools.accumulate(X.levels)]
    components = tuple(tuple(comp[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return Q, PresheafMorphism(X, Q, components)


def _quotients(X: FinPresheaf, levels: np.ndarray, pairs: np.ndarray):
    """The quotients of the draws that X is the coproduct of, each by the
    presheaf congruence that its own pairs generate: levels holds the
    levels of each draw, a row each in X's order, and pairs the rows
    (draw, object, i, j), i and j numbered in the draw.  Returns the
    quotients' levels, a row per draw, their values end to end, draw
    after draw, where each draw's values start (the total last), and the
    projection: each element of X's class, numbered in its draw and level.

    The elements of X are numbered level by level, draw after draw, and
    each is labelled by the least element of its class.  The congruence
    is the equivalence generated by the pairs, then by the restrictions
    of each element and the least of its class along every map.  That is
    closed already: the restriction along h of a pair restricted along f
    is the pair restricted along f h, as X is a functor.  Pairs and
    restrictions stay in their draw, so no class crosses draws, and
    classes, numbered by least element, give each draw's classes at a
    level as one run in the order its quotient alone gives them.

    The projection is checked here, from this layout, as
    PresheafMorphism.validate would: every element has one component, by
    construction; each is a class of its element's draw and level
    (range); and each entry (f, x) sends the class of x to that of x.f
    (naturality).  The first draw that fails raises ViolatedLaw at its
    first failure, as quotienting that draw alone would."""
    cat, (n_draws, n_obj) = X.base, levels.shape
    x_start = _segments(np.asarray(X.levels, np.int64))[0]
    # each element's segment (level * n_draws + draw) and index in it
    seg_start, seg, in_seg = _segments(levels.T.ravel())
    start = _start(cat, X.levels)
    # each entry of the values as two elements: v, which its map
    # restricts, shift[e] elements on from the entry e, and the restriction u
    sizes = np.diff(start)
    shift = np.repeat(x_start[cat.codomain] - start[:-1], sizes)
    v = np.arange(len(shift), dtype=np.int32) + shift
    u = np.repeat(x_start[cat.domain], sizes) + X.values
    d, r, i, j = np.asarray(pairs, np.int64).reshape(-1, 4).T
    at = seg_start[r * n_draws + d]
    label = _join(np.arange(x_start[-1], dtype=np.int32), at + i, at + j)
    # the entry of the least element of v's class is label[v] - shift, and
    # only the entries whose v is not that element glue anything
    least = label[v]
    moved = np.flatnonzero(least != v)
    label = _join(label, u[moved], u[least[moved] - shift[moved]])
    roots, node_class = _classes(label)
    counts = np.bincount(seg[roots], minlength=n_obj * n_draws)
    class_start = _segments(counts)[0]
    comp = (node_class - class_start[seg]).astype(np.int32)
    bad = (comp < 0) | (comp >= counts[seg])
    if bad.any():
        raise ViolatedLaw("range", (int(seg[bad.argmax()] // n_draws),))
    # the action on a class is the action on its least element, so the
    # projection is natural when each other element restricts as it does
    least = label[v]
    own = least == v
    moved = np.flatnonzero(~own)
    bad = label[u[moved]] != label[u[least[moved] - shift[moved]]]
    if bad.any():
        draw = seg[v[moved[bad]]] % n_draws
        p = moved[bad][draw == draw.min()][0]
        f = int(np.searchsorted(start, p, "right")) - 1
        raise ViolatedLaw("naturality", (cat.ref(f), int(in_seg[v[p]])))
    # the entries of least elements, map after map, then draw after draw
    # and class after class, reordered draw after draw
    values = comp[u[own]]
    if n_draws > 1:
        values = values[np.argsort(seg[v[own]] % n_draws, kind="stable")]
    q_levels = counts.reshape(n_obj, n_draws).T
    q_start = _segments(q_levels[:, cat.codomain].sum(1))[0]
    return q_levels, values, q_start, comp


def span_pushout_of_representables(cat: FinCategory, e0: int, e1: int) -> FinPresheaf:
    """Levelwise pushout yo(B0) + yo(B1) over yo(A) for a span out of A;
    the two copies are glued along all composites with the span legs.
    Raises ViolatedLaw 'span-apex' when the legs leave different objects."""
    a = cat.dom(e0)
    if cat.dom(e1) != a:
        raise ViolatedLaw("span-apex", (cat.ref(e0), cat.ref(e1)))
    b0, b1 = cat.cod(e0), cat.cod(e1)
    Y0, Y1 = representable(cat, b0), representable(cat, b1)
    X = coproduct_presheaf([Y0, Y1])
    pairs = []
    for s in range(len(cat.objects)):
        # Y1's elements follow Y0's at each level of the coproduct
        lo0, lo1 = cat.refs(s, b0).start, cat.refs(s, b1).start - Y0.levels[s]
        for f in cat.refs(s, a):
            pairs.append((s, cat.compose(f, e0) - lo0, cat.compose(f, e1) - lo1))
    Q, _ = quotient_presheaf(X, pairs)
    return Q


def non_reedy_mono_example() -> tuple[FinCategory, ReedyData, list, FinPresheaf]:
    """A base category and presheaf on which the Reedy-mono criteria all
    fail, with agreement.

    Over truncations at size <= 3 every object is perfectly presentable
    and the truncated category is elegant; the size-4 truncation holds
    two objects that are not (the tripod among them) but is elegant all
    the same, as checked directly.  Consequently every presheaf over
    these truncations is Reedy monomorphic; failures first occur once a
    non-projective object admits a cover inside the category.  The
    smallest such pair is the 3-atom tripod under its pinched 5-element
    cover; gluing two copies of the tripod's representable along that
    cover produces an element with two non-isomorphic EZ decompositions.
    """
    from .reedy import quotient_closure, reedy_category_on
    from .semilattice import pinched_tripod_cover

    A5, e = pinched_tripod_cover()
    objects = quotient_closure([A5])
    cat, data, squares = reedy_category_on(objects)
    a5 = cat.object_of(A5)
    t = cat.object_of(e.cod)
    from .semilattice import find_isomorphism

    iso_a = find_isomorphism(A5, cat.objects[a5])
    iso_t = find_isomorphism(e.cod, cat.objects[t])
    e_in_cat = cat.find(a5, t, iso_a.inverse().then(e).then(iso_t))
    X = span_pushout_of_representables(cat, e_in_cat, e_in_cat)
    return cat, data, squares, X


def enumerate_presheaves(cat: FinCategory, max_level: int) -> Corpus:
    """Exhaustive functor enumeration, as a Corpus; practical only for
    very small categories such as the size-2 truncation.  The candidates
    of one levels tuple, every assignment of the actions of the maps that
    are not identities, are one array with a row each, and their
    functoriality is checked all at once."""
    free = np.ones(len(cat.domain), bool)
    free[list(cat.identities)] = False
    maps, out = np.flatnonzero(free).tolist(), []
    for levels in itertools.product(range(max_level + 1), repeat=len(cat.objects)):
        _, owner, x = _layout(cat, levels)
        spaces = [
            itertools.product(range(levels[cat.dom(f)]), repeat=levels[cat.cod(f)]) for f in maps
        ]
        combos = list(itertools.product(*spaces))
        # an identity acts as the identity
        values = np.tile(x.astype(np.int32), (len(combos), 1))
        entries = free[owner]
        shape = (len(combos), int(entries.sum()))
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(combos))
        values[:, entries] = np.fromiter(flat, np.int32, shape[0] * shape[1]).reshape(shape)
        ok = np.ones(len(combos), bool)
        for _, _, _, bad in _functoriality(cat, levels, values):
            ok &= ~bad.any((1, 2))
        out += [FinPresheaf(cat, levels, row) for row in values[ok]]
    return Corpus.of(cat, out)


def seeded_corpus(cat: FinCategory, data: ReedyData, seed: int, count: int) -> Corpus:
    """The Corpus of a fixed designed family (representables,
    automorphism quotients, terminal, empty, span pushouts) followed by
    `count` reproducible random quotients of coproducts of one or two
    representables, each glued at up to three pairs of elements.

    Every random choice is drawn first, a draw's levels being the sums of
    its parts' levels.  The draws are then quotiented in batches that
    kernel.chunks cuts over their action entries: one _quotients pass per
    batch, on the coproduct of all its parts, each draw's pairs numbered
    in the draw.  A draw without pairs comes out as its coproduct."""
    rng = random.Random(seed)
    n_obj = len(cat.objects)
    # each representable is built once; the draws below index this list
    representables = [representable(cat, r) for r in range(n_obj)]
    corpus: list[FinPresheaf] = list(representables)
    for r in range(n_obj):
        auts = cat.isos(r, r)
        if len(auts) > 1:
            Q, _ = autquo(cat, r, auts)
            corpus.append(Q)
    corpus.append(terminal_presheaf(cat))
    corpus.append(empty_presheaf(cat))
    for sq_e0, sq_e1 in _some_spans(cat, data):
        corpus.append(span_pushout_of_representables(cat, sq_e0, sq_e1))
    draws, levels, pairs = [], [], []  # per draw; (draw, object, i, j)
    for k in range(count):
        draws.append([rng.randrange(n_obj) for _ in range(rng.randint(1, 2))])
        levels.append([sum(representables[p].levels[r] for p in draws[k]) for r in range(n_obj)])
        n_glue = rng.randint(0, 3)
        candidates = [r for r in range(n_obj) if levels[k][r] >= 2]
        for _ in range(n_glue if candidates else 0):
            r = rng.choice(candidates)
            i = rng.randrange(levels[k][r])
            j = rng.randrange(levels[k][r])
            if i != j:
                pairs.append((k, r, i, j))
    pairs = np.array(pairs, np.int64).reshape(-1, 4)
    sizes = [sum(len(representables[p].values) for p in parts) for parts in draws]
    for batch in chunks(sizes):
        X = coproduct_presheaf([representables[p] for k in batch for p in draws[k]])
        glued = pairs[(pairs[:, 0] >= batch.start) & (pairs[:, 0] < batch.stop)]
        q_levels, values, start, _ = _quotients(
            X, np.array(levels[batch.start : batch.stop], np.int64), glued - [batch.start, 0, 0, 0]
        )
        for row, lo, hi in zip(q_levels.tolist(), start, start[1:]):
            corpus.append(FinPresheaf(cat, tuple(row), values[lo:hi]))
    return Corpus.of(cat, corpus)


def _some_spans(cat: FinCategory, data: ReedyData):
    """The first six strictly lowering spans, from the last object back."""
    out = []
    for r in range(len(cat.objects) - 1, -1, -1):
        lows = strictly_lowering_out_of(cat, data, r)
        for i, e0 in enumerate(lows):
            for e1 in lows[i:]:
                out.append((e0, e1))
                if len(out) == 6:
                    return out
    return out
