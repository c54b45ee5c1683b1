"""The (surjective, mono) Reedy structure on finite inhabited semilattices.

Builds explicit truncated categories (one object per isomorphism class up
to a size cap, full hom lists, composition tables) and certifies the Reedy
axioms, the cancellation laws, and pre-elegance on them exhaustively.
The squares of a category are read off its composition table: the set
pushout's kernel on the apex, glued by kernel._join, names a lowering
map out of it, whose codomain is the carrier, so the join is that
object's.  pushout_via_congruence is the independent route that the
certificate compares them with: the apex modulo the least congruence
containing both kernels, built from its closed elements by
semilattice.quotient_by_pairs.

The universal property of a square is, by Yoneda, the statement that
every representable y(c) sends it to a pullback, and lowering maps being
epi is its injective half; both are read off the composition table's
rows by kernel.square_pullbacks and kernel.lowering_epi_scan, and the
Reedy axioms off whole table blocks by the other kernel scans.  Those
scans, verify_pushout_universal among them, hand their failures in
batches to certificates.scan_batches and build no Check themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .certificates import FAIL, Check, scan, scan_batches
from .errors import NotSurjective, SizeBudget, ViolatedLaw
from .semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FiniteSemilattice,
    SLatMorphism,
    all_semilattices_upto,
    canonical_form,
    enumerate_homs,
    quotient_by_closed,
    quotient_by_pairs,
)

# A morphism reference, as witnesses print it: (dom index, cod index, hom index)
MorphRef = tuple[int, int, int]
# A lowering pushout square of a category: the ids of e0, e1, f0 and f1
Square = tuple[int, int, int, int]


@dataclass(eq=False)
class FinCategory:
    """An explicit finite category of semilattices with a dense integer
    composition table.  It equals only itself and hashes by identity, so
    the suites can key the inputs they build over it.

    Inside the library a morphism is its id, its position in morphism
    order ((a, b, k) lexicographic, for the k-th map of Hom(a, b)), so the
    maps of one hom-set, and those out of one object, have consecutive ids.
    ref(f) gives the (a, b, k) MorphRef that witnesses print.
    composition[(a, b)] is an int32 array with a row per map of Hom(a, b)
    and a column per map out of b, in morphism order: entry [i, j] is the
    id of the j-th map out of b after the i-th map of Hom(a, b).  The
    blocks in (a, b) order, each read row by row, walk the composable
    pairs (f, g): f in morphism order, then g in morphism order among the
    maps out of f's codomain.
    """

    objects: tuple[FiniteSemilattice, ...]
    homs: dict[tuple[int, int], list[SLatMorphism]]
    composition: dict[tuple[int, int], "numpy.ndarray"]
    identities: tuple[int, ...]

    def hom(self, a: int, b: int) -> list[SLatMorphism]:
        return self.homs[(a, b)]

    def mor(self, f: int) -> SLatMorphism:
        a, b, k = self._by_id[f]
        return self.homs[(a, b)][k]

    def ref(self, f: int) -> MorphRef:
        return self._by_id[f]

    def dom(self, f: int) -> int:
        return self._by_id[f][0]

    def cod(self, f: int) -> int:
        return self._by_id[f][1]

    def row(self, f: int) -> "numpy.ndarray":
        """f's row of the table: the ids of g after f for every map g out
        of f's codomain, in morphism order."""
        a, b, k = self._by_id[f]
        return self.composition[(a, b)][k]

    def compose(self, f: int, g: int) -> int:
        """g after f; f: a -> b, g: b -> c."""
        return self._rows[f][self._column[g]]

    def refs(self, a: int, b: int) -> range:
        """The ids of Hom(a, b), in hom order."""
        return range(self._first[a][b], self._first[a][b + 1])

    def out_of(self, a: int) -> range:
        """The ids of the maps with domain a, in morphism order."""
        return range(self._first[a][0], self._first[a][-1])

    def columns(self, b: int, c: int) -> slice:
        """The columns of Hom(b, c) in the blocks composition[(a, b)]: the
        positions of its maps among the maps out of b."""
        row = self._first[b]
        return slice(row[c] - row[0], row[c + 1] - row[0])

    def morphisms(self) -> range:
        return range(len(self._by_id))

    def find(self, a: int, b: int, f: SLatMorphism) -> int:
        return self._first[a][b] + self._index[(a, b)][f.map]

    @cached_property
    def _index(self) -> dict:
        return {
            key: {f.map: k for k, f in enumerate(fs)}
            for key, fs in self.homs.items()
        }

    @cached_property
    def _first(self) -> tuple[tuple[int, ...], ...]:
        """_first[a][b] is the id of the first map of Hom(a, b); _first[a][n]
        is one past the last map out of a."""
        n, k, out = len(self.objects), 0, []
        for a in range(n):
            row = []
            for b in range(n):
                row.append(k)
                k += len(self.homs[(a, b)])
            out.append((*row, k))
        return tuple(out)

    @cached_property
    def _by_id(self) -> tuple[MorphRef, ...]:
        return tuple(
            (a, b, k)
            for a in range(len(self.objects))
            for b in range(len(self.objects))
            for k in range(len(self.homs[(a, b)]))
        )

    @cached_property
    def _column(self) -> tuple[int, ...]:
        """The column of each map, by id: its position among the maps out
        of its domain."""
        return tuple(f - self._first[a][0] for f, (a, _, _) in enumerate(self._by_id))

    @cached_property
    def _rows(self) -> list[memoryview]:
        """The table's rows by id, as memoryviews, which index to plain ints."""
        n = len(self.objects)
        blocks = (self.composition[(a, b)] for a in range(n) for b in range(n))
        return [memoryview(row) for block in blocks for row in block]

    # id-indexed arrays for the presheaf layer's numpy routes

    @cached_property
    def domain(self) -> "numpy.ndarray":
        """The domain of each morphism, by id."""
        import numpy as np

        return np.array([a for a, _, _ in self._by_id], np.int64)

    @cached_property
    def codomain(self) -> "numpy.ndarray":
        """The codomain of each morphism, by id."""
        import numpy as np

        return np.array([b for _, b, _ in self._by_id], np.int64)

    @cached_property
    def image_size(self) -> "numpy.ndarray":
        """The size of each morphism's image, by id: the degree of the
        middle object of its (surjective, mono) factorization."""
        import numpy as np

        return np.array([len(set(self.mor(f).map)) for f in self.morphisms()], np.int64)

    @cached_property
    def generators(self) -> "numpy.ndarray | ViolatedLaw":
        """The non-identity isos and elementary maps, a mask by id, or the
        ViolatedLaw('generation') of the first map their composites miss:
        see kernel.generators."""
        from .kernel import generators

        return generators(self)

    def is_identity(self, f: int) -> bool:
        return f == self.identities[self.dom(f)]

    def isos(self, a: int, b: int) -> list[int]:
        return [f for f, m in zip(self.refs(a, b), self.hom(a, b)) if m.is_iso]

    def object_of(self, A: FiniteSemilattice) -> int | None:
        return self._by_canonical_form.get(canonical_form(A))

    @cached_property
    def _by_canonical_form(self) -> dict:
        """Object index by canonical form; the first object of a class wins."""
        index: dict = {}
        for i, O in enumerate(self.objects):
            index.setdefault(canonical_form(O), i)
        return index

    @staticmethod
    def from_objects(
        objects, budget: int = DEFAULT_CANDIDATE_BUDGET
    ) -> "FinCategory":
        """Full subcategory on the objects.  Raises SizeBudget before the
        table is filled when the composable pairs exceed the budget."""
        from .kernel import fill_composition

        objects = tuple(objects)
        cat = FinCategory(objects, _hom_sets(objects, budget), {}, ())
        fill_composition(cat)
        cat.identities = tuple(
            cat.refs(a, a).start + cat._index[(a, a)][tuple(range(A.size))]
            for a, A in enumerate(objects)
        )
        return cat


def _hom_sets(objects, budget: int) -> dict[tuple[int, int], list[SLatMorphism]]:
    """Every hom-set, in (a, b) order.  Raises SizeBudget before any
    enumeration when a lower bound on the composable pairs exceeds the
    budget: Hom(a, b) holds at least the |b| constant maps, so there are
    at least n (sum of |b|)^2 pairs among n objects.  Otherwise raises it
    as soon as the composable pairs among the hom-sets enumerated so far
    exceed the budget; their count only grows, so the rest is never
    enumerated."""
    n = len(objects)
    least = n * sum(B.size for B in objects) ** 2
    if least > budget:
        raise SizeBudget(
            f"at least {least} composable pairs among the {n * n} hom-sets "
            f"exceed budget {budget}"
        )
    homs: dict[tuple[int, int], list[SLatMorphism]] = {}
    into, out = [0] * n, [0] * n  # maps enumerated so far into / out of each object
    pairs = 0
    for a, A in enumerate(objects):
        for b, B in enumerate(objects):
            homs[(a, b)] = enumerate_homs(A, B, budget)
            k = len(homs[(a, b)])
            # new pairs: (a, b) then a known map out of b, a known map into
            # a then (a, b), and (a, b) with itself when a == b
            pairs += k * (out[b] + into[a] + (k if a == b else 0))
            out[a] += k
            into[b] += k
            if pairs > budget:
                raise SizeBudget(
                    f"{pairs} composable pairs in the first {len(homs)} of "
                    f"{n * n} hom-sets exceed budget {budget}"
                )
    return homs


@dataclass(eq=False)
class ReedyData:
    """Degrees plus the lowering/raising classification of every morphism:
    boolean arrays by id, and the ids of the lowering maps out of each
    object, in morphism order."""

    degree: tuple[int, ...]
    lowering: "numpy.ndarray"
    raising: "numpy.ndarray"
    lowering_out: tuple[tuple[int, ...], ...]

    @staticmethod
    def of_category(cat: FinCategory) -> "ReedyData":
        """A map is surjective when its image is as large as its codomain,
        and injective when it is as large as its domain."""
        import numpy as np

        degree = tuple(O.size for O in cat.objects)
        size = np.array(degree, np.int64)
        lowering = cat.image_size == size[cat.codomain]
        raising = cat.image_size == size[cat.domain]
        low = lowering.tolist()
        lowering_out = tuple(tuple(f for f in cat.out_of(a) if low[f]) for a in range(len(degree)))
        return ReedyData(degree, lowering, raising, lowering_out)


def pushout_via_congruence(e0: SLatMorphism, e1: SLatMorphism) -> SLatMorphism:
    """Independent pushout route: quotient of the apex by the join of the
    two kernel congruences.  Returns the projection from the apex."""
    if not e0.is_surjective or not e1.is_surjective:
        raise NotSurjective("lowering pushout needs surjective legs")
    A = e0.dom
    pairs = []
    for f in (e0, e1):
        for x in range(A.size):
            for y in range(x + 1, A.size):
                if f.map[x] == f.map[y]:
                    pairs.append((x, y))
    return quotient_by_pairs(A, pairs)


def verify_pushout_universal(cat: FinCategory, squares: list[Square]) -> Check:
    """The universal property of category-resident squares against every
    cocone into the category's objects: a scan over the commuting cocones
    (g0, g1), square by square in the walk order c, g0, g1, with witness
    {cocone, mediating} at the first that does not factor uniquely.

    By Yoneda this says that every representable y(c) sends the square to
    a pullback: the cocones into c are the pullback of y(c)'s actions of e0
    and e1, and the mediating maps of one are its fibre under the actions
    of f0 and f1.  The row of f: a -> b in the table, as positions among
    the maps out of a, is f's action on the sum of all y(c), so
    kernel.square_pullbacks reads the rows of a whole chunk of squares at
    once, each chunk a batch."""
    from .kernel import square_pullbacks

    def action(f):
        return cat.row(f) - cat.out_of(cat.dom(f)).start

    def batches():
        for part, square, y0, y1, mediating in square_pullbacks(cat, squares, action):

            def witness(k):
                e0, e1, _, _ = squares[part[square[k]]]
                g0 = cat.out_of(cat.cod(e0))[y0[k]]
                g1 = cat.out_of(cat.cod(e1))[y1[k]]
                return {
                    "cocone": [list(cat.mor(g0).map), list(cat.mor(g1).map)],
                    "mediating": int(mediating[k]),
                }

            yield mediating != 1, witness

    return scan_batches("pushout-universal-property", batches())


def _kernel(values) -> tuple[int, ...]:
    """The partition a map induces on its domain: each element labelled by
    the least element of its class."""
    values = tuple(values)
    return tuple(map(values.index, values))


def _through(cat: FinCategory, r: int, e: int) -> int | None:
    """The map f with f after r equal to e, read off r's row of the
    table, or None when no column of Hom(cod r, cod e) holds e."""
    b, p = cat.cod(r), cat.cod(e)
    hits = (cat.row(r)[cat.columns(b, p)] == e).nonzero()[0]
    return cat.refs(b, p)[int(hits[0])] if len(hits) else None


def reedy_category_on(
    objects, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> tuple[FinCategory, ReedyData, list[Square]]:
    """Full subcategory on the given semilattices, with Reedy data and
    every lowering pushout square whose carrier lands back among the
    objects (one per unordered span of surjections, spans in morphism
    order per apex).  Raises SizeBudget when the composable pairs exceed
    the budget.

    Each square is read off the composition table.  The set pushout of a
    span (r0, r1) is the quotient of the apex a by the join of the two
    kernels; its cocone map e is the first lowering map out of a, in
    morphism order, with that kernel, so the carrier is e's codomain.  A
    kernel labels each x by the least element of its class, and the joins
    of all the spans out of a are taken in one kernel._join, one run of
    apex nodes per span, each node joined to its label under either leg.
    The legs are the unique maps f0 and f1 with f0 r0 = e = f1 r1, the
    columns of r0's and r1's rows that hold e; so the choice of e fixes
    them.  A kernel that no lowering map out of a realizes, or an e
    missing from either row, raises ViolatedLaw('pushout-closure')."""
    import numpy as np

    from .kernel import _join

    cat = FinCategory.from_objects(objects, budget)
    data = ReedyData.of_category(cat)
    squares: list[Square] = []
    for a, A in enumerate(cat.objects):
        surjs = data.lowering_out[a]
        kernels = [_kernel(cat.mor(e).map) for e in surjs]
        by_kernel: dict = {}
        for e, kernel in zip(surjs, kernels):
            by_kernel.setdefault(kernel, e)
        spans = [(i, j) for i in range(len(surjs)) for j in range(i, len(surjs))]
        start = np.arange(len(spans))[:, None] * A.size
        nodes = start + np.arange(A.size)
        least = np.array(kernels, np.int64).reshape(len(surjs), A.size)
        i, j = np.array(spans, np.int64).reshape(-1, 2).T
        joined = np.stack([start + least[i], start + least[j]])
        label = _join(np.arange(nodes.size), np.stack([nodes, nodes]), joined)
        for (i, j), row in zip(spans, (label.reshape(nodes.shape) - start).tolist()):
            r0, r1 = surjs[i], surjs[j]
            e = by_kernel.get(tuple(row))
            f0 = None if e is None else _through(cat, r0, e)
            f1 = None if e is None else _through(cat, r1, e)
            if f0 is None or f1 is None:
                raise ViolatedLaw("pushout-closure", (cat.ref(r0), cat.ref(r1)))
            squares.append((r0, r1, f0, f1))
    return cat, data, squares


def truncated_semilattice_category(
    N: int, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> tuple[FinCategory, ReedyData, list[Square]]:
    """Skeleton of the inhabited semilattices of size <= N.

    One object per isomorphism class, full homs, composition table, the
    size/surjective/injective Reedy data, and every lowering pushout
    square among the objects (the pushout carrier never outgrows the
    span, so closure is automatic).  Raises SizeBudget when the
    composable pairs exceed the budget (N >= 5 at the default budget).
    """
    return reedy_category_on(all_semilattices_upto(N), budget)


def quotient_closure(seeds) -> list[FiniteSemilattice]:
    """Close a set of semilattices under quotient objects (hence under
    lowering pushouts, which are joint quotients of the span apex).

    The quotients of A are its closed subsets M, one per closure operator
    c (the least element of M above each x), with join c(m v m'), built by
    semilattice.quotient_by_closed.
    Returns one canonical representative per isomorphism class, sorted
    by (size, canonical form)."""
    out: dict = {}
    for A in seeds:
        for r in range(1, A.size + 1):
            for M in itertools.combinations(range(A.size), r):
                q = quotient_by_closed(A, M)
                if q is not None:
                    C = FiniteSemilattice(canonical_form(q.cod))
                    out[(C.size, C.join)] = C
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def certify_reedy_axioms(cat: FinCategory, data: ReedyData) -> list[Check]:
    """Orthogonal factorization system plus degree axioms, exhaustively;
    all but the iso and degree walks are table scans in reedylab.kernel."""
    from .kernel import factorization_scan, free_action_scan, orthogonal_lifting, scan_composable

    morphs, degree, ref = cat.morphisms(), data.degree, cat.ref
    low, high = data.lowering, data.raising
    lowering, raising = low.tolist(), high.tolist()

    def closed_classes(f, g, gf):
        return (low[f] & low[g] & ~low[gf]) | (high[f] & high[g] & ~high[gf])

    def isos_in_both():
        # the cases are the isos, and any non-iso in both classes
        for f in morphs:
            both = lowering[f] and raising[f]
            iso = cat.mor(f).is_iso
            if iso or both:
                yield None if iso and both else {"f": ref(f)}

    def degrees():
        for f in morphs:
            drop = degree[cat.dom(f)] - degree[cat.cod(f)]
            bad = (
                (lowering[f] and drop < 0)
                or (raising[f] and drop > 0)
                or ((lowering[f] or raising[f]) and drop == 0 and not cat.mor(f).is_iso)
            )
            yield {"f": ref(f)} if bad else None

    return [
        scan_composable("classes-closed-under-composition", cat, closed_classes),
        scan("lowering-and-raising-iff-iso", isos_in_both()),
        scan("degree-monotonicity", degrees()),
        factorization_scan(cat, data),
        orthogonal_lifting(cat, low, high),
        free_action_scan(cat, low),
    ]


def certify_cancellation(cat: FinCategory, data: ReedyData) -> list[Check]:
    """gf lowering forces g lowering; gf raising forces f raising; split
    epis are lowering and split monos raising.  All composable pairs, by
    table blocks: kernel.split_scan reads the Hom(b, a) blocks."""

    from .kernel import scan_composable, split_scan

    low, high = data.lowering, data.raising

    def cancel(f, g, gf):
        return (low[gf] & ~low[g]) | (high[gf] & ~high[f])

    return [
        scan_composable("composite-class-cancellation", cat, cancel),
        split_scan(cat, low, high),
    ]


def certify_pre_elegance(
    cat: FinCategory,
    data: ReedyData,
    squares: list[Square],
) -> list[Check]:
    """Closure under lowering pushouts, lowering maps epi, the set-level
    and congruence-quotient pushouts agreeing, and bounded universality.
    A failed closure check is returned alone, as a raised law would be:
    a square whose legs land in two objects has no pushout to check."""
    from .kernel import lowering_epi_scan

    def closure():
        # the carrier is the object both legs land in
        for e0, e1, f0, f1 in squares:
            closed = cat.cod(f0) == cat.cod(f1)
            yield None if closed else {"span": (cat.ref(e0), cat.ref(e1))}

    def set_vs_congruence():
        for e0, e1, f0, _ in squares:
            proj = pushout_via_congruence(cat.mor(e0), cat.mor(e1))
            carrier = cat.objects[cat.cod(f0)].size
            # the two quotients agree as quotients of the apex
            left = map(cat.mor(f0).map.__getitem__, cat.mor(e0).map)
            agree = proj.cod.size == carrier and _kernel(proj.map) == _kernel(left)
            yield None if agree else {"span": (cat.ref(e0), cat.ref(e1))}

    closed = scan("lowering-pushout-closure", closure())
    if closed.status == FAIL:
        return [closed]
    return [
        closed,
        lowering_epi_scan(cat, data.lowering),
        scan("set-pushout-matches-congruence-quotient", set_vs_congruence()),
        verify_pushout_universal(cat, squares),
    ]
