"""Pair-by-pair reference routes for the lowering-pushout squares and
their checks.

`lowering_pushout` builds the pushout of a span of surjections as a new
semilattice: the set pushout of the legs, with the join induced from
same-leg representatives.  `lowering_pushout_squares` is the per-span
route `reedy_category_on` took before it read each square off the
composition table: build that pushout, find its object by canonical
form, and compose both legs with an isomorphism onto that object.  The other walks
are what `verify_pushout_universal`, the `lowering-maps-are-epi` check
and the `relative-elegance` sweep made before they moved onto the
pullback fibres of the composition table: one `compose` call per
composite, and one hom-set enumeration per corner of every square.

They live here only so that the tests can compare the two routes check
by check, on passing and on failing inputs.

The union-find routes are here too.  `UnionFind` and `descend` glued the
set pushouts and pushed maps down to their classes before
`kernel._join` became the package's one union-find; the presheaf
references use them as well.  `quotient_by_pairs` is the congruence
route that saturated a union-find under joins before it read the least
congruence off its closed elements.  `hom_preserves_lowering_pushout`
is the general per-square decision, on a `LoweringPushoutSquare` of four
validated maps, that decided the codiagonal squares of the elegant-core
suite and named the failing side of the relative-elegance sweep.

`enumerate_surjections` is the whole hom-set filter; `quotient_closure`
ran it, stopped at the first surjection, against every smaller class
before it read the quotients off the closed subsets of each seed.
`enumerate_semilattices` is the relation filter that enumerated the
classes of one size before they were grown by one-point extensions.

The Reedy-axiom routes below are what `certify_reedy_axioms` and
`certify_cancellation` ran before they read whole blocks of the table:
`orthogonal_lifting_blocks` builds the full u x v product of every
(a, b, c, d) block, and the other three walk morphism by morphism with
one `compose` call per composite.
"""

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from reedylab.certificates import FAIL, Check, scan, verdict
from reedylab.errors import InvalidInput, NotSurjective, SizeBudget, ViolatedLaw
from reedylab.semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FiniteSemilattice,
    JoinTable,
    SLatMorphism,
    canonical_form,
    enumerate_homs,
    find_isomorphism,
    validate_semilattice,
)


class UnionFind:
    """Disjoint sets over comparable keys; a class's root is its least key."""

    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[max(rx, ry)] = min(rx, ry)
        return True

    def classes(self) -> list[list]:
        """The classes as sorted key lists, ordered by root."""
        buckets: dict = {}
        for k in self.parent:
            buckets.setdefault(self.find(k), []).append(k)
        return [sorted(buckets[r]) for r in sorted(buckets)]

    def partition(self) -> tuple[list[list], dict]:
        """classes() and the index of each key's class in that list."""
        classes = self.classes()
        return classes, {k: i for i, cls in enumerate(classes) for k in cls}


def descend(classes, value) -> tuple[list, list[int]]:
    """Push `value` down to a quotient: values[i] is the least value it
    takes on classes[i], and bad lists, in class order, the indices of the
    classes on which it is not constant (where the induced map is
    ill-defined)."""
    values, bad = [], []
    for i, cls in enumerate(classes):
        seen = set(map(value, cls))
        values.append(min(seen))
        if len(seen) != 1:
            bad.append(i)
    return values, bad


@dataclass
class LoweringPushoutSquare:
    """A commuting square of surjections universal among its cocones, for
    squares outside a category; a category's squares are Square tuples."""

    e0: SLatMorphism
    e1: SLatMorphism
    f0: SLatMorphism
    f1: SLatMorphism

    def __post_init__(self):
        e0, e1, f0, f1 = self.e0, self.e1, self.f0, self.f1
        shared = ((e0.dom, e1.dom), (e0.cod, f0.dom), (e1.cod, f1.dom), (f0.cod, f1.cod))
        for k, (A, B) in enumerate(shared):
            if A != B:
                raise ViolatedLaw("square-shape", (k,))
        for x, (v0, v1) in enumerate(zip(e0.map, e1.map)):
            if f0.map[v0] != f1.map[v1]:
                raise ViolatedLaw("square-commutativity", (x,))

    @property
    def apex(self) -> FiniteSemilattice:
        return self.e0.dom

    @property
    def carrier(self) -> FiniteSemilattice:
        return self.f0.cod


def enumerate_surjections(A, B):
    return [f for f in enumerate_homs(A, B) if f.is_surjective]


def enumerate_semilattices(n: int) -> list[FiniteSemilattice]:
    """All inhabited join-semilattices of size n <= 6, one per iso class.

    Enumerates partial orders compatible with the integer order (every
    class has a linear extension, so all classes appear), keeps those in
    which every pair has a least upper bound, and dedupes by canonical
    form.  Sorted by canonical join table.
    """
    if n > 6:
        raise SizeBudget("semilattice enumeration capped at size 6")
    if n < 1:
        raise InvalidInput(f"semilattices need n >= 1 elements, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: dict[JoinTable, FiniteSemilattice] = {}
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(pairs, bits):
            if b:
                leq[i][j] = True
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i][j]:
                    for k in range(j + 1, n):
                        if leq[j][k] and not leq[i][k]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                ups = [k for k in range(n) if leq[i][k] and leq[j][k]]
                if not ups:
                    ok = False
                    break
                least = [u for u in ups if all(leq[u][v] for v in ups)]
                if len(least) != 1:
                    ok = False
                    break
                table[i][j] = least[0]
            if not ok:
                break
        if not ok:
            continue
        A = validate_semilattice(table)
        cf = canonical_form(A)
        if cf not in seen:
            seen[cf] = FiniteSemilattice(cf)
    return [seen[cf] for cf in sorted(seen)]


def lowering_pushout(e0: SLatMorphism, e1: SLatMorphism) -> LoweringPushoutSquare:
    """Pushout of a span of surjections, computed on underlying sets.

    The carrier is the set pushout of the legs; the join is induced from
    same-leg representatives.  That it is well defined is exactly the fact
    that forgetting to sets preserves surjective pushouts; a class pair on
    which it is not raises ViolatedLaw('well-definedness', (i, j)).
    """
    if not e0.is_surjective or not e1.is_surjective:
        raise NotSurjective("lowering pushout needs surjective legs")
    if e0.dom != e1.dom:
        raise ViolatedLaw("span-apex", ())
    A, B0, B1 = e0.dom, e0.cod, e1.cod
    n0, n1 = B0.size, B1.size
    uf = UnionFind(range(n0 + n1))
    for a in range(A.size):
        uf.union(e0.map[a], n0 + e1.map[a])
    classes, cls = uf.partition()
    k = len(classes)
    members0 = [[x for x in c if x < n0] for c in classes]
    members1 = [[x - n0 for x in c if x >= n0] for c in classes]
    for i in range(k):
        if not (members0[i] and members1[i]):
            raise ViolatedLaw("pushout-leg-reach", (i,))
    # per class pair (i, j), the joins of its same-leg members as union keys
    joins = [
        [B0.join[x][y] for x in members0[i] for y in members0[j]]
        + [n0 + B1.join[u][v] for u in members1[i] for v in members1[j]]
        for i in range(k)
        for j in range(k)
    ]
    flat, bad = descend(joins, cls.__getitem__)
    if bad:
        raise ViolatedLaw("well-definedness", divmod(bad[0], k))
    table = [flat[i * k : (i + 1) * k] for i in range(k)]
    P = validate_semilattice(table)
    f0 = SLatMorphism(B0, P, tuple(cls[x] for x in range(n0)))
    f1 = SLatMorphism(B1, P, tuple(cls[n0 + y] for y in range(n1)))
    return LoweringPushoutSquare(e0, e1, f0, f1)


def quotient_by_pairs(A: FiniteSemilattice, pairs) -> SLatMorphism:
    """Projection onto A modulo the least join-compatible equivalence
    containing the given pairs (union-find plus join saturation).
    """
    n = A.size
    uf = UnionFind(range(n))
    for x, y in pairs:
        uf.union(x, y)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if uf.find(x) == uf.find(y):
                    for z in range(n):
                        if uf.union(A.join[x][z], A.join[y][z]):
                            changed = True
    members, cls = uf.partition()
    k = len(members)
    # the joins of the members of classes i and j must share one class
    joins = [[A.join[x][y] for x in mi for y in mj] for mi in members for mj in members]
    flat, bad = descend(joins, cls.__getitem__)
    if bad:
        raise ViolatedLaw("well-definedness", divmod(bad[0], k))
    table = [flat[i * k : (i + 1) * k] for i in range(k)]
    Q = validate_semilattice(table)
    return SLatMorphism(A, Q, tuple(cls[x] for x in range(n)))


def lowering_pushout_squares(cat, data) -> list:
    """One square per unordered span of lowering maps out of each apex, in
    the walk order of reedy_category_on, each built by lowering_pushout
    and carried onto its object by find_isomorphism: the ids of its maps."""
    squares = []
    for a in range(len(cat.objects)):
        surjs = data.lowering_out[a]
        for i, r0 in enumerate(surjs):
            for r1 in surjs[i:]:
                square = lowering_pushout(cat.mor(r0), cat.mor(r1))
                p = cat.object_of(square.carrier)
                if p is None:
                    raise ViolatedLaw("pushout-closure", (cat.ref(r0), cat.ref(r1)))
                iso = find_isomorphism(square.carrier, cat.objects[p])
                f0 = cat.find(cat.cod(r0), p, square.f0.then(iso))
                f1 = cat.find(cat.cod(r1), p, square.f1.then(iso))
                squares.append((r0, r1, f0, f1))
    return squares


def verify_pushout_universal(cat, square) -> list:
    """One entry per commuting cocone (g0, g1) of a category-resident
    square into the category's objects, in the walk order c, g0, g1: None
    when it factors uniquely through the square's carrier and a witness
    when it does not."""
    e0, e1, f0, f1 = square
    witnesses = []
    for c in range(len(cat.objects)):
        g0s, g1s, hs = (cat.refs(cat.cod(s), c) for s in (e0, e1, f0))
        through = [(cat.compose(f0, h), cat.compose(f1, h)) for h in hs]
        for g0 in g0s:
            left = cat.compose(e0, g0)
            for g1 in g1s:
                if cat.compose(e1, g1) != left:
                    continue
                mediating = through.count((g0, g1))
                witnesses.append(
                    None if mediating == 1 else {
                        "cocone": [list(cat.mor(g0).map), list(cat.mor(g1).map)],
                        "mediating": mediating,
                    }
                )
    return witnesses


def pushout_universal_check(cat, squares):
    """The pushout-universal-property check over the walk above."""
    return scan(
        "pushout-universal-property",
        (w for sq in squares for w in verify_pushout_universal(cat, sq)),
    )


def epis(cat, data):
    """For each lowering e, each c and each pair g < h in Hom(cod e, c):
    None when g e and h e differ, and a witness when they agree."""
    for e in itertools.chain.from_iterable(data.lowering_out):
        for c in range(len(cat.objects)):
            gs = cat.refs(cat.cod(e), c)
            for g, h in itertools.combinations(gs, 2):
                same = cat.compose(e, g) == cat.compose(e, h)
                yield {"e": cat.ref(e), "g": g - gs.start, "h": h - gs.start} if same else None


def scan_may_be_empty(id, witnesses, may_be_empty):
    """scan, except that zero cases pass when may_be_empty says that the
    input has none by construction, as the kernel scans' verdicts do."""
    check = scan(id, witnesses)
    return verdict(id, True, 0, may_be_empty=True) if may_be_empty and check.count == 0 else check


def epi_check(cat, data):
    """The lowering-maps-are-epi check over the walk above."""
    return scan_may_be_empty(
        "lowering-maps-are-epi",
        epis(cat, data),
        may_be_empty=all(len(fs) <= 1 for fs in cat.homs.values()),
    )


def hom_preserves_lowering_pushout(
    A: FiniteSemilattice,
    square: LoweringPushoutSquare,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> tuple[bool, object]:
    """Compare the set pushout of Hom(A, span) with Hom(A, carrier).

    The comparison map sends a glued class to the composite with the
    corresponding cocone leg; preservation means it is a bijection.
    Returns (verdict, witness), the witness naming the failing side.
    """
    # one enumeration per distinct object: a codiagonal square's three
    # corners other than its apex are one object
    corners = (square.apex, square.e0.cod, square.e1.cod, square.carrier)
    homs = {B: enumerate_homs(A, B, budget) for B in dict.fromkeys(corners)}
    homs_d, homs_0, homs_1, homs_p = (homs[B] for B in corners)
    idx0 = {f.map: i for i, f in enumerate(homs_0)}
    idx1 = {f.map: i for i, f in enumerate(homs_1)}
    n0, n1 = len(homs_0), len(homs_1)

    def after(g: SLatMorphism, fs: list[SLatMorphism]) -> list[tuple[int, ...]]:
        """The maps of g after each f, without building the morphisms."""
        return [tuple(map(g.map.__getitem__, f.map)) for f in fs]

    uf = UnionFind(range(n0 + n1))
    for h0, h1 in zip(after(square.e0, homs_d), after(square.e1, homs_d)):
        uf.union(idx0[h0], n0 + idx1[h1])
    # comparison into Hom(A, carrier)
    value = after(square.f0, homs_0) + after(square.f1, homs_1)
    hit, bad = descend(uf.classes(), value.__getitem__)
    if bad:
        # ill-defined means the square of homs failed to commute
        return False, {"reason": "comparison-ill-defined"}
    if len(set(hit)) != len(hit):
        dup = [m for m in hit if hit.count(m) > 1][0]
        return False, {"reason": "not-injective", "element": list(dup)}
    missing = [f.map for f in homs_p if f.map not in set(hit)]
    if missing:
        return False, {"reason": "not-surjective", "element": list(missing[0])}
    return True, None


def square_maps(cat, square):
    """A category's square of ids as the LoweringPushoutSquare of its maps."""
    return LoweringPushoutSquare(*map(cat.mor, square))


def hom_preservation(cat, A, squares, budget):
    """hom_preserves_lowering_pushout on each square: (verdict, witness)."""
    return [hom_preserves_lowering_pushout(A, square_maps(cat, sq), budget) for sq in squares]


def hom_preservation_check(id, cat, A, squares, budget):
    """The relative-elegance check of one source A, one square at a time."""

    def witnesses():
        for sq in squares:
            ok, witness = hom_preserves_lowering_pushout(A, square_maps(cat, sq), budget)
            yield None if ok else {"square": tuple(map(cat.ref, sq)), "witness": witness}

    return scan(id, witnesses())


def orthogonal_lifting_blocks(cat, low, high):
    """The orthogonal-lifting-unique check one (a, b, c, d) block at a
    time, for e: a -> b, m: c -> d, u: a -> c, v: b -> d and w: b -> c:
    the full u x v product of commuting flags and diagonal counts per
    block, stacked per (a, b) in the walk order e, m, u, v."""
    n, table = len(cat.objects), cat.composition

    def members(of, a, b):
        """The positions in Hom(a, b) of the maps in a class."""
        ids = cat.refs(a, b)
        return np.flatnonzero(of[ids.start : ids.stop])

    def position(a, b, ids):
        """Ids of maps in Hom(a, b) as positions in it."""
        return ids - cat.refs(a, b).start

    count = 0
    for a in range(n):
        for b in range(n):
            es = members(low, a, b)
            if not len(es):
                continue
            # per (c, d) block: its maps m, shape and diagonal counts, and
            # where its columns start among the squares of each e
            blocks, starts, squares, bad = [], [0], [], []
            for c in range(n):
                for d in range(n):
                    ms = members(high, c, d)
                    if not len(ms):
                        continue
                    m_cols = cat.columns(c, d).start + ms
                    um = position(a, d, table[(a, c)][:, m_cols])
                    ev = position(a, d, table[(a, b)][es, cat.columns(b, d)])
                    ew = position(a, c, table[(a, b)][es, cat.columns(b, c)])
                    wm = position(b, d, table[(b, c)][:, m_cols])
                    shape = (len(es), len(ms), len(um), ev.shape[1])
                    commutes = (um.T[None, :, :, None] == ev[:, None, None, :]).ravel()
                    # diagonals[e, m, u, v] counts the w with (w e, m w) = (u, v)
                    pair = np.arange(len(es) * len(ms)).reshape(len(es), 1, len(ms))
                    key = (pair * shape[2] + ew[:, :, None]) * shape[3] + wm[None]
                    diagonals = np.bincount(key.ravel(), minlength=commutes.size)
                    blocks.append((c, d, ms, shape, diagonals.reshape(shape)))
                    starts.append(starts[-1] + commutes.size // len(es))
                    squares.append(commutes.reshape(len(es), -1))
                    bad.append((commutes & (diagonals != 1)).reshape(len(es), -1))
            if not blocks:
                continue
            # row i holds the squares of the i-th e in the order of the walk
            squares, bad = np.hstack(squares), np.hstack(bad)
            if not bad.any():
                count += int(squares.sum())
                continue
            k = int(bad.argmax())
            count += int(squares.ravel()[: k + 1].sum())
            i, col = divmod(k, bad.shape[1])
            at = bisect.bisect_right(starts, col) - 1
            c, d, ms, shape, diagonals = blocks[at]
            j, u, v = np.unravel_index(col - starts[at], shape[1:])
            witness = {
                "e": cat.ref(cat.refs(a, b)[es[i]]),
                "m": cat.ref(cat.refs(c, d)[ms[j]]),
                "u": cat.ref(cat.refs(a, c)[u]),
                "v": cat.ref(cat.refs(b, d)[v]),
                "diagonals": int(diagonals[i, j, u, v]),
            }
            return Check("orthogonal-lifting-unique", FAIL, count, witness)
    return verdict("orthogonal-lifting-unique", True, count)


def _factorizations(cat, data, f):
    """All (lowering, raising) factorizations of f through category objects."""
    return [
        (e, m)
        for e in data.lowering_out[cat.dom(f)]
        for m in cat.refs(cat.cod(e), cat.cod(f))
        if data.raising[m] and cat.compose(e, m) == f
    ]


def factorization_check(cat, data):
    """factorization-unique-up-to-unique-iso, morphism by morphism: each
    factorization against the first by the isos linking them."""

    def witnesses():
        for f in cat.morphisms():
            facts = _factorizations(cat, data, f)
            if not facts:
                yield {"f": cat.ref(f), "reason": "no factorization"}
                continue
            e0, m0 = facts[0]
            witness = None
            for e, m in facts:
                linking = [
                    th
                    for th in cat.isos(cat.cod(e0), cat.cod(e))
                    if cat.compose(e0, th) == e and cat.compose(th, m) == m0
                ]
                if len(linking) != 1:
                    witness = {
                        "f": cat.ref(f),
                        "fact": [cat.ref(e), cat.ref(m)],
                        "linking-isos": len(linking),
                    }
                    break
            yield witness

    return scan("factorization-unique-up-to-unique-iso", witnesses())


def split_check(cat, data):
    """split-epi-lowering-split-mono-raising, morphism by morphism: a
    split epi case, then a split mono case, for each f that is one."""

    def witnesses():
        for f in cat.morphisms():
            a, b = cat.dom(f), cat.cod(f)
            back = cat.refs(b, a)
            if any(cat.compose(s, f) == cat.identities[b] for s in back):
                yield None if data.lowering[f] else {"split-epi": cat.ref(f)}
            if any(cat.compose(f, r) == cat.identities[a] for r in back):
                yield None if data.raising[f] else {"split-mono": cat.ref(f)}

    return scan("split-epi-lowering-split-mono-raising", witnesses())


def free_action_check(cat, data):
    """isos-act-freely-on-lowering, lowering map by lowering map: a case
    per non-identity automorphism of its codomain."""

    def witnesses():
        for e in cat.morphisms():
            if not data.lowering[e]:
                continue
            b = cat.cod(e)
            for th in cat.isos(b, b):
                if not cat.is_identity(th):
                    yield {"e": cat.ref(e), "theta": cat.ref(th)} if cat.compose(e, th) == e else None

    return scan_may_be_empty(
        "isos-act-freely-on-lowering",
        witnesses(),
        may_be_empty=all(len(cat.isos(b, b)) == 1 for b in range(len(cat.objects))),
    )
