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

import numpy as np

from reedylab.certificates import FAIL, Check, scan, verdict
from reedylab.elegance import hom_preserves_lowering_pushout
from reedylab.errors import InvalidInput, NotSurjective, SizeBudget, ViolatedLaw
from reedylab.reedy import LoweringPushoutSquare
from reedylab.semilattice import (
    FiniteSemilattice,
    JoinTable,
    SLatMorphism,
    UnionFind,
    canonical_form,
    descend,
    enumerate_homs,
    find_isomorphism,
    validate_semilattice,
)


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
