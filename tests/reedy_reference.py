"""Pair-by-pair reference routes for the lowering-pushout squares and
their checks.

`lowering_pushout_squares` is the per-span route `reedy_category_on` took
before it read each square off the composition table: build the set
pushout as a new semilattice, find its object by canonical form, and
compose both legs with an isomorphism onto that object.  The other walks
are what `verify_pushout_universal`, the `lowering-maps-are-epi` check
and the `relative-elegance` sweep made before they moved onto the
pullback fibres of the composition table: one `compose` call per
composite, and one hom-set enumeration per corner of every square.

They live here only so that the tests can compare the two routes check
by check, on passing and on failing inputs.
"""

import itertools

from reedylab.certificates import scan
from reedylab.elegance import hom_preserves_lowering_pushout
from reedylab.errors import ViolatedLaw
from reedylab.reedy import LoweringPushoutSquare, lowering_pushout
from reedylab.semilattice import find_isomorphism


def lowering_pushout_squares(cat, data) -> list:
    """One square per unordered span of lowering maps out of each apex, in
    the walk order of reedy_category_on, each built by lowering_pushout
    and carried onto its object by find_isomorphism."""
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
                f0 = square.f0.then(iso)
                f1 = square.f1.then(iso)
                refs = (r0, r1, cat.find(cat.cod(r0), p, f0), cat.find(cat.cod(r1), p, f1))
                squares.append(LoweringPushoutSquare(cat.mor(r0), cat.mor(r1), f0, f1, refs))
    return squares


def verify_pushout_universal(cat, square) -> list:
    """One entry per commuting cocone (g0, g1) of a category-resident
    square into the category's objects, in the walk order c, g0, g1: None
    when it factors uniquely through the square's carrier and a witness
    when it does not."""
    e0, e1, f0, f1 = square.refs
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


def epi_check(cat, data):
    """The lowering-maps-are-epi check over the walk above."""
    return scan(
        "lowering-maps-are-epi",
        epis(cat, data),
        may_be_empty=all(len(fs) <= 1 for fs in cat.homs.values()),
    )


def hom_preservation(A, squares, budget):
    """hom_preserves_lowering_pushout on each square: (verdict, witness)."""
    return [hom_preserves_lowering_pushout(A, sq, budget) for sq in squares]


def hom_preservation_check(id, cat, A, squares, budget):
    """The relative-elegance check of one source A, one square at a time."""

    def witnesses():
        for sq in squares:
            ok, witness = hom_preserves_lowering_pushout(A, sq, budget)
            yield None if ok else {"square": tuple(map(cat.ref, sq.refs)), "witness": witness}

    return scan(id, witnesses())
