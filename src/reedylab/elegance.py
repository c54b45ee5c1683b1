"""Elegant-core membership and projectivity lifts.

Core membership has a closed form (the bottom extension is distributive),
a constructive witness (a retract presentation through the free algebra
on the underlying set), and a hom-functor characterization (preservation
of lowering pushouts).  The three are certified to agree at desk scale.

`hom_preserves_lowering_pushout` decides one square, from the hom-sets
into its distinct corners.  The elegant-core suite calls it on codiagonal
squares, which live outside any truncated category and need no pushout
built: the pushout of a surjection with itself is its codomain, with
identity legs.  The relative-elegance suite sweeps every square of a
truncation through the batched `kernel.hom_preserved` instead, and calls
it only on the first square that fails, for its witness.  This module
stays numpy-free.
"""

from __future__ import annotations

from .errors import NotSurjective
from .reedy import LoweringPushoutSquare
from .semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FiniteSemilattice,
    SLatMorphism,
    UnionFind,
    adjoin_bottom,
    descend,
    enumerate_homs,
    free_on_generators,
    is_distributive_lattice,
    lift_through_surjection,
)


def counit_from_free(A: FiniteSemilattice) -> SLatMorphism:
    """The surjection from the free semilattice on A's underlying set,
    sending a nonempty subset to its join; SizeBudget when that free
    semilattice has more than FREE_SIZE_CAP elements."""
    F, unit = free_on_generators(A.size)
    # elements of F are generated by the unit; extend by joins
    gen_of = {unit[i]: i for i in range(A.size)}
    values = []
    for s in range(F.size):
        gens = [gen_of[u] for u in gen_of if F.leq(u, s)]
        values.append(A.join_all(gens))
    # surjective: the unit {i}, above no other generator, goes to i
    return SLatMorphism(F, A, tuple(values))


def projective_lift(
    A: FiniteSemilattice,
    e: SLatMorphism,
    f: SLatMorphism,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> SLatMorphism | None:
    """A morphism h with e o h = f, or None after an exhausted search.
    Raises NotSurjective unless e is a surjection."""
    if not e.is_surjective:
        raise NotSurjective("a projective lift needs a surjection to lift through")
    return lift_through_surjection(A, e, f, budget)


def is_perfectly_presentable(
    A: FiniteSemilattice,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> tuple[bool, tuple[SLatMorphism, SLatMorphism] | None]:
    """Search for a section of the counit from the free algebra.

    Success exhibits A as a retract of a finitely-generated free algebra;
    the returned pair is (section, retraction)."""
    eps = counit_from_free(A)
    section = projective_lift(A, eps, SLatMorphism.identity(A), budget)
    if section is None:
        return False, None
    return True, (section, eps)


def codiagonal_square(e: SLatMorphism) -> LoweringPushoutSquare:
    """The pushout of a surjection with itself: the codomain twice over,
    with identity legs.  e is epi, so every cocone is some (g, g), and it
    factors through the identities by g alone."""
    ident = SLatMorphism.identity(e.cod)
    return LoweringPushoutSquare(e, e, ident, ident)


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


def in_elegant_core(A: FiniteSemilattice) -> bool:
    """Core membership by the closed form: the bottom extension is a
    distributive lattice.

    The constructive witness (a retract of the free algebra,
    `is_perfectly_presentable`) and the hom-functor test (preservation of
    the codiagonal pushout of the counit) are separate routes; the
    elegant-core suite certifies that all three agree.
    """
    return bool(is_distributive_lattice(adjoin_bottom(A)[0]))

