"""Elegant-core membership and projectivity lifts.

Core membership has a closed form (the bottom extension is distributive),
a constructive witness (a retract presentation through the free algebra
on the underlying set), and a hom-functor characterization (preservation
of lowering pushouts).  The three are certified to agree at desk scale.

`hom_preserves_lowering_pushout` decides the codiagonal square of a
surjection e, the pushout of e with itself, which lives outside any
truncated category: whether Hom(A, e) is onto.  The relative-elegance
suite sweeps every square of a truncation through the batched
`kernel.hom_preserved` instead.  This module stays numpy-free.
"""

from __future__ import annotations

from .errors import NotSurjective
from .semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FiniteSemilattice,
    SLatMorphism,
    adjoin_bottom,
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


def hom_preserves_lowering_pushout(
    A: FiniteSemilattice,
    e: SLatMorphism,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> bool:
    """Whether Hom(A, -) preserves the codiagonal square of the surjection
    e: the pushout of e with itself, the codomain of e twice over with
    identity legs (e is epi, so every cocone is some (g, g), and it
    factors through the identities by g alone).

    Hom(A, -) sends the square to e_* = Hom(A, e) pushed out with itself,
    and the set pushout of a map g with itself is two copies of its
    codomain glued along g's image: every point outside the image is
    doubled, and the comparison onto the codomain is the fold.  So the
    square is preserved exactly when Hom(A, e) is onto, when the
    composites of e with Hom(A, dom e) are all of Hom(A, cod e).  Each
    hom-set is enumerated once: for a size-1 class, dom e is cod e.
    """
    homs_d = enumerate_homs(A, e.dom, budget)
    homs_c = homs_d if e.cod == e.dom else enumerate_homs(A, e.cod, budget)
    hit = {tuple(map(e.map.__getitem__, f.map)) for f in homs_d}
    return len(hit) == len(homs_c)


def in_elegant_core(A: FiniteSemilattice) -> bool:
    """Core membership by the closed form: the bottom extension is a
    distributive lattice.

    The constructive witness (a retract of the free algebra,
    `is_perfectly_presentable`) and the hom-functor test (preservation of
    the codiagonal pushout of the counit) are separate routes; the
    elegant-core suite certifies that all three agree.
    """
    return bool(is_distributive_lattice(adjoin_bottom(A)[0]))

