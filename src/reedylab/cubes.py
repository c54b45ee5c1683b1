"""Cube and simplex categories as concrete finite semilattices and posets.

Cubes [1]^n are materialized as 2^n-element semilattices (bitmask indices,
join = bitwise or) only for small n.  The Dedekind side (all monotone maps
between cubes as posets) shares the bitmask representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .certificates import Check, scan, verdict
from .errors import InvalidInput, NotDistributive, NotIdempotent, SizeBudget, ViolatedLaw
from .semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FinPoset,
    FiniteSemilattice,
    MonotoneAssignments,
    SLatMorphism,
    all_semilattices_upto,
    are_isomorphic,
    chain,
    enumerate_homs,
    is_distributive_lattice,
    lift_through_surjection,
    monotone_maps,
    sub_semilattice,
    validate_semilattice,
)


def cube(n: int) -> FiniteSemilattice:
    """The n-cube: bitmasks 0..2^n-1 under bitwise or, for n at most 6."""
    if n > 6:
        raise SizeBudget(f"cube dimension {n} exceeds cap 6")
    size = 1 << n
    table = tuple(tuple(i | j for j in range(size)) for i in range(size))
    return validate_semilattice(table)


def cube_vertex(bits) -> int:
    """Bitmask of a coordinate tuple (x_0, x_1, ...)."""
    v = 0
    for i, b in enumerate(bits):
        if b:
            v |= 1 << i
    return v


def vertex_bits(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> i) & 1 for i in range(n))


def cube_hom_count(
    m: int, n: int, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> tuple[int, list[SLatMorphism]]:
    """Hom cardinality two ways: the closed form (sum over bottoms b of
    |up-set of b|^m), and Hom(cube m, cube n) by the table-level
    enumeration, returned whole for the caller to count and compare."""
    formula = 0
    for b in range(1 << n):
        ups = 1 << (n - bin(b).count("1"))
        formula += ups**m
    return formula, enumerate_homs(cube(m), cube(n), budget)


# ---------------------------------------------------------------------------
# idempotent splitting and retracts
# ---------------------------------------------------------------------------


def split_idempotent(f: SLatMorphism) -> tuple[SLatMorphism, SLatMorphism]:
    """Split f = section o retraction through its fixed-point subalgebra:
    the section is its inclusion and the retraction sends x to the
    position of f(x).  Raises InvalidInput unless f is an endomap, and
    NotIdempotent unless f f = f."""
    if f.dom != f.cod:
        raise InvalidInput("only an endomap can be an idempotent to split")
    if f.then(f).map != f.map:
        raise NotIdempotent("f is not idempotent")
    A = f.dom
    B, section = sub_semilattice(A, (x for x in range(A.size) if f.map[x] == x))
    pos = {v: i for i, v in enumerate(section.map)}
    # a fixed point goes to its own position, so section then retraction is
    # the identity, and retraction then section is f by construction
    return SLatMorphism(A, B, tuple(pos[v] for v in f.map)), section


def retract_of_cube(
    A: FiniteSemilattice,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> tuple[SLatMorphism, SLatMorphism]:
    """Exhibit a distributive lattice as a retract of the cube on its
    underlying set: the retraction is the free extension of the identity
    assignment, the section is found by lifting the identity through it.
    Raises ViolatedLaw 'lift-existence' if no section is found.
    """
    dist = is_distributive_lattice(A)
    if not dist:
        raise NotDistributive(f"retract-of-cube needs distributivity ({dist.reason})")
    n = A.size
    C = cube(n)
    bot = A.bottom
    retr_map = []
    for v in range(1 << n):
        elems = [i for i in range(n) if (v >> i) & 1]
        retr_map.append(A.join_all(elems) if elems else bot)
    # surjective: the singleton {i} goes to i
    retraction = SLatMorphism(C, A, tuple(retr_map))
    section = lift_through_surjection(A, retraction, SLatMorphism.identity(A), budget)
    # distributive lattices lift against surjections
    if section is None:
        raise ViolatedLaw("lift-existence", retraction.map)
    # a section: lift_through_surjection returns h only when h then e is f,
    # here the identity
    return section, retraction


def certify_idempotent_completion(
    dim_cap: int = 3,
    size_cap: int = 4,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> list[Check]:
    """Idempotents on cubes split with distributive fixed-point objects;
    distributive classes are retracts of cubes; and the one-connection
    idempotent (x,y) -> (x, x or y) splits through the 3-chain."""

    def split_distributively(n):
        C = cube(n)
        for f in enumerate_homs(C, C, budget):
            if f.then(f).map != f.map:
                continue
            r, _ = split_idempotent(f)
            ok = is_distributive_lattice(r.cod)
            yield None if ok else {"dim": n, "map": list(f.map)}

    def connection_example():
        C2 = cube(2)
        f = SLatMorphism(
            C2, C2, tuple(cube_vertex((x, x | y)) for (x, y) in
                          (vertex_bits(v, 2) for v in range(4)))
        )
        r, s = split_idempotent(f)
        ok = r.cod.size == 3 and are_isomorphic(r.cod, chain(3))
        return verdict(
            "one-connection-idempotent-splits-through-chain3",
            ok,
            1,
            {"split-size": r.cod.size},
        )

    def retracts():
        for A in all_semilattices_upto(size_cap):
            if not is_distributive_lattice(A):
                continue
            s, r = retract_of_cube(A, budget)
            yield None if s.then(r).map == tuple(range(A.size)) else {"size": A.size}

    return [
        *(
            scan(f"idempotents-split-distributively-dim-{n}", split_distributively(n))
            for n in range(0, dim_cap + 1)
        ),
        connection_example(),
        scan("distributive-classes-are-cube-retracts", retracts()),
    ]


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------


def face(i: int, n: int) -> SLatMorphism:
    """The injection [n-1] -> [n] skipping the element i."""
    if not (n >= 1 and 0 <= i <= n):
        raise InvalidInput(f"face needs n >= 1 and 0 <= i <= n, got i={i}, n={n}")
    return SLatMorphism(
        chain(n), chain(n + 1), tuple(j if j < i else j + 1 for j in range(n))
    )


def degeneracy(i: int, n: int) -> SLatMorphism:
    """The surjection [n+1] -> [n] identifying the elements i and i+1."""
    if not (n >= 0 and 0 <= i <= n):
        raise InvalidInput(f"degeneracy needs n >= 0 and 0 <= i <= n, got i={i}, n={n}")
    return SLatMorphism(
        chain(n + 2), chain(n + 1), tuple(j if j <= i else j - 1 for j in range(n + 2))
    )


# ---------------------------------------------------------------------------
# truncated triangulation
# ---------------------------------------------------------------------------


@dataclass
class TruncatedSimplicialSet:
    """Levelwise data with face/degeneracy actions up to a dimension cap.

    faces[m][i] maps level m to level m-1 (precomposition with the i-th
    face); degeneracies[m][i] maps level m to level m+1.
    """

    maxdim: int
    levels: list[list[SLatMorphism]]
    faces: list[list[list[int]]]
    degeneracies: list[list[list[int]]]

    def level_sizes(self) -> list[int]:
        return [len(l) for l in self.levels]

    def nondegenerate(self, m: int) -> list[int]:
        """Indices at level m not hit by any degeneracy action."""
        if m == 0:
            return list(range(len(self.levels[0])))
        hit = set()
        for i in range(m):
            for x in range(len(self.levels[m - 1])):
                hit.add(self.degeneracies[m - 1][i][x])
        return [x for x in range(len(self.levels[m])) if x not in hit]

    def to_json(self) -> dict:
        return {
            "levels": self.level_sizes(),
            "faces": self.faces,
            "degeneracies": self.degeneracies,
        }


def _simplicial_set(levels, key, act) -> TruncatedSimplicialSet:
    """The truncated simplicial set on levels[0..maxdim] whose i-th face
    (step -1) and degeneracy (step +1) at level m send x to the element
    of level m + step keyed act(m, i, step)(x), where key(y) is y's key."""
    maxdim = len(levels) - 1
    index = [{key(y): k for k, y in enumerate(lv)} for lv in levels]

    def tables(m: int, step: int) -> list[list[int]]:
        if not 0 <= m + step <= maxdim:
            return []
        return [
            [index[m + step][to(x)] for x in levels[m]]
            for to in (act(m, i, step) for i in range(m + 1))
        ]

    faces = [tables(m, -1) for m in range(maxdim + 1)]
    degeneracies = [tables(m, 1) for m in range(maxdim + 1)]
    return TruncatedSimplicialSet(maxdim, levels, faces, degeneracies)


def triangulate(
    A: FiniteSemilattice,
    maxdim: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> TruncatedSimplicialSet:
    """Level m holds the join-preserving maps from the (m+1)-chain into A
    (equivalently the monotone maps, chains being join-generated), with
    faces and degeneracies acting by precomposition."""
    levels = [enumerate_homs(chain(m + 1), A, budget) for m in range(maxdim + 1)]

    def precompose(m: int, i: int, step: int):
        s = face(i, m) if step < 0 else degeneracy(i, m)
        return lambda f: s.then(f).map

    return _simplicial_set(levels, lambda f: f.map, precompose)


def product_simplicial(
    parts: list[TruncatedSimplicialSet],
) -> TruncatedSimplicialSet:
    """Levelwise product with componentwise actions (levels become tuples,
    kept as index tuples; morphism data is not reconstructed)."""
    maxdim = min(p.maxdim for p in parts)
    levels = [
        list(itertools.product(*(range(len(p.levels[m])) for p in parts)))
        for m in range(maxdim + 1)
    ]

    def componentwise(m: int, i: int, step: int):
        tables = [(p.faces if step < 0 else p.degeneracies)[m][i] for p in parts]
        return lambda t: tuple(table[x] for table, x in zip(tables, t))

    return _simplicial_set(levels, lambda t: t, componentwise)


def simplicial_isomorphic(
    X: TruncatedSimplicialSet, Y: TruncatedSimplicialSet, bijections
) -> bool:
    """Check that given levelwise bijections commute with all actions."""
    maxdim = min(X.maxdim, Y.maxdim)
    for m in range(maxdim + 1):
        size = len(Y.levels[m])
        if len(X.levels[m]) != size or sorted(bijections[m]) != list(range(size)):
            return False
    return all(
        bijections[m + step][xs[x]] == ys[y]
        for m in range(maxdim + 1)
        for step, xt, yt in ((-1, X.faces, Y.faces), (1, X.degeneracies, Y.degeneracies))
        for xs, ys in zip(xt[m], yt[m])
        for x, y in enumerate(bijections[m])
    )


def triangulation_product_bijections(
    parts: list[TruncatedSimplicialSet],
    tri_product: TruncatedSimplicialSet,
    tri_whole: TruncatedSimplicialSet,
    projections: list[SLatMorphism],
):
    """Bijections level m: maps into a product correspond to tuples of
    maps into the factors, by postcomposition with the projections; the
    maps into each factor are the levels of its triangulation."""
    bijections = []
    for m in range(tri_whole.maxdim + 1):
        # index maps into each factor at this level
        part_levels = [{f.map: k for k, f in enumerate(p.levels[m])} for p in parts]
        prod_index = {t: k for k, t in enumerate(tri_product.levels[m])}
        bijections.append([
            prod_index[tuple(index[f.then(p).map] for index, p in zip(part_levels, projections))]
            for f in tri_whole.levels[m]
        ])
    return bijections


# ---------------------------------------------------------------------------
# Dedekind cubes: all monotone maps
# ---------------------------------------------------------------------------


def monotone_cube_search(m: int, n: int, candidates, budget=math.inf) -> MonotoneAssignments:
    """The search for monotone maps [1]^m -> [1]^n on bitmasks that send
    vertex v into candidates[v]: in mask order, each vertex goes above
    the values of its lower covers."""
    size = 1 << n
    leq = tuple(tuple(a | b == b for b in range(size)) for a in range(size))
    covers = [[v & ~(1 << i) for i in range(m) if (v >> i) & 1] for v in range(1 << m)]
    return MonotoneAssignments(leq, covers, [()] * (1 << m), candidates, budget=budget)


def dedekind_homs(m: int, n: int, budget: int = DEFAULT_CANDIDATE_BUDGET):
    """Monotone poset maps [1]^m -> [1]^n, lexicographic on vertex values;
    for n = 1 the counts follow the Dedekind number sequence."""
    return list(monotone_cube_search(m, n, [range(1 << n)] * (1 << m), budget))


def monotone_maps_agree_with_homs(
    A: FiniteSemilattice,
    k: int,
    homs: list[SLatMorphism],
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> bool:
    """Certified sub-fact: out of a chain, monotone equals join-preserving,
    given homs, the join-preserving maps from the k-chain into A."""
    P = FinPoset.chain(k)
    Q = FinPoset.of_semilattice(A)
    return set(monotone_maps(P, Q, budget)) == {f.map for f in homs}
