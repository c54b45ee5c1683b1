import itertools
import math

import pytest

from reedylab.cubes import (
    certify_idempotent_completion,
    cube,
    cube_hom_count,
    cube_vertex,
    dedekind_homs,
    degeneracy,
    face,
    monotone_maps_agree_with_homs,
    product_simplicial,
    retract_of_cube,
    simplicial_isomorphic,
    split_idempotent,
    triangulate,
    triangulation_product_bijections,
    vertex_bits,
)
from reedylab.errors import CandidateSpaceExceeded, NotDistributive, NotIdempotent
from reedylab.semilattice import (
    SLatMorphism,
    all_functions_homs,
    all_semilattices_upto,
    are_isomorphic,
    chain,
    diamond,
    enumerate_homs,
    interval,
    is_distributive_lattice,
)


def test_cube_hom_counts_two_routes():
    expected = {(1, 1): 3, (2, 1): 5, (3, 1): 9, (1, 2): 9}
    for (m, n), want in expected.items():
        formula, homs = cube_hom_count(m, n)
        assert formula == len(homs) == want
    for m in range(1, 4):
        for n in range(1, 4):
            formula, homs = cube_hom_count(m, n)
            assert formula == len(homs)


def test_cube_irreducibles_are_bottom_and_units():
    # the generator-pruned enumeration specializes on cubes to the free
    # parametrization: one bottom image plus one image per unit above it
    for n in (1, 2, 3):
        C = cube(n)
        assert set(C.irreducibles) == {0} | {1 << i for i in range(n)}


def test_split_idempotent_identity():
    C = cube(2)
    r, s = split_idempotent(SLatMorphism.identity(C))
    assert r.cod.size == C.size


def test_split_connection_idempotent():
    C = cube(2)
    f = SLatMorphism(
        C,
        C,
        tuple(
            cube_vertex((x, x | y))
            for (x, y) in (vertex_bits(v, 2) for v in range(4))
        ),
    )
    r, s = split_idempotent(f)
    assert are_isomorphic(r.cod, chain(3))
    assert s.then(r).map == tuple(range(3))
    assert r.then(s).map == f.map


def test_split_total_join_idempotent():
    C = cube(3)
    f = SLatMorphism(C, C, tuple(7 if v else 0 for v in range(8)))
    r, s = split_idempotent(f)
    assert are_isomorphic(r.cod, interval())


def test_split_idempotent_composes_back_on_every_cube_idempotent():
    # what idempotents-split-distributively checks no longer raises on:
    # section then retraction is the identity, retraction then section is f
    for n in range(4):
        C = cube(n)
        for f in enumerate_homs(C, C):
            if f.then(f).map == f.map:
                r, s = split_idempotent(f)
                assert s.then(r).map == tuple(range(r.cod.size))
                assert r.then(s).map == f.map


def test_split_rejects_non_idempotent():
    u_like = SLatMorphism(cube(1), cube(1), (1, 1))
    # constant-to-top is idempotent; build a genuine non-idempotent
    C = cube(2)
    swap = SLatMorphism(C, C, (0, 2, 1, 3))
    with pytest.raises(NotIdempotent):
        split_idempotent(swap)


def test_idempotent_counts_oracle():
    # oracle: literal filtration of all functions, then idempotence
    for n, expect in ((1, 3), (2, 16)):
        C = cube(n)
        endos = all_functions_homs(C, C)
        idem = [m for m in endos if tuple(m[v] for v in m) == m]
        assert len(idem) == expect
    C = cube(3)
    idem = [f for f in enumerate_homs(C, C) if f.then(f).map == f.map]
    assert len(idem) == 163


def test_retract_of_cube():
    for A in (interval(), chain(3)):
        s, r = retract_of_cube(A)
        assert r.dom.size == 1 << A.size
        assert s.then(r).map == tuple(range(A.size))
    # the retraction is onto on every class that the suite presents
    for A in all_semilattices_upto(4):
        if is_distributive_lattice(A):
            s, r = retract_of_cube(A)
            assert r.is_surjective and s.then(r).map == tuple(range(A.size))
    with pytest.raises(NotDistributive):
        retract_of_cube(diamond(3))


def test_certify_idempotent_completion():
    checks = certify_idempotent_completion(3, 4)
    assert [c for c in checks if c.status != "pass"] == []
    by_id = {c.id: c for c in checks}
    assert by_id["idempotents-split-distributively-dim-3"].count == 163
    assert by_id["distributive-classes-are-cube-retracts"].count == 5


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------


def test_simplex_generators():
    s0 = degeneracy(0, 0)
    assert s0.map == (0, 0)
    d1 = face(1, 1)
    assert d1.map == (0,)  # picks the endpoint 0, skipping 1
    d1_2 = face(1, 2)
    assert d1_2.map == (0, 2)


def test_simplicial_identities():
    # d_j d_i = d_i d_{j-1} for i < j
    for n in range(1, 4):
        for i in range(n + 1):
            for j in range(n + 2):
                if i < j:
                    lhs = face(i, n).then(face(j, n + 1))
                    rhs = face(j - 1, n).then(face(i, n + 1))
                    assert lhs.map == rhs.map
    # s_j s_i = s_i s_{j+1} for i <= j
    for n in range(0, 3):
        for i in range(n + 2):
            for j in range(n + 1):
                if i <= j:
                    lhs = degeneracy(i, n + 1).then(degeneracy(j, n))
                    rhs = degeneracy(j + 1, n + 1).then(degeneracy(i, n))
                    assert lhs.map == rhs.map
    # s_j d_i = d_i s_{j-1} (i < j); s_j d_j = id = s_j d_{j+1};
    # s_j d_i = d_{i-1} s_j (i > j + 1)
    for n in range(1, 4):
        for j in range(n):
            for i in range(n + 1):
                if i < j:
                    lhs = face(i, n).then(degeneracy(j, n - 1))
                    rhs = degeneracy(j - 1, n - 2).then(face(i, n - 1)) if n >= 2 else None
                    if rhs is not None:
                        assert lhs.map == rhs.map
                elif i in (j, j + 1):
                    lhs = face(i, n).then(degeneracy(j, n - 1))
                    assert lhs.map == tuple(range(n))
                else:
                    lhs = face(i, n).then(degeneracy(j, n - 1))
                    if n >= 2:
                        rhs = degeneracy(j, n - 2).then(face(i - 1, n - 1))
                        assert lhs.map == rhs.map


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------


def test_triangulate_interval():
    tri = triangulate(interval(), 3)
    assert tri.level_sizes() == [2, 3, 4, 5]
    assert [len(tri.nondegenerate(m)) for m in range(4)] == [2, 1, 0, 0]


def test_triangulate_square_nondegenerate():
    tri = triangulate(cube(2), 2)
    assert len(tri.nondegenerate(2)) == 2
    # oracle: strictly increasing chains of length 3 in the square
    C = cube(2)
    chains = [
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a != b and b != c and C.leq(a, b) and C.leq(b, c)
    ]
    assert len(chains) == 2


def test_triangulate_cube_three():
    tri = triangulate(cube(3), 3)
    assert len(tri.nondegenerate(3)) == math.factorial(3)
    assert tri.level_sizes() == [8, 27, 64, 125]


def test_nondegenerate_equals_injective():
    # out of a chain, degenerate means non-injective
    for A in (interval(), cube(2)):
        tri = triangulate(A, 2)
        for m in range(3):
            nondeg = set(tri.nondegenerate(m))
            injective = {
                k for k, f in enumerate(tri.levels[m]) if f.is_injective
            }
            assert nondeg == injective


def _product_comparison(n):
    tri1 = triangulate(interval(), 3)
    tri = triangulate(cube(n), 3)
    prod = product_simplicial([tri1] * n)
    projections = [
        SLatMorphism(
            cube(n), interval(), tuple((v >> i) & 1 for v in range(1 << n))
        )
        for i in range(n)
    ]
    bij = triangulation_product_bijections([tri1] * n, prod, tri, projections)
    return tri, prod, bij


def test_triangulation_product_comparison():
    for n in (2, 3):
        assert simplicial_isomorphic(*_product_comparison(n))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("entry", ["face", "degeneracy", "bijection"])
def test_product_comparison_fails_on_one_corrupted_entry(n, entry):
    tri, prod, bij = _product_comparison(n)
    if entry == "face":
        row = prod.faces[2][1]
        row[0] = (row[0] + 1) % len(prod.levels[1])
    elif entry == "degeneracy":
        row = prod.degeneracies[1][0]
        row[0] = (row[0] + 1) % len(prod.levels[2])
    else:
        bij[2][0] = bij[2][1]
    assert not simplicial_isomorphic(tri, prod, bij)


def test_monotone_equals_join_preserving_from_chains():
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            homs = enumerate_homs(chain(k), cube(n))
            assert monotone_maps_agree_with_homs(cube(n), k, homs)


def test_simplicial_json():
    tri = triangulate(interval(), 2)
    blob = tri.to_json()
    assert blob["levels"] == [2, 3, 4]
    assert len(blob["faces"][1]) == 2  # two faces at level 1


# ---------------------------------------------------------------------------
# Dedekind homs
# ---------------------------------------------------------------------------


def test_dedekind_counts():
    assert len(dedekind_homs(1, 1)) == 3
    assert len(dedekind_homs(2, 1)) == 6
    assert len(dedekind_homs(3, 1)) == 20
    for n in (1, 2, 3):
        assert len(dedekind_homs(0, n)) == 1 << n


def test_dedekind_homs_honor_the_budget_at_every_dimension():
    # the 8 candidates for vertex 0 overrun a budget of 1 at once; the
    # suite's n = 1 calls try at most 80 candidates, at m = 3
    with pytest.raises(CandidateSpaceExceeded, match=r"^8 candidates exceed budget 1$"):
        dedekind_homs(3, 3, budget=1)
    assert len(dedekind_homs(3, 1, budget=256)) == 20


def test_dedekind_homs_match_a_monotone_filter_in_order():
    # the reference filters every function, in lexicographic order, by
    # the order of the cube posets on bitmasks
    for m in range(4):
        for n in range(1, 3):
            size = 1 << m
            pairs = [(v, w) for v in range(size) for w in range(size) if v | w == w]
            literal = [
                f
                for f in itertools.product(range(1 << n), repeat=size)
                if all(f[v] | f[w] == f[w] for v, w in pairs)
            ]
            assert dedekind_homs(m, n) == literal, (m, n)


def test_dedekind_contains_non_join_preserving():
    mono = {m for m in dedekind_homs(2, 1)}
    joins = {f.map for f in enumerate_homs(cube(2), interval())}
    assert joins < mono
