import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reedy_reference as reference
from reedy_reference import UnionFind, descend
from reedylab.cubes import cube
from reedylab.dot import _semilattice_document
from reedylab.errors import CandidateSpaceExceeded, EmptyCarrier, SizeBudget, ViolatedLaw
from reedylab.semilattice import (
    FinPoset,
    FiniteSemilattice,
    MonotoneAssignments,
    SLatMorphism,
    adjoin_bottom,
    all_functions_homs,
    all_semilattices_upto,
    are_isomorphic,
    atoms_with_top,
    backtrack_homs,
    canonical_form,
    chain,
    diamond,
    enumerate_homs,
    enumerate_semilattices,
    find_isomorphism,
    free_on_generators,
    image_factorize,
    interval,
    is_distributive_lattice,
    least_above,
    lift_through_surjection,
    monotone_maps,
    pinched_tripod_cover,
    quotient_by_pairs,
    validate_semilattice,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_terminal_and_interval():
    one = validate_semilattice([[0]])
    assert one.size == 1 and one.top == 0
    I = validate_semilattice([[0, 1], [1, 1]])
    assert I.top == 1 and I.bottom == 0
    assert I.leq(0, 1) and not I.leq(1, 0)


def test_validate_rejects_broken_tables():
    with pytest.raises(ViolatedLaw) as exc:
        validate_semilattice([[0, 0], [1, 1]])
    assert exc.value.law == "commutativity" and exc.value.witness == (0, 1)
    with pytest.raises(EmptyCarrier):
        validate_semilattice([])
    with pytest.raises(ViolatedLaw) as exc:
        validate_semilattice([[1, 1], [1, 1]])
    assert exc.value.law == "idempotence"
    # associativity violation with idempotence and commutativity intact
    with pytest.raises(ViolatedLaw):
        validate_semilattice(
            [[0, 2, 1], [2, 1, 2], [1, 2, 2]]
        )


def test_every_single_cell_corruption_names_its_law():
    # each join-table cell of every class of size <= 4, set in turn to
    # every other element: a diagonal cell breaks idempotence there, any
    # other cell commutativity with its transposed cell
    for A in all_semilattices_upto(4):
        for x in range(A.size):
            for y in range(A.size):
                for v in range(A.size):
                    if v == A.join[x][y]:
                        continue
                    table = [list(row) for row in A.join]
                    table[x][y] = v
                    with pytest.raises(ViolatedLaw) as exc:
                        validate_semilattice(table)
                    law = ("idempotence", (x,)) if x == y else ("commutativity", (min(x, y), max(x, y)))
                    assert (exc.value.law, exc.value.witness) == law


def test_join_preservation_checked():
    I = interval()
    with pytest.raises(ViolatedLaw):
        SLatMorphism(cube(2), I, (0, 1, 1, 0))


def test_morphism_rejects_bad_length_and_range():
    I = interval()
    with pytest.raises(ViolatedLaw) as exc:
        SLatMorphism(I, I, (0, 1, 1))
    assert exc.value.law == "length"
    with pytest.raises(ViolatedLaw) as exc:
        SLatMorphism(I, I, (0, 2))
    assert exc.value.law == "range"


def test_morphism_checks_survive_optimized_mode():
    # the constructor raises, and enumeration rejects the non-homs of a
    # non-distributive domain, with asserts stripped
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedylab.semilattice import (\n"
        "    SLatMorphism, backtrack_homs, chain, diamond, enumerate_homs, interval,\n"
        ")\n"
        "I, D, C = interval(), diamond(3), chain(3)\n"
        "laws = []\n"
        "for A, B, bad in ((I, I, (0, 1, 1)), (I, I, (0, 2)), (D, C, (0, 0, 0, 1, 1))):\n"
        "    try:\n"
        "        SLatMorphism(A, B, bad)\n"
        "    except ViolatedLaw as exc:\n"
        "        laws.append(exc.law)\n"
        "homs = [f.map for f in enumerate_homs(D, C)]\n"
        "ok = laws == ['length', 'range', 'join-preservation'] and homs == backtrack_homs(D, C)\n"
        "raise SystemExit(not ok)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# hom enumeration (oracle: literal filtration of all functions)
# ---------------------------------------------------------------------------


def test_interval_endomorphisms_against_brute_force():
    I = interval()
    oracle = all_functions_homs(I, I)
    assert len(oracle) == 3
    assert [f.map for f in enumerate_homs(I, I)] == oracle


def test_square_to_interval_against_brute_force():
    P = cube(2)
    oracle = all_functions_homs(P, interval())
    assert len(oracle) == 5
    got = enumerate_homs(P, interval())
    assert [f.map for f in got] == oracle


def test_free_domain_hom_counts():
    V = atoms_with_top(2)
    for B in [interval(), chain(3), V]:
        assert len(enumerate_homs(V, B)) == B.size**2


def test_enumeration_matches_brute_force_on_all_small_pairs():
    # every ordered pair of classes of size <= 4, and size-5 domains into
    # codomains of size <= 3; each enumerated map also passes the public
    # constructor, which enumeration skips
    small = all_semilattices_upto(4)
    pairs = [(A, B) for A in small for B in small]
    pairs += [(A, B) for A in enumerate_semilattices(5) for B in all_semilattices_upto(3)]
    for A, B in pairs:
        homs = enumerate_homs(A, B)
        lhs = [f.map for f in homs]
        assert lhs == all_functions_homs(A, B)
        assert lhs == backtrack_homs(A, B)
        assert homs == [SLatMorphism(A, B, m) for m in lhs]


def pentagon() -> FiniteSemilattice:
    """0 < a < b < 1 and 0 < c < 1: the smallest non-modular lattice."""
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    ups = [{z for z in range(5) if z == x or (x, z) in order} for x in range(5)]
    # the least common upper bound is the one with the most elements above it
    least = [[max(ups[x] & ups[y], key=lambda z: len(ups[z])) for y in range(5)] for x in range(5)]
    return validate_semilattice(least)


def test_open_pairs_exist_exactly_off_distributive_domains():
    # a leaf of the hom search is a monotone assignment on the irreducibles;
    # with no open pair every leaf is a hom, otherwise some are rejected
    def leaves(A, B):
        gens = A.irreducibles
        P = FinPoset(tuple(tuple(A.leq(g, h) for h in gens) for g in gens))
        return len(monotone_maps(P, FinPoset.of_semilattice(B)))

    P5 = pentagon()
    for B in (chain(3), diamond(3), P5):
        for n in range(4):
            assert len(enumerate_homs(cube(n), B)) == leaves(cube(n), B)
        for A in (diamond(3), P5):
            assert len(enumerate_homs(A, B)) < leaves(A, B)


def test_morphisms_are_validated_once(monkeypatch):
    validated = []
    check = SLatMorphism.__post_init__
    monkeypatch.setattr(SLatMorphism, "__post_init__", lambda f: (validated.append(f), check(f)))
    C = cube(3)
    homs = enumerate_homs(C, C)
    iso = next(f for f in homs if f.is_iso and f.map != tuple(range(8)))
    assert iso.then(homs[100]).map == tuple(homs[100].map[v] for v in iso.map)
    assert iso.inverse().then(iso) == SLatMorphism.identity(C)
    assert validated == []
    SLatMorphism(C, C, homs[100].map)
    assert len(validated) == 1


def test_enumeration_is_sorted_and_duplicate_free():
    V = atoms_with_top(2)
    maps = [f.map for f in enumerate_homs(V, chain(3))]
    assert maps == sorted(maps)
    assert len(set(maps)) == len(maps)


def test_candidate_budget():
    F5, _ = free_on_generators(5)
    with pytest.raises(CandidateSpaceExceeded):
        enumerate_homs(F5, F5, budget=10)


def test_a_pruned_search_finishes_where_its_candidate_space_is_large():
    # 31^5 generator assignments, far above the default budget, but the
    # search keeps only chains of values and tries far fewer candidates;
    # out of a chain, join-preserving equals monotone
    F5, _ = free_on_generators(5)
    homs = enumerate_homs(chain(5), F5)
    assert len(homs) == 4651
    monotone = monotone_maps(FinPoset.chain(5), FinPoset.of_semilattice(F5))
    assert {f.map for f in homs} == set(monotone)


def test_rejected_candidates_are_charged_to_the_budget():
    # 5 candidates at vertex 0, and 5 at vertex 1 under each: 30 tried,
    # every one at vertex 1 rejected
    def search(budget):
        tests = [None, lambda vals: False, None]
        return MonotoneAssignments(chain(5).order, [()] * 3, [()] * 3, [range(5)] * 3, tests, budget)

    exact = search(30)
    assert list(exact) == [] and exact.nodes == 30
    with pytest.raises(CandidateSpaceExceeded, match=r"^30 candidates exceed budget 29$"):
        list(search(29))


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_image_factorize_identity():
    V = atoms_with_top(2)
    surj, mono = image_factorize(SLatMorphism.identity(V))
    assert surj.map == (0, 1, 2) and mono.map == (0, 1, 2)


def test_image_factorize_composes_back():
    rnd = random.Random(7)
    objs = all_semilattices_upto(4)
    for _ in range(60):
        A, B = rnd.choice(objs), rnd.choice(objs)
        homs = enumerate_homs(A, B)
        if not homs:
            continue
        f = rnd.choice(homs)
        surj, mono = image_factorize(f)
        assert surj.is_surjective and mono.is_injective
        assert surj.then(mono).map == f.map


def test_factorization_functorially_stable():
    # factorizing g.f agrees with factorizing g restricted to the image
    # of f, up to the unique comparison isomorphism
    rnd = random.Random(11)
    objs = all_semilattices_upto(4)
    checked = 0
    for _ in range(80):
        A, B, C = rnd.choice(objs), rnd.choice(objs), rnd.choice(objs)
        fs, gs = enumerate_homs(A, B), enumerate_homs(B, C)
        if not fs or not gs:
            continue
        f, g = rnd.choice(fs), rnd.choice(gs)
        gf = f.then(g)
        e, m = image_factorize(gf)
        e1, m1 = image_factorize(f)
        e2, m2 = image_factorize(m1.then(g))
        # gf = m2 . (e2 . e1): uniqueness gives exactly one linking iso
        linking = [
            th
            for th in enumerate_homs(e.cod, e2.cod)
            if th.is_iso
            and e.then(th).map == e1.then(e2).map
            and th.then(m2).map == m.map
        ]
        assert len(linking) == 1
        checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_free_on_generators():
    F1, u1 = free_on_generators(1)
    assert F1.size == 1
    F2, u2 = free_on_generators(2)
    assert F2.size == 3 and are_isomorphic(F2, atoms_with_top(2))
    F4, _ = free_on_generators(4)
    # oracle: closure of the generators under join
    gens = set(free_on_generators(4)[1])
    closure = set(gens)
    grew = True
    while grew:
        grew = False
        for x in list(closure):
            for y in list(closure):
                j = F4.join[x][y]
                if j not in closure:
                    closure.add(j)
                    grew = True
    assert F4.size == len(closure) == 15
    with pytest.raises(SizeBudget):
        free_on_generators(13)


def test_free_adjunction_bijection():
    # |Hom(F(k), B)| = |B|^k for k <= 3 over every class of size <= 5
    for k in (1, 2, 3):
        F, unit = free_on_generators(k)
        for B in all_semilattices_upto(5):
            assert len(enumerate_homs(F, B)) == B.size**k


def test_adjoin_bottom():
    B, incl = adjoin_bottom(chain(1))
    assert are_isomorphic(B, interval())
    B2, _ = adjoin_bottom(atoms_with_top(2))
    assert are_isomorphic(B2, cube(2))
    B3, _ = adjoin_bottom(atoms_with_top(3))
    assert are_isomorphic(B3, diamond(3))
    assert incl.is_injective


# ---------------------------------------------------------------------------
# distributivity
# ---------------------------------------------------------------------------


def test_distributivity_verdicts():
    assert is_distributive_lattice(interval())
    assert is_distributive_lattice(cube(2))
    m3 = is_distributive_lattice(diamond(3))
    assert not m3 and m3.reason == "violation"
    v = is_distributive_lattice(atoms_with_top(2))
    assert not v and v.reason == "no-bottom"


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def brute_force_smallest_congruence(A, pairs):
    """Oracle: scan all partitions for the smallest join-compatible
    equivalence containing the pairs."""
    n = A.size

    def partitions(xs):
        if not xs:
            yield []
            return
        first, rest = xs[0], xs[1:]
        for p in partitions(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1 :]
            yield [[first]] + p

    best = None
    for p in partitions(list(range(n))):
        cls = {}
        for i, block in enumerate(p):
            for x in block:
                cls[x] = i
        if any(cls[a] != cls[b] for a, b in pairs):
            continue
        compatible = all(
            cls[A.join[x][z]] == cls[A.join[y][z]]
            for x in range(n)
            for y in range(n)
            if cls[x] == cls[y]
            for z in range(n)
        )
        if compatible and (best is None or len(p) > len(best)):
            best = p
    return best


def test_quotient_empty_pairs_is_identity():
    V = atoms_with_top(2)
    q = quotient_by_pairs(V, [])
    assert q.map == (0, 1, 2) and q.cod.size == 3


def test_quotient_collapse_interval():
    q = quotient_by_pairs(interval(), [(0, 1)])
    assert q.cod.size == 1


def test_quotient_square_by_incomparable_pair():
    # identifying the two middle elements of the square forces their
    # joins with each other in as well: the congruence absorbs the top,
    # leaving the two-element chain (cross-checked by partition scan)
    P = cube(2)
    q = quotient_by_pairs(P, [(1, 2)])
    oracle = brute_force_smallest_congruence(P, [(1, 2)])
    assert sorted(len(b) for b in oracle) == [1, 3]
    assert q.cod.size == 2
    assert q.map[1] == q.map[2] == q.map[3] != q.map[0]


def test_quotient_matches_partition_oracle_on_samples():
    rnd = random.Random(3)
    for A in [cube(2), chain(4), atoms_with_top(3), diamond(3)]:
        for _ in range(4):
            i, j = rnd.randrange(A.size), rnd.randrange(A.size)
            q = quotient_by_pairs(A, [(i, j)])
            oracle = brute_force_smallest_congruence(A, [(i, j)])
            assert q.cod.size == len(oracle)


def _partition(f):
    """The classes of the kernel of f, as sorted lists."""
    classes: dict = {}
    for x, v in enumerate(f.map):
        classes.setdefault(v, []).append(x)
    return sorted(classes.values())


def test_quotient_matches_the_partition_oracle_on_every_pair():
    # every pair (i, j), i < j, of every class of size <= 4
    for A in all_semilattices_upto(4):
        for i in range(A.size):
            for j in range(i + 1, A.size):
                q = quotient_by_pairs(A, [(i, j)])
                oracle = brute_force_smallest_congruence(A, [(i, j)])
                assert _partition(q) == sorted(sorted(block) for block in oracle), (A.join, i, j)


def test_quotient_matches_the_union_find_route():
    # random pair sets, 20 per class of size <= 6, against the join
    # saturation of a union-find
    rnd = random.Random(11)
    for A in all_semilattices_upto(6):
        for _ in range(20):
            pairs = [(rnd.randrange(A.size), rnd.randrange(A.size)) for _ in range(rnd.randrange(1, 4))]
            q, old = quotient_by_pairs(A, pairs), reference.quotient_by_pairs(A, pairs)
            assert _partition(q) == _partition(old), (A.join, pairs)
            assert canonical_form(q.cod) == canonical_form(old.cod)


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------


def permuted(A, perm):
    """A's structure transported along perm, where perm[new] = old."""
    inv = [0] * A.size
    for new, old in enumerate(perm):
        inv[old] = new
    return FiniteSemilattice(tuple(tuple(inv[A.join[x][y]] for y in perm) for x in perm))


def test_a_semilattice_is_its_join_table():
    # equal tables make equal semilattices, whichever constructor built them
    pairs = [(cube(1), chain(2)), (chain(2), interval())]
    pairs.append((cube(2), adjoin_bottom(atoms_with_top(2))[0]))
    for A, B in pairs:
        assert A == B and hash(A) == hash(B)


def test_canonical_form_invariant_under_relabeling():
    rnd = random.Random(0)
    for A in [diamond(3), chain(4), cube(2), atoms_with_top(3)]:
        perm = list(range(A.size))
        rnd.shuffle(perm)
        B = permuted(A, perm)
        assert canonical_form(A) == canonical_form(B)
        assert are_isomorphic(A, B)


def test_non_isomorphic_pairs():
    assert not are_isomorphic(chain(3), atoms_with_top(2))
    assert find_isomorphism(chain(3), atoms_with_top(2)) is None
    B, _ = adjoin_bottom(atoms_with_top(2))
    assert are_isomorphic(B, cube(2))
    iso = find_isomorphism(B, cube(2))
    assert iso is not None and iso.is_iso


def test_canonical_form_agrees_with_bijection_search():
    # every class of size <= 5 and a relabelled copy of each
    rnd = random.Random(0)
    classes = all_semilattices_upto(5)
    objs = classes + [permuted(A, rnd.sample(range(A.size), A.size)) for A in classes]
    for A in objs:
        for B in objs:
            iso = find_isomorphism(A, B)
            assert (canonical_form(A) == canonical_form(B)) == (iso is not None)
            if iso is not None:
                assert sorted(iso.map) == list(range(B.size))
                assert all(
                    iso.map[A.join[x][y]] == B.join[iso.map[x]][iso.map[y]]
                    for x in range(A.size)
                    for y in range(A.size)
                )


def test_enumerate_semilattices_counts():
    assert [len(enumerate_semilattices(n)) for n in range(1, 7)] == [1, 1, 2, 5, 15, 53]
    with pytest.raises(SizeBudget):
        enumerate_semilattices(7)


def test_one_point_extensions_give_the_relation_filter_classes():
    # the same classes in the same order as the filter over every order
    # relation compatible with the integer order
    expected = []
    for n in range(1, 7):
        classes = reference.enumerate_semilattices(n)
        assert enumerate_semilattices(n) == classes
        expected += classes
    assert all_semilattices_upto(6) == expected


def test_least_above_is_none_unless_the_subset_is_closed():
    D = diamond(3)  # bottom 0, atoms 1-3, top 4
    assert least_above(D, (0, 4)) == (0, 4, 4, 4, 4)
    assert least_above(D, (1, 4)) == (1, 1, 4, 4, 4)
    # two atoms are minimal above the bottom, and nothing is above the top
    assert least_above(D, (1, 2, 4)) is None
    assert least_above(D, (0, 1, 2, 3)) is None


def test_size_counts_match_bottomed_classes_one_larger():
    # adjoining a bottom is a bijection between classes of size n and
    # classes of size n+1 that have a minimum
    for n in (2, 3, 4):
        with_bottom = [
            A for A in enumerate_semilattices(n + 1) if A.bottom is not None
        ]
        assert len(with_bottom) == len(enumerate_semilattices(n))


# ---------------------------------------------------------------------------
# epis, injectives, projectives at desk scale
# ---------------------------------------------------------------------------


def test_epi_iff_surjective():
    small = all_semilattices_upto(3)
    targets = all_semilattices_upto(4)
    for A in small:
        for B in small:
            for f in enumerate_homs(A, B):
                epi = True
                for C in targets:
                    homs = enumerate_homs(B, C)
                    for i, g in enumerate(homs):
                        for h in homs[i + 1 :]:
                            if f.then(g).map == f.then(h).map:
                                epi = False
                                break
                        if not epi:
                            break
                    if not epi:
                        break
                assert epi == f.is_surjective


def test_injective_iff_distributive():
    objs = all_semilattices_upto(4)
    for A in objs:
        injective = True
        for B in objs:
            to_a = enumerate_homs(B, A)
            for C in objs:
                from_c = enumerate_homs(C, A)
                for m in enumerate_homs(B, C):
                    if not m.is_injective:
                        continue
                    for f in to_a:
                        extensions = [g for g in from_c if m.then(g).map == f.map]
                        if not extensions:
                            injective = False
                            break
                    if not injective:
                        break
                if not injective:
                    break
            if not injective:
                break
        assert injective == bool(is_distributive_lattice(A))


def test_projective_iff_bottomed_distributive():
    # surjection domains must reach size 5: the minimal cover refuting
    # the tripod's projectivity (pinched_tripod_cover) has five elements,
    # so at domain cap 4 the equivalence is false
    objs = all_semilattices_upto(4)
    domains = all_semilattices_upto(5)
    covers = [
        e
        for R in domains
        for S in objs
        for e in reference.enumerate_surjections(R, S)
        if not e.is_iso
    ]
    for A in objs:
        homs = {S: enumerate_homs(A, S) for S in objs}
        projective = all(
            lift_through_surjection(A, e, f) is not None for e in covers for f in homs[e.cod]
        )
        B, _ = adjoin_bottom(A)
        assert projective == bool(is_distributive_lattice(B)), A.join


def test_pinched_cover_has_no_section():
    A, e = pinched_tripod_cover()
    T = e.cod
    assert e.is_surjective
    assert lift_through_surjection(T, e, SLatMorphism.identity(T)) is None


def test_pinched_cover_is_the_minimal_nonsplit_cover():
    # covers with at most four elements are bijective, hence split; among
    # the fifteen size-5 classes exactly one carries a non-split cover of
    # the tripod, and it is the pinched one
    A5, _ = pinched_tripod_cover()
    T = atoms_with_top(3)
    for A in all_semilattices_upto(4):
        for e in reference.enumerate_surjections(A, T):
            assert lift_through_surjection(T, e, SLatMorphism.identity(T))
    nonsplit = []
    for A in enumerate_semilattices(5):
        if any(
            lift_through_surjection(T, e, SLatMorphism.identity(T)) is None
            for e in reference.enumerate_surjections(A, T)
        ):
            nonsplit.append(A)
    assert len(nonsplit) == 1 and are_isomorphic(nonsplit[0], A5)


# ---------------------------------------------------------------------------
# JSON and DOT plumbing
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    # an export-dot semilattice document gives back its table and labels
    A = diamond(3)
    labels = ["bot", "a0", "a1", "a2", "top"]
    doc = {"join": [list(row) for row in A.join], "labels": labels}
    assert _semilattice_document(doc) == (A, labels)
    assert _semilattice_document({"join": doc["join"]}) == (A, ["0", "1", "2", "3", "4"])


def test_covers_of_square():
    P = cube(2)
    assert set(P.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_union_find_reports_merges():
    uf = UnionFind(range(4))
    assert uf.union(2, 3) is True
    assert uf.union(3, 2) is False
    assert uf.union(0, 3) is True
    assert uf.union(2, 0) is False
    assert uf.find(3) == uf.find(2) == uf.find(0)


def test_union_find_root_is_least_key_and_classes_sorted_by_root():
    uf = UnionFind([5, 1, 4, 3, 2, 0])
    uf.union(5, 4)
    uf.union(4, 3)
    uf.union(2, 1)
    assert [uf.find(k) for k in (5, 4, 3, 2, 1, 0)] == [3, 3, 3, 1, 1, 0]
    assert uf.classes() == [[0], [1, 2], [3, 4, 5]]
    classes, index = uf.partition()
    assert classes == uf.classes()
    assert index == {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}


def test_union_find_tuple_keys():
    keys = [(r, x) for r in (1, 0) for x in range(2)]
    uf = UnionFind(keys)
    assert uf.union((1, 1), (0, 1))
    assert uf.union((1, 0), (1, 1))
    assert not uf.union((0, 1), (1, 0))
    assert uf.find((1, 0)) == (0, 1)
    assert uf.classes() == [[(0, 0)], [(0, 1), (1, 0), (1, 1)]]


def test_descend_least_value_and_bad_classes_in_order():
    classes = [[0, 1], [2], [3, 4, 5], [6, 7]]
    value = {0: 9, 1: 9, 2: 4, 3: 7, 4: 2, 5: 7, 6: 1, 7: 0}.__getitem__
    values, bad = descend(classes, value)
    assert values == [9, 4, 2, 0]
    assert bad == [2, 3]
    assert descend(classes[:2], value) == ([9, 4], [])
    assert descend([], value) == ([], [])
