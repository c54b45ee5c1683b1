import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reedy_reference as reference
from reedylab import kernel
from reedylab.certificates import FAIL, NO_CASES, Check, scan
from reedylab.errors import NotSurjective, SizeBudget, ViolatedLaw
from reedylab.obstruction import map_t, map_u
from reedylab.presheaf import (
    Corpus,
    maps_lowering_pushouts_to_pullbacks,
    non_reedy_mono_example,
    representable,
)
from reedylab.reedy import (
    FinCategory,
    certify_cancellation,
    certify_pre_elegance,
    certify_reedy_axioms,
    pushout_via_congruence,
    quotient_closure,
    reedy_category_on,
    truncated_semilattice_category,
    verify_pushout_universal,
)
from reedylab.cubes import cube
from reedylab.semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    SLatMorphism,
    all_semilattices_upto,
    are_isomorphic,
    atoms_with_top,
    chain,
    diamond,
    image_factorize,
    interval,
    pinched_tripod_cover,
)


@pytest.fixture(scope="module")
def trunc3():
    return truncated_semilattice_category(3)


def test_degree_is_cardinality(trunc3):
    cat, data, squares = trunc3
    assert data.degree == tuple(O.size for O in cat.objects) == (1, 2, 3, 3)


def test_reedy_factor_examples():
    # the Reedy factorization is the image factorization
    # injective maps factor as (iso, self)
    incl = SLatMorphism(interval(), chain(3), (0, 2))
    low, high = image_factorize(incl)
    assert low.is_iso and high.is_injective
    # the surjection t is its own lowering part
    t = map_t()
    low, high = image_factorize(t)
    assert low.map == t.map and high.map == (0, 1, 2)
    # u factors through the diamond
    u = map_u()
    low, high = image_factorize(u)
    assert are_isomorphic(low.cod, diamond(3))
    assert high.is_injective and low.is_surjective


def test_truncated_category_shapes(trunc3):
    cat, data, squares = trunc3
    assert [O.size for O in cat.objects] == [1, 2, 3, 3]
    assert len(cat.homs[(1, 1)]) == 3
    # one of the size-3 objects is the free one with a swap automorphism
    auts = {i: len(cat.isos(i, i)) for i in (2, 3)}
    assert sorted(auts.values()) == [1, 2]
    assert data.degree == (1, 2, 3, 3)


def test_truncated_category_terminal_case():
    cat, data, squares = truncated_semilattice_category(1)
    assert len(cat.objects) == 1
    assert len(list(cat.morphisms())) == 1
    assert len(squares) == 1
    # refused by the constant maps alone, before any hom-set is enumerated
    with pytest.raises(SizeBudget, match="at least 13712468 composable pairs"):
        truncated_semilattice_category(6)


def test_codiagonal_pushout_is_codomain():
    e = reference.enumerate_surjections(chain(3), interval())[0]
    sq = reference.lowering_pushout(e, e)
    assert sq.carrier.size == 2
    assert sq.f0.map == sq.f1.map == (0, 1)


def test_projection_span_pushout_is_terminal():
    C, I = cube(2), interval()
    p0, p1 = (SLatMorphism(C, I, tuple((v >> i) & 1 for v in range(4))) for i in (0, 1))
    sq = reference.lowering_pushout(p0, p1)
    assert sq.carrier.size == 1


def test_identity_leg_pushout():
    e = reference.enumerate_surjections(chain(3), interval())[0]
    sq = reference.lowering_pushout(SLatMorphism.identity(chain(3)), e)
    assert are_isomorphic(sq.carrier, interval())
    assert sq.f1.is_iso


def test_pushout_requires_surjections():
    incl = SLatMorphism(interval(), chain(3), (0, 2))
    with pytest.raises(NotSurjective):
        reference.lowering_pushout(incl, SLatMorphism.identity(interval()))


def test_pushout_leaving_the_objects_breaks_closure():
    # the two surjections chain(3) -> interval push out to a point, which
    # is not an object
    with pytest.raises(ViolatedLaw) as exc:
        reedy_category_on([chain(3), interval()])
    assert (exc.value.law, exc.value.witness) == ("pushout-closure", ((0, 1, 1), (0, 1, 2)))


def _off_carrier(cat, squares):
    """The last square with its legs moved: f1 into another object q, so
    that the legs do not meet, then both legs into q."""
    r0, r1, f0, f1 = squares[-1]
    q = next(q for q in range(len(cat.objects)) if q != cat.cod(f0))
    g0, g1 = (cat.refs(cat.cod(r), q)[0] for r in (r0, r1))
    return (r0, r1, f0, g1), (r0, r1, g0, g1)


def test_closure_fails_on_a_square_off_its_carrier(trunc3):
    # a square's carrier is where its legs land, so legs that land in two
    # objects fail closure, and that check comes back alone; legs that
    # both land in q make a square onto q, closed but not a pushout
    cat, data, squares = trunc3
    apart, elsewhere = _off_carrier(cat, squares)
    checks = certify_pre_elegance(cat, data, squares[:5] + [apart])
    span = (cat.ref(apart[0]), cat.ref(apart[1]))
    assert [c.to_json() for c in checks] == [
        {"id": "lowering-pushout-closure", "status": "fail", "count": 6, "witness": {"span": span}}
    ]
    checks = certify_pre_elegance(cat, data, squares[:5] + [elsewhere])
    assert _status(checks, "lowering-pushout-closure") == "pass"
    assert _status(checks, "pushout-universal-property") == "fail"


def test_set_pushout_check_fails_on_a_swapped_leg(trunc3):
    # the fourth square with f0 swapped for another map of its hom-set:
    # f0 e0 no longer has the congruence quotient's kernel on the apex
    cat, data, squares = trunc3
    e0, e1, f0, f1 = squares[3]
    g0 = next(g for g in cat.refs(cat.cod(e0), cat.cod(f0)) if g != f0)
    swapped = squares[:3] + [(e0, e1, g0, f1)] + squares[4:]
    checks = certify_pre_elegance(cat, data, swapped)
    (check,) = [c for c in checks if c.id == "set-pushout-matches-congruence-quotient"]
    assert check.to_json() == {
        "id": "set-pushout-matches-congruence-quotient",
        "status": "fail",
        "count": 4,
        "witness": {"span": ((1, 1, 1), (1, 1, 1))},
    }
    assert _status(certify_pre_elegance(cat, data, squares), check.id) == "pass"


def test_pullback_criterion_refuses_a_square_whose_legs_do_not_meet(trunc3):
    cat, data, squares = trunc3
    apart, _ = _off_carrier(cat, squares)
    corpus = Corpus.of(cat, [representable(cat, 0)])
    with pytest.raises(ViolatedLaw) as exc:
        maps_lowering_pushouts_to_pullbacks(corpus, squares[:5] + [apart])
    assert (exc.value.law, exc.value.witness) == ("square-shape", apart)


def test_pushout_universal_property(trunc3):
    cat, data, squares = trunc3
    for sq in squares[:10]:
        check = verify_pushout_universal(cat, [sq])
        assert check.status == "pass" and check.count > 0


def test_congruence_route_matches_set_route_up_to_size_4():
    cat, data, squares = truncated_semilattice_category(4)
    assert len(squares) == 347
    for e0, e1, f0, _ in squares:
        e0, f0 = cat.mor(e0), cat.mor(f0)
        proj = pushout_via_congruence(e0, cat.mor(e1))
        assert proj.cod.size == f0.cod.size
        # same quotient of the apex
        pairing = {}
        for a in range(e0.dom.size):
            pairing.setdefault(proj.map[a], set()).add(f0.map[e0.map[a]])
        assert all(len(v) == 1 for v in pairing.values())


def test_certificates_all_pass_n3(trunc3):
    cat, data, squares = trunc3
    for checks in (
        certify_reedy_axioms(cat, data),
        certify_cancellation(cat, data),
        certify_pre_elegance(cat, data, squares),
    ):
        assert [c for c in checks if c.status != "pass"] == []


def test_constant_degree_fails_axioms():
    cat, data, squares = truncated_semilattice_category(2)
    broken = dataclasses.replace(data, degree=(0, 0))
    failed = {c.id for c in certify_reedy_axioms(cat, broken) if c.status == "fail"}
    assert "degree-monotonicity" in failed


def test_free_action_on_lowering_witnessed(trunc3):
    cat, data, squares = trunc3
    free_obj = next(i for i in (2, 3) if len(cat.isos(i, i)) == 2)
    swap = next(
        th for th in cat.isos(free_obj, free_obj) if not cat.is_identity(th)
    )
    surjs = [
        ref
        for ref in cat.morphisms()
        if cat.dom(ref) == free_obj and cat.cod(ref) == 1 and data.lowering[ref]
    ]
    assert len(surjs) == 2
    # the swap automorphism exchanges the two collapses, fixing neither
    assert {cat.compose(swap, e) for e in surjs} == set(surjs)
    assert all(cat.compose(swap, e) != e for e in surjs)


def test_cancellation_vacuous_case(trunc3):
    # gf surjective with g injective non-surjective cannot occur
    cat, data, squares = trunc3
    count = 0
    for f in cat.morphisms():
        for g in cat.morphisms():
            if cat.cod(f) != cat.dom(g):
                continue
            gf = cat.compose(f, g)
            if data.lowering[gf] and data.raising[g] and not data.lowering[g]:
                count += 1
    assert count == 0


def composable(cat):
    """(f, g, g after f) for every composable pair, read from the
    composition table block by block and row by row."""
    for (a, b), block in cat.composition.items():
        for f, row in zip(cat.refs(a, b), block.tolist()):
            for g, h in zip(cat.out_of(b), row):
                yield f, g, h


def test_walking_interface_matches_filtered_scans(trunc3):
    # the all-pairs and endpoint scans the walking interface replaced
    cat, data, squares = trunc3
    morphs = list(cat.morphisms())
    assert list(composable(cat)) == [
        (f, g, cat.compose(f, g)) for f in morphs for g in morphs if cat.cod(f) == cat.dom(g)
    ]
    for a in range(len(cat.objects)):
        assert tuple(cat.out_of(a)) == tuple(f for f in morphs if cat.dom(f) == a)
        for b in range(len(cat.objects)):
            ends = (a, b)
            assert tuple(cat.refs(a, b)) == tuple(f for f in morphs if cat.ref(f)[:2] == ends)
            assert [cat.mor(f) for f in cat.refs(a, b)] == cat.hom(a, b)
            assert [cat.ref(f)[2] for f in cat.refs(a, b)] == list(range(len(cat.hom(a, b))))


def test_all_morphisms_classified(trunc3):
    cat, data, squares = trunc3
    for ref in cat.morphisms():
        both = data.lowering[ref] and data.raising[ref]
        assert both == cat.mor(ref).is_iso


def test_factorization_unique_up_to_unique_iso_size_4():
    cat, data, squares = truncated_semilattice_category(4)
    isos_cache = {}
    checked = 0
    for ref in cat.morphisms():
        a, b = cat.dom(ref), cat.cod(ref)
        canonical = None
        for c in range(len(cat.objects)):
            for e in cat.refs(a, c):
                if not data.lowering[e]:
                    continue
                for m in cat.refs(c, b):
                    if not data.raising[m] or cat.compose(e, m) != ref:
                        continue
                    if canonical is None:
                        canonical = (e, m)
                        continue
                    e0, m0 = canonical
                    linking = [
                        th
                        for th in cat.isos(cat.cod(e0), c)
                        if cat.compose(e0, th) == e and cat.compose(th, m) == m0
                    ]
                    assert len(linking) == 1, (ref, canonical, (e, m))
                    checked += 1
        assert canonical is not None
    assert checked > 0


def test_quotient_closure_contains_all_quotients():
    A5, e = pinched_tripod_cover()
    objs = quotient_closure([A5])
    sizes = sorted(O.size for O in objs)
    assert sizes[0] == 1 and sizes[-1] == 5
    assert any(are_isomorphic(O, atoms_with_top(3)) for O in objs)
    # closed: every surjective image of every object is present
    from reedylab.semilattice import all_semilattices_upto

    for A in objs:
        for B in all_semilattices_upto(A.size):
            if reference.enumerate_surjections(A, B):
                assert any(are_isomorphic(O, B) for O in objs)


def test_quotient_closure_of_the_3_cube():
    # one class per closure operator of the 3-cube: each is a quotient,
    # and each class of size <= 6 that the cube maps onto is among them
    C3 = cube(3)
    objs = quotient_closure([C3])
    assert [O.size for O in objs] == [1, 2, 3, 4, 4, 5, 5, 5, 5, 6, 6, 7, 8]
    assert all(reference.enumerate_surjections(C3, O) for O in objs)
    for B in all_semilattices_upto(6):
        if reference.enumerate_surjections(C3, B):
            assert B in objs


def _status(checks, check_id):
    return next(c.status for c in checks if c.id == check_id)


def _set_composite(cat, f, g, h):
    """Overwrite the table entry for g after f with h."""
    a, b, i = cat.ref(f)
    cat.composition[(a, b)][i, cat.out_of(b).index(g)] = h


def test_bad_lowering_square_raises_in_optimized_mode():
    # a square that does not commute, and one whose legs do not meet
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedy_reference import LoweringPushoutSquare\n"
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "I, C = interval(), chain(3)\n"
        "ident, top = SLatMorphism.identity(I), SLatMorphism(I, I, (1, 1))\n"
        "collapse = SLatMorphism(C, I, (0, 1, 1))\n"
        "laws = []\n"
        "for build in (\n"
        "    lambda: LoweringPushoutSquare(ident, ident, ident, top),\n"
        "    lambda: LoweringPushoutSquare(ident, collapse, ident, ident),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except ViolatedLaw as exc:\n"
        "        laws.append(exc.law)\n"
        "ok = laws == ['square-commutativity', 'square-shape']\n"
        "raise SystemExit(0 if ok else f'laws raised: {laws}')\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_pushout_universal_property_reads_the_table():
    cat, data, squares = truncated_semilattice_category(3)
    checks = certify_pre_elegance(cat, data, squares)
    assert _status(checks, "pushout-universal-property") == "pass"
    # a square with two composites to tell apart and a second map g1
    # next to f1 in Hom(b1, p)
    e0, e1, f0, f1 = next(
        sq
        for sq in squares
        if (sq[0], sq[2]) != (sq[1], sq[3]) and len(cat.refs(cat.cod(sq[1]), cat.cod(sq[3]))) > 1
    )
    g1 = next(g for g in cat.refs(cat.cod(e1), cat.cod(f1)) if g != f1)
    # e0 then f0 now equals e1 then g1, so (f0, g1) looks like a cocone
    # with no mediating map
    _set_composite(cat, e0, f0, cat.compose(e1, g1))
    assert cat.compose(e0, f0) != cat.compose(e1, f1)
    checks = certify_pre_elegance(cat, data, squares)
    assert _status(checks, "pushout-universal-property") == "fail"


def test_closed_classes_reads_the_table():
    cat, data, squares = truncated_semilattice_category(3)
    f, g = next(
        (f, g)
        for f in cat.morphisms()
        for g in data.lowering_out[cat.cod(f)]
        if data.lowering[f]
        and any(not data.lowering[h] for h in cat.refs(cat.dom(f), cat.cod(g)))
    )
    _set_composite(
        cat, f, g, next(h for h in cat.refs(cat.dom(f), cat.cod(g)) if not data.lowering[h])
    )
    checks = certify_reedy_axioms(cat, data)
    assert _status(checks, "classes-closed-under-composition") == "fail"


def _walk_validate(cat):
    """The law and witness of the first failure of a walk over the hom-sets
    and the composable triples: duplicate maps, units, associativity."""
    for (a, b), fs in cat.homs.items():
        if len({f.map for f in fs}) != len(fs):
            return "duplicate-morphisms", (a, b)
        for ref in cat.refs(a, b):
            if (
                cat.compose(cat.identities[a], ref) != ref
                or cat.compose(ref, cat.identities[b]) != ref
            ):
                return "unit", ref
    for f, g, gf in composable(cat):
        for h in cat.out_of(cat.cod(g)):
            if cat.compose(gf, h) != cat.compose(f, cat.compose(g, h)):
                return "associativity", (f, g, h)
    return None


def test_size_3_table_passes_the_law_walk():
    cat, data, squares = truncated_semilattice_category(3)
    assert _walk_validate(cat) is None


def test_missing_composite_fails_the_build(monkeypatch):
    import reedylab.reedy as reedy

    real = reedy.enumerate_homs

    # the constant map at the bottom of the interval is the composite of
    # the interval's collapse with the terminal object's bottom point
    def without_the_bottom_constant(A, B, budget):
        fs = real(A, B, budget)
        return [f for f in fs if not (A.size == B.size == 2 and f.map == (0, 0))]

    monkeypatch.setattr(reedy, "enumerate_homs", without_the_bottom_constant)
    with pytest.raises(ViolatedLaw) as err:
        truncated_semilattice_category(2)
    assert err.value.law == "composition-closure"


def _walk_lifting(cat, data):
    """The Python walk over commuting squares that the block scan of
    orthogonal-lifting-unique replaced."""
    morphs = list(cat.morphisms())
    for e in morphs:
        if not data.lowering[e]:
            continue
        for m in morphs:
            if not data.raising[m]:
                continue
            for u in cat.refs(cat.dom(e), cat.dom(m)):
                um = cat.compose(u, m)
                for v in cat.refs(cat.cod(e), cat.cod(m)):
                    if cat.compose(e, v) != um:
                        continue
                    diagonals = [
                        w
                        for w in cat.refs(cat.cod(e), cat.dom(m))
                        if cat.compose(e, w) == u and cat.compose(w, m) == v
                    ]
                    yield None if len(diagonals) == 1 else {
                        "e": cat.ref(e),
                        "m": cat.ref(m),
                        "u": cat.ref(u),
                        "v": cat.ref(v),
                        "diagonals": len(diagonals),
                    }


def _walk_pair_checks(cat, data):
    """The Python walks that the block scans of
    classes-closed-under-composition, orthogonal-lifting-unique and
    composite-class-cancellation replaced."""
    low, high = data.lowering, data.raising
    closed = (
        {"f": cat.ref(f), "g": cat.ref(g)}
        if (low[f] and low[g] and not low[gf]) or (high[f] and high[g] and not high[gf])
        else None
        for f, g, gf in composable(cat)
    )
    cancel = (
        {"f": cat.ref(f), "g": cat.ref(g)}
        if (low[gf] and not low[g]) or (high[gf] and not high[f])
        else None
        for f, g, gf in composable(cat)
    )
    return [
        scan("classes-closed-under-composition", closed),
        scan("orthogonal-lifting-unique", _walk_lifting(cat, data)),
        scan("composite-class-cancellation", cancel),
    ]


def test_block_scans_match_the_walks_on_corrupted_tables():
    import random

    cat, data, squares = truncated_semilattice_category(3)
    clean = {key: block.copy() for key, block in cat.composition.items()}
    low, high = data.lowering, data.raising
    pairs = [(f, g) for f, g, _ in composable(cat)]
    # the pairs whose composite the closure check constrains
    closed = [(f, g) for f, g in pairs if (low[f] and low[g]) or (high[f] and high[g])]
    rng = random.Random(0)
    statuses = []
    for _ in range(30):
        for key, block in clean.items():
            cat.composition[key][...] = block
        for f, g in rng.sample(pairs, 2) + rng.sample(closed, 2):
            _set_composite(cat, f, g, rng.choice(cat.refs(cat.dom(f), cat.cod(g))))
        scans = [
            c
            for c in certify_reedy_axioms(cat, data) + certify_cancellation(cat, data)
            if c.id in (
                "classes-closed-under-composition",
                "orthogonal-lifting-unique",
                "composite-class-cancellation",
            )
        ]
        assert scans == _walk_pair_checks(cat, data)
        statuses.append(tuple(c.status for c in scans))
    # each check fails on some tables and passes on others
    assert all({s[k] for s in statuses} == {"pass", "fail"} for k in range(3))


# One table entry of the size-3 truncation overwritten, as (block, row,
# column, new id), and the three block scans' (status, count, witness)
# after it, as the tuple-keyed walks first gave them.
CORRUPTED_TABLE_SCANS = [
    (
        ((0, 0), 0, 1, 2),
        {
            "classes-closed-under-composition": ("pass", 1399, None),
            "orthogonal-lifting-unique": (
                "fail",
                2,
                {"e": (0, 0, 0), "m": (0, 1, 0), "u": (0, 0, 0), "v": (0, 1, 0), "diagonals": 0},
            ),
            "composite-class-cancellation": ("pass", 1399, None),
        },
    ),
    (
        ((1, 0), 0, 1, 11),
        {
            "classes-closed-under-composition": ("pass", 1399, None),
            "orthogonal-lifting-unique": (
                "fail",
                42,
                {"e": (1, 0, 0), "m": (1, 2, 1), "u": (1, 1, 0), "v": (0, 2, 0), "diagonals": 0},
            ),
            "composite-class-cancellation": ("fail", 176, {"f": (1, 0, 0), "g": (0, 1, 0)}),
        },
    ),
    (
        ((1, 1), 1, 2, 10),
        {
            "classes-closed-under-composition": ("fail", 201, {"f": (1, 1, 1), "g": (1, 1, 1)}),
            "orthogonal-lifting-unique": (
                "fail",
                41,
                {"e": (1, 0, 0), "m": (1, 1, 1), "u": (1, 1, 1), "v": (0, 1, 0), "diagonals": 0},
            ),
            "composite-class-cancellation": ("pass", 1399, None),
        },
    ),
]


@pytest.mark.parametrize("entry, expected", CORRUPTED_TABLE_SCANS)
def test_block_scan_witnesses_on_a_corrupted_table(entry, expected):
    cat, data, squares = truncated_semilattice_category(3)
    key, i, j, h = entry
    cat.composition[key][i, j] = h
    scans = {
        c.id: (c.status, c.count, c.witness)
        for c in certify_reedy_axioms(cat, data) + certify_cancellation(cat, data)
        if c.id in expected
    }
    assert scans == expected


def _table_scans(cat, data):
    """The four Reedy checks read off whole table blocks, and the
    reference routes they replaced, as two lists of Checks."""
    low, high = data.lowering, data.raising
    ours = [
        kernel.factorization_scan(cat, data),
        kernel.orthogonal_lifting(cat, low, high),
        kernel.free_action_scan(cat, low),
        kernel.split_scan(cat, low, high),
    ]
    theirs = [
        reference.factorization_check(cat, data),
        reference.orthogonal_lifting_blocks(cat, low, high),
        reference.free_action_check(cat, data),
        reference.split_check(cat, data),
    ]
    return ours, theirs


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_table_scans_match_the_reference(N):
    cat, data, squares = truncated_semilattice_category(N)
    ours, theirs = _table_scans(cat, data)
    assert ours == theirs
    assert {c.status for c in ours} == {"pass"}


@pytest.mark.parametrize("entry, expected", CORRUPTED_TABLE_SCANS)
def test_table_scans_match_the_reference_on_a_corrupted_table(entry, expected):
    cat, data, squares = truncated_semilattice_category(3)
    key, i, j, h = entry
    cat.composition[key][i, j] = h
    ours, theirs = _table_scans(cat, data)
    assert ours == theirs


def test_table_scans_match_the_reference_on_seeded_corrupted_tables():
    """Two entries overwritten anywhere, one that the free-action check
    reads (a lowering row at a non-identity automorphism) and one that
    the split check reads (a composite back into the domain), each with
    a random map of the right hom-set."""
    import random

    cat, data, squares = truncated_semilattice_category(3)
    clean = {key: block.copy() for key, block in cat.composition.items()}
    pairs = list(composable(cat))
    free = [
        (f, g, h)
        for f, g, h in pairs
        if data.lowering[f] and cat.dom(g) == cat.cod(g) and cat.mor(g).is_iso
        and not cat.is_identity(g)
    ]
    split = [(f, g, h) for f, g, h in pairs if cat.cod(g) == cat.dom(f)]
    statuses = []
    for seed in range(60):
        rng = random.Random(seed)
        for key, block in clean.items():
            cat.composition[key][...] = block
        for f, g, h in rng.sample(pairs, 2) + [rng.choice(free), rng.choice(split)]:
            _set_composite(cat, f, g, rng.choice(cat.refs(cat.dom(f), cat.cod(g))))
        ours, theirs = _table_scans(cat, data)
        assert ours == theirs
        statuses.append([c.status for c in ours])
    # each check fails on some tables and passes on others
    assert all({s[k] for s in statuses} == {"pass", "fail"} for k in range(4))


def _with_flags(cat, data, lowering, raising):
    low = lowering.tolist()
    out = tuple(tuple(f for f in cat.out_of(a) if low[f]) for a in range(len(cat.objects)))
    return dataclasses.replace(data, lowering=lowering, raising=raising, lowering_out=out)


def _corrupted_flags(cat, data):
    """One non-identity iso in neither class, every map lowering, and the
    raising flags flipped."""
    iso = next(f for f in cat.morphisms() if cat.mor(f).is_iso and not cat.is_identity(f))
    low, high = data.lowering.copy(), data.raising.copy()
    low[iso] = high[iso] = False
    return {
        "iso-unmarked": _with_flags(cat, data, low, high),
        "all-lowering": _with_flags(cat, data, np.ones_like(data.lowering), data.raising),
        "raising-flipped": _with_flags(cat, data, data.lowering, ~data.raising),
    }


# (status, count, witness) of factorization, lifting, free action and
# split on the corrupted flags of the size-3 truncation
CORRUPTED_FLAG_SCANS = {
    "iso-unmarked": [
        ("fail", 36, {"f": (2, 2, 6), "reason": "no factorization"}),
        ("pass", 399, None),
        ("pass", 1, None),
        ("fail", 24, {"split-epi": (2, 2, 6)}),
    ],
    "all-lowering": [
        ("fail", 2, {"f": (0, 1, 0), "fact": [(0, 1, 0), (1, 1, 1)], "linking-isos": 0}),
        (
            "fail",
            33,
            {"e": (0, 1, 0), "m": (0, 1, 0), "u": (0, 0, 0), "v": (1, 1, 1), "diagonals": 0},
        ),
        ("fail", 1, {"e": (0, 2, 0), "theta": (2, 2, 6)}),
        ("pass", 30, None),
    ],
    "raising-flipped": [
        ("fail", 1, {"f": (0, 0, 0), "reason": "no factorization"}),
        (
            "fail",
            146,
            {"e": (1, 0, 0), "m": (1, 0, 0), "u": (1, 1, 1), "v": (0, 0, 0), "diagonals": 0},
        ),
        ("pass", 2, None),
        ("fail", 2, {"split-mono": (0, 0, 0)}),
    ],
}


@pytest.mark.parametrize("N", [3, 4])
def test_table_scans_match_the_reference_on_corrupted_flags(N):
    cat, data, squares = truncated_semilattice_category(N)
    for name, corrupted in _corrupted_flags(cat, data).items():
        ours, theirs = _table_scans(cat, corrupted)
        assert ours == theirs, name
        if N == 3:
            assert [(c.status, c.count, c.witness) for c in ours] == CORRUPTED_FLAG_SCANS[name]


def test_scans_over_no_cases_fail_with_no_cases():
    # no lowering map leaves no lifting square, and no object no pair
    cat, data, squares = truncated_semilattice_category(3)
    none = np.zeros_like(data.lowering)
    empty = Check("orthogonal-lifting-unique", FAIL, 0, NO_CASES)
    assert kernel.orthogonal_lifting(cat, none, data.raising) == empty
    assert reference.orthogonal_lifting_blocks(cat, none, data.raising) == empty
    check = kernel.scan_composable("c", FinCategory.from_objects([]), lambda f, g, gf: f == g)
    assert check == Check("c", FAIL, 0, NO_CASES)


def _lifting_checks():
    """Lifting on the size-4 truncation and its corrupted flags."""
    cat, data, squares = truncated_semilattice_category(4)
    cases = [data, *_corrupted_flags(cat, data).values()]
    return lambda: [kernel.orthogonal_lifting(cat, d.lowering, d.raising) for d in cases]


def _universal_property_checks():
    """The universal property on the size-3 squares, and on them with a
    square pushed past a non-iso map out of its carrier put sixth."""
    cat, data, squares = truncated_semilattice_category(3)
    e0, e1, f0, f1 = squares[-1]
    g = next(g for g in cat.out_of(cat.cod(f0)) if not cat.mor(g).is_iso)
    mixed = squares[:5] + [(e0, e1, cat.compose(f0, g), cat.compose(f1, g))] + squares[5:]
    return lambda: [verify_pushout_universal(cat, sq) for sq in (squares, mixed)]


def _hom_preservation_checks():
    """Hom(chain 3, -) on the size-4 squares, and Hom(tripod, -) on the
    squares over the witness base, which fails at its 291st square."""
    cat, data, squares = truncated_semilattice_category(4)
    base, _, base_squares, _ = non_reedy_mono_example()
    budget = DEFAULT_CANDIDATE_BUDGET
    return lambda: [
        kernel.hom_preservation_scan("c", cat, chain(3), squares, budget),
        kernel.hom_preservation_scan("c", base, atoms_with_top(3), base_squares, budget),
    ]


@pytest.mark.parametrize(
    "checks, statuses",
    [
        (_lifting_checks, ["pass", "pass", "fail", "fail"]),
        (_universal_property_checks, ["pass", "fail"]),
        (_hom_preservation_checks, ["pass", "fail"]),
    ],
    ids=["orthogonal_lifting", "verify_pushout_universal", "hom_preservation_scan"],
)
def test_chunked_scans_are_the_same_under_a_small_chunk_cap(monkeypatch, checks, statuses):
    # each scan cuts its work by kernel.chunks; at a cap of 64 entries a
    # chunk holds one lifting row or one universal-property square, so
    # the counts and witnesses run across chunk boundaries
    run = checks()
    default = run()
    monkeypatch.setattr(kernel, "CHUNK", 64)
    assert run() == default
    assert [c.status for c in default] == statuses
