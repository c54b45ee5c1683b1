import os
import subprocess
import sys
from pathlib import Path

import pytest

from reedylab.errors import NotSurjective, SizeBudget, ViolatedLaw
from reedylab.obstruction import map_t, map_u
from reedylab.reedy import (
    ReedyData,
    certify_cancellation,
    certify_pre_elegance,
    certify_reedy_axioms,
    lowering_pushout,
    pushout_via_congruence,
    quotient_closure,
    truncated_semilattice_category,
    verify_pushout_universal,
)
from reedylab.cubes import cube
from reedylab.semilattice import (
    SLatMorphism,
    are_isomorphic,
    atoms_with_top,
    chain,
    diamond,
    enumerate_surjections,
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
    cat.validate()
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
    with pytest.raises(SizeBudget):
        truncated_semilattice_category(6)


def test_codiagonal_pushout_is_codomain():
    e = enumerate_surjections(chain(3), interval())[0]
    sq = lowering_pushout(e, e)
    assert sq.carrier.size == 2
    assert sq.f0.map == sq.f1.map == (0, 1)


def test_projection_span_pushout_is_terminal():
    C, I = cube(2), interval()
    p0, p1 = (SLatMorphism(C, I, tuple((v >> i) & 1 for v in range(4))) for i in (0, 1))
    sq = lowering_pushout(p0, p1)
    assert sq.carrier.size == 1


def test_identity_leg_pushout():
    e = enumerate_surjections(chain(3), interval())[0]
    sq = lowering_pushout(SLatMorphism.identity(chain(3)), e)
    assert are_isomorphic(sq.carrier, interval())
    assert sq.f1.is_iso


def test_pushout_requires_surjections():
    incl = SLatMorphism(interval(), chain(3), (0, 2))
    with pytest.raises(NotSurjective):
        lowering_pushout(incl, SLatMorphism.identity(interval()))


def test_pushout_universal_property(trunc3):
    cat, data, squares = trunc3
    for sq in squares[:10]:
        witnesses = verify_pushout_universal(cat, sq)
        assert witnesses and witnesses == [None] * len(witnesses)


def test_congruence_route_matches_set_route_up_to_size_4():
    cat, data, squares = truncated_semilattice_category(4)
    assert len(squares) == 347
    for sq in squares:
        proj = pushout_via_congruence(sq.e0, sq.e1)
        assert proj.cod.size == sq.carrier.size
        # same quotient of the apex
        pairing = {}
        for a in range(sq.apex.size):
            pairing.setdefault(proj.map[a], set()).add(sq.f0.map[sq.e0.map[a]])
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
    broken = ReedyData((0, 0), dict(data.lowering), dict(data.raising))
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
        if ref[0] == free_obj and ref[1] == 1 and data.lowering[ref]
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
            if f[1] != g[0]:
                continue
            gf = cat.compose(f, g)
            if data.lowering[gf] and data.raising[g] and not data.lowering[g]:
                count += 1
    assert count == 0


def test_walking_interface_matches_filtered_scans(trunc3):
    # the all-pairs and endpoint scans the walking interface replaced
    cat, data, squares = trunc3
    morphs = list(cat.morphisms())
    assert list(cat.composable()) == [
        (f, g, cat.compose(f, g)) for f in morphs for g in morphs if f[1] == g[0]
    ]
    for a in range(len(cat.objects)):
        assert cat.out_of(a) == tuple(f for f in morphs if f[0] == a)
        for b in range(len(cat.objects)):
            assert cat.refs(a, b) == tuple(f for f in morphs if f[:2] == (a, b))
            assert [cat.mor(f) for f in cat.refs(a, b)] == cat.hom(a, b)


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
        a, b, _ = ref
        canonical = None
        for c in range(len(cat.objects)):
            for i in range(len(cat.homs[(a, c)])):
                e = (a, c, i)
                if not data.lowering[e]:
                    continue
                for j in range(len(cat.homs[(c, b)])):
                    m = (c, b, j)
                    if not data.raising[m] or cat.compose(e, m) != ref:
                        continue
                    if canonical is None:
                        canonical = (e, m)
                        continue
                    e0, m0 = canonical
                    linking = [
                        th
                        for th in cat.isos(e0[1], c)
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
            if enumerate_surjections(A, B):
                assert any(are_isomorphic(O, B) for O in objs)


def _status(checks, check_id):
    return next(c.status for c in checks if c.id == check_id)


def _hom_refs(cat, a, b):
    return [(a, b, k) for k in range(len(cat.hom(a, b)))]


def test_validate_raises_on_corrupted_unit():
    cat, data, squares = truncated_semilattice_category(3)
    ref = (1, 1, 0)
    assert not cat.is_identity(ref)
    cat.composition[(cat.identities[1], ref)] = cat.identities[1]
    with pytest.raises(ViolatedLaw) as err:
        cat.validate()
    assert err.value.law == "unit"


def test_validate_survives_optimized_mode():
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedylab.reedy import truncated_semilattice_category\n"
        "cat, _, _ = truncated_semilattice_category(3)\n"
        "cat.composition[(cat.identities[1], (1, 1, 0))] = cat.identities[1]\n"
        "try:\n"
        "    cat.validate()\n"
        "except ViolatedLaw:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_bad_lowering_square_raises_in_optimized_mode():
    # a square that does not commute, one whose legs do not meet, and a
    # span whose legs leave different apexes
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedylab.reedy import LoweringPushoutSquare, lowering_pushout\n"
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "I, C = interval(), chain(3)\n"
        "ident, top = SLatMorphism.identity(I), SLatMorphism(I, I, (1, 1))\n"
        "collapse = SLatMorphism(C, I, (0, 1, 1))\n"
        "laws = []\n"
        "for build in (\n"
        "    lambda: LoweringPushoutSquare(ident, ident, ident, top),\n"
        "    lambda: LoweringPushoutSquare(ident, collapse, ident, ident),\n"
        "    lambda: lowering_pushout(ident, collapse),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except ViolatedLaw as exc:\n"
        "        laws.append(exc.law)\n"
        "ok = laws == ['square-commutativity', 'square-shape', 'span-apex']\n"
        "raise SystemExit(0 if ok else f'laws raised: {laws}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_pushout_universal_property_reads_the_table():
    cat, data, squares = truncated_semilattice_category(3)
    checks = certify_pre_elegance(cat, data, squares)
    assert _status(checks, "pushout-universal-property") == "pass"
    # a square with two composites to tell apart and a second map g1
    # next to f1 in Hom(b1, p)
    e0, e1, f0, f1 = next(
        sq.refs
        for sq in squares
        if (sq.refs[0], sq.refs[2]) != (sq.refs[1], sq.refs[3])
        and len(cat.hom(sq.refs[1][1], sq.refs[3][1])) > 1
    )
    g1 = next(g for g in _hom_refs(cat, e1[1], f1[1]) if g != f1)
    # e0 then f0 now equals e1 then g1, so (f0, g1) looks like a cocone
    # with no mediating map
    cat.composition[(e0, f0)] = cat.compose(e1, g1)
    assert cat.compose(e0, f0) != cat.compose(e1, f1)
    checks = certify_pre_elegance(cat, data, squares)
    assert _status(checks, "pushout-universal-property") == "fail"


def test_closed_classes_reads_the_table():
    cat, data, squares = truncated_semilattice_category(3)
    f, g = next(
        (f, g)
        for f in cat.morphisms()
        for g in data.lowering_out[f[1]]
        if data.lowering[f]
        and any(not data.lowering[h] for h in _hom_refs(cat, f[0], g[1]))
    )
    cat.composition[(f, g)] = next(
        h for h in _hom_refs(cat, f[0], g[1]) if not data.lowering[h]
    )
    checks = certify_reedy_axioms(cat, data)
    assert _status(checks, "classes-closed-under-composition") == "fail"

