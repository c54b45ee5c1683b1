import reedy_reference as reference
from reedylab.cubes import cube
from reedylab.elegance import (
    counit_from_free,
    hom_preserves_lowering_pushout,
    in_elegant_core,
    is_perfectly_presentable,
    projective_lift,
)
from reedylab.obstruction import map_t
from reedylab.presheaf import non_reedy_mono_example
from reedylab.reedy import truncated_semilattice_category
from reedylab.semilattice import (
    SLatMorphism,
    all_semilattices_upto,
    are_isomorphic,
    atoms_with_top,
    chain,
    diamond,
    enumerate_homs,
    interval,
)


def test_counit_is_join_of_generators():
    V = atoms_with_top(2)
    eps = counit_from_free(V)
    assert eps.dom.size == 7 and eps.is_surjective
    # singletons hit the generators
    assert sorted(set(eps.map)) == [0, 1, 2]


def test_counit_is_surjective_on_every_class_up_to_size_4():
    for A in all_semilattices_upto(4):
        assert counit_from_free(A).is_surjective


def codiagonal_square(e):
    """The pushout of e with itself: its codomain twice, identity legs."""
    ident = SLatMorphism.identity(e.cod)
    return reference.LoweringPushoutSquare(e, e, ident, ident)


def test_codiagonal_square_agrees_with_the_built_pushout():
    # Hom(A, e) being onto against the general route, on the identity legs
    # and on the set pushout of the counit with itself
    for A in all_semilattices_upto(4):
        eps = counit_from_free(A)
        built = reference.lowering_pushout(eps, eps)
        assert (
            hom_preserves_lowering_pushout(A, eps)
            == reference.hom_preserves_lowering_pushout(A, codiagonal_square(eps))[0]
            == reference.hom_preserves_lowering_pushout(A, built)[0]
        )


def test_codiagonal_decision_matches_the_general_route():
    # every class of size <= 4 as the source, against the codiagonal
    # squares of the lowering maps of the N=4 truncation and of the
    # witness base, where Hom(tripod, -) is not onto for some of them
    cat4, data4, _ = truncated_semilattice_category(4)
    base, data, _, _ = non_reedy_mono_example()
    es = [
        cat.mor(e)
        for cat, d in ((cat4, data4), (base, data))
        for e in cat.morphisms()
        if d.lowering[e]
    ]
    verdicts = [
        (
            hom_preserves_lowering_pushout(A, e),
            reference.hom_preserves_lowering_pushout(A, codiagonal_square(e))[0],
        )
        for A in all_semilattices_upto(4)
        for e in es
    ]
    assert [new for new, _ in verdicts] == [old for _, old in verdicts]
    assert sum(not new for new, _ in verdicts) == 6


def test_core_membership_positive():
    for A in (chain(1), interval(), chain(3), cube(2)):
        assert in_elegant_core(A)
        ok, data = is_perfectly_presentable(A)
        assert ok
        section, retraction = data
        assert section.then(retraction).map == tuple(range(A.size))


def test_core_membership_negative_with_witness():
    tripod = atoms_with_top(3)
    assert not in_elegant_core(tripod)
    assert is_perfectly_presentable(tripod) == (False, None)
    eps = counit_from_free(tripod)
    assert not hom_preserves_lowering_pushout(tripod, eps)
    ok, witness = reference.hom_preserves_lowering_pushout(tripod, codiagonal_square(eps))
    assert not ok and witness is not None
    # the bottom extension is the diamond
    from reedylab.semilattice import adjoin_bottom

    assert are_isomorphic(adjoin_bottom(tripod)[0], diamond(3))


def test_perfectly_presentable_examples():
    ok, data = is_perfectly_presentable(cube(2))
    assert ok
    V = atoms_with_top(2)
    ok, _ = is_perfectly_presentable(V)  # free on two generators
    assert ok
    ok, data = is_perfectly_presentable(atoms_with_top(3))
    assert not ok and data is None


def test_triple_agreement_all_classes_size_4():
    for A in all_semilattices_upto(4):
        closed = in_elegant_core(A)
        retract = is_perfectly_presentable(A)[0]
        hom_ok = hom_preserves_lowering_pushout(A, counit_from_free(A))
        assert closed == retract == hom_ok


def test_hom_preservation_examples():
    C, I = cube(2), interval()
    p0, p1 = (SLatMorphism(C, I, tuple((v >> i) & 1 for v in range(4))) for i in (0, 1))
    sq = reference.lowering_pushout(p0, p1)
    assert reference.hom_preserves_lowering_pushout(chain(1), sq)[0]
    assert reference.hom_preserves_lowering_pushout(interval(), sq)[0]
    assert reference.hom_preserves_lowering_pushout(cube(3), sq)[0]


def test_relative_elegance_cubes_and_chains_size_4():
    cat, data, squares = truncated_semilattice_category(4)
    sources = [cube(m) for m in range(4)] + [chain(n + 1) for n in range(1, 4)]
    for A in sources:
        for sq in squares:
            square = reference.square_maps(cat, sq)
            ok, witness = reference.hom_preserves_lowering_pushout(A, square)
            assert ok, (A.size, sq, witness)


def test_small_truncations_are_elegant():
    # every object's covariant hom preserves every lowering pushout of
    # the truncation, at sizes 2, 3 and 4; consequently all presheaves
    # over these bases are Reedy monomorphic (failures need a size-5 cover)
    for N in (2, 3, 4):
        cat, data, squares = truncated_semilattice_category(N)
        for A in cat.objects:
            for sq in squares:
                square = reference.square_maps(cat, sq)
                ok, witness = reference.hom_preserves_lowering_pushout(A, square)
                assert ok, (N, A.size, sq, witness)


def test_projective_lift_through_t():
    t = map_t()  # [1]^3 onto the 3-chain
    I = interval()
    for f in enumerate_homs(I, t.cod):
        h = projective_lift(I, t, f)
        assert h is not None and h.then(t).map == f.map


def test_projective_lift_split_case():
    # lifting the identity through a split surjection returns a section
    e = reference.enumerate_surjections(chain(3), interval())[0]
    h = projective_lift(interval(), e, SLatMorphism.identity(interval()))
    assert h is not None and h.then(e).map == (0, 1)


def test_projective_lift_failure():
    tripod = atoms_with_top(3)
    eps = counit_from_free(tripod)
    assert projective_lift(tripod, eps, SLatMorphism.identity(tripod)) is None

