"""The lowering-pushout squares and their batched checks against the
pair-by-pair references in reedy_reference and presheaf_reference: the
squares read off the composition table, the pushout universal property,
lowering maps being epi, Hom(A, -) preserving the squares, and presheaves
sending them to pullbacks.  Compared check by check on the truncations the
suites certify, and on inputs where each check fails."""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import presheaf_reference
import reedy_reference as reference
from reedylab import kernel
from reedylab.cubes import cube
from reedylab.kernel import (
    chunks,
    hom_preservation_scan,
    hom_preserved,
    lowering_epi_scan,
    pullback_fibres,
    square_pullbacks,
)
from reedylab.presheaf import (
    Corpus,
    coproduct_presheaf,
    maps_lowering_pushouts_to_pullbacks,
    non_reedy_mono_example,
    representable,
    seeded_corpus,
)
from reedylab.reedy import truncated_semilattice_category, verify_pushout_universal
from reedylab.semilattice import DEFAULT_CANDIDATE_BUDGET, atoms_with_top, chain
from reedylab.suites import SuiteConfig, run_suite

BUDGET = DEFAULT_CANDIDATE_BUDGET

# the sources of the relative-elegance suite
SOURCES = [(f"cube-{m}", cube(m)) for m in range(4)] + [
    (f"chain-{n}", chain(n + 1)) for n in range(1, 4)
]


class Truncations(dict):
    """The truncated categories by size.  A falsifying example prints them
    as their name: printed in full, the four run to some 13,000 lines and
    half a minute before hypothesis reports the failure."""

    def _repr_pretty_(self, printer, cycle):
        printer.text("truncations")


@pytest.fixture(scope="module")
def truncations():
    return Truncations({N: truncated_semilattice_category(N) for N in (1, 2, 3, 4)})


@pytest.fixture(scope="module")
def witness_base():
    return non_reedy_mono_example()


def _kernel(f) -> list:
    """The partition of its domain that a map induces."""
    classes: dict = {}
    for x, v in enumerate(f.map):
        classes.setdefault(v, []).append(x)
    return sorted(classes.values())


def _assert_same_squares(cat, data, squares):
    """The same spans in the same order as the per-span reference, onto
    the same carrier object p, with legs that agree up to an automorphism
    of p."""
    expected = reference.lowering_pushout_squares(cat, data)
    assert [sq[:2] for sq in squares] == [sq[:2] for sq in expected]
    for (r0, r1, f0, f1), (_, _, g0, g1) in zip(squares, expected):
        p = cat.cod(g0)
        assert cat.cod(f0) == cat.cod(f1) == p
        # f0 r0 has the reference's kernel on the apex
        assert _kernel(cat.mor(cat.compose(r0, f0))) == _kernel(cat.mor(cat.compose(r0, g0)))
        assert any(
            (cat.compose(f0, th), cat.compose(f1, th)) == (g0, g1) for th in cat.isos(p, p)
        )


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_squares_match_the_per_span_reference(truncations, N):
    cat, data, squares = truncations[N]
    _assert_same_squares(cat, data, squares)


def test_witness_base_squares_match_the_per_span_reference(witness_base):
    cat, data, squares, _ = witness_base
    assert len(squares) == 653
    _assert_same_squares(cat, data, squares)


def test_pullback_fibres_in_walk_order():
    # one square whose pullback has a pair with two z, one with none and
    # one with exactly one, and a second square with no pairs at all, as
    # the actions of maps 0-3 and 4-7 between objects with the element
    # counts below; maps 8-15 are their identities
    levels = [2, 3, 2, 3, 2, 1, 1, 1]
    ends = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7)]
    actions = [[0, 1, 1], [1, 0], [0, 0, 2], [1, 1, 0], [0], [1], [0], [0]]
    actions += [list(range(n)) for n in levels]
    cat = SimpleNamespace(
        domain=np.array([a for a, _ in ends] + list(range(8))),
        codomain=np.array([b for _, b in ends] + list(range(8))),
        identities=list(range(8, 16)),
    )
    squares = [(0, 1, 2, 3), (4, 5, 6, 7)]
    [(part, square, y0, y1, fibre)] = square_pullbacks(cat, squares, actions.__getitem__)
    assert part == range(2)
    assert square.tolist() == [0, 0, 0]
    assert list(zip(y0.tolist(), y1.tolist())) == [(0, 1), (1, 0), (2, 0)]
    assert fibre.tolist() == [2, 0, 1]
    # the same keys flat: a key met twice on each side gives four pairs,
    # and a z naming no pair is in no fibre
    y0, y1, fibre = pullback_fibres(
        np.array([5, 7, 5]), np.array([5, 5, 9]), np.array([0, 2, 1, 2]), np.array([1, 0, 2, 0])
    )
    assert list(zip(y0.tolist(), y1.tolist())) == [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert fibre.tolist() == [0, 1, 2, 0]


def test_sum_of_representables_acts_by_table_rows(truncations):
    # the identity verify_pushout_universal rests on: a table row, as
    # positions among the maps out of its domain, is a map's action on
    # the sum of all representables
    cat, data, squares = truncations[3]
    Y = coproduct_presheaf([representable(cat, c) for c in range(len(cat.objects))])
    for f in cat.morphisms():
        assert Y.action(f).tolist() == (cat.row(f) - cat.out_of(cat.dom(f)).start).tolist()


def test_chunks_cover_every_position_in_order(monkeypatch):
    monkeypatch.setattr(kernel, "CHUNK", 6)
    assert [list(r) for r in chunks([3, 3, 5, 1, 1])] == [[0, 1], [2, 3], [4]]
    assert [list(r) for r in chunks([9, 1])] == [[0], [1]]
    assert list(chunks([])) == []


@pytest.mark.parametrize("N, cocones", [(3, 382), (4, 24011)])
def test_universal_property_matches_the_reference(truncations, N, cocones):
    cat, data, squares = truncations[N]
    check = verify_pushout_universal(cat, squares)
    assert check == reference.pushout_universal_check(cat, squares)
    assert (check.status, check.count) == ("pass", cocones)


def _pushed_forward(cat, sq, g):
    """sq with f0 and f1 post-composed with g, a map out of its carrier."""
    e0, e1, f0, f1 = sq
    return (e0, e1, cat.compose(f0, g), cat.compose(f1, g))


def test_universal_property_fails_past_a_non_iso_like_the_reference(truncations):
    cat, data, squares = truncations[3]
    failed = 0
    for sq in squares[::3]:
        p = cat.cod(sq[2])
        for g in cat.out_of(p):
            if cat.mor(g).is_iso:
                continue
            broken = [_pushed_forward(cat, sq, g)]
            check = verify_pushout_universal(cat, broken)
            assert check == reference.pushout_universal_check(cat, broken)
            failed += check.status == "fail"
    assert failed


def test_universal_property_fails_after_squares_that_pass(truncations):
    # the count runs over the passing squares before the broken one
    cat, data, squares = truncations[3]
    sq = squares[-1]
    g = next(g for g in cat.out_of(cat.cod(sq[2])) if not cat.mor(g).is_iso)
    mixed = squares[:5] + [_pushed_forward(cat, sq, g)] + squares[5:]
    check = verify_pushout_universal(cat, mixed)
    assert check == reference.pushout_universal_check(cat, mixed)
    assert check.status == "fail"


@pytest.mark.parametrize("N, cases", [(3, 396), (4, 40977)])
def test_epi_check_matches_the_reference(truncations, N, cases):
    cat, data, squares = truncations[N]
    check = lowering_epi_scan(cat, data.lowering)
    assert check == reference.epi_check(cat, data)
    assert (check.status, check.count) == ("pass", cases)


@pytest.mark.parametrize("N", [3, 4])
def test_epi_check_with_every_map_lowering_matches_the_reference(truncations, N):
    cat, data, squares = truncations[N]
    every = dataclasses.replace(
        data,
        lowering=np.ones_like(data.lowering),
        lowering_out=tuple(tuple(cat.out_of(a)) for a in range(len(cat.objects))),
    )
    check = lowering_epi_scan(cat, every.lowering)
    assert check == reference.epi_check(cat, every)
    assert check.status == "fail"


@pytest.mark.parametrize("N", [3, 4])
def test_hom_preservation_matches_the_reference(truncations, N):
    cat, data, squares = truncations[N]
    for name, A in SOURCES:
        verdicts = [ok for ok, _ in reference.hom_preservation(cat, A, squares, BUDGET)]
        assert hom_preserved(cat, A, squares, BUDGET).tolist() == verdicts
        cid = f"hom-preserves-all-lowering-pushouts-{name}"
        check = hom_preservation_scan(cid, cat, A, squares, BUDGET)
        assert check == reference.hom_preservation_check(cid, cat, A, squares, BUDGET)
        assert (check.status, check.count) == ("pass", len(squares))


def test_tripod_hom_preservation_fails_like_the_reference(witness_base):
    # over the quotients of the pinched tripod cover, Hom(tripod, -) fails
    # to preserve 135 of the 653 lowering pushouts
    cat, data, squares, X = witness_base
    tripod = atoms_with_top(3)
    verdicts = [ok for ok, _ in reference.hom_preservation(cat, tripod, squares, BUDGET)]
    preserved = hom_preserved(cat, tripod, squares, BUDGET)
    assert preserved.tolist() == verdicts
    assert (len(squares), len(squares) - int(preserved.sum())) == (653, 135)
    cid = "hom-preserves-all-lowering-pushouts-tripod"
    check = hom_preservation_scan(cid, cat, tripod, squares, BUDGET)
    assert check == reference.hom_preservation_check(cid, cat, tripod, squares, BUDGET)
    assert check.status == "fail"


def test_each_failing_square_alone_has_the_reference_witness(truncations, witness_base):
    # the scan glues the first failing square's pushout again for its
    # witness; run on each failing square alone, every one is that first
    # square: the 135 of the tripod over the witness base, and the N=3
    # squares pushed past a non-iso map out of their carrier
    cat, data, squares, X = witness_base
    tripod = atoms_with_top(3)
    cid = "hom-preserves-all-lowering-pushouts-tripod"
    failing = [sq for sq, ok in zip(squares, hom_preserved(cat, tripod, squares, BUDGET)) if not ok]
    assert len(failing) == 135
    reasons = Counter()
    for sq in failing:
        check = hom_preservation_scan(cid, cat, tripod, [sq], BUDGET)
        assert check == reference.hom_preservation_check(cid, cat, tripod, [sq], BUDGET)
        reasons[check.witness["witness"]["reason"]] += 1
    cat, data, squares = truncations[3]
    for sq in squares[::3]:
        for g in cat.out_of(cat.cod(sq[2])):
            if not cat.mor(g).is_iso:
                pushed = [_pushed_forward(cat, sq, g)]
                check = hom_preservation_scan(cid, cat, tripod, pushed, BUDGET)
                assert check == reference.hom_preservation_check(cid, cat, tripod, pushed, BUDGET)
                reasons[check.witness["witness"]["reason"]] += 1
    assert reasons == {"not-injective": 135 + 66, "not-surjective": 57}


def test_pullback_criterion_matches_the_reference(truncations, witness_base):
    cat, data, squares, X = witness_base
    (result,) = maps_lowering_pushouts_to_pullbacks(Corpus.of(cat, [X]), squares)
    assert result == presheaf_reference.maps_lowering_pushouts_to_pullbacks(X, squares)
    assert result[0] is False
    cat, data, squares = truncations[3]
    seeded = seeded_corpus(cat, data, 0, 200).presheaves
    corpus = Corpus.of(cat, seeded + [representable(cat, r) for r in range(4)])
    for Y, result in zip(corpus, maps_lowering_pushouts_to_pullbacks(corpus, squares)):
        assert result == presheaf_reference.maps_lowering_pushouts_to_pullbacks(Y, squares)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pullback_criterion_matches_the_reference_on_corrupted_presheaves(
    truncations, seed, data
):
    """A presheaf of seeded_corpus with one action value moved, which may
    break a square or functoriality itself."""
    cat, reedy, squares = truncations[3]
    X = data.draw(st.sampled_from(seeded_corpus(cat, reedy, seed, 3).presheaves))
    movable = [f for f in cat.morphisms() if X.levels[cat.dom(f)] >= 2 and X.levels[cat.cod(f)]]
    if movable:
        f = data.draw(st.sampled_from(movable))
        x = data.draw(st.integers(0, X.levels[cat.cod(f)] - 1))
        value = data.draw(st.integers(0, X.levels[cat.dom(f)] - 1))
        X = presheaf_reference.with_value(X, f, x, value)
    assert maps_lowering_pushouts_to_pullbacks(
        Corpus.of(cat, [X]), squares
    ) == [presheaf_reference.maps_lowering_pushouts_to_pullbacks(X, squares)]


def test_size_4_counts_the_benchmark_does_not_compare():
    # bench/run.py compares check statuses only; these are the case counts
    pre = run_suite(SuiteConfig("pre-elegance", max_size=4))
    counts = {c.id: (c.status, c.count) for c in pre.checks}
    assert counts["factorization-unique-up-to-unique-iso"] == ("pass", 1055)
    assert counts["orthogonal-lifting-unique"] == ("pass", 31407)
    assert counts["isos-act-freely-on-lowering"] == ("pass", 48)
    assert counts["split-epi-lowering-split-mono-raising"] == ("pass", 158)
    assert counts["lowering-pushout-closure"] == ("pass", 347)
    assert counts["lowering-maps-are-epi"] == ("pass", 40977)
    assert counts["set-pushout-matches-congruence-quotient"] == ("pass", 347)
    assert counts["pushout-universal-property"] == ("pass", 24011)
    rel = run_suite(SuiteConfig("relative-elegance", max_size=4))
    assert [(c.id, c.status, c.count) for c in rel.checks] == [
        (f"hom-preserves-all-lowering-pushouts-{name}", "pass", 347) for name, _ in SOURCES
    ]
