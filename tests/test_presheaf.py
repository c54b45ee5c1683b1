import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from presheaf_reference import by_presheaf, ez_decompositions, nondegenerate, with_value
from reedylab.presheaf import (
    Corpus,
    autquo,
    coproduct_presheaf,
    empty_presheaf,
    enumerate_presheaves,
    ez_degrees,
    has_unique_ez,
    is_reedy_mono,
    latching_injective,
    latching_object_via_weights,
    latching_objects,
    latching_routes_agree,
    maps_lowering_pushouts_to_pullbacks,
    non_reedy_mono_example,
    quotients,
    representable,
    seeded_corpus,
    skeleton,
    skeleton_chain_report,
    span_pushout_of_representables,
    subgroup_closure_ok,
    terminal_presheaf,
    verify_cell_square,
)
from reedylab.errors import ViolatedLaw, outcome_value
from reedylab import presheaf
from reedylab.reedy import reedy_category_on, truncated_semilattice_category
from reedylab.semilattice import chain, image_factorize


@pytest.fixture(scope="module")
def trunc3():
    return truncated_semilattice_category(3)


@pytest.fixture(scope="module")
def trunc2():
    return truncated_semilattice_category(2)


def free_pair_object(cat):
    """Index of the size-3 object with the swap automorphism."""
    return next(
        i
        for i, O in enumerate(cat.objects)
        if O.size == 3 and len(cat.isos(i, i)) == 2
    )


# ---------------------------------------------------------------------------
# representables and quotients
# ---------------------------------------------------------------------------


def test_representable_levels_and_functoriality(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    yo.validate()
    assert yo.levels == tuple(len(cat.homs[(s, V)]) for s in range(4))
    assert yo.levels[V] == 9


def _corrupt_one_action(X):
    """X with one value of one non-identity action moved, still in range."""
    cat = X.base
    f = next(
        f for f in cat.morphisms() if not cat.is_identity(f) and X.levels[cat.dom(f)] >= 2
    )
    return with_value(X, f, 0, (X.action(f)[0] + 1) % X.levels[cat.dom(f)])


def test_validate_rejects_corrupted_action(trunc3):
    cat, data, squares = trunc3
    bad = _corrupt_one_action(representable(cat, free_pair_object(cat)))
    with pytest.raises(ViolatedLaw) as err:
        bad.validate()
    assert err.value.law == "functoriality"


def test_validate_catches_every_single_corrupted_action_entry(trunc3):
    # every in-range change of one entry of one action of a representable:
    # at an identity the unit law fails, elsewhere functoriality does (the
    # point maps out of the one-element object see every entry)
    cat, data, squares = trunc3
    corruptions = 0
    for b in range(len(cat.objects)):
        yo = representable(cat, b)
        for f in cat.morphisms():
            want = "unit" if cat.is_identity(f) else "functoriality"
            for x, value in enumerate(yo.action(f).tolist()):
                for other in range(yo.levels[cat.dom(f)]):
                    if other == value:
                        continue
                    with pytest.raises(ViolatedLaw) as err:
                        with_value(yo, f, x, other).validate()
                    assert err.value.law == want, (b, cat.ref(f), x, other)
                    corruptions += 1
    assert corruptions == 7528


def test_validate_rejects_corrupted_action_in_optimized_mode():
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedylab.presheaf import representable\n"
        "from reedylab.reedy import truncated_semilattice_category\n"
        "from test_presheaf import _corrupt_one_action, free_pair_object\n"
        "cat, _, _ = truncated_semilattice_category(3)\n"
        "yo = representable(cat, free_pair_object(cat))\n"
        "try:\n"
        "    _corrupt_one_action(yo).validate()\n"
        "except ViolatedLaw:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_ill_defined_latching_map_raises_in_optimized_mode():
    code = (
        "from reedylab.errors import ViolatedLaw\n"
        "from reedylab.presheaf import Corpus, latching_object_via_weights, representable\n"
        "from reedylab.reedy import truncated_semilattice_category\n"
        "from test_presheaf import _corrupt_one_action, free_pair_object\n"
        "cat, data, _ = truncated_semilattice_category(3)\n"
        "V = free_pair_object(cat)\n"
        "bad = _corrupt_one_action(representable(cat, V))\n"
        "outcome = latching_object_via_weights(Corpus.of(cat, [bad]), data)[0][V].held[0]\n"
        "if isinstance(outcome, ViolatedLaw):\n"
        "    raise SystemExit(outcome.law != 'well-definedness')\n"
        "raise SystemExit(1)\n"
    )
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_no_presheaf_of_the_seeded_corpus_caches_its_start(trunc3):
    # validating a quotient's projection computes the quotient's layout
    # where it reads it: a cached start would duplicate its chunk's
    cat, data, _ = trunc3
    corpus = seeded_corpus(cat, data, 0, 200)
    assert [k for k, X in enumerate(corpus) if "start" in X.__dict__] == []


@pytest.mark.parametrize(
    "N, maps, degree_gluing, lowering_gluing", [(3, 69, 13, 6), (4, 1055, 63, 33)]
)
def test_latching_glues_along_the_generators(monkeypatch, N, maps, degree_gluing, lowering_gluing):
    # the maps each weight glues along, as _latching hands them to the
    # plan of every object: the non-identity isos and elementary maps,
    # and for the lowering weight the lowering ones among them
    cat, data, _ = truncated_semilattice_category(N)
    real, glued = presheaf._weight_plan, []

    def recording(cat, r, weight, gluing):
        glued.append(sum(map(len, gluing)))
        return real(cat, r, weight, gluing)

    monkeypatch.setattr(presheaf, "_weight_plan", recording)
    corpus = Corpus.of(cat, [representable(cat, len(cat.objects) - 1)])
    routes = ((latching_object_via_weights, degree_gluing), (latching_objects, lowering_gluing))
    for route, expected in routes:
        glued.clear()
        route(corpus, data)
        assert glued == [expected] * len(cat.objects)
    assert len(cat.domain) == maps


def size_gap_base():
    """The full subcategory on chain 1 and chain 3.  With no object of size
    2 between them, its non-identity maps are neither isos nor elementary,
    so no generator reaches them."""
    return reedy_category_on([chain(1), chain(3)])


def size_gap_corpus(max_size, budget, seed, corpus_count):
    """suites._corpus with both corpora the representables of the size-gap
    base."""
    cat, data, squares = size_gap_base()
    corpus = Corpus.of(cat, [representable(cat, r) for r in range(len(cat.objects))])
    return (cat, data, squares, corpus), (cat, data, squares, corpus), "seeded-size3"


def test_a_base_its_generators_do_not_generate_holds_the_generation_law():
    cat, data, _ = size_gap_base()
    corpus = Corpus.of(cat, [representable(cat, 1), terminal_presheaf(cat)])
    # the first map out of chain 1 into chain 3, raising by two sizes
    held = [[("generation", (0, 1, 0))] * 2] * 2
    for route in (latching_objects, latching_object_via_weights):
        outcomes = by_presheaf(route(corpus, data))
        assert [[(L.law, L.witness) for L in Ls] for Ls in outcomes] == held


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_the_generation_law_is_a_failed_check(flags):
    code = (
        "import json\n"
        "from reedylab import suites\n"
        "from test_presheaf import size_gap_corpus\n"
        "suites._corpus = size_gap_corpus\n"
        "cert = suites.run_suite(suites.SuiteConfig(suite='cell-presentation'))\n"
        "print(json.dumps([[c.id, c.status, c.witness] for c in cert.checks]))\n"
    )
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    witness = {"law": "generation", "witness": [0, 1, 0]}
    assert json.loads(run.stdout) == [["cell-presentation", "fail", witness]]


def test_autquo_orbits(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    auts = cat.isos(V, V)
    assert subgroup_closure_ok(cat, V, auts)
    assert not subgroup_closure_ok(
        cat, V, [th for th in auts if not cat.is_identity(th)]
    )
    # the trivial subgroup gives back the representable
    Q, T = quotients([autquo(cat, V, auts), autquo(cat, V, [cat.identities[V]])])
    Q.validate()
    # nine endomorphisms fall into five orbits under the swap
    assert Q.levels[V] == 5
    assert T.levels == representable(cat, V).levels


def test_representable_of_terminal_object(trunc3):
    cat, data, squares = trunc3
    one = next(i for i, O in enumerate(cat.objects) if O.size == 1)
    yo = representable(cat, one)
    assert all(n == 1 for n in yo.levels)


# ---------------------------------------------------------------------------
# latching objects, two ways
# ---------------------------------------------------------------------------


def test_latching_interval_representable(trunc2):
    cat, data, squares = trunc2
    yo = representable(cat, 1)
    latching = latching_objects(Corpus.of(cat, [yo]), data)
    assert len(latching[0][1].latch) == 2 and latching_injective(latching)[0][1] is True
    # the two constants
    assert sorted(latching[0][1].latch.tolist()) == [0, 2]


def test_latching_free_pair_representable(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    latching = latching_objects(Corpus.of(cat, [yo]), data)
    assert len(latching[0][V].latch) == 7 and latching_injective(latching)[0][V] is True
    noninjective = {
        k for k, f in enumerate(cat.homs[(V, V)]) if not f.is_injective
    }
    assert set(latching[0][V].latch.tolist()) == noninjective


def test_latching_at_minimal_degree_is_empty(trunc3):
    cat, data, squares = trunc3
    one = next(i for i, O in enumerate(cat.objects) if O.size == 1)
    yo = representable(cat, one)
    assert latching_objects(Corpus.of(cat, [yo]), data)[0][one].latch.tolist() == []


def test_latching_two_routes_agree(trunc3):
    cat, data, squares = trunc3
    rnd = random.Random(2)
    corpus = seeded_corpus(cat, data, seed=9, count=25)
    by_lowering = latching_objects(corpus, data)
    agree = latching_routes_agree(by_lowering, latching_object_via_weights(corpus, data))
    assert [len(verdicts) for verdicts in agree] == [4] * len(corpus)
    assert all(ok is True for verdicts in agree for ok in verdicts)


def test_routes_disagree_where_the_latching_objects_differ(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    corpus = Corpus.of(cat, [yo])
    A = latching_objects(corpus, data)[0][V]
    B = latching_object_via_weights(corpus, data)[0][V]

    def agree(A, B):
        return latching_routes_agree([[A]], [[B]])[0][0]

    assert agree(A, B)

    def relabelled(L, old, new):
        return replace(L, node_class=np.where(L.node_class == old, new, L.node_class))

    # classes 0 and 1 of the degree weight swapped: still a bijection,
    # but not over X_r
    swapped = B.node_class.copy()
    swapped[B.node_class == 0], swapped[B.node_class == 1] = 1, 0
    assert agree(A, replace(B, node_class=swapped)) is False
    # two classes of B merged: no bijection
    assert agree(A, relabelled(B, 1, 0)) is False
    # two classes of the lowering weight merged: one meets two of B
    assert agree(relabelled(A, 1, 0), B) is False
    # a node of the lowering weight outside the degree weight
    outside = replace(B, first_node=np.where(A.first_node >= 0, -1, B.first_node))
    assert agree(A, outside) is False
    # side by side in one chunk, each part keeps its own verdict
    pair = Corpus.of(cat, [yo, representable(cat, V)])
    assert len(pair.chunks) == 1
    A = latching_objects(pair, data)[0][V]
    B = latching_object_via_weights(pair, data)[0][V]
    assert latching_routes_agree([[A]], [[B]]) == [[True], [True]]
    first = B.first_node.copy()
    first[1][A.first_node[1] >= 0] = -1
    assert latching_routes_agree([[A]], [[replace(B, first_node=first)]]) == [[True], [False]]


def test_latching_laws_are_held_and_raised_where_read(trunc3):
    # yo(1) with one value of a lowering action moved: the latching
    # maps at objects 2 and 3 are ill defined, and that is held as a value
    cat, data, squares = trunc3
    yo = representable(cat, 1)
    f = cat.refs(1, 0)[0]

    def moved(x):
        return with_value(yo, f, x, (yo.action(f)[x] + 1) % yo.levels[1])

    corpus = Corpus.of(cat, [moved(0)])
    latching = latching_objects(corpus, data)
    (Ls,) = latching
    assert [L.held[0].law for L in Ls[2:]] == ["well-definedness"] * 2
    (injective,) = latching_injective(latching)
    assert injective[2:] == [L.held[0] for L in Ls[2:]]
    with pytest.raises(ViolatedLaw) as err:
        is_reedy_mono(injective)
    assert err.value is Ls[2].held[0]
    # the lowering weight's outcome is raised before the other is read
    (agree,) = latching_routes_agree(latching, latching_object_via_weights(corpus, data))
    with pytest.raises(ViolatedLaw) as err:
        outcome_value(agree[2])
    assert err.value is Ls[2].held[0]
    # a latching map that is not injective comes first, so no law is read
    (injective,) = latching_injective(latching_objects(Corpus.of(cat, [moved(1)]), data))
    assert injective[1] is False and isinstance(injective[2], ViolatedLaw)
    assert is_reedy_mono(injective) is False


def test_via_weights_uses_more_generators(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    corpus = Corpus.of(cat, [yo])
    A = latching_objects(corpus, data)[0][V]
    B = latching_object_via_weights(corpus, data)[0][V]
    assert len(A.latch) == len(B.latch)
    # one node per (weight map, element)
    assert len(B.node_class) > len(A.node_class)


# ---------------------------------------------------------------------------
# EZ decompositions
# ---------------------------------------------------------------------------


def test_nondegenerate_elements_decompose_trivially(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    idx = next(
        k for k, f in enumerate(cat.homs[(V, V)]) if f.map == (0, 1, 2)
    )
    assert nondegenerate(yo, data)[V][idx]
    decs = ez_decompositions(yo, data)[V][idx]
    assert decs and all(cat.mor(e).is_iso for e, _ in decs)
    assert ez_degrees(Corpus.of(cat, [yo]), data)[0][V][idx] == 3


def test_representable_ez_is_reedy_factorization(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    (degrees,) = ez_degrees(Corpus.of(cat, [yo]), data)
    for s in range(4):
        for k, f in enumerate(cat.homs[(s, V)]):
            surj, mono = image_factorize(f)
            assert degrees[s][k] == surj.cod.size == len(f.image())


def test_terminal_presheaf_collapses(trunc2):
    cat, data, squares = trunc2
    T = terminal_presheaf(cat)
    assert ez_decompositions(T, data)[1][0] == [(cat.refs(1, 0)[0], 0)]
    corpus = Corpus.of(cat, [T])
    assert ez_degrees(corpus, data)[0][1][0] == 1
    assert is_reedy_mono(latching_injective(latching_objects(corpus, data))[0])


def test_unique_ez_on_representables_and_autquos(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    corpus = Corpus.of(
        cat,
        [
            representable(cat, V),
            *quotients([autquo(cat, V, cat.isos(V, V))]),
            terminal_presheaf(cat),
            empty_presheaf(cat),
        ],
    )
    assert has_unique_ez(corpus, data) == [(True, None)] * 4


def test_no_failing_presheaf_on_small_truncations(trunc3):
    # every object of the size-3 truncation is perfectly presentable, so
    # the truncation is elegant and every presheaf is Reedy monomorphic;
    # levels <= 1 is exhaustively checkable directly
    cat, data, squares = trunc3
    corpus = enumerate_presheaves(cat, 1)
    unique = has_unique_ez(corpus, data)
    for injective, (ok, _) in zip(latching_injective(latching_objects(corpus, data)), unique):
        assert is_reedy_mono(injective)
        assert ok


def test_failing_presheaf_exists_beyond_size_four():
    cat, data, squares, X = non_reedy_mono_example()
    # the base is the quotient closure of the pinched cover
    assert (len(cat.objects), len(cat.domain)) == (8, 949)
    corpus = Corpus.of(cat, [X])
    a = is_reedy_mono(latching_injective(latching_objects(corpus, data))[0])
    ((b, witness),) = has_unique_ez(corpus, data)
    ((c, sq),) = maps_lowering_pushouts_to_pullbacks(corpus, squares)
    assert (a, b, c) == (False, False, False)
    # the witness pair shares an element but no linking isomorphism
    (r, x), d0, d1 = witness
    assert d0[0] != d1[0] or d0[1] != d1[1]


# ---------------------------------------------------------------------------
# skeleta and cell squares
# ---------------------------------------------------------------------------


def test_skeleton_chain_of_representable(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    (degrees,) = ez_degrees(Corpus.of(cat, [yo]), data)
    assert len(skeleton(degrees, 2)[V]) == 3  # the three constants
    assert len(skeleton(degrees, 3)[V]) == 7  # the non-injective endomorphisms
    ok, sizes = skeleton_chain_report(yo, data, degrees)
    assert ok and sizes[0] == 0 and sizes[-1] == yo.total_size()


def test_skeleton_zero_and_one_are_empty(trunc3):
    cat, data, squares = trunc3
    (degrees,) = ez_degrees(Corpus.of(cat, [representable(cat, 1)]), data)
    for n in (0, 1):
        assert skeleton(degrees, n) == ((),) * len(cat.objects)


def test_restriction_raising_an_ez_degree_breaks_closure(trunc3, monkeypatch):
    import reedylab.presheaf as presheaf

    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    ident = cat.identities[V] - cat.refs(V, V).start
    const = next(k for k, f in enumerate(cat.homs[(V, V)]) if len(f.image()) == 1)
    real = presheaf._ez_tables
    # the elements of yo(V) at V, in the chunk of yo(V) alone
    at_V = sum(yo.levels[:V])

    def identity_of_degree_one(corpus, data):
        # the identity takes the decompositions of a constant, so its
        # restriction along a map into V with more than one value in its
        # image raises its degree
        for chunk, element, e, y in real(corpus, data):
            own, taken = element == at_V + ident, element == at_V + const
            element = np.concatenate([element[~own], np.full(taken.sum(), at_V + ident)])
            e, y = (np.concatenate([a[~own], a[taken]]) for a in (e, y))
            order = np.argsort(element, kind="stable")
            yield chunk, element[order], e[order], y[order]

    monkeypatch.setattr(presheaf, "_ez_tables", identity_of_degree_one)
    (degrees,) = ez_degrees(Corpus.of(cat, [yo]), data)
    assert isinstance(degrees, ViolatedLaw)
    assert degrees.law == "sub-presheaf-closure"
    assert degrees.witness[1] == ident


def test_cell_squares_on_representable(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    corpus = Corpus.of(cat, [yo])
    degrees = ez_degrees(corpus, data)
    (reports,) = verify_cell_square(corpus, data, degrees, latching_objects(corpus, data))
    assert list(reports) == [1, 2, 3]
    for rep in reports.values():
        assert rep.commutes and rep.is_pushout and rep.cell_mono


def test_cell_square_with_empty_degree_part(trunc3):
    cat, data, squares = trunc3
    corpus = Corpus.of(cat, [empty_presheaf(cat)])
    degrees, latching = ez_degrees(corpus, data), latching_objects(corpus, data)
    rep = verify_cell_square(corpus, data, degrees, latching)[0][3]
    assert rep.commutes and rep.is_pushout and rep.cell_mono


def test_cell_square_failure_pattern_on_witness():
    # commutation always holds; the cell map fails injectivity exactly at
    # the degree of the latching failure; the pushout property fails where
    # EZ uniqueness breaks across degrees
    cat, data, squares, X = non_reedy_mono_example()
    corpus = Corpus.of(cat, [X])
    (degrees,) = ez_degrees(corpus, data)
    latching = latching_objects(corpus, data)
    (reports,) = verify_cell_square(corpus, data, [degrees], latching)
    assert all(r.commutes for r in reports.values())
    (injective,) = latching_injective(latching)
    latch_fail = {data.degree[r] for r, ok in enumerate(injective) if not ok}
    assert latch_fail == {5}
    assert not reports[5].cell_mono
    assert not reports[4].is_pushout
    assert reports[1].is_pushout and reports[2].is_pushout and reports[3].is_pushout
    ok, sizes = skeleton_chain_report(X, data, degrees)
    assert ok  # the chain still unions to X


# ---------------------------------------------------------------------------
# pushouts to pullbacks
# ---------------------------------------------------------------------------


def test_representables_send_pushouts_to_pullbacks(trunc3):
    cat, data, squares = trunc3
    corpus = Corpus.of(cat, [representable(cat, r) for r in range(4)])
    assert maps_lowering_pushouts_to_pullbacks(corpus, squares) == [(True, None)] * 4


def test_triple_equivalence_on_seeded_corpus(trunc3):
    cat, data, squares = trunc3
    corpus = seeded_corpus(cat, data, seed=0, count=60)
    unique = has_unique_ez(corpus, data)
    pullbacks = maps_lowering_pushouts_to_pullbacks(corpus, squares)
    injective = latching_injective(latching_objects(corpus, data))
    for row, (b, _), (c, _) in zip(injective, unique, pullbacks):
        assert is_reedy_mono(row) == b == c


# ---------------------------------------------------------------------------
# constructions and serialization
# ---------------------------------------------------------------------------


def test_exhaustive_size2_corpus(trunc2):
    cat, data, squares = trunc2
    corpus = enumerate_presheaves(cat, 2)
    assert len(corpus) == 6
    for X, injective in zip(corpus, latching_injective(latching_objects(corpus, data))):
        X.validate()
        assert is_reedy_mono(injective)


def test_quotient_presheaf_congruence_closure(trunc3):
    cat, data, squares = trunc3
    V = free_pair_object(cat)
    yo = representable(cat, V)
    X2 = coproduct_presheaf([yo, yo])
    (Q,) = quotients([([yo, yo], [(V, 0, yo.levels[V])])])
    Q.validate()
    assert Q.total_size() < X2.total_size()


def test_span_pushout_of_representables(trunc3):
    cat, data, squares = trunc3
    sq = squares[-1]
    (X,) = quotients([span_pushout_of_representables(cat, sq[0], sq[1])])
    X.validate()
