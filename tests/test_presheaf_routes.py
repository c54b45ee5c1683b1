"""The numpy routes of the presheaf layer against their tuple-keyed
references in presheaf_reference: latching by both weights class by class,
cell squares verdict by verdict, and the constructors action by action, on
the corpora the suites certify, on the non-mono witness, and on corrupted
inputs drawn by hypothesis."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import presheaf_reference as reference
import reedylab.presheaf as presheaf
from reedylab.errors import ViolatedLaw
from reedylab import kernel
from reedylab.presheaf import (
    Corpus,
    FinPresheaf,
    enumerate_presheaves,
    ez_degrees,
    latching_injective,
    latching_object_via_weights,
    latching_objects,
    non_reedy_mono_example,
    seeded_corpus,
    verify_cell_square,
)
from reedylab.reedy import truncated_semilattice_category
from reedylab.suites import _subgroups


class Corpora(dict):
    """The corpora by name.  A falsifying example prints them as their
    name: printed in full they run to megabytes, which hypothesis's pytest
    plugin then parses with libcst to suggest an @example, using
    gigabytes of memory and minutes before it reports the failure."""

    def _repr_pretty_(self, printer, cycle):
        printer.text("corpora")


@pytest.fixture(scope="module")
def corpora():
    cat2, data2, _ = truncated_semilattice_category(2)
    cat3, data3, _ = truncated_semilattice_category(3)
    cat5, data5, _, X = non_reedy_mono_example()
    return Corpora(
        {
            "exhaustive-size2": (enumerate_presheaves(cat2, 2), data2),
            "seeded-size3": (seeded_corpus(cat3, data3, 0, 200), data3),
            "non-mono-witness": (Corpus.of(cat5, [X]), data5),
        }
    )


def weighted_classes(X, r, W):
    """The classes of a PresheafLatching as (id, x) member lists,
    in class order and, within a class, in node order."""
    classes = [[] for _ in W.latch]
    for p, f in enumerate(X.base.out_of(r)):
        if W.first_node[p] >= 0:
            for x in range(X.levels[X.base.cod(f)]):
                classes[W.node_class[W.first_node[p] + x]].append((f, x))
    return classes


# the two weights: each corpus routine and its tuple-keyed reference
WEIGHTS = {
    "lowering": (latching_objects, reference.latching_object),
    "degree": (latching_object_via_weights, reference.latching_object_via_weights),
}


def outcome(fn, *args):
    """The result of fn, or the law and witness of the ViolatedLaw it raises."""
    try:
        return fn(*args)
    except ViolatedLaw as exc:
        return violated(exc)


def violated(exc):
    return ("violated", exc.law, exc.witness)


def summary(result):
    """A batched route's outcome in comparable form: the law and witness of
    a ViolatedLaw, a PresheafLatching's lists, or a report as it is."""
    if isinstance(result, ViolatedLaw):
        return violated(result)
    if isinstance(result, reference.PresheafLatching):
        return (result.first_node.tolist(), result.node_class.tolist(), result.latch)
    return result


def same_latching(X, r, data, W, weight, gluing=None):
    """W, the outcome of latching by the named weight at (X, r) within a
    corpus, against the reference run on X alone, glued along every map
    or along those in gluing."""
    R = outcome(WEIGHTS[weight][1], X, r, data, gluing)
    if isinstance(R, tuple) or isinstance(W, ViolatedLaw):
        return summary(W) == R
    return (weighted_classes(X, r, W), W.latch) == (R.classes, R.latch)


def generator_gluing(cat, data, weight):
    """The maps the named weight's route glues along, as a set of ids: the
    base's generators, and for the lowering weight the lowering ones."""
    glued = data.lowering if weight == "lowering" else True
    return set(np.flatnonzero(glued & cat.generators).tolist())


def same_cell_squares(X, data, degrees, reports, gluing=None):
    """reports, the outcomes of the cell squares of X within a corpus, by
    degree, against the reference run on X alone, its latching objects
    glued along every lowering map or along those in gluing."""
    return list(reports) == sorted(set(data.degree)) and all(
        summary(rep) == outcome(reference.verify_cell_square, X, n, data, degrees, gluing)
        for n, rep in reports.items()
    )


# the degree weight keeps the ids the test had before it took both weights
@pytest.mark.parametrize(
    "weight, name",
    [
        pytest.param(weight, name, id=name if weight == "degree" else f"{weight}-{name}")
        for weight in WEIGHTS
        for name in ("exhaustive-size2", "seeded-size3", "non-mono-witness")
    ],
)
def test_latching_by_weights_matches_the_reference(corpora, weight, name):
    # the whole corpus at once, so that one chunk holds many presheaves
    corpus, data = corpora[name]
    assert name == "non-mono-witness" or max(len(part) for part, _ in corpus.chunks) > 1
    outcomes = reference.by_presheaf(WEIGHTS[weight][0](corpus, data))
    assert len(outcomes) == len(corpus)
    for X, weighted in zip(corpus, outcomes):
        assert len(weighted) == len(X.base.objects)
        for r, W in enumerate(weighted):
            assert same_latching(X, r, data, W, weight)


@pytest.mark.parametrize("name", ["exhaustive-size2", "seeded-size3", "non-mono-witness"])
def test_cell_squares_match_the_reference(corpora, name):
    corpus, data = corpora[name]
    degrees = ez_degrees(corpus, data)
    outcomes = verify_cell_square(corpus, data, degrees, latching_objects(corpus, data))
    assert len(outcomes) == len(corpus)
    for X, d, reports in zip(corpus, degrees, outcomes):
        assert same_cell_squares(X, data, d, reports)
    assert sum(map(len, outcomes))


def test_cell_squares_match_the_reference_where_both_legs_leave(corpora):
    # every EZ degree raised past the top, so that the legs leave their
    # skeleta at several levels of a square, by differing counts: each
    # report names the first such level, as the reference does
    cat, data = corpora["seeded-size3"][0].base, corpora["seeded-size3"][1]
    corpus = seeded_corpus(cat, data, 0, 20)
    top = max(data.degree) + 1
    degrees = [[[top] * n for n in X.levels] for X in corpus]
    outcomes = verify_cell_square(corpus, data, degrees, latching_objects(corpus, data))
    for X, d, reports in zip(corpus, degrees, outcomes):
        assert same_cell_squares(X, data, d, reports)
    laws = [rep for reports in outcomes for rep in reports.values() if isinstance(rep, ViolatedLaw)]
    assert {rep.law for rep in laws} == {"skeleton-landing"}


def test_cell_squares_match_the_reference_where_an_identity_moves(corpora):
    # one entry of an identity's action moved, in a presheaf between two
    # intact copies in one chunk: the cell squares glue along an identity
    # only the entries it moves, and the reference along every entry
    seeded, data = corpora["seeded-size3"]
    cat = seeded.base
    gluing = generator_gluing(cat, data, "lowering")
    reports = 0
    for X in (seeded.presheaves[len(cat.objects) - 1], *seeded.presheaves[-3:]):
        (degrees,) = ez_degrees(Corpus.of(cat, [X]), data)
        (intact,) = verify_cell_square(
            Corpus.of(cat, [X]), data, [degrees], latching_objects(Corpus.of(cat, [X]), data)
        )
        for r in (r for r, n in enumerate(X.levels) if n >= 2):
            Y = reference.with_value(X, cat.identities[r], 0, 1)
            corpus = Corpus.of(cat, [X, Y, X])
            outcomes = verify_cell_square(
                corpus, data, [degrees] * 3, latching_objects(corpus, data)
            )
            assert same_cell_squares(Y, data, degrees, outcomes[1], gluing)
            for k in (0, 2):
                assert list(map(summary, outcomes[k].values())) == list(map(summary, intact.values()))
            reports += not isinstance(outcomes[1][data.degree[r]], ViolatedLaw)
    assert reports


def test_the_witness_has_failed_squares(corpora):
    # so that the comparison above covers failed verdicts, not only passes
    corpus, data = corpora["non-mono-witness"]
    (reports,) = verify_cell_square(
        corpus, data, ez_degrees(corpus, data), latching_objects(corpus, data)
    )
    assert all(rep.commutes for rep in reports.values())
    assert not all(rep.is_pushout for rep in reports.values())
    assert not all(rep.cell_mono for rep in reports.values())


def test_an_empty_corpus_has_no_outcomes(corpora):
    seeded, data = corpora["seeded-size3"]
    corpus = Corpus.of(seeded.base, [])
    assert latching_objects(corpus, data) == latching_object_via_weights(corpus, data) == []
    assert verify_cell_square(corpus, data, [], []) == []


@pytest.fixture(scope="module")
def seeded_degrees(corpora):
    corpus, data = corpora["seeded-size3"]
    return ez_degrees(corpus, data)


# no shrink phase: shrinking a failure reruns the reference routes on
# every candidate before the failure is reported
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    phases=tuple(p for p in Phase if p is not Phase.shrink),
)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_routes_match_the_reference_on_corrupted_presheaves(corpora, seeded_degrees, seed, data):
    """A random presheaf of seeded_corpus, with one action value and one
    EZ degree possibly moved, so the ill-defined maps, the failed squares
    and the skeleton-landing laws are compared as well.  It runs in one
    chunk among four uncorrupted presheaves of the seeded corpus, at a
    drawn place, and their outcomes are those they have without it.  Both
    weights are checked on every example, so the cell squares, which read
    the lowering weight, run once per example.  A moved value need not
    leave a functor, and the routes glue along the generators only, so X
    is compared with the reference glued along the same generators."""
    base, reedy = corpora["seeded-size3"]
    cat = base.base
    X = data.draw(st.sampled_from(seeded_corpus(cat, reedy, seed, 3).presheaves[-3:]))
    degrees = [list(level) for level in ez_degrees(Corpus.of(cat, [X]), reedy)[0]]
    movable = [
        f for f in cat.morphisms() if X.levels[cat.dom(f)] >= 2 and X.levels[cat.cod(f)]
    ]
    if movable and data.draw(st.booleans()):
        f = data.draw(st.sampled_from(movable))
        value = data.draw(st.integers(0, X.levels[cat.dom(f)] - 1))
        X = reference.with_value(X, f, data.draw(st.integers(0, X.levels[cat.cod(f)] - 1)), value)
    if X.total_size() and data.draw(st.booleans()):
        s = data.draw(st.sampled_from([s for s, n in enumerate(X.levels) if n]))
        x = data.draw(st.integers(0, X.levels[s] - 1))
        degrees[s][x] = data.draw(st.integers(1, max(reedy.degree) + 1))
    i = data.draw(st.integers(0, len(base) - 4))
    at = data.draw(st.integers(0, 4))
    neighbours = base.presheaves[i : i + 4]
    corpus = Corpus.of(cat, [*neighbours[:at], X, *neighbours[at:]])
    neighbours = Corpus.of(cat, neighbours)
    assert [len(part) for part, _ in corpus.chunks] == [5]

    def without_x(outcomes):
        return [
            list(map(summary, o)) if isinstance(o, list) else {n: summary(v) for n, v in o.items()}
            for o in outcomes[:at] + outcomes[at + 1 :]
        ]

    latching = {}
    for weight, (route, _) in WEIGHTS.items():
        latching[weight] = route(corpus, reedy)
        together = reference.by_presheaf(latching[weight])
        gluing = generator_gluing(cat, reedy, weight)
        for r, W in enumerate(together[at]):
            assert same_latching(X, r, reedy, W, weight, gluing), weight
        alone = reference.by_presheaf(route(neighbours, reedy))
        assert without_x(together) == without_x(alone[:at] + [None] + alone[at:]), weight

    neighbour_degrees = seeded_degrees[i : i + 4]
    reports = verify_cell_square(
        corpus,
        reedy,
        [*neighbour_degrees[:at], degrees, *neighbour_degrees[at:]],
        latching["lowering"],
    )
    gluing = generator_gluing(cat, reedy, "lowering")
    assert same_cell_squares(X, reedy, degrees, reports[at], gluing)
    alone = verify_cell_square(
        neighbours, reedy, neighbour_degrees, latching_objects(neighbours, reedy)
    )
    assert without_x(reports) == without_x(alone[:at] + [None] + alone[at:])


def test_a_composite_that_breaks_functoriality_shows_the_cut(corpora):
    # the top representable with one value moved in the action of a map h
    # that is no generator: the generators' actions are a functor's, so
    # only a route that glues along h sees the break.  The routes, which
    # glue along the generators, give the classes of the reference glued
    # along them; the all-maps reference finds at some object that the
    # latching map is ill defined, where the degree weight gives a value
    corpus, data = corpora["seeded-size3"]
    cat = corpus.base
    X = presheaf.representable(cat, len(cat.objects) - 1)
    h = next(
        f
        for f in cat.morphisms()
        if not (cat.is_identity(f) or cat.generators[f]) and X.levels[cat.dom(f)] >= 2
    )
    X = reference.with_value(X, h, 0, (X.action(h)[0] + 1) % X.levels[cat.dom(h)])
    with pytest.raises(ViolatedLaw) as exc:
        X.validate()
    assert exc.value.law == "functoriality"
    single = Corpus.of(cat, [X])
    for weight, (route, _) in WEIGHTS.items():
        (outcomes,) = reference.by_presheaf(route(single, data))
        gluing = generator_gluing(cat, data, weight)
        assert all(same_latching(X, r, data, W, weight, gluing) for r, W in enumerate(outcomes))
    (outcomes,) = reference.by_presheaf(latching_object_via_weights(single, data))
    cut = [r for r, W in enumerate(outcomes) if not same_latching(X, r, data, W, "degree")]
    assert cut
    for r in cut:
        assert isinstance(outcomes[r], reference.PresheafLatching)
        with pytest.raises(ViolatedLaw, match="well-definedness"):
            reference.latching_object_via_weights(X, r, data)


def test_outcomes_keep_their_presheaf_in_a_corpus(corpora, monkeypatch):
    # the witness's failed squares and latching maps that are not
    # injective, run first in one chunk with two representables on its
    # base, are those it has alone, and so are theirs
    (X,), data = corpora["non-mono-witness"]
    cat = X.base
    monkeypatch.setattr(kernel, "CHUNK", 1 << 16)
    corpus = Corpus.of(cat, [X, presheaf.representable(cat, 0), presheaf.representable(cat, 1)])
    assert [len(part) for part, _ in corpus.chunks] == [3]
    degrees = ez_degrees(corpus, data)
    together = verify_cell_square(corpus, data, degrees, latching_objects(corpus, data))
    singles = [Corpus.of(cat, [Y]) for Y in corpus]
    alone = [
        verify_cell_square(Y, data, [d], latching_objects(Y, data))[0]
        for Y, d in zip(singles, degrees)
    ]
    assert together == alone
    assert together[0] != together[2]
    for weight, (route, _) in WEIGHTS.items():
        latching = reference.by_presheaf(route(corpus, data))
        for Y, outcomes in zip(singles, latching):
            (expected,) = reference.by_presheaf(route(Y, data))
            assert list(map(summary, outcomes)) == list(map(summary, expected)), weight
        assert list(map(summary, latching[0])) != list(map(summary, latching[2])), weight
    # the injectivity verdicts too, part by part
    injective = latching_injective(latching_objects(corpus, data))
    assert injective == [latching_injective(latching_objects(Y, data))[0] for Y in singles]
    assert not all(injective[0]) and all(injective[1] + injective[2])


CONSTRUCTORS = ("representable", "coproduct_presheaf", "quotients", "autquo")


def _as_reference_argument(arg):
    if isinstance(arg, FinPresheaf):
        return reference.as_dict(arg)
    if isinstance(arg, list):
        return [_as_reference_argument(a) for a in arg]
    return arg


def _reference_quotient(draw):
    """The quotient of a draw by the reference: of the coproduct of its
    parts, by its pairs."""
    parts, pairs = draw
    return reference.quotient_presheaf(
        reference.coproduct_presheaf(_as_reference_argument(parts)), pairs
    )


def _same_construction(name, args, result):
    """Levels and every action by morphism id, against the reference: of
    each quotient, for quotients, and for autquo, of the reference's
    quotient of its draw."""
    if name == "quotients":
        (draws,) = args
        built, expected = result, [_reference_quotient(draw) for draw in draws]
    else:
        built = [_reference_quotient(result) if name == "autquo" else result]
        expected = [getattr(reference, name)(*map(_as_reference_argument, args))]
    built = [X if isinstance(X, reference.DictPresheaf) else reference.as_dict(X) for X in built]
    return [(X.levels, X.actions) for X in built] == [(R.levels, R.actions) for R in expected]


@pytest.fixture
def checked_constructors(monkeypatch):
    """Each of the four constructors, wherever the presheaf layer calls it,
    also built by its reference; returns the calls per constructor and the
    calls whose results differ."""
    calls, differ = Counter(), []
    for name in CONSTRUCTORS:

        def both(*args, name=name, real=getattr(presheaf, name)):
            result = real(*args)
            calls[name] += 1
            if not _same_construction(name, args, result):
                differ.append((name, args))
            return result

        monkeypatch.setattr(presheaf, name, both)
    return calls, differ


def test_held_ez_degrees_law_takes_the_place_of_the_reports(corpora):
    # a presheaf whose EZ degrees are a law keeps that law at every
    # degree, in one chunk with others whose reports are their own
    seeded, data = corpora["seeded-size3"]
    corpus = Corpus.of(seeded.base, seeded.presheaves[:3])
    assert len(corpus.chunks) == 1
    degrees, latching = ez_degrees(corpus, data), latching_objects(corpus, data)
    law = ViolatedLaw("ez-existence", (0, 0))
    held = verify_cell_square(corpus, data, [degrees[0], law, degrees[2]], latching)
    reports = verify_cell_square(corpus, data, degrees, latching)
    assert list(held[1]) == sorted(set(data.degree))
    assert all(outcome is law for outcome in held[1].values())
    assert (held[0], held[2]) == (reports[0], reports[2])


@pytest.mark.parametrize(
    "name", ["exhaustive-size2", "seeded-size3", "autquo-subgroups", "non-mono-witness"]
)
def test_constructors_match_the_reference(checked_constructors, name):
    calls, differ = checked_constructors
    if name == "exhaustive-size2":
        # the corpus is enumerated, not constructed: each presheaf is
        # doubled and its two copies glued at their first elements
        cat, _, _ = truncated_semilattice_category(2)
        for r in range(len(cat.objects)):
            presheaf.representable(cat, r)
        draws = [
            ([X, X], [(r, 0, n) for r, n in enumerate(X.levels) if n])
            for X in enumerate_presheaves(cat, 2)
        ]
        presheaf.quotients(draws)
    elif name == "seeded-size3":
        cat, data, _ = truncated_semilattice_category(3)
        for seed in range(3):
            presheaf.seeded_corpus(cat, data, seed, 200)
    elif name == "autquo-subgroups":
        subgroups = 0
        for N in (3, 4):
            cat, _, _ = truncated_semilattice_category(N)
            draws = [
                presheaf.autquo(cat, r, H)
                for r in range(len(cat.objects))
                for H in _subgroups(cat, r, cat.isos(r, r))
            ]
            presheaf.quotients(draws)
            subgroups += len(draws)
        assert subgroups == 22
    else:
        non_reedy_mono_example()
    expected = {
        "exhaustive-size2": set(CONSTRUCTORS) - {"autquo"},
        "non-mono-witness": set(CONSTRUCTORS) - {"autquo"},
    }.get(name, set(CONSTRUCTORS))
    assert set(calls) == expected
    assert differ == []
