"""The corpus routines behind the presheaf verdicts against their
per-presheaf references in presheaf_reference: the pushouts-to-pullbacks
criterion, the EZ table (EZ degrees and unique EZ), the comparison of the
two latching weights, and the latching classes the cell squares move
along each iso.  Compared presheaf by presheaf, every held ViolatedLaw by
its law and witness, on the corpora the suites certify (the exhaustive
size-2 corpus and the seeded size-3 and size-4 corpora), on the non-mono
witness, on every single moved action value of a representable, and on
presheaves with one action value moved, drawn by hypothesis and run
among uncorrupted neighbours."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import presheaf_reference as reference
import reedylab.presheaf as presheaf
from reedylab import kernel
from reedylab.errors import ViolatedLaw
from reedylab.presheaf import (
    Corpus,
    enumerate_presheaves,
    ez_degrees,
    has_unique_ez,
    latching_object_via_weights,
    latching_objects,
    latching_routes_agree,
    maps_lowering_pushouts_to_pullbacks,
    non_reedy_mono_example,
    representable,
    seeded_corpus,
)
from reedylab.reedy import truncated_semilattice_category
from reedylab.suites import SuiteConfig, run_suite

NAMES = ("exhaustive-size2", "seeded-size3", "seeded-size4", "non-mono-witness")


class Corpora(dict):
    """The corpora by name, printed as their name in a falsifying example
    (in full they run to megabytes)."""

    def _repr_pretty_(self, printer, cycle):
        printer.text("corpora")


@pytest.fixture(scope="module")
def corpora():
    cat2, data2, squares2 = truncated_semilattice_category(2)
    cat3, data3, squares3 = truncated_semilattice_category(3)
    cat4, data4, squares4 = truncated_semilattice_category(4)
    cat5, data5, squares5, X = non_reedy_mono_example()
    return Corpora(
        {
            "exhaustive-size2": (enumerate_presheaves(cat2, 2), data2, squares2),
            "seeded-size3": (seeded_corpus(cat3, data3, 0, 200), data3, squares3),
            "seeded-size4": (seeded_corpus(cat4, data4, 0, 200), data4, squares4),
            "non-mono-witness": (Corpus.of(cat5, [X]), data5, squares5),
        }
    )


@pytest.fixture(scope="module")
def moved_values(corpora):
    """yo(1) on the size-3 truncation with one value of one action moved,
    every such change in turn: functors no longer, they break the EZ
    laws, unique EZ and the pullback criterion in every way the corpus
    routines report."""
    seeded, data, squares = corpora["seeded-size3"]
    cat = seeded.base
    yo = representable(cat, 1)
    corpus = [
        reference.with_value(yo, f, x, other)
        for f in cat.morphisms()
        if not cat.is_identity(f)
        for x, value in enumerate(yo.action(f).tolist())
        for other in range(yo.levels[cat.dom(f)])
        if other != value
    ]
    return Corpus.of(cat, corpus), data, squares


def outcome(fn, *args):
    """The result of fn, or the law and witness of the ViolatedLaw it raises."""
    try:
        return fn(*args)
    except ViolatedLaw as exc:
        return ("violated", exc.law, exc.witness)


def summary(result):
    """A held outcome in the form outcome() gives it."""
    if isinstance(result, ViolatedLaw):
        return ("violated", result.law, result.witness)
    return result


def same_verdicts(corpus, data, squares):
    """Each corpus routine on the whole corpus against its per-presheaf
    reference on each presheaf alone; the Counter-based pullback reference
    too, where it is quick."""
    pullbacks = maps_lowering_pushouts_to_pullbacks(corpus, squares)
    degrees = ez_degrees(corpus, data)
    unique = has_unique_ez(corpus, data)
    assert len(pullbacks) == len(degrees) == len(unique) == len(corpus)
    for X, c, d, b in zip(corpus, pullbacks, degrees, unique):
        assert c == reference.pullbacks_by_presheaf(X, squares)
        if len(X.values) < 20000:
            assert c == reference.maps_lowering_pushouts_to_pullbacks(X, squares)
        assert summary(d) == outcome(reference.ez_degrees, X, data)
        assert b == reference.has_unique_ez(X, data)
    return pullbacks, degrees, unique


def same_route_verdicts(corpus, data):
    by_lowering = latching_objects(corpus, data)
    by_degree = latching_object_via_weights(corpus, data)
    verdicts = latching_routes_agree(by_lowering, by_degree)
    assert len(verdicts) == len(corpus)
    by_lowering, by_degree = reference.by_presheaf(by_lowering), reference.by_presheaf(by_degree)
    for As, Bs, agree in zip(by_lowering, by_degree, verdicts):
        assert len(agree) == len(As)
        for A, B, ok in zip(As, Bs, agree):
            assert summary(ok) == outcome(reference.latching_routes_agree, A, B)
            # a law is held as the very outcome that broke it
            assert not isinstance(ok, ViolatedLaw) or ok is A or ok is B
    return verdicts


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_match_the_references(corpora, name):
    corpus, data, squares = corpora[name]
    if name.startswith("seeded-size3"):
        assert max(len(part) for part, _ in corpus.chunks) > 1
    pullbacks, degrees, unique = same_verdicts(corpus, data, squares)
    # the witness fails both criteria; the others pass everywhere
    failing = name == "non-mono-witness"
    assert {ok for ok, _ in pullbacks} == {ok for ok, _ in unique} == {not failing}
    assert not any(isinstance(d, ViolatedLaw) for d in degrees)


@pytest.mark.parametrize("name", NAMES)
def test_route_verdicts_match_the_reference(corpora, name):
    corpus, data, _ = corpora[name]
    # the degree weight takes seconds on the whole size-4 corpus: its
    # designed family and the first random presheaves are compared
    verdicts = same_route_verdicts(Corpus.of(corpus.base, corpus.presheaves[:40]), data)
    assert all(ok is True for agree in verdicts for ok in agree)


def test_moved_values_match_the_references(moved_values):
    corpus, data, squares = moved_values
    assert len(corpus) == 614 and max(len(part) for part, _ in corpus.chunks) > 1
    pullbacks, degrees, unique = same_verdicts(corpus, data, squares)
    # every branch is reached, so each was compared
    laws = Counter(d.law for d in degrees if isinstance(d, ViolatedLaw))
    assert set(laws) == {"ez-existence", "sub-presheaf-closure"}
    assert {ok for ok, _ in pullbacks} == {ok for ok, _ in unique} == {True, False}
    verdicts = same_route_verdicts(corpus, data)
    seen = {summary(ok)[1] if isinstance(ok, ViolatedLaw) else ok for v in verdicts for ok in v}
    assert seen == {True, "well-definedness"}


def test_pullback_verdicts_keep_their_presheaf_in_a_chunk(corpora, monkeypatch):
    # a presheaf that fails does not hide the first failing square of
    # another in the same chunk, nor fail one that passes
    (X,), data, squares = corpora["non-mono-witness"]
    cat = X.base
    monkeypatch.setattr(kernel, "CHUNK", 1 << 17)
    corpus = Corpus.of(cat, [X, representable(cat, 0), X])
    assert [len(part) for part, _ in corpus.chunks] == [3]
    outcomes = maps_lowering_pushouts_to_pullbacks(corpus, squares)
    assert outcomes == [reference.pullbacks_by_presheaf(Y, squares) for Y in corpus]
    assert outcomes[0] == outcomes[2] != outcomes[1]


@pytest.mark.parametrize("name", ["seeded-size3", "seeded-size4"])
def test_seeded_corpus_is_the_fresh_build(corpora, name, monkeypatch):
    """The seeded corpus, which builds each representable once, against
    the build with a fresh representable for every draw."""
    corpus, data, _ = corpora[name]
    cat = corpus.base
    fresh = reference.seeded_corpus(cat, data, 0, 200)
    assert len(fresh) == len(corpus)
    for X, Y in zip(corpus, fresh):
        assert (X.levels, X.values.tolist()) == (Y.levels, Y.values.tolist())
    real, calls = presheaf.representable, []

    def counting(cat, r):
        calls.append(r)
        return real(cat, r)

    monkeypatch.setattr(presheaf, "representable", counting)
    seeded_corpus(cat, data, 0, 200)
    # once per object, once per automorphism quotient, and twice per span
    # pushout of the designed family
    autquos = sum(len(cat.isos(r, r)) > 1 for r in range(len(cat.objects)))
    spans = len(presheaf._some_spans(cat, data))
    assert len(calls) == len(cat.objects) + autquos + 2 * spans


def _levels_and_values(corpus):
    return [(X.levels, X.values.tolist()) for X in corpus]


@pytest.mark.parametrize("name", ["seeded-size3", "seeded-size4"])
def test_seeded_draws_in_batches_are_the_draw_by_draw_build(corpora, name, monkeypatch):
    """The random draws quotiented in batches, against the build that
    quotients each draw alone, at several seeds and counts, at the default
    CHUNK and at 64 entries, where every draw is a batch of its own."""
    corpus, data, _ = corpora[name]
    cat = corpus.base
    for seed in (0, 1, 7):
        for count in (0, 1, 3, 200):
            fresh = _levels_and_values(reference.seeded_corpus(cat, data, seed, count))
            assert _levels_and_values(seeded_corpus(cat, data, seed, count)) == fresh
            with monkeypatch.context() as m:
                m.setattr(kernel, "CHUNK", 64)
                assert _levels_and_values(seeded_corpus(cat, data, seed, count)) == fresh


def test_seeded_draws_take_one_congruence_pass_per_batch(corpora, monkeypatch):
    # every quotient of the seeded build, the designed family's included,
    # goes through one quotients call: at most one pass per kernel.chunks
    # batch of the draws' action entries, a handful at the default CHUNK,
    # and one each at 64 entries, where every draw is a batch of its own
    corpus, data, _ = corpora["seeded-size3"]
    cat = corpus.base
    real, passes = presheaf._quotients, []

    def counting(X, levels, pairs):
        passes.append(levels)
        return real(X, levels, pairs)

    monkeypatch.setattr(presheaf, "_quotients", counting)
    autquos = sum(len(cat.isos(r, r)) > 1 for r in range(len(cat.objects)))
    n_draws = autquos + len(presheaf._some_spans(cat, data)) + 200
    # the default CHUNK last, for the suite run below
    for chunk, most in ((64, n_draws), (kernel.CHUNK, 10)):
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        passes.clear()
        seeded_corpus(cat, data, 0, 200)
        sizes = [int(row[cat.codomain].sum()) for levels in passes for row in levels]
        assert len(sizes) == n_draws
        assert len(passes) <= len(list(kernel.chunks(sizes))) <= most
    # presheaf-ez's autquos check quotients all its subgroups in one pass
    made, calls = [], []  # the autquo draws; each quotients call's draws and passes
    real_autquo, real_quotients = presheaf.autquo, presheaf.quotients

    def recording_autquo(cat, r, H):
        made.append(real_autquo(cat, r, H))
        return made[-1]

    def recording_quotients(draws):
        before = len(passes)
        quotiented = real_quotients(draws)
        calls.append((draws, len(passes) - before))
        return quotiented

    monkeypatch.setattr(presheaf, "autquo", recording_autquo)
    monkeypatch.setattr(presheaf, "quotients", recording_quotients)
    run_suite(SuiteConfig(suite="presheaf-ez"))
    ((draws, n),) = [
        (draws, n) for draws, n in calls if all(any(d is m for m in made) for d in draws)
    ]
    assert len(draws) > 1 and n == 1


def test_a_non_functor_draw_fails_naturality_in_its_batch(corpora):
    """Draws on the top representable with one action value moved, each
    glued at two elements: where quotienting one alone raises
    'naturality', so does its batch, with the same witness, numbered in
    the draw.  The batch puts it after an intact draw and before the
    failing draw whose witness map comes first, so the first failing draw
    is reported, not the first failing map."""
    corpus, data, _ = corpora["seeded-size3"]
    cat = corpus.base
    yo = representable(cat, len(cat.objects) - 1)
    cases = []  # each moved presheaf, the object glued and its law alone
    for f in cat.morphisms():
        a, b = cat.dom(f), cat.cod(f)
        if yo.levels[a] < 2 or not yo.levels[b]:
            continue
        bad = reference.with_value(yo, f, 0, (yo.action(f)[0] + 1) % yo.levels[a])
        for s in (s for s, n in enumerate(yo.levels) if n >= 2):
            try:
                presheaf.quotients([([bad], [(s, 0, 1)])])
            except ViolatedLaw as exc:
                cases.append((bad, s, (exc.law, exc.witness)))
    assert {law for _, _, (law, _) in cases} == {"naturality"}
    first = min(cases, key=lambda case: case[2][1][0])
    # three draws of yo's size make one batch
    assert len(list(kernel.chunks([len(yo.values)] * 3))) == 1
    later = 0
    for bad, s, alone in cases:
        draws = [([yo], [(s, 0, 1)]), ([bad], [(s, 0, 1)]), ([first[0]], [(first[1], 0, 1)])]
        with pytest.raises(ViolatedLaw) as exc:
            presheaf.quotients(draws)
        assert (exc.value.law, exc.value.witness) == alone
        later += alone[1][0] > first[2][1][0]
    assert later


@pytest.mark.parametrize("name", ["seeded-size3", "seeded-size4", "non-mono-witness"])
def test_iso_moves_match_the_per_presheaf_moves(corpora, name):
    """The classes the cell squares move along each iso th: r -> r2 of
    the degree-n objects, for a whole chunk at once, against the moves of
    each presheaf alone.  An identity moves every class to itself, so it
    has no move, and the cell squares glue nothing along it."""
    corpus, data, _ = corpora[name]
    cat = corpus.base
    isos = 0
    for Ls in latching_objects(corpus, data):
        parts = reference.by_presheaf([Ls])
        for n in sorted(set(data.degree)):
            _, _, gluings = presheaf._gluing_plan(cat, data, n)
            moves = presheaf._iso_moves(cat, Ls, gluings)
            for r, _, _, plan in gluings:
                for r2, th, _ in plan:
                    expected = [reference.iso_on_weighted_latching(cat, th, L[r], L[r2]) for L in parts]
                    if cat.is_identity(th):
                        assert th not in moves
                        assert all(e.tolist() == list(range(len(e))) for e in expected)
                        continue
                    assert moves[th].tolist() == np.concatenate(expected).tolist()
                    isos += 1
    assert isos


# no shrink phase: shrinking a failure reruns the references on every
# candidate before the failure is reported
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=tuple(p for p in Phase if p is not Phase.shrink),
)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_verdicts_match_the_references_on_corrupted_presheaves(corpora, seed, data):
    """A presheaf of seeded_corpus with one action value moved, run in one
    chunk among four uncorrupted presheaves of the seeded corpus, at a
    drawn place: its verdicts are its references', and theirs are those
    they have without it."""
    base, reedy, squares = corpora["seeded-size3"]
    cat = base.base
    X = data.draw(st.sampled_from(seeded_corpus(cat, reedy, seed, 3).presheaves[-3:]))
    movable = [f for f in cat.morphisms() if X.levels[cat.dom(f)] >= 2 and X.levels[cat.cod(f)]]
    if movable:
        f = data.draw(st.sampled_from(movable))
        x = data.draw(st.integers(0, X.levels[cat.cod(f)] - 1))
        X = reference.with_value(X, f, x, data.draw(st.integers(0, X.levels[cat.dom(f)] - 1)))
    i = data.draw(st.integers(0, len(base) - 4))
    at = data.draw(st.integers(0, 4))
    neighbours = base.presheaves[i : i + 4]
    corpus = Corpus.of(cat, [*neighbours[:at], X, *neighbours[at:]])
    neighbours = Corpus.of(cat, neighbours)
    assert [len(part) for part, _ in corpus.chunks] == [5]
    together = same_verdicts(corpus, reedy, squares)
    alone = same_verdicts(neighbours, reedy, squares)
    for held, own in zip(together, alone):
        assert list(map(summary, held[:at] + held[at + 1 :])) == list(map(summary, own))
    verdicts = [list(map(summary, v)) for v in same_route_verdicts(corpus, reedy)]
    own = [list(map(summary, v)) for v in same_route_verdicts(neighbours, reedy)]
    assert verdicts[:at] + verdicts[at + 1 :] == own
