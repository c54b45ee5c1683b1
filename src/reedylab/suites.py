"""Registered certification suites and their configuration.

Each suite assembles the checks of module-level certifiers plus its own
into a single deterministic Certificate, which only run_suite builds.
A suite's factory takes the SuiteConfig options it reads as keyword
parameters, so its signature is the list of options the suite accepts.
Budget overruns become skipped checks; nothing is silently truncated.

The suites share their inputs through one memo, _built: the truncated
categories, the exhaustive and seeded presheaf corpora, the non-mono
witness and the latching objects by the lowering weight of those three
are built once per process and handed to every suite that reads them,
and the Reedy-axiom and cancellation checks of a truncation are run once
for reedy-axioms and pre-elegance, which both certify them.
It holds at most MEMO_SIZE builds, least recently used first out, which
covers every input `reedylab all` builds.  Its key is the builder
function, as the suite looks it up at the call, and the builder's
arguments, so a replaced builder (a test's monkeypatch) misses it and is
called.  An exception is not stored: an over-budget build raises on every
call and still becomes its skipped check.  It is the one cache in the
package.  The library builders in reedy.py and presheaf.py stay
uncached, as callers may change the tables they return in place; the
suites only read theirs.  Every other result, a hom-set or another
latching object, is computed once where a suite uses it and handed on as
a value.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import time
from dataclasses import dataclass

from .certificates import FAIL, SKIPPED, Certificate, Check, scan, verdict
from .errors import (
    CandidateSpaceExceeded,
    InvalidInput,
    SizeBudget,
    UnknownSuite,
    ViolatedLaw,
    outcome_value,
)
from .semilattice import DEFAULT_CANDIDATE_BUDGET

# the ceiling of --cube-dim: the cube suites are sized for cubes of
# dimension at most 3
MAX_CUBE_DIM = 3

# the most suite inputs the memo holds; `reedylab all` builds six, the
# presheaf suites share four more (the witness laid out as a corpus and
# the latching objects of it and of both corpora), and the truncation
# suites two: the Reedy-axiom and cancellation checks
MEMO_SIZE = 12


@functools.lru_cache(maxsize=MEMO_SIZE)
def _built(builder, *args):
    """builder(*args), built once per process while it stays among the
    MEMO_SIZE most recent builds; see the module docstring."""
    return builder(*args)


@dataclass
class SuiteConfig:
    suite: str
    max_size: int | None = None
    cube_dim: int = MAX_CUBE_DIM
    budget: int = DEFAULT_CANDIDATE_BUDGET
    seed: int = 0
    corpus_count: int = 200

    def __post_init__(self):
        for name, value, low in (
            ("max_size", self.max_size, 1),
            ("cube_dim", self.cube_dim, 0),
            ("budget", self.budget, 1),
            ("corpus_count", self.corpus_count, 0),
        ):
            if value is not None and value < low:
                raise InvalidInput(f"{name} must be at least {low}, got {value}")
        if self.cube_dim > MAX_CUBE_DIM:
            raise InvalidInput(
                f"cube_dim must be at most {MAX_CUBE_DIM}, got {self.cube_dim}"
            )


def _guard(cid: str, thunk) -> list[Check]:
    """thunk(), or one skipped check when it overruns a budget or size cap,
    or one failed check naming the law when a certified fact breaks."""
    try:
        return thunk()
    except (SizeBudget, CandidateSpaceExceeded) as exc:
        return [Check(cid, SKIPPED, 0, str(exc))]
    except ViolatedLaw as exc:
        return [Check(cid, FAIL, 0, {"law": exc.law, "witness": exc.witness})]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_hom_counts(*, cube_dim: int, budget: int) -> list:
    from .cubes import cube, cube_hom_count, dedekind_homs
    from .semilattice import BRUTE_FORCE_CAP, all_functions_homs, backtrack_homs

    tasks = []
    for m in range(1, cube_dim + 1):
        for n in range(1, cube_dim + 1):
            def thunk(m=m, n=n):
                formula, homs = cube_hom_count(m, n, budget)
                enumerated = len(homs)
                checks = [
                    verdict(
                        f"formula-matches-enumeration-{m}-{n}",
                        formula == enumerated,
                        enumerated,
                        {"formula": formula, "enumerated": enumerated},
                    )
                ]
                A, B = cube(m), cube(n)
                pruned = backtrack_homs(A, B)
                checks.append(
                    verdict(
                        f"elementwise-backtracking-agrees-{m}-{n}",
                        pruned == [f.map for f in homs],
                        len(pruned),
                    )
                )
                if B.size**A.size <= BRUTE_FORCE_CAP:
                    literal = all_functions_homs(A, B)
                    checks.append(
                        verdict(
                            f"literal-filtration-agrees-{m}-{n}",
                            literal == pruned,
                            len(literal),
                        )
                    )
                return checks

            tasks.append((f"hom-count-{m}-{n}", thunk))

    def dedekind():
        expected = {1: 3, 2: 6, 3: 20}
        checks = []
        for n, want in expected.items():
            got = len(dedekind_homs(n, 1, budget))
            checks.append(
                verdict(
                    f"monotone-count-into-interval-{n}",
                    got == want,
                    got,
                    {"expected": want, "got": got},
                )
            )
        return checks

    tasks.append(("dedekind-counts", dedekind))
    return tasks


def _suite_reedy_axioms(*, max_size: int = 3, budget: int) -> list:
    from .reedy import certify_cancellation, certify_reedy_axioms, truncated_semilattice_category

    cat, data, squares = _built(truncated_semilattice_category, max_size, budget)
    return [
        ("axioms", lambda: _built(certify_reedy_axioms, cat, data)),
        ("cancellation", lambda: _built(certify_cancellation, cat, data)),
    ]


def _suite_pre_elegance(*, max_size: int = 3, budget: int) -> list:
    from .reedy import certify_pre_elegance, truncated_semilattice_category

    cat, data, squares = _built(truncated_semilattice_category, max_size, budget)
    return _suite_reedy_axioms(max_size=max_size, budget=budget) + [
        ("pre-elegance", lambda: certify_pre_elegance(cat, data, squares)),
    ]


def _suite_elegant_core(*, max_size: int = 4, budget: int) -> list:
    from .elegance import (
        counit_from_free,
        hom_preserves_lowering_pushout,
        in_elegant_core,
        is_perfectly_presentable,
    )
    from .semilattice import (
        all_semilattices_upto,
        are_isomorphic,
        atoms_with_top,
        chain,
        interval,
    )
    from .cubes import cube

    def run():
        classes = all_semilattices_upto(max_size)
        verdicts = []
        for A in classes:
            closed = in_elegant_core(A)
            retract = is_perfectly_presentable(A, budget)[0]
            hom_ok = hom_preserves_lowering_pushout(A, counit_from_free(A), budget)
            verdicts.append((A, closed, retract, hom_ok))
        checks = [
            verdict(
                "triple-agreement-all-classes",
                all(c == r == h for (_, c, r, h) in verdicts),
                len(verdicts),
                [
                    {"size": A.size, "closed": c, "retract": r, "hom": h}
                    for (A, c, r, h) in verdicts
                    if not (c == r == h)
                ],
            ),
            verdict("at-least-nine-classes", len(verdicts) >= 9, len(verdicts)),
        ]
        tripod = atoms_with_top(3)
        fails = [
            (c, r, h)
            for (A, c, r, h) in verdicts
            if A.size == 4 and are_isomorphic(A, tripod)
        ]
        checks.append(
            verdict(
                "tripod-class-fails-all-three",
                fails == [(False, False, False)],
                1,
                {"verdicts": fails},
            )
        )
        good = [interval(), chain(3), chain(4), cube(2)]
        oks = []
        for G in good:
            match = [
                (c, r, h) for (A, c, r, h) in verdicts if are_isomorphic(A, G)
            ]
            oks.append(match == [(True, True, True)])
        checks.append(
            verdict("cubes-and-chains-pass-all-three", all(oks), len(good), oks)
        )
        return checks

    return [("elegant-core", run)]


def _suite_relative_elegance(*, max_size: int = 4, cube_dim: int, budget: int) -> list:
    from .cubes import cube
    from .kernel import hom_preservation_scan
    from .reedy import truncated_semilattice_category
    from .semilattice import chain

    cat, data, squares = _built(truncated_semilattice_category, max_size, budget)
    sources = [(f"cube-{m}", cube(m)) for m in range(cube_dim + 1)]
    sources += [(f"chain-{n}", chain(n + 1)) for n in range(1, 4)]

    tasks = []
    for name, A in sources:
        def thunk(A=A, name=name):
            cid = f"hom-preserves-all-lowering-pushouts-{name}"
            return [hom_preservation_scan(cid, cat, A, squares, budget)]

        tasks.append((name, thunk))
    return tasks


def _corpus(max_size: int, budget: int, seed: int, corpus_count: int):
    from .presheaf import enumerate_presheaves, seeded_corpus
    from .reedy import truncated_semilattice_category

    cat2, data2, squares2 = _built(truncated_semilattice_category, 2, budget)
    exhaustive = _built(enumerate_presheaves, cat2, 2)
    cat3, data3, squares3 = _built(truncated_semilattice_category, max_size, budget)
    seeded = _built(seeded_corpus, cat3, data3, seed, corpus_count)
    return (
        (cat2, data2, squares2, exhaustive),
        (cat3, data3, squares3, seeded),
        f"seeded-size{max_size}",
    )


def _witness():
    """The non-mono witness laid out as a corpus of its own, with its base."""
    from .presheaf import Corpus, non_reedy_mono_example

    cat5, data5, squares5, X = _built(non_reedy_mono_example)
    return cat5, data5, squares5, Corpus.of(cat5, [X])


def _triples(corpus, latching, data, squares):
    """The three Reedy-mono criteria of each presheaf of a corpus, given
    its latching objects, in walk order: the latching maps are injective,
    EZ decompositions are unique, and lowering pushouts go to pullbacks.
    All three are computed for the whole corpus at the first step."""
    from .presheaf import (
        has_unique_ez,
        is_reedy_mono,
        latching_injective,
        maps_lowering_pushouts_to_pullbacks,
    )

    injective = latching_injective(latching)
    unique = has_unique_ez(corpus, data)
    pullbacks = maps_lowering_pushouts_to_pullbacks(corpus, squares)
    for row, (b, _), (c, _) in zip(injective, unique, pullbacks):
        yield is_reedy_mono(row), b, c


def _suite_presheaf_ez(
    *, max_size: int = 3, budget: int, seed: int, corpus_count: int
) -> list:
    from .presheaf import (
        Corpus,
        autquo,
        is_reedy_mono,
        latching_injective,
        latching_object_via_weights,
        latching_objects,
        latching_routes_agree,
        representable,
    )

    def run():
        (cat2, data2, squares2, exhaustive), (cat3, data3, squares3, seeded), seeded_tag = (
            _corpus(max_size, budget, seed, corpus_count)
        )
        free2 = next(
            (
                i
                for i, O in enumerate(cat3.objects)
                if O.size == 3 and len(cat3.isos(i, i)) == 2
            ),
            None,
        )
        if free2 is None:
            raise SizeBudget(
                "presheaf-ez needs max_size >= 3: the representable latching "
                "check runs at the free semilattice on two generators (size 3)"
            )
        checks = []
        verdicts = []  # one per presheaf the triple sweeps reached
        # the latching objects by the lowering weight of every presheaf,
        # read by the triple sweeps, the route comparison and the cell
        # squares of cell-presentation
        corpora = [
            (corpus, _built(latching_objects, corpus, data), data)
            for corpus, data in ((exhaustive, data2), (seeded, data3))
        ]

        def sweep(corpus, latching, data, squares):
            triples = _triples(corpus, latching, data, squares)
            for i, (X, (a, b, c)) in enumerate(zip(corpus, triples)):
                verdicts.append(a)
                witness = {"index": i, "levels": list(X.levels), "triple": [a, b, c]}
                yield None if a == b == c else witness

        def routes():
            for corpus, latching, data in corpora:
                weighted = latching_object_via_weights(corpus, data)
                for X, agree in zip(corpus, latching_routes_agree(latching, weighted)):
                    for r, ok in enumerate(agree):
                        ok = outcome_value(ok)
                        yield None if ok else {"levels": list(X.levels), "object": r}

        def autquos():
            cases = [
                (r, H) for r in range(len(cat3.objects)) for H in _subgroups(cat3, r, cat3.isos(r, r))
            ]
            quotients = Corpus.of(cat3, [autquo(cat3, r, H)[0] for r, H in cases])
            for (r, H), row in zip(cases, latching_injective(latching_objects(quotients, data3))):
                yield None if is_reedy_mono(row) else {"object": r, "subgroup": len(H)}

        for tag, (corpus, latching, data), squares in zip(
            ("exhaustive-size2", seeded_tag), corpora, (squares2, squares3)
        ):
            checks.append(
                scan(f"triple-criteria-agree-{tag}", sweep(corpus, latching, data, squares))
            )
        checks.append(
            verdict(
                "both-verdicts-occur-in-corpus",
                set(verdicts) == {True, False},
                len(verdicts),
                {
                    "verdicts-seen": sorted(map(str, set(verdicts))),
                    "note": (
                        "truncations at size <= 4 are elegant (every object "
                        "of size <= 3 is perfectly presentable; the size-4 "
                        "truncation is checked elegant directly, although "
                        "its tripod is not perfectly presentable), so every "
                        "presheaf over them is Reedy monomorphic and the "
                        "false verdict cannot occur on this corpus; see the "
                        "non-mono witness checks for the false branch"
                    ),
                },
            )
        )

        # the two weights' latching objects agree everywhere on the corpus
        checks.append(scan("latching-two-routes-agree", routes()))

        # representable latching at the free two-generator object
        yo = Corpus.of(cat3, [representable(cat3, free2)])
        latching = latching_objects(yo, data3)
        injective = outcome_value(latching_injective(latching)[0][free2])
        size = len(latching[0][free2].latch)
        checks.append(
            verdict(
                "representable-latching-size-and-injectivity",
                size == 7 and injective,
                size,
                {"size": size, "injective": injective},
            )
        )

        # automorphism quotients are Reedy monomorphic
        checks.append(scan("autquos-reedy-monomorphic", autquos()))

        # the false branch, demonstrated over a base containing a
        # non-projective object with its minimal cover
        cat5, data5, squares5, witness = _built(_witness)
        latching = _built(latching_objects, witness, data5)
        ((a, b, c),) = _triples(witness, latching, data5, squares5)
        checks.append(
            verdict(
                "non-mono-witness-all-three-criteria-false",
                (a, b, c) == (False, False, False),
                1,
                {"triple": [a, b, c]},
            )
        )
        return checks

    return [("presheaf-ez", run)]


def _subgroups(cat, r, auts):
    from .presheaf import subgroup_closure_ok

    subsets = (list(s) for k in range(1, len(auts) + 1) for s in itertools.combinations(auts, k))
    return [H for H in subsets if subgroup_closure_ok(cat, r, H)]


def _suite_cell_presentation(
    *, max_size: int = 3, budget: int, seed: int, corpus_count: int
) -> list:
    from .presheaf import (
        CellSquareReport,
        ez_degrees,
        is_reedy_mono,
        latching_injective,
        latching_objects,
        skeleton_chain_report,
        verify_cell_square,
    )

    def run():
        (cat2, data2, squares2, exhaustive), (cat3, data3, squares3, seeded), seeded_tag = (
            _corpus(max_size, budget, seed, corpus_count)
        )

        def cells(corpus, data, degrees, latching, monos):
            outcomes = verify_cell_square(corpus, data, degrees, latching)
            for i, _, _ in monos:
                for n, outcome in outcomes[i].items():
                    rep: CellSquareReport = outcome_value(outcome)
                    report = [rep.commutes, rep.is_pushout, rep.cell_mono]
                    witness = {"index": i, "degree": n, "report": report}
                    yield None if all(report) else witness

        def skeleton_chains(monos, data):
            for i, X, degrees in monos:
                ok, sizes = skeleton_chain_report(X, data, degrees)
                yield None if ok else {"index": i, "sizes": sizes}

        checks = []
        for tag, corpus, data in (
            ("exhaustive-size2", exhaustive, data2),
            (seeded_tag, seeded, data3),
        ):
            monos = []  # (index, presheaf, EZ degrees) of the Reedy monomorphic
            latching, degrees = _built(latching_objects, corpus, data), ez_degrees(corpus, data)
            for i, (X, row, d) in enumerate(zip(corpus, latching_injective(latching), degrees)):
                if is_reedy_mono(row):
                    monos.append((i, X, outcome_value(d)))
            checks += [
                scan(f"cell-squares-certify-{tag}", cells(corpus, data, degrees, latching, monos)),
                scan(f"skeleton-chain-unions-{tag}", skeleton_chains(monos, data)),
            ]

        # expected failure pattern on the non-mono witness
        cat5, data5, squares5, witness = _built(_witness)
        latching = _built(latching_objects, witness, data5)
        (outcomes,) = verify_cell_square(witness, data5, ez_degrees(witness, data5), latching)
        reports = {n: outcome_value(rep) for n, rep in outcomes.items()}
        commute_ok = all(r.commutes for r in reports.values())
        (row,) = latching_injective(latching)
        latch_fail_degrees = {data5.degree[r] for r, ok in enumerate(row) if not outcome_value(ok)}
        mono_fail_degrees = {n for n, r in reports.items() if not r.cell_mono}
        checks.append(
            verdict(
                "non-mono-witness-commutation-still-holds",
                commute_ok,
                len(reports),
                {"commutes": {n: r.commutes for n, r in reports.items()}},
            )
        )
        checks.append(
            verdict(
                "non-mono-witness-cell-maps-fail-at-latching-degrees",
                latch_fail_degrees <= mono_fail_degrees and bool(latch_fail_degrees),
                len(reports),
                {
                    "latching-failures": sorted(latch_fail_degrees),
                    "cell-mono-failures": sorted(mono_fail_degrees),
                },
            )
        )
        checks.append(
            verdict(
                "non-mono-witness-pushout-or-mono-fails",
                any(
                    not (r.is_pushout and r.cell_mono) for r in reports.values()
                ),
                len(reports),
                None,
            )
        )
        return checks

    return [("cell-presentation", run)]


def _suite_idempotent_completion(*, max_size: int = 4, cube_dim: int, budget: int) -> list:
    from .cubes import certify_idempotent_completion

    return [
        (
            "idempotent-completion",
            lambda: certify_idempotent_completion(cube_dim, max_size, budget),
        )
    ]


def _suite_triangulation(*, cube_dim: int, budget: int) -> list:
    from .cubes import (
        TruncatedSimplicialSet,
        cube,
        monotone_maps_agree_with_homs,
        product_simplicial,
        simplicial_isomorphic,
        triangulate,
        triangulation_product_bijections,
    )
    from .semilattice import chain, enumerate_homs, interval

    def run():
        checks = []
        tri1 = triangulate(interval(), cube_dim, budget)
        # tris[n - 1] triangulates cube n, its level m being Hom(chain(m + 1),
        # cube n); cube 1 is the interval
        tris: list[TruncatedSimplicialSet] = [tri1]
        tris += [triangulate(cube(n), cube_dim, budget) for n in range(2, cube_dim + 1)]

        def homs_from_chain(k, n):
            """Hom(chain(k), cube n), off its triangulation where that reaches it."""
            if k - 1 <= cube_dim:
                return tris[n - 1].levels[k - 1]
            return enumerate_homs(chain(k), cube(n), budget)

        for n in range(1, cube_dim + 1):
            tri = tris[n - 1]
            nondeg = len(tri.nondegenerate(n))
            checks.append(
                verdict(
                    f"nondegenerate-top-cells-{n}",
                    nondeg == math.factorial(n),
                    nondeg,
                    {"expected": math.factorial(n), "got": nondeg},
                )
            )
            # levelwise comparison with the n-fold product of the interval
            prod = product_simplicial([tri1] * n)
            projs = _cube_projections(n)
            bij = triangulation_product_bijections([tri1] * n, prod, tri, projs)
            ok = simplicial_isomorphic(tri, prod, bij)
            checks.append(
                verdict(
                    f"levelwise-product-comparison-{n}",
                    ok,
                    sum(tri.level_sizes()),
                    None,
                )
            )
        # out of a chain, monotone equals join-preserving
        agree = all(
            monotone_maps_agree_with_homs(cube(n), k, homs_from_chain(k, n), budget)
            for n in range(1, cube_dim + 1)
            for k in range(1, 5)
        )
        checks.append(
            verdict(
                "chain-monotone-equals-join-preserving", agree, 4 * cube_dim,
                may_be_empty=cube_dim == 0,
            )
        )
        return checks

    return [("triangulation", run)]


def _cube_projections(n: int):
    """Projections of the n-cube onto its interval factors, in the order
    matching iterated binary products."""
    from .cubes import cube
    from .semilattice import SLatMorphism, interval

    C, I = cube(n), interval()
    return [SLatMorphism(C, I, tuple((v >> i) & 1 for v in range(1 << n))) for i in range(n)]


def _suite_obstruction_u(*, budget: int) -> list:
    from .obstruction import certify_no_reedy_factorization_of_u, verify_u_image

    return [
        ("u-image", verify_u_image),
        (
            "u-factorization",
            lambda: certify_no_reedy_factorization_of_u(budget),
        ),
    ]


def _suite_crown_winding() -> list:
    from .obstruction import (
        certify_wind_properties,
        fold_map,
        identity_crown,
        verify_extension_pullback,
        winding,
    )

    def basics():
        checks = []
        for n in (3, 4):
            w = winding(identity_crown(n))
            checks.append(
                verdict(f"identity-winds-one-{n}", w == 1, 1, {"got": w})
            )
            wf = winding(fold_map(2 * n, n))
            checks.append(
                verdict(f"fold-winds-two-{n}", wf == 2, 1, {"got": wf})
            )
        return checks

    def pullbacks():
        return [
            *verify_extension_pullback(fold_map(6, 3), "fold-6-3"),
            *verify_extension_pullback(identity_crown(3), "identity-3"),
        ]

    return [
        ("winding-basics", basics),
        ("wind-properties", certify_wind_properties),
        ("extension-pullbacks", pullbacks),
    ]


def _suite_sieve_chain() -> list:
    from .obstruction import certify_sieve_chain_nonstabilization

    return [("sieve-chain", certify_sieve_chain_nonstabilization)]


SUITES = {
    "hom-counts": _suite_hom_counts,
    "reedy-axioms": _suite_reedy_axioms,
    "pre-elegance": _suite_pre_elegance,
    "elegant-core": _suite_elegant_core,
    "relative-elegance": _suite_relative_elegance,
    "presheaf-ez": _suite_presheaf_ez,
    "cell-presentation": _suite_cell_presentation,
    "idempotent-completion": _suite_idempotent_completion,
    "triangulation": _suite_triangulation,
    "obstruction-u": _suite_obstruction_u,
    "crown-winding": _suite_crown_winding,
    "sieve-chain": _suite_sieve_chain,
}


def suite_options(suite: str) -> dict:
    """The SuiteConfig options a suite reads, its factory's parameters,
    each with its default there (Parameter.empty where it has none)."""
    params = inspect.signature(SUITES[suite]).parameters
    return {name: param.default for name, param in params.items()}


def run_suite(cfg: SuiteConfig) -> Certificate:
    if cfg.suite not in SUITES:
        raise UnknownSuite(
            f"unknown suite {cfg.suite!r}; known: {', '.join(sorted(SUITES))}"
        )
    start = time.perf_counter()
    # the options the factory reads, a None max_size taking its default
    options = {}
    for name, default in suite_options(cfg.suite).items():
        value = getattr(cfg, name)
        options[name] = default if value is None else value

    def run_tasks():
        # a suite factory may overrun while building its inputs, so it is
        # guarded as a whole, and each of its tasks on its own
        tasks = SUITES[cfg.suite](**options)
        return [check for cid, thunk in tasks for check in _guard(cid, thunk)]

    checks = _guard(cfg.suite, run_tasks)
    cert = Certificate(cfg.suite, checks, {"suite": cfg.suite, **options})
    cert.duration = time.perf_counter() - start
    return cert
