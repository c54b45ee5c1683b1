import itertools
import random

import pytest

import crown_reference
from reedylab.certificates import verdict
from reedylab.cli import main
from reedylab.errors import InvalidInput, SizeBudget, ViolatedLaw
from reedylab.obstruction import (
    CrownMap,
    CrownPoset,
    MonotoneCubeMap,
    certify_no_reedy_factorization_of_u,
    certify_sieve_chain_nonstabilization,
    certify_wind_properties,
    compose_crown,
    compose_extensions,
    crown_embedding,
    crown_extension,
    crown_map,
    enumerate_crown_maps,
    fold_map,
    identity_crown,
    map_t,
    map_u,
    reflection,
    rotation,
    verify_extension_pullback,
    verify_u_image,
    winding,
)
from reedylab.semilattice import are_isomorphic, diamond, is_distributive_lattice
from reedylab.cubes import cube_vertex


# ---------------------------------------------------------------------------
# the endomap u
# ---------------------------------------------------------------------------


def test_u_pointwise():
    u = map_u()
    assert u.map[cube_vertex((1, 0, 0))] == cube_vertex((1, 0, 1))
    assert u.map[cube_vertex((0, 0, 0))] == 0
    assert sorted(u.image()) == [0, 3, 5, 6, 7]


def test_u_symmetry():
    # every coordinate permutation conjugates u to itself: for each
    # permutation of the inputs there is exactly one permutation of the
    # outputs making the square commute
    u = map_u()

    def apply(perm, v):
        bits = (v & 1, (v >> 1) & 1, (v >> 2) & 1)
        return cube_vertex(tuple(bits[perm[i]] for i in range(3)))

    for sigma in itertools.permutations(range(3)):
        matches = [
            tau
            for tau in itertools.permutations(range(3))
            if all(u.map[apply(sigma, v)] == apply(tau, u.map[v]) for v in range(8))
        ]
        assert len(matches) == 1


def _passing(checks):
    assert [c for c in checks if c.status != "pass"] == []
    return {c.id: c for c in checks}


def test_u_image_certificate():
    _passing(verify_u_image())


def test_u_factorization_certificate():
    by_id = _passing(certify_no_reedy_factorization_of_u())
    assert by_id["t-square-has-no-diagonal"].count == 9
    assert by_id["only-distributive-superset-is-the-cube"].count == 8


def test_every_counted_u_factorization_composes_to_u(monkeypatch):
    import reedylab.obstruction as obstruction

    # each middle map e is built while its mono m is the current map of
    # the enumeration, so the pairs (e, m) are recorded as they are made
    real_homs, real_morphism = obstruction.enumerate_homs, obstruction.SLatMorphism
    current, pairs = [], []

    class Homs(list):
        def __iter__(self):
            for m in list.__iter__(self):
                current[:] = [m]
                yield m
            current.clear()

    def homs(A, B, budget):
        return Homs(real_homs(A, B, budget))

    def morphism(dom, cod, values):
        f = real_morphism(dom, cod, values)
        if current and cod == current[0].dom:
            pairs.append((f, current[0]))
        return f

    monkeypatch.setattr(obstruction, "enumerate_homs", homs)
    monkeypatch.setattr(obstruction, "SLatMorphism", morphism)
    by_id = _passing(certify_no_reedy_factorization_of_u())
    u = map_u()
    assert pairs and all(e.then(m).map == u.map for e, m in pairs)
    assert by_id["all-injective-factorizations-pass-through-the-cube"].status == "pass"


def test_t_is_surjective_join_preserving():
    t = map_t()
    assert t.is_surjective and t.cod.size == 3


# ---------------------------------------------------------------------------
# crowns and windings
# ---------------------------------------------------------------------------


def test_crown_poset_structure():
    C4 = CrownPoset(4)
    assert C4.size == 8
    assert set(C4.upper_covers(0)) == {7, 1}
    assert set(C4.upper_covers(6)) == {5, 7}
    assert C4.leq(0, 1) and not C4.leq(1, 0)
    assert not C4.leq(0, 3)
    with pytest.raises(InvalidInput):
        CrownPoset(2)


def test_crown_map_validation():
    with pytest.raises(ViolatedLaw) as err:
        crown_map(3, 3, (0, 3, 2, 1, 4, 5))  # 0 <= 1 broken: 0 -> 0, 1 -> 3
    assert (err.value.law, err.value.witness) == ("monotonicity", (0, 1))


def test_winding_examples():
    for n in (3, 4, 5):
        assert winding(identity_crown(n)) == 1
    assert winding(fold_map(6, 3)) == 2
    assert winding(fold_map(8, 4)) == 2
    assert winding(crown_map(3, 3, (1,) * 6)) == 0
    assert winding(compose_crown(fold_map(12, 6), fold_map(6, 3))) == 4


def test_lift_window_and_base_independence():
    f = fold_map(6, 3)
    assert f.lift == tuple(range(13))
    assert (f.lift[-1] - f.lift[0]) == 12  # two turns of six


def test_symmetries_enumerated_with_expected_windings():
    maps = {m.values: m for m in enumerate_crown_maps(3, 3)}
    assert len(maps) == 234
    for k in (0, 2, 4):
        assert winding(rotation(3, k)) == 1
        assert rotation(3, k).values in maps
    for a in (0, 2, 4):
        assert winding(reflection(3, a)) == -1
        assert reflection(3, a).values in maps


def test_crown_map_counts_and_rotation_invariance():
    counts = {}
    for (m, n) in [(3, 3), (3, 4), (3, 6)]:
        counts[(m, n)] = enumerate_crown_maps(m, n)
    assert len(counts[(3, 4)]) == 304
    assert len(counts[(3, 6)]) == 456
    # postcomposition with a rotation permutes the set of maps
    maps34 = {f.values for f in counts[(3, 4)]}
    r = rotation(4, 2)
    assert {compose_crown(f, r).values for f in counts[(3, 4)]} == maps34


def test_crown_maps_match_a_monotone_filter_in_order():
    # the reference filters every function, in lexicographic order, by
    # the whole crown order
    for m, n in [(3, 3), (3, 4)]:
        Cm, Cn = CrownPoset(m), CrownPoset(n)
        pairs = [(i, j) for i in range(Cm.size) for j in range(Cm.size) if Cm.leq(i, j)]
        literal = [
            f
            for f in itertools.product(range(Cn.size), repeat=Cm.size)
            if all(Cn.leq(f[i], f[j]) for i, j in pairs)
        ]
        assert [f.values for f in enumerate_crown_maps(m, n)] == literal, (m, n)


@pytest.mark.parametrize("m, n", [(m, n) for m in range(3, 6) for n in range(3, 7)])
def test_crown_maps_by_rotation_class_match_the_plain_search(monkeypatch, capsys, m, n):
    # the plain search tries every value at position 0 and lifts every map
    import reedylab.obstruction as obstruction

    plain = crown_reference.enumerate_crown_maps(m, n)
    got = enumerate_crown_maps(m, n)
    assert [(f.values, f.lift) for f in got] == [(f.values, f.lift) for f in plain]
    argv = ["obstruct", "crown", "--m", str(m), "--n", str(n)]
    assert main(argv) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(obstruction, "enumerate_crown_maps", lambda m, n: plain)
    assert main(argv) == 0
    assert capsys.readouterr().out == report


def test_enumerated_crown_maps_equal_the_validated_ones(crown_pool):
    # each enumerated map is lifted once, from its first value; crown_map
    # validates the values and lifts them again
    for (m, n), maps in crown_pool.items():
        assert [crown_map(m, n, f.values) for f in maps] == maps, (m, n)


def test_enumeration_budget():
    with pytest.raises(SizeBudget):
        enumerate_crown_maps(7, 7)


def test_wind_properties_certificate():
    by_id = _passing(certify_wind_properties())
    assert by_id["winding-multiplicative"].count == 5956932


def test_multiplicativity_pure_python_crosscheck():
    # compose_crown relifts each composite from its values, so this checks
    # multiplicativity without the step sums of winding-multiplicative
    fs = enumerate_crown_maps(3, 3)
    for f in fs[:40]:
        for g in fs[:40]:
            assert winding(compose_crown(f, g)) == winding(g) * winding(f)


def _numpy_multiplicative(pool):
    """The reference for winding-multiplicative: a numpy walk over every
    (g, f) pair that looks up each composite's steps and, for each g,
    checks in order for an unforced step, an unclosed lift and a wrong
    winding."""
    import numpy as np

    sizes = [3, 4]
    n_cases = 0
    for (a, b), fs in pool.items():
        vf = np.array([f.values for f in fs], dtype=np.int64)
        wf = np.array([winding(f) for f in fs], dtype=np.int64)
        for c in sizes:
            gs = pool[(b, c)]
            size_c = 2 * c
            D = np.full((size_c, size_c), 99, dtype=np.int64)
            for x in range(size_c):
                for d in (-1, 0, 1):
                    D[x][(x + d) % size_c] = d
            for g in gs:
                gv = np.array(g.values, dtype=np.int64)
                comp = gv[vf]
                steps = D[comp, np.roll(comp, -1, axis=1)]
                if (steps == 99).any():
                    raise ViolatedLaw("forced-lift-step", tuple(g.values))
                tot = steps.sum(axis=1)
                if (tot % size_c).any():
                    raise ViolatedLaw("closed-lift", tuple(g.values))
                n_cases += len(fs)
                bad = np.nonzero(tot // size_c != winding(g) * wf)[0]
                if bad.size:
                    i = int(bad[0])
                    return False, n_cases, {
                        "f": list(fs[i].values),
                        "g": list(g.values),
                    }
    return True, n_cases, None


def _outcome(run):
    try:
        check = run()
    except ViolatedLaw as exc:
        return exc.law, exc.witness
    return check.status, check.count, check.witness


@pytest.fixture(scope="module")
def crown_pool():
    pairs = [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (4, 5), (3, 6)]
    return {pair: enumerate_crown_maps(*pair) for pair in pairs}


def _later_members(maps):
    """The indices of the maps that are not the first of their class under
    the even rotations of the target crown."""
    seen, later = set(), []
    for i, f in enumerate(maps):
        size = 2 * f.n
        orbit = min(tuple((v + k) % size for v in f.values) for k in range(0, size, 2))
        if orbit in seen:
            later.append(i)
        seen.add(orbit)
    return later


def _corrupt(pool, kind, seed):
    """A copy of the pool with one map of the composed hom-sets broken.
    A map of (3, 3) is first composed as f, one of the other three sets
    as g, and either is given one or two new values that break
    monotonicity; the lift shift moves the base point, the wrong winding
    shifts the lift's tail by one turn.  A "later-" kind breaks a map that
    is not the first of its rotation class, where winding-multiplicative
    decides every g of a class at the first."""
    rng = random.Random(seed)
    pool = {pair: list(maps) for pair, maps in pool.items()}
    later = kind.startswith("later-")
    kind = kind.removeprefix("later-")
    pairs = {"non-monotone-f": [(3, 3)], "non-monotone-g": [(3, 4), (4, 3), (4, 4)]}
    maps = pool[rng.choice(pairs.get(kind, [(3, 3), (3, 4), (4, 3), (4, 4)]))]
    i = rng.choice(_later_members(maps)) if later else rng.randrange(len(maps))
    f = maps[i]
    turn = 2 * f.n * rng.choice((-1, 1))
    if kind in ("non-monotone-f", "non-monotone-g"):
        while True:
            values = list(f.values)
            for j in rng.sample(range(len(values)), rng.randint(1, 2)):
                values[j] = rng.randrange(2 * f.n)
            try:
                crown_map(f.m, f.n, values)
            except ViolatedLaw:
                break
        maps[i] = CrownMap(f.m, f.n, tuple(values), f.lift)
    elif kind == "lift-shift":
        maps[i] = CrownMap(f.m, f.n, f.values, tuple(x + turn for x in f.lift))
    else:
        j = rng.randrange(1, len(f.lift))
        lift = f.lift[:j] + tuple(x + turn for x in f.lift[j:])
        maps[i] = CrownMap(f.m, f.n, f.values, lift)
    return pool


@pytest.mark.parametrize(
    "kind, seed",
    [("none", 0)]
    + [
        (kind, seed)
        for kind in (
            "non-monotone-f",
            "non-monotone-g",
            "lift-shift",
            "wrong-winding",
            "later-non-monotone-g",
            "later-lift-shift",
            "later-wrong-winding",
        )
        for seed in range(3)
    ],
)
def test_winding_multiplicative_matches_the_per_pair_walk(monkeypatch, crown_pool, kind, seed):
    import reedylab.obstruction as obstruction

    pool = crown_pool if kind == "none" else _corrupt(crown_pool, kind, seed)
    monkeypatch.setattr(
        obstruction, "enumerate_crown_maps", lambda m, n, cap=6: list(pool[(m, n)])
    )
    composed = {(a, b): pool[(a, b)] for a in (3, 4) for b in (3, 4)}
    expected = _outcome(
        lambda: verdict("winding-multiplicative", *_numpy_multiplicative(composed))
    )
    got = _outcome(
        lambda: next(c for c in certify_wind_properties() if c.id == "winding-multiplicative")
    )
    assert got == expected
    if kind == "none":
        assert got == ("pass", 5956932, None)


# ---------------------------------------------------------------------------
# embeddings and extensions
# ---------------------------------------------------------------------------


def test_crown_embedding_values():
    c3 = crown_embedding(3)
    assert c3[0] == 0b001  # the first unit coordinate
    assert c3[1] == 0b011
    assert c3[5] == 0b101  # wraps around
    assert len(set(c3)) == 6


def test_crown_extension_cases():
    f = fold_map(6, 3)
    ext = crown_extension(f)
    assert ext.values[0] == 0
    top6 = (1 << 6) - 1
    assert ext.values[top6] == (1 << 3) - 1
    cm = crown_embedding(6)
    cn = crown_embedding(3)
    for i in range(12):
        assert ext.values[cm[i]] == cn[f.values[i]]
    # the identity extension fixes exactly the crown plus the bounds
    bar_id4 = crown_extension(identity_crown(4))
    fixed = {v for v in range(16) if bar_id4.values[v] == v}
    assert fixed == set(crown_embedding(4)) | {0, 15}
    bar_id3 = crown_extension(identity_crown(3))
    assert bar_id3.values == tuple(range(8))


def test_extension_semifunctor_pointwise():
    f = fold_map(6, 3)
    lhs = crown_extension(compose_crown(f, identity_crown(3)))
    rhs = compose_extensions(crown_extension(f), crown_extension(identity_crown(3)))
    assert lhs.values == rhs.values


def test_composites_of_extensions_are_validated_once(monkeypatch):
    validated = []
    check = MonotoneCubeMap.__post_init__
    monkeypatch.setattr(
        MonotoneCubeMap, "__post_init__", lambda f: (validated.append(f), check(f))
    )
    f, g = crown_extension(fold_map(6, 3)), crown_extension(identity_crown(3))
    assert len(validated) == 2
    composite = compose_extensions(f, g)
    assert composite == MonotoneCubeMap(6, 3, tuple(g.values[v] for v in f.values))
    # the composite skipped the check; the public constructor still ran it
    assert len(validated) == 3
    with pytest.raises(ViolatedLaw) as err:
        MonotoneCubeMap(1, 1, (1, 0))
    assert err.value.law == "monotonicity"


def test_extension_pullback_certificates():
    crowns = [("fold-6-3", fold_map(6, 3)), ("identity-3", identity_crown(3)), ("8-4", fold_map(8, 4))]
    for tag, f in crowns:
        by_id = _passing(verify_extension_pullback(f, tag))
        assert sorted(by_id) == [f"pullback-exhaustive-{tag}", f"square-commutes-{tag}"]


def test_sieve_chain_certificate():
    by_id = _passing(certify_sieve_chain_nonstabilization())
    assert by_id["no-section-of-extended-fold"].count == 15
    assert by_id["all-crown-maps-into-double-wind-zero"].count == 456


def test_image_of_u_is_nondistributive_diamond():
    u = map_u()
    from reedylab.semilattice import image_factorize

    surj, mono = image_factorize(u)
    assert are_isomorphic(surj.cod, diamond(3))
    assert not is_distributive_lattice(surj.cod)
