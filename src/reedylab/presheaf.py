"""Finite presheaves over a finite Reedy category.

Carries the cellular machinery: latching objects by two independent
routes, Reedy-monomorphism predicates three ways, EZ decompositions,
skeleta and cell pushout squares.  Everything is elementwise and
exhaustively checkable.

A presheaf's EZ data is one table, computed once: every element's EZ
decompositions, and from them its EZ degree.  The skeleton sk_n is then
the set of elements of degree below n, a filter on the degrees rather
than a presheaf of its own; that each skeleton is a sub-presheaf is
checked once per presheaf, as the fact that no restriction raises a
degree.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InvalidInput, ViolatedLaw
from .reedy import FinCategory, LoweringPushoutSquare, MorphRef, ReedyData
from .semilattice import UnionFind, descend


@dataclass
class FinPresheaf:
    """Contravariant finite-set-valued functor: for f: a -> b the action
    maps X_b into X_a."""

    base: FinCategory
    levels: tuple[int, ...]
    actions: dict[MorphRef, tuple[int, ...]]

    def act(self, f: MorphRef, x: int) -> int:
        return self.actions[f][x]

    def total_size(self) -> int:
        return sum(self.levels)

    def validate(self) -> None:
        """Raise ViolatedLaw unless the actions form a functor."""
        cat, levels, actions = self.base, self.levels, self.actions
        if len(levels) != len(cat.objects):
            raise ViolatedLaw("length", ())
        for ref in cat.morphisms():
            a, b, _ = ref
            if ref not in actions:
                raise ViolatedLaw("missing-action", ref)
            act = actions[ref]
            if len(act) != levels[b]:
                raise ViolatedLaw("length", ref)
            if not all(isinstance(v, int) and 0 <= v < levels[a] for v in act):
                raise ViolatedLaw("range", ref)
        for a, ident in enumerate(cat.identities):
            if actions[ident] != tuple(range(levels[a])):
                raise ViolatedLaw("unit", ident)
        for f, g, gf in cat.composable():
            act_f, act_g, act_gf = actions[f], actions[g], actions[gf]
            for x in range(levels[g[1]]):
                if act_f[act_g[x]] != act_gf[x]:
                    raise ViolatedLaw("functoriality", (f, g, x))


@dataclass
class PresheafMorphism:
    dom: FinPresheaf
    cod: FinPresheaf
    components: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        """Raise ViolatedLaw unless the components form a natural
        transformation between presheaves on one base."""
        X, Y, comps = self.dom, self.cod, self.components
        if X.base is not Y.base:
            raise ViolatedLaw("base", ())
        if len(comps) != len(X.levels):
            raise ViolatedLaw("length", ())
        for r, comp in enumerate(comps):
            if len(comp) != X.levels[r]:
                raise ViolatedLaw("length", (r,))
            if not all(0 <= v < Y.levels[r] for v in comp):
                raise ViolatedLaw("range", (r,))
        for f in X.base.morphisms():
            a, b, _ = f
            for x in range(X.levels[b]):
                if comps[a][X.act(f, x)] != Y.act(f, comps[b][x]):
                    raise ViolatedLaw("naturality", (f, x))


# ---------------------------------------------------------------------------
# representables and automorphism quotients
# ---------------------------------------------------------------------------


def representable(cat: FinCategory, r: int) -> FinPresheaf:
    """yo(r): level at s is Hom(s, r), acting by precomposition."""
    levels = tuple(len(cat.hom(s, r)) for s in range(len(cat.objects)))
    actions = {
        f: tuple(cat.compose(f, g)[2] for g in cat.refs(f[1], r))
        for f in cat.morphisms()
    }
    return FinPresheaf(cat, levels, actions)


def subgroup_closure_ok(cat: FinCategory, r: int, H: list[MorphRef]) -> bool:
    refs = set(H)
    if cat.identities[r] not in refs:
        return False
    for h in refs:
        if not cat.mor(h).is_iso or h[0] != r or h[1] != r:
            return False
        inv = cat.find(r, r, cat.mor(h).inverse())
        if inv not in refs:
            return False
        for k in refs:
            if cat.compose(h, k) not in refs:
                return False
    return True


def autquo(
    cat: FinCategory, r: int, H: list[MorphRef]
) -> tuple[FinPresheaf, PresheafMorphism]:
    """Quotient of yo(r) by post-composition with a subgroup of Aut(r);
    returns the quotient and the projection from the representable."""
    assert subgroup_closure_ok(cat, r, H)
    Y = representable(cat, r)
    n_obj = len(cat.objects)
    orbit_of: list[dict[int, int]] = []
    orbits_at: list[list[list[int]]] = []
    for s in range(n_obj):
        uf = UnionFind(range(Y.levels[s]))
        for g in range(Y.levels[s]):
            for h in H:
                uf.union(g, cat.compose((s, r, g), h)[2])
        classes, mapping = uf.partition()
        orbits_at.append(classes)
        orbit_of.append(mapping)
    levels = tuple(len(orbits_at[s]) for s in range(n_obj))
    actions = {}
    for f in cat.morphisms():
        a, b, _ = f
        act_f, orbit_a = Y.actions[f], orbit_of[a]
        act, bad = descend(orbits_at[b], lambda g: orbit_a[act_f[g]])
        if bad:
            raise ViolatedLaw("well-definedness", (f, bad[0]))
        actions[f] = tuple(act)
    Q = FinPresheaf(cat, levels, actions)
    proj = PresheafMorphism(
        Y, Q, tuple(tuple(orbit_of[s][g] for g in range(Y.levels[s])) for s in range(n_obj))
    )
    proj.validate()
    return Q, proj


# ---------------------------------------------------------------------------
# lowering structure helpers
# ---------------------------------------------------------------------------


def strictly_lowering_out_of(data: ReedyData, r: int):
    return [e for e in data.lowering_out[r] if data.degree[e[1]] < data.degree[r]]


def lowering_out_of(data: ReedyData, r: int):
    return data.lowering_out[r]


def morphism_degree(cat: FinCategory, ref: MorphRef) -> int:
    """Degree of the middle object of the (surjective, mono) factorization."""
    return len(cat.mor(ref).image())


# ---------------------------------------------------------------------------
# latching machinery
# ---------------------------------------------------------------------------


@dataclass
class LatchingData:
    classes: list[list]
    node_class: dict
    latch: list[int]  # class -> element of X_r
    injective: bool


def latching_object(X: FinPresheaf, r: int, data: ReedyData) -> LatchingData:
    """Latching object from strictly lowering maps only: pairs (e, x)
    modulo (f e, x) ~ (e, x f) over lowering f, with the latching map
    sending a class to the restriction x e."""
    cat = X.base
    lows = strictly_lowering_out_of(data, r)
    keys = [(e, x) for e in lows for x in range(X.levels[e[1]])]
    uf = UnionFind(keys)
    for e in lows:
        s = e[1]
        for f in lowering_out_of(data, s):
            fe = cat.compose(e, f)
            for x2 in range(X.levels[f[1]]):
                uf.union((fe, x2), (e, X.act(f, x2)))
    return _latching_data(X, r, uf)


def latching_object_via_weights(
    X: FinPresheaf, r: int, data: ReedyData
) -> LatchingData:
    """Independent route: weight by all maps out of r of degree below
    deg(r) (not only lowering ones) and glue along every morphism."""
    cat = X.base
    n = data.degree[r]
    weight = [f for f in cat.out_of(r) if morphism_degree(cat, f) < n]
    keys = [(f, x) for f in weight for x in range(X.levels[f[1]])]
    uf = UnionFind(keys)
    wset = set(weight)
    for f in weight:
        for g in cat.out_of(f[1]):
            gf = cat.compose(f, g)
            if gf not in wset:
                raise ViolatedLaw("degree-drop", (f, g))
            for x2 in range(X.levels[g[1]]):
                uf.union((gf, x2), (f, X.act(g, x2)))
    return _latching_data(X, r, uf)


def _latching_data(X: FinPresheaf, r: int, uf: UnionFind) -> LatchingData:
    """The latching classes of (f, x) nodes and the map x.f out of them."""
    classes, node_class = uf.partition()
    acts = X.actions
    latch, bad = descend(classes, lambda node: acts[node[0]][node[1]])
    if bad:
        raise ViolatedLaw("well-definedness", (r, classes[bad[0]][0]))
    injective = len(set(latch)) == len(latch)
    return LatchingData(classes, node_class, latch, injective)


def latching_routes_agree(
    X: FinPresheaf, r: int, data: ReedyData
) -> tuple[bool, LatchingData, LatchingData]:
    """Natural bijection over X_r between the two latching computations."""
    A = latching_object(X, r, data)
    B = latching_object_via_weights(X, r, data)
    if len(A.classes) != len(B.classes):
        return False, A, B
    mapping, bad = descend(A.classes, B.node_class.__getitem__)
    if bad or len(set(mapping)) != len(B.classes):
        return False, A, B
    if any(A.latch[ci] != B.latch[cj] for ci, cj in enumerate(mapping)):
        return False, A, B
    return True, A, B


def is_reedy_mono(X: FinPresheaf, data: ReedyData) -> bool:
    return all(
        latching_object(X, r, data).injective
        for r in range(len(X.base.objects))
    )


# ---------------------------------------------------------------------------
# EZ decompositions and skeleta
# ---------------------------------------------------------------------------


def is_nondegenerate(X: FinPresheaf, r: int, x: int, data: ReedyData) -> bool:
    return not any(x in X.actions[e] for e in strictly_lowering_out_of(data, r))


def ez_decompositions(X: FinPresheaf, data: ReedyData) -> list[list[list]]:
    """The EZ table of X: entry [r][x] lists the pairs (lowering e out of
    r, nondegenerate y) with y.e = x, in morphism order of e, then y."""
    nondeg = [
        [is_nondegenerate(X, s, y, data) for y in range(n)]
        for s, n in enumerate(X.levels)
    ]
    table = [[[] for _ in range(n)] for n in X.levels]
    for r, decs in enumerate(table):
        for e in lowering_out_of(data, r):
            nd = nondeg[e[1]]
            for y, x in enumerate(X.actions[e]):
                if nd[y]:
                    decs[x].append((e, y))
    return table


def ez_degrees(X: FinPresheaf, data: ReedyData) -> list[list[int]]:
    """Entry [r][x] is the EZ degree of x in X_r: the least degree of the
    middle object of its EZ decompositions.

    Raises ViolatedLaw 'ez-existence' at the first element without a
    decomposition, and 'sub-presheaf-closure' when a restriction raises
    an element's degree, which is when some skeleton is not a
    sub-presheaf."""
    degrees = []
    for r, level in enumerate(ez_decompositions(X, data)):
        for x, decs in enumerate(level):
            if not decs:
                raise ViolatedLaw("ez-existence", (r, x))
        degrees.append([min(data.degree[e[1]] for e, _ in decs) for decs in level])
    for f in X.base.morphisms():
        a, b, _ = f
        for x, v in enumerate(X.actions[f]):
            if degrees[a][v] > degrees[b][x]:
                raise ViolatedLaw("sub-presheaf-closure", (f, x))
    return degrees


def ez_isomorphic(
    X: FinPresheaf, d0: tuple[MorphRef, int], d1: tuple[MorphRef, int]
) -> bool:
    """Two decompositions match when an isomorphism links them."""
    cat = X.base
    (e0, y0), (e1, y1) = d0, d1
    for th in cat.isos(e0[1], e1[1]):
        if cat.compose(e0, th) == e1 and X.act(th, y1) == y0:
            return True
    return False


def has_unique_ez(X: FinPresheaf, data: ReedyData):
    """True when all EZ decompositions of every element are isomorphic;
    otherwise (False, witness pair)."""
    for r, level in enumerate(ez_decompositions(X, data)):
        for x, decs in enumerate(level):
            for d0, d1 in itertools.combinations(decs, 2):
                if not ez_isomorphic(X, d0, d1):
                    return False, ((r, x), d0, d1)
    return True, None


def skeleton(degrees: list[list[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The elements of sk_n at each object: those of EZ degree below n,
    in increasing order."""
    return tuple(tuple(x for x, d in enumerate(level) if d < n) for level in degrees)


# ---------------------------------------------------------------------------
# pushouts to pullbacks
# ---------------------------------------------------------------------------


def maps_lowering_pushouts_to_pullbacks(
    X: FinPresheaf, squares: list[LoweringPushoutSquare]
):
    """X applied to each base square must yield a pullback of sets."""
    for sq in squares:
        if sq.refs is None:
            raise InvalidInput("pushouts-to-pullbacks needs category-resident squares")
        e0, e1, f0, f1 = sq.refs
        b0, b1, p = e0[1], e1[1], f0[1]
        fibre = [
            (y0, y1)
            for y0 in range(X.levels[b0])
            for y1 in range(X.levels[b1])
            if X.act(e0, y0) == X.act(e1, y1)
        ]
        pairs = [(X.act(f0, z), X.act(f1, z)) for z in range(X.levels[p])]
        if len(set(pairs)) != len(pairs) or set(pairs) != set(fibre):
            return False, sq.refs
    return True, None


# ---------------------------------------------------------------------------
# cell pushout squares
# ---------------------------------------------------------------------------


@dataclass
class CellSquareReport:
    n: int
    commutes: bool
    is_pushout: bool
    cell_mono: bool
    details: object = None


def verify_cell_square(
    X: FinPresheaf, n: int, data: ReedyData, degrees: list[list[int]]
) -> CellSquareReport:
    """Certify the degree-n cell attachment, given the EZ degrees of X.

    Builds the two weighted-colimit corners over the groupoid of degree-n
    objects, the cell map between them, and checks levelwise that the
    square onto the skeleta commutes, is a pushout of sets, and has an
    injective cell map whenever X is Reedy monomorphic.
    """
    cat, acts = X.base, X.actions
    objs_n = [r for r in range(len(cat.objects)) if data.degree[r] == n]
    L = {r: latching_object(X, r, data) for r in objs_n}
    skn, sknext = skeleton(degrees, n), skeleton(degrees, n + 1)
    commutes = True
    is_pushout = True
    cell_mono = True
    details = []
    for s in range(len(cat.objects)):
        # upper-right corner: all maps into degree-n objects, X elements
        ur_keys = [
            (g, x)
            for r in objs_n
            for g in cat.refs(s, r)
            for x in range(X.levels[r])
        ]
        ur = UnionFind(ur_keys)
        for r in objs_n:
            for r2 in objs_n:
                for th in cat.isos(r, r2):
                    for g in cat.refs(s, r):
                        tg = cat.compose(g, th)
                        for x2 in range(X.levels[r2]):
                            ur.union((tg, x2), (g, X.act(th, x2)))
        ur_classes, ur_class_of = ur.partition()

        # upper-left corner: pushout of the boundary-weighted latching data
        low_weight = {
            r: [g for g in cat.refs(s, r) if morphism_degree(cat, g) < n]
            for r in objs_n
        }
        ul_keys = []
        for r in objs_n:
            for g in cat.refs(s, r):
                for c in range(len(L[r].classes)):
                    ul_keys.append(("yo", g, c))
            for g in low_weight[r]:
                for x in range(X.levels[r]):
                    ul_keys.append(("bd", g, x))
        ul = UnionFind(ul_keys)
        for r in objs_n:
            for r2 in objs_n:
                for th in cat.isos(r, r2):
                    th_on_latch = _iso_on_latching(cat, th, L[r], L[r2])
                    for g in cat.refs(s, r):
                        tg = cat.compose(g, th)
                        for c2 in range(len(L[r2].classes)):
                            ul.union(("yo", tg, c2), ("yo", g, th_on_latch[c2]))
                    for g in low_weight[r]:
                        tg = cat.compose(g, th)
                        for x2 in range(X.levels[r2]):
                            ul.union(("bd", tg, x2), ("bd", g, X.act(th, x2)))
        # glue the two weighted pieces along the boundary-weighted latching
        for r in objs_n:
            for g in low_weight[r]:
                for c in range(len(L[r].classes)):
                    ul.union(("yo", g, c), ("bd", g, L[r].latch[c]))
        ul_classes, ul_class_of = ul.partition()

        # the four maps of the square, elementwise; a "yo" node names a
        # latching class of the codomain of g, a "bd" node an element
        def element(node):
            kind, g, v = node
            return (g, L[g[1]].latch[v] if kind == "yo" else v)

        def ul_to_sk(node):
            return X.act(*element(node))

        def ul_to_ur(node):
            return ur_class_of[element(node)]

        skn_set, sknext_set = set(skn[s]), set(sknext[s])

        ul_sk, sk_bad = descend(ul_classes, ul_to_sk)
        ul_ur, ur_bad = descend(ul_classes, ul_to_ur)
        for _ in set(sk_bad) | set(ur_bad):
            commutes = False
            details.append({"level": s, "reason": "left-map-ill-defined"})
        if not skn_set.issuperset(ul_sk):
            raise ViolatedLaw("skeleton-landing", (n, s, "left"))

        ur_sknext, bad = descend(ur_classes, lambda node: acts[node[0]][node[1]])
        for _ in bad:
            commutes = False
            details.append({"level": s, "reason": "right-map-ill-defined"})
        if not sknext_set.issuperset(ur_sknext):
            raise ViolatedLaw("skeleton-landing", (n, s, "right"))

        # (a) commutation
        for ci in range(len(ul_classes)):
            if ur_sknext[ul_ur[ci]] != ul_sk[ci]:
                commutes = False
                details.append({"level": s, "class": ci, "reason": "square"})

        # (b) pushout: sk_{n+1} at s is the set pushout of the span
        keys = [("sk", x) for x in skn[s]] + [
            ("ur", ci) for ci in range(len(ur_classes))
        ]
        po = UnionFind(keys)
        for ci in range(len(ul_classes)):
            po.union(("sk", ul_sk[ci]), ("ur", ul_ur[ci]))
        vals, bad = descend(
            po.classes(),
            lambda node: node[1] if node[0] == "sk" else ur_sknext[node[1]],
        )
        if bad:
            is_pushout = False
            details.append({"level": s, "reason": "pushout-map-ill-defined"})
        elif len(set(vals)) != len(vals) or set(vals) != sknext_set:
            is_pushout = False
            details.append({"level": s, "reason": "not-a-pushout"})

        # (c) cell map injectivity
        if len(set(ul_ur)) != len(ul_classes):
            cell_mono = False
            details.append({"level": s, "reason": "cell-map-not-injective"})

    return CellSquareReport(n, commutes, is_pushout, cell_mono, details or None)


def _iso_on_latching(cat, th: MorphRef, Lr: LatchingData, Lr2: LatchingData):
    """Map latching classes along precomposition with an iso r -> r2."""
    out = []
    for c2 in range(len(Lr2.classes)):
        e2, x2 = Lr2.classes[c2][0]
        e = cat.compose(th, e2)
        out.append(Lr.node_class[(e, x2)])
    return out


def skeleton_chain_report(
    X: FinPresheaf, data: ReedyData, degrees: list[list[int]]
):
    """sk^0 is empty and the chain of skeleta unions to X, given the EZ
    degrees of X.  The skeleta grow by construction, each keeping the
    elements below a larger degree."""
    maxdeg = max(data.degree) if data.degree else 0
    sizes = [
        sum(map(len, skeleton(degrees, n))) for n in range(maxdeg + 2)
    ]
    return sizes[0] == 0 and sizes[-1] == X.total_size(), sizes


# ---------------------------------------------------------------------------
# presheaf constructions for the corpus
# ---------------------------------------------------------------------------


def empty_presheaf(cat: FinCategory) -> FinPresheaf:
    levels = tuple(0 for _ in cat.objects)
    actions = {f: tuple() for f in cat.morphisms()}
    return FinPresheaf(cat, levels, actions)


def terminal_presheaf(cat: FinCategory) -> FinPresheaf:
    levels = tuple(1 for _ in cat.objects)
    actions = {f: (0,) for f in cat.morphisms()}
    return FinPresheaf(cat, levels, actions)


def coproduct_presheaf(parts: list[FinPresheaf]) -> FinPresheaf:
    assert parts
    cat = parts[0].base
    levels = tuple(
        sum(p.levels[r] for p in parts) for r in range(len(cat.objects))
    )
    offsets = []
    acc = [0] * len(cat.objects)
    for p in parts:
        offsets.append(tuple(acc))
        acc = [a + p.levels[r] for r, a in enumerate(acc)]
    actions = {}
    for f in cat.morphisms():
        a, b, _ = f
        act = []
        for pi, p in enumerate(parts):
            act.extend(offsets[pi][a] + v for v in p.actions[f])
        actions[f] = tuple(act)
    return FinPresheaf(cat, levels, actions)


def quotient_presheaf(
    X: FinPresheaf, pairs
) -> tuple[FinPresheaf, PresheafMorphism]:
    """Quotient by the presheaf congruence generated by the given pairs
    ((object, i, j) triples), closing under every restriction."""
    cat = X.base
    ufs = [UnionFind(range(X.levels[r])) for r in range(len(cat.objects))]
    for (r, i, j) in pairs:
        ufs[r].union(i, j)
    changed = True
    while changed:
        changed = False
        for f in cat.morphisms():
            a, b, _ = f
            roots = {}
            for x in range(X.levels[b]):
                rb = ufs[b].find(x)
                va = ufs[a].find(X.act(f, x))
                if rb in roots:
                    if ufs[a].find(roots[rb]) != va:
                        ufs[a].union(roots[rb], va)
                        changed = True
                else:
                    roots[rb] = va
    classes_at, class_of = zip(*(uf.partition() for uf in ufs))
    levels = tuple(map(len, classes_at))
    actions = {}
    for f in cat.morphisms():
        a, b, _ = f
        act_f, class_a = X.actions[f], class_of[a]
        act, bad = descend(classes_at[b], lambda x: class_a[act_f[x]])
        if bad:
            raise ViolatedLaw("well-definedness", (f, bad[0]))
        actions[f] = tuple(act)
    Q = FinPresheaf(cat, levels, actions)
    proj = PresheafMorphism(
        X,
        Q,
        tuple(
            tuple(class_of[r][x] for x in range(X.levels[r]))
            for r in range(len(cat.objects))
        ),
    )
    proj.validate()
    return Q, proj


def span_pushout_of_representables(
    cat: FinCategory, e0: MorphRef, e1: MorphRef
) -> FinPresheaf:
    """Levelwise pushout yo(B0) + yo(B1) over yo(A) for a span out of A;
    the two copies are glued along all composites with the span legs."""
    assert e0[0] == e1[0]
    a = e0[0]
    b0, b1 = e0[1], e1[1]
    Y0, Y1 = representable(cat, b0), representable(cat, b1)
    X = coproduct_presheaf([Y0, Y1])
    pairs = []
    for s in range(len(cat.objects)):
        offset = Y0.levels[s]
        for f in cat.refs(s, a):
            i0 = cat.compose(f, e0)[2]
            i1 = cat.compose(f, e1)[2]
            pairs.append((s, i0, offset + i1))
    Q, _ = quotient_presheaf(X, pairs)
    return Q


def non_reedy_mono_example() -> tuple[FinCategory, ReedyData, list, FinPresheaf]:
    """A base category and presheaf on which the Reedy-mono criteria all
    fail, with agreement.

    Over truncations at size <= 3 every object is perfectly presentable
    and the truncated category is elegant; the size-4 truncation holds
    two objects that are not (the tripod among them) but is elegant all
    the same, as checked directly.  Consequently every presheaf over
    these truncations is Reedy monomorphic; failures first occur once a
    non-projective object admits a cover inside the category.  The
    smallest such pair is the 3-atom tripod under its pinched 5-element
    cover; gluing two copies of the tripod's representable along that
    cover produces an element with two non-isomorphic EZ decompositions.
    """
    from .reedy import quotient_closure, reedy_category_on
    from .semilattice import pinched_tripod_cover

    A5, e = pinched_tripod_cover()
    objects = quotient_closure([A5])
    cat, data, squares = reedy_category_on(objects)
    a5 = cat.object_of(A5)
    t = cat.object_of(e.cod)
    from .semilattice import find_isomorphism

    iso_a = find_isomorphism(A5, cat.objects[a5])
    iso_t = find_isomorphism(e.cod, cat.objects[t])
    e_in_cat = cat.find(a5, t, iso_a.inverse().then(e).then(iso_t))
    X = span_pushout_of_representables(cat, e_in_cat, e_in_cat)
    return cat, data, squares, X


def enumerate_presheaves(cat: FinCategory, max_level: int):
    """Exhaustive functor enumeration; practical only for very small
    categories such as the size-2 truncation."""
    n_obj = len(cat.objects)
    non_id = [f for f in cat.morphisms() if not cat.is_identity(f)]
    out = []
    for levels in itertools.product(range(max_level + 1), repeat=n_obj):
        spaces = []
        for f in non_id:
            a, b, _ = f
            spaces.append(
                list(itertools.product(range(levels[a]), repeat=levels[b]))
            )
        for combo in itertools.product(*spaces):
            actions = {
                cat.identities[a]: tuple(range(levels[a])) for a in range(n_obj)
            }
            for f, act in zip(non_id, combo):
                actions[f] = act
            X = FinPresheaf(cat, levels, actions)
            try:
                X.validate()
            except ViolatedLaw:
                continue
            out.append(X)
    return out


def seeded_corpus(
    cat: FinCategory,
    data: ReedyData,
    seed: int,
    count: int,
    max_parts: int = 2,
    max_glue: int = 3,
) -> list[FinPresheaf]:
    """A fixed designed family (representables, automorphism quotients,
    terminal, empty, span pushouts) followed by `count` reproducible
    random quotients of small coproducts of representables."""
    rng = random.Random(seed)
    n_obj = len(cat.objects)
    corpus: list[FinPresheaf] = []
    for r in range(n_obj):
        corpus.append(representable(cat, r))
    for r in range(n_obj):
        auts = cat.isos(r, r)
        if len(auts) > 1:
            Q, _ = autquo(cat, r, auts)
            corpus.append(Q)
    corpus.append(terminal_presheaf(cat))
    corpus.append(empty_presheaf(cat))
    for sq_e0, sq_e1 in _some_spans(cat, data):
        corpus.append(span_pushout_of_representables(cat, sq_e0, sq_e1))
    for _ in range(count):
        parts = [
            representable(cat, rng.randrange(n_obj))
            for _ in range(rng.randint(1, max_parts))
        ]
        X = coproduct_presheaf(parts)
        n_glue = rng.randint(0, max_glue)
        pairs = []
        for _ in range(n_glue):
            candidates = [r for r in range(n_obj) if X.levels[r] >= 2]
            if not candidates:
                break
            r = rng.choice(candidates)
            i = rng.randrange(X.levels[r])
            j = rng.randrange(X.levels[r])
            if i != j:
                pairs.append((r, i, j))
        if pairs:
            X, _ = quotient_presheaf(X, pairs)
        corpus.append(X)
    return corpus


def _some_spans(cat: FinCategory, data: ReedyData, limit: int = 6):
    """A few strictly lowering spans, preferring distinct legs."""
    out = []
    for r in range(len(cat.objects) - 1, -1, -1):
        lows = strictly_lowering_out_of(data, r)
        for i, e0 in enumerate(lows):
            for e1 in lows[i:]:
                out.append((e0, e1))
                if len(out) >= limit:
                    return out
    return out
