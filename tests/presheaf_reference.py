"""Tuple-keyed reference routes for the presheaf layer's numpy routes.

These are the union-find bodies that the latching objects by both
weights (`latching_objects` and `latching_object_via_weights`) and
`verify_cell_square` had before they moved to integer node keys.  A node
is a (morphism id, x) tuple and every gluing is one `UnionFind.union`
call.  They take one presheaf and one object or degree, and raise the
laws that the numpy routes, which take a whole corpus, return as
outcomes.

The presheaf constructors are here too, as they were when a presheaf
stored its actions as a dict from morphism to tuple: `representable`,
`coproduct_presheaf`, `quotient_presheaf` and `autquo` build and return
`DictPresheaf`s, and the two quotients return the projection's components
with them.

The pushouts-to-pullbacks criterion is here as it was before it moved
onto the batched pullback fibres of `kernel.pullback_fibres`: one set of
(f0, f1) pairs and one Counter per square.

They live here only so that the tests can compare the two routes, class
by class, verdict by verdict and action by action.
"""

from collections import Counter
from dataclasses import dataclass

from reedylab.errors import InvalidInput, ViolatedLaw
from reedylab.presheaf import (
    CellSquareReport,
    FinPresheaf,
    skeleton,
    strictly_lowering_out_of,
    subgroup_closure_ok,
)
from reedylab.semilattice import UnionFind, descend


def actions(X):
    """The actions of a FinPresheaf, as a dict from morphism id to tuple."""
    return {f: tuple(X.action(f).tolist()) for f in X.base.morphisms()}


def with_value(X, f, x, value):
    """X with the value of the action of f at x set to value."""
    Y = FinPresheaf(X.base, X.levels, X.values.copy())
    Y.action(f)[x] = value
    return Y


@dataclass
class DictPresheaf:
    base: object
    levels: tuple
    actions: dict

    def act(self, f, x):
        return self.actions[f][x]


def as_dict(X):
    return DictPresheaf(X.base, X.levels, actions(X))


def representable(cat, r):
    """yo(r): level at s is Hom(s, r), acting by precomposition."""
    levels = tuple(len(cat.hom(s, r)) for s in range(len(cat.objects)))
    acts = {
        f: tuple(
            cat.compose(f, g) - cat.refs(cat.dom(f), r).start for g in cat.refs(cat.cod(f), r)
        )
        for f in cat.morphisms()
    }
    return DictPresheaf(cat, levels, acts)


def autquo(cat, r, H):
    """Quotient of yo(r) by post-composition with a subgroup of Aut(r),
    orbit by orbit, and the projection's components."""
    if not subgroup_closure_ok(cat, r, H):
        H = [cat.ref(h) for h in H]
        raise InvalidInput(f"not a subgroup of the automorphisms of object {r}: {H}")
    Y = representable(cat, r)
    n_obj = len(cat.objects)
    orbit_of = []
    orbits_at = []
    for s in range(n_obj):
        uf = UnionFind(range(Y.levels[s]))
        gs = cat.refs(s, r)
        for g in gs:
            for h in H:
                uf.union(g - gs.start, cat.compose(g, h) - gs.start)
        classes, mapping = uf.partition()
        orbits_at.append(classes)
        orbit_of.append(mapping)
    levels = tuple(len(orbits_at[s]) for s in range(n_obj))
    acts = {}
    for f in cat.morphisms():
        a, b, _ = cat.ref(f)
        act_f, orbit_a = Y.actions[f], orbit_of[a]
        act, bad = descend(orbits_at[b], lambda g: orbit_a[act_f[g]])
        if bad:
            raise ViolatedLaw("well-definedness", (cat.ref(f), bad[0]))
        acts[f] = tuple(act)
    components = tuple(
        tuple(orbit_of[s][g] for g in range(Y.levels[s])) for s in range(n_obj)
    )
    return DictPresheaf(cat, levels, acts), components


def coproduct_presheaf(parts):
    if not parts:
        raise InvalidInput("a coproduct of presheaves needs at least one part")
    cat = parts[0].base
    levels = tuple(
        sum(p.levels[r] for p in parts) for r in range(len(cat.objects))
    )
    offsets = []
    acc = [0] * len(cat.objects)
    for p in parts:
        offsets.append(tuple(acc))
        acc = [a + p.levels[r] for r, a in enumerate(acc)]
    acts = {}
    for f in cat.morphisms():
        a = cat.dom(f)
        act = []
        for pi, p in enumerate(parts):
            act.extend(offsets[pi][a] + v for v in p.actions[f])
        acts[f] = tuple(act)
    return DictPresheaf(cat, levels, acts)


def quotient_presheaf(X, pairs):
    """Quotient by the congruence generated by the pairs, closed by
    rescanning every morphism until nothing merges, and the projection's
    components."""
    cat = X.base
    ufs = [UnionFind(range(X.levels[r])) for r in range(len(cat.objects))]
    for (r, i, j) in pairs:
        ufs[r].union(i, j)
    changed = True
    while changed:
        changed = False
        for f in cat.morphisms():
            a, b, _ = cat.ref(f)
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
    acts = {}
    for f in cat.morphisms():
        a, b, _ = cat.ref(f)
        act_f, class_a = X.actions[f], class_of[a]
        act, bad = descend(classes_at[b], lambda x: class_a[act_f[x]])
        if bad:
            raise ViolatedLaw("well-definedness", (cat.ref(f), bad[0]))
        acts[f] = tuple(act)
    components = tuple(
        tuple(class_of[r][x] for x in range(X.levels[r]))
        for r in range(len(cat.objects))
    )
    return DictPresheaf(cat, levels, acts), components


def morphism_degree(cat, f):
    """Degree of the middle object of the (surjective, mono) factorization."""
    return len(cat.mor(f).image())


@dataclass
class LatchingData:
    classes: list[list]
    node_class: dict
    latch: list[int]  # class -> element of X_r
    injective: bool


def latching_data(X, r, uf):
    """The latching classes of (f, x) nodes and the map x.f out of them."""
    classes, node_class = uf.partition()
    acts = actions(X)
    latch, bad = descend(classes, lambda node: acts[node[0]][node[1]])
    if bad:
        f, x = classes[bad[0]][0]
        raise ViolatedLaw("well-definedness", (r, (X.base.ref(f), x)))
    injective = len(set(latch)) == len(latch)
    return LatchingData(classes, node_class, latch, injective)


def latching_object(X, r, data):
    """The lowering weight: pairs (e, x) for the strictly lowering e out of
    r, modulo (f e, x) ~ (e, x f) over lowering f, one union per (e, f, x),
    with the latching map sending a class to the restriction x e."""
    cat = X.base
    lows = strictly_lowering_out_of(cat, data, r)
    keys = [(e, x) for e in lows for x in range(X.levels[cat.cod(e)])]
    uf = UnionFind(keys)
    for e in lows:
        for f in data.lowering_out[cat.cod(e)]:
            fe = cat.compose(e, f)
            for x2, y in enumerate(X.action(f).tolist()):
                uf.union((fe, x2), (e, y))
    return latching_data(X, r, uf)


def latching_object_via_weights(X, r, data):
    """Weight by all maps out of r of degree below deg(r) and glue along
    every morphism, one union per (f, g, x)."""
    cat = X.base
    n = data.degree[r]
    weight = [f for f in cat.out_of(r) if morphism_degree(cat, f) < n]
    keys = [(f, x) for f in weight for x in range(X.levels[cat.cod(f)])]
    uf = UnionFind(keys)
    acts = actions(X)
    wset = set(weight)
    for f in weight:
        for g in cat.out_of(cat.cod(f)):
            gf = cat.compose(f, g)
            if gf not in wset:
                raise ViolatedLaw("degree-drop", (cat.ref(f), cat.ref(g)))
            for x2 in range(X.levels[cat.cod(g)]):
                uf.union((gf, x2), (f, acts[g][x2]))
    return latching_data(X, r, uf)


def iso_on_latching(cat, th, Lr, Lr2):
    """Map latching classes along precomposition with an iso r -> r2."""
    out = []
    for c2 in range(len(Lr2.classes)):
        e2, x2 = Lr2.classes[c2][0]
        e = cat.compose(th, e2)
        out.append(Lr.node_class[(e, x2)])
    return out


def verify_cell_square(X, n, data, degrees):
    """The degree-n cell square, level by level on (id, x) and
    ("yo" | "bd", id, v) keys."""
    cat, acts = X.base, actions(X)
    objs_n = [r for r in range(len(cat.objects)) if data.degree[r] == n]
    L = {r: latching_object(X, r, data) for r in objs_n}
    skn, sknext = skeleton(degrees, n), skeleton(degrees, n + 1)
    commutes = True
    is_pushout = True
    cell_mono = True
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
                            ur.union((tg, x2), (g, acts[th][x2]))
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
                    th_on_latch = iso_on_latching(cat, th, L[r], L[r2])
                    for g in cat.refs(s, r):
                        tg = cat.compose(g, th)
                        for c2 in range(len(L[r2].classes)):
                            ul.union(("yo", tg, c2), ("yo", g, th_on_latch[c2]))
                    for g in low_weight[r]:
                        tg = cat.compose(g, th)
                        for x2 in range(X.levels[r2]):
                            ul.union(("bd", tg, x2), ("bd", g, acts[th][x2]))
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
            return (g, L[cat.cod(g)].latch[v] if kind == "yo" else v)

        def ul_to_sk(node):
            g, x = element(node)
            return acts[g][x]

        def ul_to_ur(node):
            return ur_class_of[element(node)]

        skn_set, sknext_set = set(skn[s]), set(sknext[s])

        ul_sk, sk_bad = descend(ul_classes, ul_to_sk)
        ul_ur, ur_bad = descend(ul_classes, ul_to_ur)
        if sk_bad or ur_bad:
            commutes = False
        if not skn_set.issuperset(ul_sk):
            raise ViolatedLaw("skeleton-landing", (n, s, "left"))

        ur_sknext, bad = descend(ur_classes, lambda node: acts[node[0]][node[1]])
        if bad:
            commutes = False
        if not sknext_set.issuperset(ur_sknext):
            raise ViolatedLaw("skeleton-landing", (n, s, "right"))

        # (a) commutation
        if any(ur_sknext[ul_ur[ci]] != ul_sk[ci] for ci in range(len(ul_classes))):
            commutes = False

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
        if bad or len(set(vals)) != len(vals) or set(vals) != sknext_set:
            is_pushout = False

        # (c) cell map injectivity
        if len(set(ul_ur)) != len(ul_classes):
            cell_mono = False

    return CellSquareReport(commutes, is_pushout, cell_mono)


def maps_lowering_pushouts_to_pullbacks(X, squares):
    """X applied to each base square must yield a pullback of sets: z
    goes to (z.f0, z.f1) one to one and onto the fibre, the pairs (y0, y1)
    with y0.e0 = y1.e1.  (False, square) of the first square that fails."""
    for sq in squares:
        e0, e1, f0, f1 = (X.action(f).tolist() for f in sq)
        pairs = set(zip(f0, f1))
        over = Counter(e1)
        if not (
            len(pairs) == len(f0) == sum(over[v] for v in e0)
            and all(e0[y0] == e1[y1] for y0, y1 in pairs)
        ):
            return False, sq
    return True, None
