"""Tuple-keyed reference routes for the presheaf layer's numpy routes.

These are the union-find bodies that the latching objects by both
weights (`latching_objects` and `latching_object_via_weights`) and
`verify_cell_square` had before they moved to integer node keys.  A node
is a (morphism id, x) tuple and every gluing is one `UnionFind.union`
call.  They take one presheaf and one object or degree, and raise the
laws that the numpy routes, which take a whole corpus, return as
outcomes.  The two latching routes glue along every map (every lowering
map, for the lowering weight), where the numpy routes glue along the
base's generators only; on a functor the two give the same classes.
Given a gluing set, they glue along it alone, which is the comparison
for values that are not a functor.

The presheaf constructors are here too, as they were when a presheaf
stored its actions as a dict from morphism to tuple: `representable`,
`coproduct_presheaf`, `quotient_presheaf` and `autquo` build and return
`DictPresheaf`s, and the two quotients return the projection's components
with them.

The pushouts-to-pullbacks criterion is here twice: as it was before it
moved onto the batched pullback fibres of `kernel.pullback_fibres`, one
set of (f0, f1) pairs and one Counter per square, and as it was before
it took a whole corpus, one `kernel.square_pullbacks` pass per presheaf.

The other per-presheaf routes that now take a whole corpus are here as
they were: the EZ table as Python lists (`nondegenerate`,
`ez_decompositions`, `ez_degrees`, `ez_isomorphic`, `has_unique_ez`),
the comparison of the two latching weights at one (X, r), the move of
one presheaf's latching classes along one iso, and the seeded corpus
with a fresh representable built for every draw.

They live here only so that the tests can compare the two routes, class
by class, verdict by verdict and action by action.
"""

import itertools
import random
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from reedy_reference import UnionFind, descend
from reedylab import presheaf
from reedylab.errors import InvalidInput, ViolatedLaw, outcome_value
from reedylab.kernel import square_pullbacks
from reedylab.presheaf import (
    CellSquareReport,
    FinPresheaf,
    _layout,
    _segments,
    skeleton,
    strictly_lowering_out_of,
    subgroup_closure_ok,
)


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


def latching_object(X, r, data, gluing=None):
    """The lowering weight: pairs (e, x) for the strictly lowering e out of
    r, modulo (f e, x) ~ (e, x f) over lowering f, one union per (e, f, x),
    with the latching map sending a class to the restriction x e.  Glues
    along every lowering f, or along those in gluing when it is given."""
    cat = X.base
    lows = strictly_lowering_out_of(cat, data, r)
    keys = [(e, x) for e in lows for x in range(X.levels[cat.cod(e)])]
    uf = UnionFind(keys)
    for e in lows:
        for f in data.lowering_out[cat.cod(e)]:
            if gluing is not None and f not in gluing:
                continue
            fe = cat.compose(e, f)
            for x2, y in enumerate(X.action(f).tolist()):
                uf.union((fe, x2), (e, y))
    return latching_data(X, r, uf)


def latching_object_via_weights(X, r, data, gluing=None):
    """Weight by all maps out of r of degree below deg(r) and glue along
    every morphism, or along those in gluing when it is given, one union
    per (f, g, x)."""
    cat = X.base
    n = data.degree[r]
    weight = [f for f in cat.out_of(r) if morphism_degree(cat, f) < n]
    keys = [(f, x) for f in weight for x in range(X.levels[cat.cod(f)])]
    uf = UnionFind(keys)
    acts = actions(X)
    wset = set(weight)
    for f in weight:
        for g in cat.out_of(cat.cod(f)):
            if gluing is not None and g not in gluing:
                continue
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


def verify_cell_square(X, n, data, degrees, gluing=None):
    """The degree-n cell square, level by level on (id, x) and
    ("yo" | "bd", id, v) keys, on the latching objects glued along every
    lowering map or along those in gluing."""
    cat, acts = X.base, actions(X)
    objs_n = [r for r in range(len(cat.objects)) if data.degree[r] == n]
    L = {r: latching_object(X, r, data, gluing) for r in objs_n}
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


def pullbacks_by_presheaf(X, squares):
    """The criterion on one presheaf: one kernel.square_pullbacks pass on
    its own actions, (True, None) or (False, square) of the first square
    that fails."""
    cat = X.base
    for part, square, _, _, fibre in square_pullbacks(cat, squares, X.action):
        pairs = np.bincount(square, minlength=len(part))
        split = np.bincount(square, weights=fibre != 1, minlength=len(part)) > 0
        bad = split | (pairs != [X.levels[cat.cod(squares[i][2])] for i in part])
        if bad.any():
            return False, squares[part[int(bad.argmax())]]
    return True, None


def nondegenerate(X, data):
    """The nondegenerate elements of each level, as a mask: those outside
    the image of every strictly lowering map out of it."""
    masks = [np.ones(n, bool) for n in X.levels]
    for r, mask in enumerate(masks):
        for e in strictly_lowering_out_of(X.base, data, r):
            mask[X.action(e)] = False
    return masks


def ez_decompositions(X, data):
    """The EZ table of X: entry [r][x] lists the pairs (lowering e out of
    r, nondegenerate y) with y.e = x, in morphism order of e, then y."""
    nondeg = [np.flatnonzero(mask) for mask in nondegenerate(X, data)]
    table = [[[] for _ in range(n)] for n in X.levels]
    for r, decs in enumerate(table):
        for e in data.lowering_out[r]:
            ys = nondeg[X.base.cod(e)]
            for y, x in zip(ys.tolist(), X.action(e)[ys].tolist()):
                decs[x].append((e, y))
    return table


def ez_degrees(X, data):
    """Entry [r][x] is the EZ degree of x in X_r, the least degree of the
    middle object of its EZ decompositions.  Raises ViolatedLaw
    'ez-existence' at the first element without a decomposition, and
    'sub-presheaf-closure' when a restriction raises an element's
    degree."""
    cat, degrees = X.base, []
    for r, level in enumerate(ez_decompositions(X, data)):
        for x, decs in enumerate(level):
            if not decs:
                raise ViolatedLaw("ez-existence", (r, x))
        degrees.append([min(data.degree[cat.cod(e)] for e, _ in decs) for decs in level])
    x_start = _segments(np.array(X.levels, np.int64))[0]
    degree = np.fromiter(itertools.chain.from_iterable(degrees), np.int64, x_start[-1])
    _, owner, x = _layout(cat, X.levels)
    raised = (
        degree[x_start[cat.domain][owner] + X.values]
        > degree[x_start[cat.codomain][owner] + x]
    )
    if raised.any():
        p = raised.argmax()
        raise ViolatedLaw("sub-presheaf-closure", (cat.ref(owner[p]), int(x[p])))
    return degrees


def ez_isomorphic(X, d0, d1):
    """Two decompositions match when an isomorphism links them."""
    cat = X.base
    (e0, y0), (e1, y1) = d0, d1
    for th in cat.isos(cat.cod(e0), cat.cod(e1)):
        if cat.compose(e0, th) == e1 and X.action(th)[y1] == y0:
            return True
    return False


def has_unique_ez(X, data):
    """True when all EZ decompositions of every element are pairwise
    isomorphic; otherwise (False, witness pair)."""
    for r, level in enumerate(ez_decompositions(X, data)):
        for x, decs in enumerate(level):
            for d0, d1 in itertools.combinations(decs, 2):
                if not ez_isomorphic(X, d0, d1):
                    return False, ((r, x), d0, d1)
    return True, None


# one presheaf's latching object at r in its own coordinates: first_node[p]
# is the node of (f, 0) for the p-th map f out of r, -1 outside the weight,
# node_class[v] the class of node v, and latch the value of each class
PresheafLatching = namedtuple("PresheafLatching", "first_node node_class latch")


def by_presheaf(latching):
    """The chunk-wide outcomes of a latching route, per presheaf and object
    r, for the per-presheaf routes here."""
    return [[_part(L, k) for L in Ls] for Ls in latching for k in range(len(Ls[0].held))]


def _part(L, k):
    """Part k of a Latching: the law it holds, or its PresheafLatching."""
    if L.held[k] is not None:
        return L.held[k]
    c0, c1 = L.class_start[k : k + 2].tolist()
    # a part's nodes are one run, and its classes are its own
    v0, v1 = (int((L.node_class < c).sum()) for c in (c0, c1))
    first = L.first_node[k].astype(np.int64)
    first = np.where(first < 0, -1, first - v0)
    return PresheafLatching(first, L.node_class[v0:v1] - c0, L.latch[c0:c1].tolist())


def _pairs(L, v):
    """The pair (f, x) of each node v of a PresheafLatching: the position
    p of f out of r, and x."""
    weight = np.flatnonzero(L.first_node >= 0)
    p = weight[np.searchsorted(L.first_node[weight], v, "right") - 1]
    return p, v - L.first_node[p]


def latching_routes_agree(by_lowering, by_degree):
    """Natural bijection over X_r between the latching objects at one
    (X, r) by the two weights, each outcome raised when it is a
    ViolatedLaw, the lowering one first."""
    A, B = outcome_value(by_lowering), outcome_value(by_degree)
    p, x = _pairs(A, np.arange(len(A.node_class)))
    if len(A.latch) != len(B.latch) or (B.first_node[p] < 0).any():
        return False
    # the class in B of each node of A must be one per class of A
    image = B.node_class[B.first_node[p] + x]
    mapping = np.zeros(len(A.latch), np.int64)
    mapping[A.node_class] = image
    if (mapping[A.node_class] != image).any():
        return False
    mapping = mapping.tolist()
    return len(set(mapping)) == len(B.latch) and A.latch == [B.latch[c] for c in mapping]


def iso_on_weighted_latching(cat, th, Lr, Lr2):
    """One presheaf's latching classes moved along precomposition with an
    iso th: r -> r2: a class of Lr2, by its least node (e2, x2), to that
    of (th then e2, x2) in Lr."""
    least = np.searchsorted(np.maximum.accumulate(Lr2.node_class), np.arange(len(Lr2.latch)))
    p, x = _pairs(Lr2, least)
    then = cat.row(th) - cat.out_of(cat.dom(th)).start
    return Lr.node_class[Lr.first_node[then[p]] + x]


def seeded_corpus(cat, data, seed, count):
    """presheaf.seeded_corpus with a fresh representable built for every
    draw, as it was built before it built each representable once."""
    rng = random.Random(seed)
    n_obj = len(cat.objects)
    corpus = [presheaf.representable(cat, r) for r in range(n_obj)]
    for r in range(n_obj):
        auts = cat.isos(r, r)
        if len(auts) > 1:
            corpus.append(presheaf.autquo(cat, r, auts)[0])
    corpus.append(presheaf.terminal_presheaf(cat))
    corpus.append(presheaf.empty_presheaf(cat))
    for e0, e1 in presheaf._some_spans(cat, data):
        corpus.append(presheaf.span_pushout_of_representables(cat, e0, e1))
    for _ in range(count):
        parts = [
            presheaf.representable(cat, rng.randrange(n_obj))
            for _ in range(rng.randint(1, 2))
        ]
        X = presheaf.coproduct_presheaf(parts)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            candidates = [r for r in range(n_obj) if X.levels[r] >= 2]
            if not candidates:
                break
            r = rng.choice(candidates)
            i = rng.randrange(X.levels[r])
            j = rng.randrange(X.levels[r])
            if i != j:
                pairs.append((r, i, j))
        if pairs:
            X, _ = presheaf.quotient_presheaf(X, pairs)
        corpus.append(X)
    return corpus
