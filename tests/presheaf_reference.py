"""Tuple-keyed reference routes for the presheaf layer's numpy routes.

These are the union-find bodies that `latching_object_via_weights` and
`verify_cell_square` had before they moved to integer node keys.  A node
is a (MorphRef, x) tuple and every gluing is one `UnionFind.union` call.
They live here only so that the tests can compare the two routes, class
by class and report by report.
"""

from reedylab.errors import ViolatedLaw
from reedylab.presheaf import CellSquareReport, LatchingData, latching_object, skeleton
from reedylab.semilattice import UnionFind, descend


def morphism_degree(cat, ref):
    """Degree of the middle object of the (surjective, mono) factorization."""
    return len(cat.mor(ref).image())


def latching_data(X, r, uf):
    """The latching classes of (f, x) nodes and the map x.f out of them."""
    classes, node_class = uf.partition()
    acts = X.actions
    latch, bad = descend(classes, lambda node: acts[node[0]][node[1]])
    if bad:
        raise ViolatedLaw("well-definedness", (r, classes[bad[0]][0]))
    injective = len(set(latch)) == len(latch)
    return LatchingData(classes, node_class, latch, injective)


def latching_object_via_weights(X, r, data):
    """Weight by all maps out of r of degree below deg(r) and glue along
    every morphism, one union per (f, g, x)."""
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
    """The degree-n cell square, level by level on (MorphRef, x) and
    ("yo" | "bd", MorphRef, v) keys."""
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
                    th_on_latch = iso_on_latching(cat, th, L[r], L[r2])
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
