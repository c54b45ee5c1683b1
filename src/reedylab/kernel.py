"""The numpy side of FinCategory's dense composition table.

The build, the certificate scans that run one block of morphism ids at
a time, and the batched lowering-pushout checks.  reedylab.reedy
imports this module only inside the functions that need it, so
importing reedylab stays numpy-free.

Three checks share one routine, `pullback_fibres`: the pullback of two
keyed finite sets and the fibre of each of its pairs.  `square_pullbacks`
keys it by square, over a category's id squares and an action by id.  By
Yoneda, the pushout universal property of a square is "every
representable y(c) sends it to a pullback"; a table row is a map's action
on the sum of all y(c), so `reedy.verify_pushout_universal` feeds the
routine table rows, and `presheaf.maps_lowering_pushouts_to_pullbacks`
feeds it the actions of a chunk of presheaves side by side, their
coproduct, once per chunk.  Orthogonal lifting is one more hom-set
pullback: e and m are orthogonal when Hom(b, c) maps one to one onto
Hom(a, c) x_Hom(a, d) Hom(b, d), so `orthogonal_lifting` matches, per
Hom(a, b), the lowering rows against the composites of raising maps out
of a.  Lowering maps being epi is the injective half of the universal
property, checked on the rows directly.  The covariant question, whether
Hom(A, -) sends each square to a pushout of sets, has its own batched
route, `hom_preserved`, and `hom_preservation_scan` glues the first
failing square's pushout again for its witness.  Both glue with `_join`,
the minimum-label union that is the one union-find of the package:
`reedy.reedy_category_on` glues its spans with it, and the presheaf
layer's numpy routes share it.

The factorization, split and free-action checks of the Reedy axioms
read whole blocks of the table as well: lowering rows at raising
columns, Hom(b, a) columns against the identities, and lowering rows at
the automorphism columns.

Every scan here is a generator of batches for certificates.scan_batches:
per block, object or chunk, the failures as a boolean array in walk
order and a function that builds the witness of one case.  So the
first-failure count and the NO_CASES rule are stated once, there, and
no scan builds a Check.
"""
from __future__ import annotations

import itertools

import numpy as np

from .certificates import Check, scan_batches
from .errors import ViolatedLaw

# the most entries a batched square routine takes in at once; larger
# chunks are no faster and raise the peak memory of a truncation-n4 run
CHUNK = 1 << 14


def fill_composition(cat) -> None:
    """Fill cat.composition from cat.homs.

    The composites of Hom(a, b) with every map out of b come from one
    gather, G[:, F].  A map out of a is coded by its values on the
    join-irreducibles of a, in base |c| for its codomain c, and one lookup
    array per object a takes the codes of the maps out of a back to their
    ids.  A composite of validated maps preserves joins, so these values
    determine it, and the lookup replaces re-validating it: one whose code
    is missing fails the build with ViolatedLaw('composition-closure',
    (f, g)).
    """
    objects, homs, n = cat.objects, cat.homs, len(cat.objects)
    dtype = np.min_scalar_type(max((O.size for O in objects), default=0))
    sizes = np.array([O.size for O in objects], np.int64)
    # the maps out of each object in morphism order, one row each, and the
    # index of each one's codomain
    out = [
        np.array([f.map for b in range(n) for f in homs[(a, b)]], dtype).reshape(-1, A.size)
        for a, A in enumerate(objects)
    ]
    cod = [cat.codomain[ids.start : ids.stop] for ids in map(cat.out_of, range(n))]
    for a, A in enumerate(objects):
        gens = list(A.irreducibles)
        # weights[k, c] = |c|^k; the codes of Hom(a, c) start at start[c]
        weights = sizes ** np.arange(len(gens))[:, None]
        start = np.cumsum([0, *(O.size ** len(gens) for O in objects)])

        def codes(values, cods):
            """values[..., k, j] is a map's value at gens[k]."""
            return (values * weights[:, cods]).sum(-2) + start[cods]

        lookup = np.full(start[-1], -1, np.int32)
        ids = cat.out_of(a)
        lookup[codes(out[a][:, gens].T, cod[a])] = np.arange(ids.start, ids.stop)
        for b in range(n):
            F = out[a][cat.columns(a, b)]
            composite = out[b].T[F]  # [i, x, j]: the j-th map out of b at F[i, x]
            block = lookup[codes(composite[:, gens], cod[b])]
            if (block < 0).any():
                i, j = divmod(int(block.argmin()), block.shape[1])
                witness = (cat.ref(cat.refs(a, b)[i]), cat.ref(cat.out_of(b)[j]))
                raise ViolatedLaw("composition-closure", witness)
            cat.composition[(a, b)] = block


def scan_composable(id: str, cat, bad) -> Check:
    """scan(id, ...) over the composable pairs (f, g) in the table's walk
    order, with witness {"f": f, "g": g}, one (a, b) block a batch:
    bad(f, g, gf) takes the ids of Hom(a, b) as a column, those of the
    maps out of b as a row and the block of composite ids, and gives the
    block's failures as booleans."""

    def batches():
        for (a, b), block in cat.composition.items():
            fs, gs = cat.refs(a, b), cat.out_of(b)
            failed = bad(np.arange(fs.start, fs.stop)[:, None], np.arange(gs.start, gs.stop), block)

            def witness(k):
                i, j = divmod(k, len(gs))
                return {"f": cat.ref(fs[i]), "g": cat.ref(gs[j])}

            yield failed, witness

    return scan_batches(id, batches())


def orthogonal_lifting(cat, low: np.ndarray, high: np.ndarray) -> Check:
    """orthogonal-lifting-unique: the scan over the commuting squares
    m u = v e, e lowering and m raising, in the order for e, for m, for u,
    for v (each in morphism order), for e: a -> b, m: c -> d, u: a -> c
    and v: b -> d.  A square fails unless exactly one diagonal w: b -> c
    has w e = u and m w = v, with witness {e, m, u, v, diagonals}.

    e and m are orthogonal when w -> (w e, m w) is a bijection from
    Hom(b, c) onto the pullback Hom(a, c) x_Hom(a, d) Hom(b, d), so this is
    one more hom-set pullback for pullback_fibres.  Per object x, the
    triples (g, m, m g) over the raising m and the g: x -> dom m, ordered
    by (m, g), are built once.  The squares of e are the pairs of an
    a-triple (u, m, m u) and a column v of e's table row with m u = v e:
    the ids already name d, so one match covers every (c, d).  The
    diagonals of such a pair are the b-triples (w, m, m w) with w e = u,
    w e read off e's row.  Keying both sides by e takes the e rows of one
    Hom(a, b) together, at most CHUNK entries at a time, and the pair keys
    then increase in the walk order e, m, u, v; each chunk is a batch.
    The table's entries are taken to lie in the hom-sets its layout gives
    them, as fill_composition builds it."""
    n, table = len(cat.objects), cat.composition
    width = len(cat.morphisms())
    raising = np.flatnonzero(high)
    dom_m = cat.domain[raising]
    # first[x, c] and size[x, c]: where Hom(x, c) starts among the ids, and its size
    first = np.array([[cat.refs(x, c).start for c in range(n)] for x in range(n)], np.int64)
    size = np.array([[len(cat.refs(x, c)) for c in range(n)] for x in range(n)], np.int64)

    def triples(x):
        """The triples out of x: the g, the rank of m among the raising
        maps, m g, and where each m's triples start, their total last."""
        sizes = size[x, dom_m]
        start = np.concatenate([[0], np.cumsum(sizes)])
        g = np.arange(start[-1]) + np.repeat(first[x, dom_m] - start[:-1], sizes)
        gm = np.concatenate(
            [table[(x, c)][:, raising[dom_m == c] - cat.out_of(c).start].T.ravel() for c in range(n)]
        ).astype(np.int64)
        return g, np.repeat(np.arange(len(raising)), sizes), gm, start

    out = [triples(x) for x in range(n)]

    def batches():
        for (a, b), block in table.items():
            fs = cat.refs(a, b)
            es = np.flatnonzero(low[fs.start : fs.stop])
            if not len(es):
                continue
            u_a, rank_a, mu_a, start_a = out[a]
            w_b, rank_b, mw_b, _ = out[b]
            vs = cat.out_of(b)
            n_t, n_v = len(mu_a), len(vs)
            # a diagonal's a-triple is start_a[m] plus the position of w e in Hom(a, c)
            w_col, mw_col = w_b - vs.start, mw_b - vs.start
            base = start_a[rank_b] - first[a, dom_m[rank_b]]
            for part in chunks([n_t + n_v + len(w_b)] * len(es)):
                rows = block[es[part.start : part.stop]]
                i = np.arange(len(rows))[:, None]
                y0, y1, diagonals = pullback_fibres(
                    (i * width + mu_a).ravel(),
                    (i * width + rows).ravel(),
                    (i * n_t + base + rows[:, w_col]).ravel(),
                    (i * n_v + mw_col).ravel(),
                )

                def witness(k):
                    (row, t), v = divmod(int(y0[k]), n_t), int(y1[k]) % n_v
                    return {
                        "e": cat.ref(fs[es[part.start + row]]),
                        "m": cat.ref(int(raising[rank_a[t]])),
                        "u": cat.ref(int(u_a[t])),
                        "v": cat.ref(vs[v]),
                        "diagonals": int(diagonals[k]),
                    }

                yield diagonals != 1, witness

    return scan_batches("orthogonal-lifting-unique", batches())


def factorization_scan(cat, data) -> Check:
    """factorization-unique-up-to-unique-iso: one case per f in morphism
    order.  Its factorizations are the (e, m), e in data.lowering_out and
    m raising, with m e = f, in the order e then m.  The case fails with
    witness {f, reason} when there are none, and otherwise at the first
    (e, m) not linked to the first one (e0, m0) by exactly one iso
    th: cod e0 -> cod e with th e0 = e and m th = m0, with witness
    {f, fact: [e, m], linking-isos}.

    The factorizations out of an object a are the lowering rows of the
    blocks out of a at the raising columns, grouped by their entry f by a
    stable sort; the linking isos are read off the rows of each e0 and of
    the isos themselves.  The maps out of one object are a batch; their
    ids are consecutive, so the count of f is f + 1."""
    n, table = len(cat.objects), cat.composition
    high, isos = data.raising, {}

    def batch(a):
        """The failures among the maps out of a, and their witness."""
        fs, lows = cat.out_of(a), np.array(data.lowering_out[a], np.int64)
        fact_e, fact_m, fact_f = [], [], []
        for b in range(n):
            es, gs = lows[cat.codomain[lows] == b], cat.out_of(b)
            ms = np.flatnonzero(high[gs.start : gs.stop])
            fact_e.append(np.repeat(es, len(ms)))
            fact_m.append(np.tile(gs.start + ms, len(es)))
            fact_f.append(table[(a, b)][es - cat.refs(a, b).start][:, ms].ravel())
        f = np.concatenate(fact_f).astype(np.int64)
        order = np.argsort(f, kind="stable")
        f, e, m = f[order], np.concatenate(fact_e)[order], np.concatenate(fact_m)[order]
        facts = np.bincount(f - fs.start, minlength=len(fs))
        first = np.repeat(np.cumsum(facts) - facts, facts)
        e0, m0 = e[first], m[first]
        linking = np.zeros(len(f), np.int64)
        pair = cat.codomain[e0] * n + cat.codomain[e]
        for key in _distinct(pair).tolist():
            (b0, b), at = divmod(key, n), np.flatnonzero(pair == key)
            if key not in isos:
                isos[key] = np.array(cat.isos(b0, b), np.int64)
            ths = isos[key]
            # th e0 = e on e0's row; m th = m0 on the rows of the isos
            through = table[(a, b0)][e0[at] - cat.refs(a, b0).start][:, ths - cat.out_of(b0).start]
            after = table[(b0, b)][ths - cat.refs(b0, b).start][:, m[at] - cat.out_of(b).start]
            linking[at] = ((through == e[at, None]) & (after.T == m0[at, None])).sum(1)
        unlinked = linking != 1
        failing = (facts == 0) | (np.bincount(f[unlinked] - fs.start, minlength=len(fs)) > 0)

        def witness(k):
            if not facts[k]:
                return {"f": cat.ref(fs[k]), "reason": "no factorization"}
            j = int(np.flatnonzero(unlinked & (f == fs[k]))[0])
            return {
                "f": cat.ref(fs[k]),
                "fact": [cat.ref(int(e[j])), cat.ref(int(m[j]))],
                "linking-isos": int(linking[j]),
            }

        return failing, witness

    return scan_batches("factorization-unique-up-to-unique-iso", map(batch, range(n)))


def free_action_scan(cat, low: np.ndarray) -> Check:
    """isos-act-freely-on-lowering: for each lowering e: a -> b in
    morphism order and each automorphism th of b but the identity, in hom
    order, the case fails when th e = e, with witness {e, theta}.  Read
    off the lowering rows of each block at the columns of Aut(b).  No
    cases when no object has an automorphism besides its identity."""
    auts = [
        np.array([th for th in cat.isos(b, b) if not cat.is_identity(th)], np.int64)
        for b in range(len(cat.objects))
    ]

    def batches():
        for (a, b), block in cat.composition.items():
            fs, ths = cat.refs(a, b), auts[b]
            es = np.flatnonzero(low[fs.start : fs.stop])

            def witness(k):
                i, j = divmod(k, len(ths))
                return {"e": cat.ref(fs[es[i]]), "theta": cat.ref(int(ths[j]))}

            yield block[es][:, ths - cat.out_of(b).start] == (fs.start + es)[:, None], witness

    empty = not any(map(len, auts))
    return scan_batches("isos-act-freely-on-lowering", batches(), may_be_empty=empty)


def split_scan(cat, low: np.ndarray, high: np.ndarray) -> Check:
    """split-epi-lowering-split-mono-raising: for each f: a -> b in
    morphism order, a case when some s: b -> a has f s = id_b, failing
    unless f is lowering ({"split-epi": f}), then a case when some r has
    r f = id_a, failing unless f is raising ({"split-mono": f}).  Read off
    the Hom(b, a) columns of the blocks, against the identities, as an
    [epi, mono] pair of slots per f, kept where each case exists."""
    flags = np.stack([low, high], 1)

    def batches():
        for (a, b), block in cat.composition.items():
            fs = cat.refs(a, b)
            epi = (cat.composition[(b, a)][:, cat.columns(a, b)] == cat.identities[b]).any(0)
            mono = (block[:, cat.columns(b, a)] == cat.identities[a]).any(1)
            cases = np.stack([epi, mono], 1)

            def witness(k):
                i, slot = divmod(int(np.flatnonzero(cases)[k]), 2)
                return {("split-epi", "split-mono")[slot]: cat.ref(fs[i])}

            yield ~flags[fs.start : fs.stop][cases], witness

    return scan_batches("split-epi-lowering-split-mono-raising", batches())


def generators(cat):
    """The generators of a category of semilattices: its non-identity isos
    and elementary maps, those lowering or raising between objects one
    size apart, as a mask by id.

    Latching glues along them only, which gives the classes that gluing
    along every map gives as long as their composites reach every map,
    and those of the lowering ones every lowering map.  Two breadth-first
    walks from the identities check both, each round composing the maps it
    reached last with every generator out of their codomain, through one
    gather per object b from the table rows of the maps into b at the
    generator columns.  Returns ViolatedLaw('generation', ref) for the
    first map that the walk along all generators misses, or else the
    first lowering map that the walk along the lowering ones misses, so
    that a caller holds it as an outcome."""
    n, sizes = len(cat.objects), np.array([O.size for O in cat.objects], np.int64)
    dom, cod = sizes[cat.domain], sizes[cat.codomain]
    lowering, raising = cat.image_size == cod, cat.image_size == dom
    gens = (lowering & raising) | ((lowering | raising) & (np.abs(dom - cod) == 1))
    gens[list(cat.identities)] = False
    into = [np.flatnonzero(cat.codomain == b) for b in range(n)]
    for mask, target in ((gens, np.ones_like(gens)), (gens & lowering, lowering)):
        # tables[b][i, j]: the i-th map into b, then the j-th generator out of b
        tables = []
        for b in range(n):
            out = cat.out_of(b)
            cols = np.flatnonzero(mask[out.start : out.stop])
            tables.append(np.vstack([cat.composition[(a, b)][:, cols] for a in range(n)]))
        reached = np.zeros_like(gens)
        reached[list(cat.identities)] = True
        last = reached.copy()
        while last.any():
            new = np.zeros_like(gens)
            for b in range(n):
                new[tables[b][last[into[b]]]] = True
            last = new & ~reached
            reached |= new
        missed = target & ~reached
        if missed.any():
            return ViolatedLaw("generation", cat.ref(int(missed.argmax())))
    return gens


def _join(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the classes of u[i] and v[i], for equally shaped node arrays,
    into a labelling of each node by the least node of its class.

    Minimum-label propagation: each round hooks the larger label of an
    edge's ends onto the smaller, then jumps pointers until every label
    is its own.  An edge whose ends share a label keeps sharing one, so
    each round keeps only the edges still apart."""
    u, v = u.ravel(), v.ravel()
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, in increasing order.  np.unique would do,
    but it imports numpy.ma, about a megabyte."""
    a = np.sort(a)
    return a[np.concatenate([a[1:] != a[:-1], [True]])] if len(a) else a


def _classes(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of a labelling by least connected node: their least
    nodes in increasing order, and the class of each node."""
    is_root = label == np.arange(len(label))
    return np.flatnonzero(is_root), (np.cumsum(is_root, dtype=np.int32) - 1)[label]


def _class_values(roots: np.ndarray, node_class: np.ndarray, values: np.ndarray):
    """A map pushed down to classes: the least value on each class, and
    whether the values differ on it."""
    least = values[roots]
    off = np.flatnonzero(values != least[node_class])
    bad = np.zeros(len(roots), bool)
    bad[node_class[off]] = True
    np.minimum.at(least, node_class[off], values[off])
    return least, bad


def chunks(sizes):
    """Consecutive ranges of positions whose sizes sum to at most CHUNK,
    as it is at the call, covering every position in order; a position
    larger than CHUNK makes a range of its own."""
    start, total = 0, 0
    for k, size in enumerate(sizes):
        if total and total + size > CHUNK:
            yield range(start, k)
            start, total = k, 0
        total += size
    if start < len(sizes):
        yield range(start, len(sizes))


def pullback_fibres(key0, key1, z0, z1):
    """The pullback of two keyed finite sets, and the fibre of each of its
    pairs.

    The pairs are the (y0, y1) with key0[y0] == key1[y1], in increasing
    order of (y0, y1), and the fibre of a pair is the z with
    (z0[z], z1[z]) == (y0, y1).  Returns y0, y1 and the size of each pair's
    fibre.  key0 is matched against key1 by a stable sort and searchsorted,
    so the pair keys y0 |key1| + y1 come out increasing, and each z finds
    its pair among them by searchsorted too."""
    order = np.argsort(key1, kind="stable")
    low = np.searchsorted(key1[order], key0, "left")
    matches = np.searchsorted(key1[order], key0, "right") - low
    y0 = np.repeat(np.arange(len(key0)), matches)
    y1 = order[np.arange(len(y0)) + np.repeat(low - (np.cumsum(matches) - matches), matches)]
    pair = y0 * len(key1) + y1
    z = np.asarray(z0, np.int64) * len(key1) + z1
    at = np.searchsorted(pair, z)
    hit = at < len(pair)
    hit[hit] = pair[at[hit]] == z[hit]
    return y0, y1, np.bincount(at[hit], minlength=len(pair))


def square_pullbacks(cat, squares, action):
    """pullback_fibres over a category's squares, a chunk at a time.

    A square is the ids (e0, e1, f0, f1) of maps with f0 e0 = f1 e1; one
    whose maps do not meet raises ViolatedLaw('square-shape', its ids),
    checked for all squares at once.  action(f), for f: a -> b, is an int
    array from the elements over b to those over a, so a square gives
    E0: Y0 -> S, E1: Y1 -> S, F0: Z -> Y0 and F1: Z -> Y1, whose pullback
    is the pairs (y0, y1) with E0[y0] == E1[y1]; the fibre of a pair is
    the z with (F0[z], F1[z]) == (y0, y1).  Yields, per chunk of at most
    CHUNK action entries, its range of positions in squares and, per pair
    in walk order (square, y0, y1), its square's position in the chunk,
    y0, y1 and the size of its fibre.  A chunk's squares are keyed by
    position and offset, so that those of two squares never meet."""
    ids = np.array(squares, np.int64).reshape(-1, 4)
    dom, cod = cat.domain[ids], cat.codomain[ids]
    meets = (dom[:, 0] == dom[:, 1]) & (cod[:, :2] == dom[:, 2:]).all(1) & (cod[:, 2] == cod[:, 3])
    if not meets.all():
        raise ViolatedLaw("square-shape", tuple(ids[int(meets.argmin())].tolist()))
    # the length of each map's action is the number of elements over its codomain
    lengths = np.array([len(action(f)) for f in cat.identities], np.int64)[cod]
    for part in chunks(lengths.sum(1).tolist()):
        chunk = ids[part.start : part.stop]
        E0, E1, F0, F1 = ([action(f) for f in column] for column in chunk.T.tolist())
        n0, n1, nz = lengths[part.start : part.stop, :3].T
        positions = np.arange(len(part))
        off0, off1 = np.cumsum(n0) - n0, np.cumsum(n1) - n1
        e0, e1 = np.concatenate(E0).astype(np.int64), np.concatenate(E1).astype(np.int64)
        width = 1 + max(e0.max(initial=0), e1.max(initial=0))
        square0, square_z = np.repeat(positions, n0), np.repeat(positions, nz)
        y0, y1, fibre = pullback_fibres(
            square0 * width + e0,
            np.repeat(positions, n1) * width + e1,
            np.concatenate(F0) + off0[square_z],
            np.concatenate(F1) + off1[square_z],
        )
        square = square0[y0]
        yield part, square, y0 - off0[square], y1 - off1[square], fibre


def lowering_epi_scan(cat, lowering: np.ndarray) -> Check:
    """lowering-maps-are-epi: for each lowering e: a -> b in morphism
    order, each c and each pair g < h of Hom(b, c) in
    itertools.combinations order, the case fails when g e == h e, with
    witness {"e": e, "g": g, "h": h} (g and h as positions in Hom(b, c)).

    This is the injective half of the universal property: e is epi when
    every y(c) acts on it injectively.  e's row of the table is its action
    on the sum of all y(c), and its ids already name c, so each block's
    rows are checked for repeated ids at once.  A block is a batch of
    C(|Hom(b, c)|, 2) cases per c and row; a block with no repeated id
    is all passes, and only one with a repeat compares its pairs.  No
    cases when no hom-set holds two maps."""
    n = len(cat.objects)
    # size[b, c] = |Hom(b, c)|, and cases[b, c] its pairs g < h
    size = np.array([[len(cat.refs(b, c)) for c in range(n)] for b in range(n)], np.int64)
    cases = size * (size - 1) // 2

    def batches():
        for (a, b), block in cat.composition.items():
            ids = cat.refs(a, b)
            es = np.flatnonzero(lowering[ids.start : ids.stop])
            if not len(es):
                continue
            rows = block[es]
            if not (np.diff(np.sort(rows, axis=1), axis=1) == 0).any():
                yield np.zeros(len(es) * int(cases[b].sum()), bool), None
                continue
            # the pairs g < h of each Hom(b, c) in turn, as positions in it,
            # and the column where it starts among the maps out of b
            tri = [np.triu_indices(size[b, c], 1) for c in range(n)]
            g, h = (np.concatenate([t[s] for t in tri]) for s in (0, 1))
            at = np.repeat([cat.columns(b, c).start for c in range(n)], cases[b])

            def witness(k):
                i, j = divmod(k, len(g))
                return {"e": cat.ref(ids[es[i]]), "g": int(g[j]), "h": int(h[j])}

            yield rows[:, at + g] == rows[:, at + h], witness

    return scan_batches("lowering-maps-are-epi", batches(), may_be_empty=not cases.any())


def _post_composition(cat, A, squares, budget: int):
    """Hom(A, b) for each object b that the squares touch, as an array of
    maps in hom order, and post[f] for each map f of the squares: the
    position in Hom(A, cod f) of f after each map of Hom(A, dom f).

    Hom(A, b) is enumerated once per object.  Post-composing goes by whole
    (b, c) blocks: a map A -> c is coded by its values on the
    join-irreducibles of A, in base |c|, and one lookup per c takes codes
    to positions in Hom(A, c)."""
    from .semilattice import enumerate_homs

    gens = list(A.irreducibles)
    homs, lookup = {}, {}
    for b in sorted({x for sq in squares for f in sq for x in (cat.dom(f), cat.cod(f))}):
        B = cat.objects[b]
        homs[b] = np.array([f.map for f in enumerate_homs(A, B, budget)], np.int64)
        lookup[b] = np.full(B.size ** len(gens), -1, np.int64)
        lookup[b][homs[b][:, gens] @ B.size ** np.arange(len(gens))] = np.arange(len(homs[b]))
    post = {}
    used = sorted({f for sq in squares for f in sq})
    for (b, c), ids in itertools.groupby(used, lambda f: (cat.dom(f), cat.cod(f))):
        ids = list(ids)
        maps = np.array([cat.mor(f).map for f in ids], np.int64)
        composite = maps[:, homs[b][:, gens]]
        post.update(zip(ids, lookup[c][composite @ cat.objects[c].size ** np.arange(len(gens))]))
    return homs, post


def _hom_pushouts(cat, homs, post, refs):
    """The set pushouts of Hom(A, -) on the squares refs, glued in one
    label array with disjoint node ranges: Hom(A, b0) then Hom(A, b1) per
    square, joined along the composites with e0 and e1 of each map of
    Hom(A, apex).  Returns, by class in root order, its square and the
    least of its composites with f0 and f1, as a position in Hom(A, p)
    offset per square, and whether those composites differ on it; and
    the size of each square's Hom(A, p)."""
    n0 = np.array([len(post[f0]) for _, _, f0, _ in refs])
    n1 = np.array([len(post[f1]) for _, _, _, f1 in refs])
    start = np.cumsum(n0 + n1) - n0 - n1
    u = np.concatenate([start[k] + post[e0] for k, (e0, _, _, _) in enumerate(refs)])
    v = np.concatenate([start[k] + n0[k] + post[e1] for k, (_, e1, _, _) in enumerate(refs)])
    label = _join(np.arange(int((n0 + n1).sum())), u, v)
    targets = np.array([len(homs[cat.cod(f0)]) for _, _, f0, _ in refs])
    offset = np.cumsum(targets) - targets
    values = np.concatenate([offset[k] + post[f] for k, sq in enumerate(refs) for f in sq[2:]])
    roots, node_class = _classes(label)
    least, ill = _class_values(roots, node_class, values)
    of_class = np.repeat(np.arange(len(refs)), n0 + n1)[roots]
    return of_class, least, ill, targets


def hom_preserved(cat, A, squares, budget: int) -> np.ndarray:
    """Whether Hom(A, -) sends each category-resident lowering pushout
    square to a pushout of sets: by square, a boolean array.

    A square is preserved when the classes of its glued set pushout
    (_hom_pushouts) have one composite each with f0 and f1, and the
    classes, their composites and Hom(A, p) are equally many.  The
    squares go a chunk at a time into one label array each."""
    homs, post = _post_composition(cat, A, squares, budget)
    preserved = np.zeros(len(squares), bool)
    sizes = [sum(len(post[f]) for f in sq) for sq in squares]
    for part in chunks(sizes):
        refs, k = squares[part.start : part.stop], len(part)
        of_class, least, ill, targets = _hom_pushouts(cat, homs, post, refs)
        of_value = np.repeat(np.arange(k), targets)
        classes = np.bincount(of_class, minlength=k)
        hits = np.bincount(of_value[_distinct(least)], minlength=k)
        well_defined = np.bincount(of_class, weights=ill, minlength=k) == 0
        preserved[part.start : part.stop] = well_defined & (classes == hits) & (hits == targets)
    return preserved


def hom_preservation_scan(id: str, cat, A, squares, budget: int) -> Check:
    """The scan over the squares of whether Hom(A, -) preserves each, by
    hom_preserved.  The first failing square's pushout is glued again on
    its own for the witness, which names the failing side: a class whose
    composites with f0 and f1 differ ('comparison-ill-defined'), else the
    value of the first class, in root order, that another class shares
    ('not-injective'), else the first map of Hom(A, p) that no class hits
    ('not-surjective'); the elements are maps of Hom(A, p)."""

    def witness(k):
        square = squares[k]
        homs, post = _post_composition(cat, A, [square], budget)
        _, least, ill, _ = _hom_pushouts(cat, homs, post, [square])
        maps = homs[cat.cod(square[2])]
        hits = np.bincount(least, minlength=len(maps))
        if ill.any():
            side = {"reason": "comparison-ill-defined"}
        elif (hits > 1).any():
            dup = least[int((hits[least] > 1).argmax())]
            side = {"reason": "not-injective", "element": maps[dup].tolist()}
        else:
            side = {"reason": "not-surjective", "element": maps[int(hits.argmin())].tolist()}
        return {"square": tuple(map(cat.ref, square)), "witness": side}

    return scan_batches(id, [(~hom_preserved(cat, A, squares, budget), witness)])
