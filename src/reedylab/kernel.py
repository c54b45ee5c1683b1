"""The numpy side of FinCategory's dense composition table.

The build and the certificate scans that run one block of morphism ids
at a time.  reedylab.reedy imports this module only inside the
functions that need it, so importing reedylab stays numpy-free.
"""

from __future__ import annotations

import bisect

import numpy as np

from .certificates import FAIL, PASS, Check
from .errors import ViolatedLaw


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
    order, with witness {"f": f, "g": g}, one (a, b) block at a time:
    bad(f, g, gf) takes the ids of Hom(a, b) as a column, those of the
    maps out of b as a row and the block of composite ids, and gives the
    block's failures as booleans."""
    count = 0
    for (a, b), block in cat.composition.items():
        fs, gs = cat.refs(a, b), cat.out_of(b)
        failed = bad(np.arange(fs.start, fs.stop)[:, None], np.arange(gs.start, gs.stop), block)
        if failed.any():
            k = int(failed.argmax())
            i, j = divmod(k, block.shape[1])
            witness = {"f": cat.ref(fs[i]), "g": cat.ref(gs[j])}
            return Check(id, FAIL, count + k + 1, witness)
        count += block.size
    return Check(id, PASS, count)


def orthogonal_lifting(cat, low: np.ndarray, high: np.ndarray) -> Check:
    """The scan over the commuting squares m u = v e, e lowering and m
    raising, in the order for e, for m, for u, for v (each in morphism
    order); a square fails unless exactly one diagonal w has w e = u and
    m w = v.  Computed one (a, b, c, d) block at a time, for e: a -> b,
    m: c -> d, u: a -> c, v: b -> d and w: b -> c."""
    n, table = len(cat.objects), cat.composition

    def members(of, a, b):
        """The positions in Hom(a, b) of the maps in a class."""
        ids = cat.refs(a, b)
        return np.flatnonzero(of[ids.start : ids.stop])

    def position(a, b, ids):
        """Ids of maps in Hom(a, b) as positions in it."""
        return ids - cat.refs(a, b).start

    count = 0
    for a in range(n):
        for b in range(n):
            es = members(low, a, b)
            if not len(es):
                continue
            # per (c, d) block: its maps m, shape and diagonal counts, and
            # where its columns start among the squares of each e
            blocks, starts, squares, bad = [], [0], [], []
            for c in range(n):
                for d in range(n):
                    ms = members(high, c, d)
                    if not len(ms):
                        continue
                    m_cols = cat.columns(c, d).start + ms
                    um = position(a, d, table[(a, c)][:, m_cols])
                    ev = position(a, d, table[(a, b)][es, cat.columns(b, d)])
                    ew = position(a, c, table[(a, b)][es, cat.columns(b, c)])
                    wm = position(b, d, table[(b, c)][:, m_cols])
                    shape = (len(es), len(ms), len(um), ev.shape[1])
                    commutes = (um.T[None, :, :, None] == ev[:, None, None, :]).ravel()
                    # diagonals[e, m, u, v] counts the w with (w e, m w) = (u, v)
                    pair = np.arange(len(es) * len(ms)).reshape(len(es), 1, len(ms))
                    key = (pair * shape[2] + ew[:, :, None]) * shape[3] + wm[None]
                    diagonals = np.bincount(key.ravel(), minlength=commutes.size)
                    blocks.append((c, d, ms, shape, diagonals.reshape(shape)))
                    starts.append(starts[-1] + commutes.size // len(es))
                    squares.append(commutes.reshape(len(es), -1))
                    bad.append((commutes & (diagonals != 1)).reshape(len(es), -1))
            if not blocks:
                continue
            # row i holds the squares of the i-th e in the order of the walk
            squares, bad = np.hstack(squares), np.hstack(bad)
            if not bad.any():
                count += int(squares.sum())
                continue
            k = int(bad.argmax())
            count += int(squares.ravel()[: k + 1].sum())
            i, col = divmod(k, bad.shape[1])
            at = bisect.bisect_right(starts, col) - 1
            c, d, ms, shape, diagonals = blocks[at]
            j, u, v = np.unravel_index(col - starts[at], shape[1:])
            witness = {
                "e": cat.ref(cat.refs(a, b)[es[i]]),
                "m": cat.ref(cat.refs(c, d)[ms[j]]),
                "u": cat.ref(cat.refs(a, c)[u]),
                "v": cat.ref(cat.refs(b, d)[v]),
                "diagonals": int(diagonals[i, j, u, v]),
            }
            return Check("orthogonal-lifting-unique", FAIL, count, witness)
    return Check("orthogonal-lifting-unique", PASS, count)
