"""The numpy side of FinCategory's dense composition table.

The build, the law checks and the certificate scans that run one block
of morphism ids at a time.  reedylab.reedy imports this module only
inside the functions that need it, so importing reedylab stays numpy-free.
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
    first, column = cat._first, cat._column
    dtype = np.min_scalar_type(max((O.size for O in objects), default=0))
    sizes = np.array([O.size for O in objects], np.int64)
    # the maps out of each object in morphism order, one row each, and the
    # index of each one's codomain
    out = [
        np.array([f.map for b in range(n) for f in homs[(a, b)]], dtype).reshape(-1, A.size)
        for a, A in enumerate(objects)
    ]
    cod = [np.repeat(np.arange(n), np.diff(row)) for row in first]
    for a, A in enumerate(objects):
        gens = list(A.irreducibles)
        # weights[k, c] = |c|^k; the codes of Hom(a, c) start at start[c]
        weights = sizes ** np.arange(len(gens))[:, None]
        start = np.cumsum([0, *(O.size ** len(gens) for O in objects)])

        def codes(values, cods):
            """values[..., k, j] is a map's value at gens[k]."""
            return (values * weights[:, cods]).sum(-2) + start[cods]

        lookup = np.full(start[-1], -1, np.int32)
        lookup[codes(out[a][:, gens].T, cod[a])] = np.arange(first[a][0], first[a][n])
        for b in range(n):
            F = out[a][column[a][b] : column[a][b + 1]]
            composite = out[b].T[F]  # [i, x, j]: the j-th map out of b at F[i, x]
            block = lookup[codes(composite[:, gens], cod[b])]
            if (block < 0).any():
                i, j = divmod(int(block.argmin()), block.shape[1])
                raise ViolatedLaw("composition-closure", ((a, b, i), cat.out_of(b)[j]))
            cat.composition[(a, b)] = block


def check_laws(cat) -> None:
    """FinCategory.validate: raises ViolatedLaw at the first failure of the
    walk over hom-sets (duplicates, then units, per hom-set) and then over
    composable triples (f, g, h), checking one block of ids at a time."""
    n, first, column, table = len(cat.objects), cat._first, cat._column, cat.composition
    for a in range(n):
        for b in range(n):
            fs = cat.homs[(a, b)]
            if len({f.map for f in fs}) != len(fs):
                raise ViolatedLaw("duplicate-morphisms", (a, b))
            ids = np.arange(first[a][b], first[a][b + 1])
            bad = (table[(a, a)][cat.identities[a][2], ids - first[a][0]] != ids) | (
                table[(a, b)][:, column[b][b] + cat.identities[b][2]] != ids
            )
            if bad.any():
                raise ViolatedLaw("unit", cat._by_id[ids[bad.argmax()]])
    for a in range(n):
        for b in range(n):
            block = table[(a, b)]
            first_bad = None
            for c in range(n):
                # f in Hom(a, b), g in Hom(b, c), h out of c
                gf = block[:, column[b][c] : column[b][c + 1]]
                bad = table[(a, c)][gf - first[a][c]] != block[:, table[(b, c)] - first[b][0]]
                if bad.any():
                    i, j, k = np.unravel_index(bad.argmax(), bad.shape)
                    key = (int(i), c, int(j), int(k))
                    first_bad = key if first_bad is None else min(first_bad, key)
            if first_bad is not None:
                i, c, j, k = first_bad
                raise ViolatedLaw("associativity", ((a, b, i), (b, c, j), cat.out_of(c)[k]))


def class_array(cat, members: dict) -> np.ndarray:
    """A morphism classification as a boolean array indexed by id."""
    return np.fromiter(map(members.__getitem__, cat.morphisms()), bool)


def scan_composable(id: str, cat, bad) -> Check:
    """scan(id, ...) over the composable pairs (f, g) in the table's walk
    order, with witness {"f": f, "g": g}, one (a, b) block at a time:
    bad(f, g, gf) takes the ids of Hom(a, b) as a column, those of the
    maps out of b as a row and the block of composite ids, and gives the
    block's failures as booleans."""
    first, count = cat._first, 0
    for (a, b), block in cat.composition.items():
        f = np.arange(first[a][b], first[a][b + 1])[:, None]
        g = np.arange(first[b][0], first[b][-1])
        failed = bad(f, g, block)
        if failed.any():
            k = int(failed.argmax())
            i, j = divmod(k, block.shape[1])
            witness = {"f": cat._by_id[f[i, 0]], "g": cat._by_id[g[j]]}
            return Check(id, FAIL, count + k + 1, witness)
        count += block.size
    return Check(id, PASS, count)


def orthogonal_lifting(cat, low: np.ndarray, high: np.ndarray) -> Check:
    """The scan over the commuting squares m u = v e, e lowering and m
    raising, in the order for e, for m, for u, for v (each in morphism
    order); a square fails unless exactly one diagonal w has w e = u and
    m w = v.  Computed one (a, b, c, d) block at a time, for e: a -> b,
    m: c -> d, u: a -> c, v: b -> d and w: b -> c."""
    n, first, column, table = len(cat.objects), cat._first, cat._column, cat.composition

    def members(of, a, b):
        """The positions in Hom(a, b) of the maps in a class."""
        return np.flatnonzero(of[first[a][b] : first[a][b + 1]])

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
                    # composites as positions in their hom-sets
                    um = table[(a, c)][:, column[c][d] + ms] - first[a][d]
                    ev = table[(a, b)][es, column[b][d] : column[b][d + 1]] - first[a][d]
                    ew = table[(a, b)][es, column[b][c] : column[b][c + 1]] - first[a][c]
                    wm = table[(b, c)][:, column[c][d] + ms] - first[b][d]
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
            by_id = cat._by_id
            witness = {
                "e": by_id[first[a][b] + es[i]],
                "m": by_id[first[c][d] + ms[j]],
                "u": by_id[first[a][c] + u],
                "v": by_id[first[b][d] + v],
                "diagonals": int(diagonals[i, j, u, v]),
            }
            return Check("orthogonal-lifting-unique", FAIL, count, witness)
    return Check("orthogonal-lifting-unique", PASS, count)
