"""Executable obstruction certificates.

Two negative results are mechanized: the endomap (x,y,z) -> (xvy, yvz,
zvx) of the 3-cube admits no (lowering, raising) factorization compatible
with any Reedy structure on the distributive-lattice completion, and the
crown-poset winding number rules out stabilization of a principal-sieve
chain over the Dedekind cubes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter

from .certificates import Check, scan, verdict
from .cubes import cube, degeneracy, face, monotone_cube_search
from .errors import InvalidInput, SizeBudget, ViolatedLaw
from .semilattice import (
    DEFAULT_CANDIDATE_BUDGET,
    FiniteSemilattice,
    MonotoneAssignments,
    SLatMorphism,
    are_isomorphic,
    chain,
    diamond,
    enumerate_homs,
    image_factorize,
    is_distributive_lattice,
    sub_semilattice,
)

# ---------------------------------------------------------------------------
# the 3-cube endomap u
# ---------------------------------------------------------------------------


def map_u() -> SLatMorphism:
    """(x,y,z) -> (x v y, y v z, z v x) on the 3-cube."""
    C = cube(3)

    def u(v: int) -> int:
        x, y, z = (v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1
        return (x | y) | ((y | z) << 1) | ((z | x) << 2)

    return SLatMorphism(C, C, tuple(u(v) for v in range(8)))


def map_t() -> SLatMorphism:
    """(x,y,z) -> x v 2y v 2z from the 3-cube onto the 3-chain."""
    C = cube(3)

    def t(v: int) -> int:
        x, y, z = (v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1
        return max(x, 2 * y, 2 * z)

    return SLatMorphism(C, chain(3), tuple(t(v) for v in range(8)))


def verify_u_image() -> list[Check]:
    """The image of u is the five-element diamond, hence non-distributive."""
    surj, mono = image_factorize(map_u())
    img = surj.cod
    return [
        verdict("image-has-five-elements", img.size == 5, 8, {"size": img.size}),
        verdict("image-is-the-diamond", are_isomorphic(img, diamond(3)), 1),
        verdict(
            "image-not-distributive",
            not is_distributive_lattice(img),
            img.size**3,
            "unexpectedly distributive",
        ),
    ]


def join_closed_subsets_containing(A: FiniteSemilattice, seed: set[int]):
    """All join-closed subsets of A containing the seed."""
    n = A.size
    rest = [x for x in range(n) if x not in seed]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            S = set(seed) | set(extra)
            if all(A.join[x][y] in S for x in S for y in S):
                out.append(tuple(sorted(S)))
    return out


def certify_no_reedy_factorization_of_u(
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> list[Check]:
    """Three exhaustive sub-checks blocking a Reedy factorization of u
    inside the distributive-lattice completion of the cube category.

    (1) the cube itself is the only distributive join-closed subset of
    the 3-cube containing the image of u; (2) consequently every
    factorization of u as (any map, injection) through a distributive
    middle object has the full cube in the middle, forcing the lowering
    part to be u itself up to isomorphism; (3) u cannot be a lowering
    map, because a commuting square against the raising face [1] -> [2]
    admits no diagonal.
    """
    checks = []
    u = map_u()
    C3 = u.dom
    img = set(u.image())

    subsets = join_closed_subsets_containing(C3, img)
    distributive = []
    for S in subsets:
        sub, _ = sub_semilattice(C3, S)
        if is_distributive_lattice(sub):
            distributive.append(S)
    ok = distributive == [tuple(range(8))]
    checks.append(
        verdict(
            "only-distributive-superset-is-the-cube",
            ok,
            len(subsets),
            {"subsets": distributive},
        )
    )

    # factorizations u = mono . e through distributive middles; many
    # subsets give one join table D, and each Hom(D, C3) is enumerated once
    middles = []  # the size of D, one per factorization found
    count = 0
    homs_into_cube: dict[FiniteSemilattice, list[SLatMorphism]] = {}
    for S in join_closed_subsets_containing(C3, set()):
        if not S:
            continue
        D, _ = sub_semilattice(C3, S)
        if not is_distributive_lattice(D):
            continue
        if D not in homs_into_cube:
            homs_into_cube[D] = enumerate_homs(D, C3, budget)
        for m in homs_into_cube[D]:
            if not m.is_injective:
                continue
            count += 1
            m_image = {m.map[i]: i for i in range(D.size)}
            if not img <= set(m_image):
                continue
            # e then m is u: e is defined by m(e(v)) = u(v), and the
            # constructor checks that it preserves joins
            SLatMorphism(C3, D, tuple(m_image[u.map[v]] for v in range(8)))
            middles.append(D.size)
    checks.append(
        verdict(
            "all-injective-factorizations-pass-through-the-cube",
            bool(middles) and all(size == 8 for size in middles),
            count,
            {"middles": sorted(set(middles))},
        )
    )

    t = map_t()
    s1 = degeneracy(1, 1)  # [2] -> [1]
    d1 = face(1, 2)  # [1] -> [2]
    top = t.then(s1)
    square_ok = u.then(t).map == top.then(d1).map
    checks.append(
        verdict("t-square-commutes", square_ok, 8, {"lhs": list(u.then(t).map)})
    )
    to_interval = enumerate_homs(C3, d1.dom, budget)
    diagonals = [j for j in to_interval if j.then(d1).map == t.map]
    checks.append(
        verdict(
            "t-square-has-no-diagonal",
            not diagonals,
            len(to_interval),
            diagonals and {"diagonal": list(diagonals[0].map)},
        )
    )

    uu = u.then(u)
    surj, _ = image_factorize(uu)
    ok = surj.cod.size == 2
    checks.append(
        verdict(
            "u-squared-factors-through-the-interval",
            ok,
            8,
            {"image-size": surj.cod.size},
        )
    )
    return checks


# ---------------------------------------------------------------------------
# crown posets and winding numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrownPoset:
    """2n elements in a cyclic zigzag: even i sits below i-1 and i+1."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InvalidInput(f"a crown needs n >= 3, got {self.n}")

    @property
    def size(self) -> int:
        return 2 * self.n

    def leq(self, i: int, j: int) -> bool:
        if i == j:
            return True
        if i % 2 == 0:
            return j % 2 == 1 and (j - i) % self.size in (1, self.size - 1)
        return False

    def upper_covers(self, i: int) -> tuple[int, int]:
        if i % 2:
            raise InvalidInput(f"only even crown vertices have upper covers, got {i}")
        return ((i - 1) % self.size, (i + 1) % self.size)


@dataclass(frozen=True)
class CrownMap:
    """A monotone map between crowns with a chosen integer lift.

    The lift lives on the window 0..2m of the integer fence and satisfies
    projection-compatibility; it is unique once its base point is fixed,
    and unique modulo 2n overall.
    """

    m: int
    n: int
    values: tuple[int, ...]
    lift: tuple[int, ...]


def _lift_values(m: int, n: int, values, base: int) -> tuple[int, ...]:
    """Greedy fence lift on the window 0..2m from the given base point.

    The next lift value is the unique integer in the right residue class
    within fence distance one; monotone maps always admit exactly one.
    """
    size_n = 2 * n
    # the step to the one integer within distance one of prev in the
    # residue class of the target, by (target - prev) mod 2n
    steps = {0: 0, 1: 1, size_n - 1: -1}
    lift = [base]
    prev = base
    for i in range(1, 2 * m + 1):
        step = steps.get((values[i % (2 * m)] - prev) % size_n)
        if step is None:
            raise ViolatedLaw("forced-lift-step", (i,))
        prev += step
        lift.append(prev)
    return tuple(lift)


def crown_map(m: int, n: int, values) -> CrownMap:
    """Validate monotonicity and compute the lift (base point in [0, 2n)).
    Raises ViolatedLaw 'length', 'range' or 'monotonicity' (at a cover
    i <= j that the values reverse); 'forced-lift-step' or
    'base-point-independence' if the lift of a monotone map is not what
    the fence guarantees."""
    values = tuple(values)
    Cm, Cn = CrownPoset(m), CrownPoset(n)
    if len(values) != Cm.size:
        raise ViolatedLaw("length", (len(values), Cm.size))
    for i, v in enumerate(values):
        if not 0 <= v < Cn.size:
            raise ViolatedLaw("range", (i,))
    for i in range(0, Cm.size, 2):
        for j in Cm.upper_covers(i):
            if not Cn.leq(values[i], values[j]):
                raise ViolatedLaw("monotonicity", (i, j))
    lift = _lift_values(m, n, values, values[0] % (2 * n))
    # base-point independence: shifting the base shifts the whole lift
    other = _lift_values(m, n, values, values[0] % (2 * n) + 2 * n)
    if any(b - a != 2 * n for a, b in zip(lift, other)):
        raise ViolatedLaw("base-point-independence", values)
    # the window is closed: lift[i] = values[i mod 2m] mod 2n, so both ends are values[0] mod 2n
    return CrownMap(m, n, values, lift)


def winding(f: CrownMap) -> int:
    delta = f.lift[-1] - f.lift[0]
    if delta % (2 * f.n):
        raise ViolatedLaw("closed-window", f.values)
    return delta // (2 * f.n)


def identity_crown(n: int) -> CrownMap:
    return crown_map(n, n, tuple(range(2 * n)))


def fold_map(m: int, n: int) -> CrownMap:
    """The reduction C_m -> C_n induced by the identity on the fence;
    needs n to divide m, and has winding m/n."""
    if m % n:
        raise InvalidInput(f"a fold C_{m} -> C_{n} needs n to divide m")
    return crown_map(m, n, tuple(i % (2 * n) for i in range(2 * m)))


def rotation(n: int, k: int) -> CrownMap:
    """Rotation by an even offset k."""
    if k % 2:
        raise InvalidInput(f"a crown rotation needs an even offset, got {k}")
    return crown_map(n, n, tuple((i + k) % (2 * n) for i in range(2 * n)))


def reflection(n: int, axis: int = 0) -> CrownMap:
    """Reflection about an even vertex."""
    if axis % 2:
        raise InvalidInput(f"a crown reflection needs an even axis, got {axis}")
    return crown_map(n, n, tuple((axis - i) % (2 * n) for i in range(2 * n)))


def compose_crown(f: CrownMap, g: CrownMap) -> CrownMap:
    """g after f."""
    if f.n != g.m:
        raise InvalidInput(f"cannot compose C_{f.m} -> C_{f.n} with C_{g.m} -> C_{g.n}")
    return crown_map(f.m, g.n, tuple(g.values[v] for v in f.values))


def enumerate_crown_maps(m: int, n: int) -> list[CrownMap]:
    """All monotone maps C_m -> C_n, lexicographic on values, each lifted
    from the base point values[0]; m and n are at most 6.

    An even rotation of C_n is an automorphism: it maps monotone maps to
    monotone maps and adds its offset to the lift.  Each orbit of the n
    rotations holds exactly one map with values[0] in {0, 1}, so the search
    finds and lifts only those, and the rest are their rotations."""
    if m > 6 or n > 6:
        raise SizeBudget("crown enumeration capped at 6")
    Cm, Cn = CrownPoset(m), CrownPoset(n)
    size = Cn.size
    leq = [[Cn.leq(a, b) for b in range(size)] for a in range(size)]
    below = [[j for j in range(k) if Cm.leq(j, k)] for k in range(Cm.size)]
    above = [[j for j in range(k) if Cm.leq(k, j)] for k in range(Cm.size)]
    search = MonotoneAssignments(leq, below, above, [range(2)] + [range(size)] * (Cm.size - 1))
    rotations = [(k, [(v + k) % size for v in range(size)]) for k in range(2, size, 2)]
    maps = []
    for vals in search:
        lift = _lift_values(m, n, vals, vals[0])
        maps.append(CrownMap(m, n, vals, lift))
        for k, rotate in rotations:
            # tuples of lists, not of generators, are allocated at their final size
            values = tuple([rotate[v] for v in vals])
            maps.append(CrownMap(m, n, values, tuple([x + k for x in lift])))
    maps.sort(key=attrgetter("values"))
    return maps


def certify_wind_properties() -> list[Check]:
    """Short crowns cannot wind around longer ones; winding is
    multiplicative; the cube extension is a semifunctor."""

    pool = {
        (m, n): enumerate_crown_maps(m, n)
        for (m, n) in [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (4, 5), (3, 6)]
    }

    def short_to_long():
        for (a, b) in [(3, 4), (3, 5), (4, 5), (3, 6)]:
            for f in pool[(a, b)]:
                yield {"m": a, "n": b, "values": list(f.values)} if winding(f) else None

    def multiplicative():
        # The composite g.f winds step(g(f(i)), g(f(i+1))) summed over i,
        # divided by 2c. A stay edge of f adds 0, an edge k -> k+1 adds
        # g's step s_g(k) on that edge and k+1 -> k adds -s_g(k), so the
        # sum is the net flow of f over each edge of C_b weighted by s_g,
        # plus g's steps on f's other edges, which only a non-monotone f
        # has. Maps f with the same flow, other edges and winding share
        # one sum per g, and every pair is still charged.
        #
        # An even rotation of C_c adds one offset to every value of g, so
        # it leaves g's steps, and with them every sum, as they are, and
        # g's winding is its lift span over 2c. So g's outcome depends
        # only on its values up to rotation and on its span. Each such
        # class is decided at its first member in pool order, which is
        # where the walk over every g would first fail or raise too, and
        # every g still adds len(fs).
        sizes = [3, 4]
        firsts = {}  # (b, c) -> the pool index of the first g of each class
        for b in sizes:
            for c in sizes:
                size_c = 2 * c
                seen = set()
                firsts[(b, c)] = []
                for i, g in enumerate(pool[(b, c)]):
                    k = g.values[0] & -2  # the even offset taking values[0] into {0, 1}
                    key = (g.lift[-1] - g.lift[0], tuple([(v - k) % size_c for v in g.values]))
                    if key not in seen:
                        seen.add(key)
                        firsts[(b, c)].append(i)
        n_cases = 0
        for a in sizes:
            for b in sizes:
                fs = pool[(a, b)]
                size_b = 2 * b
                groups: dict[tuple, int] = {}  # (flow, other, winding) -> first f
                used: set[tuple[int, int]] = set()  # edges some f moves along
                for i, f in enumerate(fs):
                    flow = [0] * size_b
                    other = []
                    for x, y in zip(f.values, f.values[1:] + f.values[:1]):
                        d = (y - x) % size_b
                        if d == 1:
                            flow[x] += 1
                        elif d == size_b - 1:
                            flow[y] -= 1
                        elif d:
                            other.append((x, y))
                        if d:
                            used.add((x, y))
                    groups.setdefault((tuple(flow), tuple(sorted(other)), winding(f)), i)
                for c in sizes:
                    size_c = 2 * c
                    step = {(x, (x + d) % size_c): d for x in range(size_c) for d in (-1, 0, 1)}
                    gs = pool[(b, c)]
                    for i in firsts[(b, c)]:
                        g = gs[i]
                        gv = g.values
                        if any((gv[x], gv[y]) not in step for x, y in used):
                            raise ViolatedLaw("forced-lift-step", tuple(gv))
                        # an edge that no f crosses has flow 0 in every group
                        s = [step.get((gv[k], gv[(k + 1) % size_b]), 0) for k in range(size_b)]
                        totals = [
                            sum(w * t for w, t in zip(flow, s))
                            + sum(step[gv[x], gv[y]] for x, y in other)
                            for flow, other, _ in groups
                        ]
                        # every total is 0 mod 2c: forced steps telescope around f's cycle
                        wg = winding(g)
                        bad = [
                            first
                            for ((_, _, wf), first), tot in zip(groups.items(), totals)
                            if tot // size_c != wg * wf
                        ]
                        if bad:
                            return False, n_cases + (i + 1) * len(fs), {
                                "f": list(fs[bad[0]].values),
                                "g": list(gv),
                            }
                    n_cases += len(gs) * len(fs)
        return True, n_cases, None

    def symmetry_winds():
        for n0 in (3, 4):
            maps = {f.values for f in pool[(n0, n0)]}
            for k in range(0, 2 * n0, 2):
                r = rotation(n0, k)
                ok = winding(r) == 1 and r.values in maps
                yield None if ok else {"rotation": k}
            for a in range(0, 2 * n0, 2):
                r = reflection(n0, a)
                ok = winding(r) == -1 and r.values in maps
                yield None if ok else {"reflection": a}

    def fold_winds():
        f1 = fold_map(6, 3)
        f2 = fold_map(12, 6)
        composite = compose_crown(f2, f1)
        ok = (
            winding(f1) == 2
            and winding(fold_map(8, 4)) == 2
            and winding(composite) == 4
        )
        return ok, 3, {
            "w(fold 6->3)": winding(f1),
            "w(fold 12->3)": winding(composite),
        }

    def semifunctor():
        samples = [
            (fold_map(12, 6), fold_map(6, 3)),
            (fold_map(6, 3), identity_crown(3)),
            (rotation(3, 2), reflection(3, 0)),
            (reflection(4, 2), rotation(4, 2)),
            (fold_map(8, 4), reflection(4, 0)),
        ]
        for f, g in samples:
            lhs = crown_extension(compose_crown(f, g))
            rhs = compose_extensions(crown_extension(f), crown_extension(g))
            ok = lhs.values == rhs.values
            yield None if ok else {"f": list(f.values), "g": list(g.values)}
        for n0 in (3, 4):
            bar_id = crown_extension(identity_crown(n0))
            fixed = {v for v in range(1 << n0) if bar_id.values[v] == v}
            if tuple(bar_id.values[v] for v in bar_id.values) != bar_id.values:
                reason = "not idempotent"
            elif fixed != set(crown_embedding(n0)) | {0, (1 << n0) - 1}:
                reason = "fixed points"
            elif (bar_id.values == tuple(range(1 << n0))) != (n0 == 3):
                reason = "identity iff n=3"
            else:
                reason = None
            yield None if reason is None else {"n": n0, "reason": reason}

    return [
        scan("short-into-long-winds-zero", short_to_long()),
        verdict("winding-multiplicative", *multiplicative()),
        scan("rotations-wind-one-reflections-minus-one", symmetry_winds()),
        verdict("fold-windings", *fold_winds()),
        scan("extension-semifunctor", semifunctor()),
    ]


# ---------------------------------------------------------------------------
# crown embeddings into Dedekind cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneCubeMap:
    """A monotone (not necessarily join-preserving) map of cube posets.
    The constructor raises ViolatedLaw 'length' or 'monotonicity';
    compose_extensions, whose composites are monotone already, skips it
    through `_trusted`."""

    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != 1 << self.m:
            raise ViolatedLaw("length", (len(self.values), 1 << self.m))
        for v in range(1 << self.m):
            for i in range(self.m):
                w = v | (1 << i)
                if w != v:
                    a, b = self.values[v], self.values[w]
                    if a | b != b:
                        raise ViolatedLaw("monotonicity", (v, w))

    @classmethod
    def _trusted(cls, m: int, n: int, values: tuple[int, ...]) -> "MonotoneCubeMap":
        """A map whose values are already known to be monotone."""
        f = object.__new__(cls)
        object.__setattr__(f, "m", m)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "values", values)
        return f


def crown_embedding(n: int) -> tuple[int, ...]:
    """The embedding of the 2n-crown into the n-cube: even vertex 2k maps
    to the k-th unit, odd vertex 2k+1 to the join of units k and k+1."""
    if n < 3:
        raise InvalidInput(f"a crown needs n >= 3, got {n}")
    out = []
    for i in range(2 * n):
        k = i // 2
        if i % 2 == 0:
            out.append(1 << k)
        else:
            out.append((1 << k) | (1 << ((k + 1) % n)))
    # injective for n >= 3: the n singletons differ, so do the n pairs {k, k+1 mod n}
    return tuple(out)


def crown_extension(f: CrownMap) -> MonotoneCubeMap:
    """Extend a crown map to the cubes: crown points map through the
    embeddings, bottom to bottom, everything else to top."""
    m, n = f.m, f.n
    cm, cn = crown_embedding(m), crown_embedding(n)
    pos = {v: i for i, v in enumerate(cm)}
    top = (1 << n) - 1
    values = []
    for v in range(1 << m):
        if v in pos:
            values.append(cn[f.values[pos[v]]])
        elif v == 0:
            values.append(0)
        else:
            values.append(top)
    return MonotoneCubeMap(m, n, tuple(values))


def compose_extensions(f: MonotoneCubeMap, g: MonotoneCubeMap) -> MonotoneCubeMap:
    if f.n != g.m:
        raise InvalidInput(f"cannot compose [1]^{f.m} -> [1]^{f.n} with [1]^{g.m} -> [1]^{g.n}")
    # a composite of monotone maps is monotone
    return MonotoneCubeMap._trusted(f.m, g.n, tuple(g.values[v] for v in f.values))


def verify_extension_pullback(f: CrownMap, tag: str) -> list[Check]:
    """The extension square is a pullback: the only cube points mapping
    into the embedded target crown are the embedded source crown points.
    The check ids end in -tag."""
    m, n = f.m, f.n
    cm, cn = crown_embedding(m), crown_embedding(n)
    ext = crown_extension(f)

    commute = all(ext.values[cm[i]] == cn[f.values[i]] for i in range(2 * m))
    cn_set = set(cn)
    cm_set = set(cm)
    bad = [
        v
        for v in range(1 << m)
        if ext.values[v] in cn_set and v not in cm_set
    ]
    return [
        verdict(f"square-commutes-{tag}", commute, 2 * m),
        verdict(f"pullback-exhaustive-{tag}", not bad, 1 << m, bad and {"point": bad[0]}),
    ]


# ---------------------------------------------------------------------------
# sieve chain non-stabilization
# ---------------------------------------------------------------------------


def certify_sieve_chain_nonstabilization() -> list[Check]:
    """The principal sieves generated by the extended folds strictly
    descend (at n = 3): stage-wise composite identities give the
    inclusions, and an exhaustive fibre-pruned search plus the winding
    obstruction rule out a map splitting the first inclusion.
    """
    n = 3
    f1 = identity_crown(n)
    fold_2n_n = fold_map(2 * n, n)
    fold_4n_2n = fold_map(4 * n, 2 * n)
    f2 = fold_2n_n
    f4 = compose_crown(fold_4n_2n, fold_2n_n)

    def stage(cid, a_name, composite, left, right, dim):
        lhs = crown_extension(composite)
        rhs = compose_extensions(crown_extension(left), crown_extension(right))
        return verdict(cid, lhs.values == rhs.values, 1 << dim, {"stage": a_name})

    checks = [
        stage("chain-inclusion-stage-1", "f2 = f1 . fold", f2, fold_2n_n, f1, 2 * n),
        stage("chain-inclusion-stage-2", "f4 = fold . f2", f4, fold_4n_2n, f2, 4 * n),
    ]

    # no monotone g: [1]^n -> [1]^2n with ext(f2) o g = ext(f1)
    ext_f2 = crown_extension(f2)
    ext_f1 = crown_extension(f1)
    fibres = [
        [w for w in range(1 << (2 * n)) if ext_f2.values[w] == target]
        for target in ext_f1.values
    ]
    search = monotone_cube_search(n, 2 * n, fibres)
    found = next(iter(search), None)
    examined = search.nodes

    maps = enumerate_crown_maps(n, 2 * n)
    bad = [f for f in maps if winding(f) != 0]
    return checks + [
        verdict(
            "no-section-of-extended-fold",
            found is None,
            examined,
            found and {"g": list(found)},
        ),
        verdict(
            "all-crown-maps-into-double-wind-zero",
            not bad,
            len(maps),
            bad and {"values": list(bad[0].values)},
        ),
    ]
