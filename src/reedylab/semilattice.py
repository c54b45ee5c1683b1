"""Finite join-semilattices and their morphisms.

Elements are dense integer indices 0..size-1, and the join table is the
whole structure: equality and hashing are the table's.  Meets are never
stored: they are derived as joins of common lower bounds, which is valid
exactly when a bottom element exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CandidateSpaceExceeded,
    EmptyCarrier,
    InvalidInput,
    SizeBudget,
    ViolatedLaw,
)

JoinTable = tuple[tuple[int, ...], ...]

DEFAULT_CANDIDATE_BUDGET = 10**7
# the cap on the size of a free semilattice, 2^k - 1 on k generators
FREE_SIZE_CAP = 2**12
# the most functions all_functions_homs filters
BRUTE_FORCE_CAP = 10**6


@dataclass(frozen=True)
class FiniteSemilattice:
    """A finite set with an associative, commutative, idempotent join."""

    join: JoinTable

    @property
    def size(self) -> int:
        return len(self.join)

    def join_all(self, xs) -> int:
        """Join of a nonempty iterable of elements."""
        it = iter(xs)
        acc = next(it)
        for x in it:
            acc = self.join[acc][x]
        return acc

    def leq(self, x: int, y: int) -> bool:
        return self.join[x][y] == y

    @cached_property
    def order(self) -> tuple[tuple[bool, ...], ...]:
        """The order matrix: order[x][y] is leq(x, y)."""
        return tuple(tuple(row[y] == y for y in range(self.size)) for row in self.join)

    @cached_property
    def top(self) -> int:
        return self.join_all(range(self.size))

    @cached_property
    def bottom(self) -> int | None:
        """The minimum element, or None when there is none."""
        for x in range(self.size):
            if all(self.leq(x, y) for y in range(self.size)):
                return x
        return None

    def up_set(self, x: int) -> tuple[int, ...]:
        return tuple(y for y in range(self.size) if self.leq(x, y))

    def down_set(self, x: int) -> tuple[int, ...]:
        return tuple(y for y in range(self.size) if self.leq(y, x))

    def meet_of(self, x: int, y: int) -> int:
        """Meet as the join of all common lower bounds; raises InvalidInput
        without a bottom."""
        if self.bottom is None:
            raise InvalidInput("meets are defined only with a bottom")
        lows = [z for z in range(self.size) if self.leq(z, x) and self.leq(z, y)]
        return self.join_all(lows)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges (x, y) with y covering x."""
        edges = []
        for x in range((self.size)):
            for y in range(self.size):
                if x == y or not self.leq(x, y):
                    continue
                if any(
                    z != x and z != y and self.leq(x, z) and self.leq(z, y)
                    for z in range(self.size)
                ):
                    continue
                edges.append((x, y))
        return tuple(edges)

    @cached_property
    def irreducibles(self) -> tuple[int, ...]:
        """Join-irreducible elements; every element is a join of these.

        x is irreducible when it is not the join of the elements strictly
        below it (minimal elements count as irreducible).  The set generates:
        x = join of the irreducibles below x, for every x.
        """
        out = []
        for x in range(self.size):
            below = [y for y in range(self.size) if y != x and self.leq(y, x)]
            if not below or self.join_all(below) != x:
                out.append(x)
        return tuple(out)


def validate_semilattice(table) -> FiniteSemilattice:
    """Check the semilattice laws and return the validated value.

    Raises ViolatedLaw with the offending witness, or EmptyCarrier for an
    empty table.  A top element always exists afterwards (join of all);
    ViolatedLaw 'top' certifies it.
    """
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise EmptyCarrier("semilattices must be inhabited")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ViolatedLaw("square", (i,))
        for j, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < n):
                raise ViolatedLaw("range", (i, j))
    for x in range(n):
        if rows[x][x] != x:
            raise ViolatedLaw("idempotence", (x,))
        for y in range(n):
            if rows[x][y] != rows[y][x]:
                raise ViolatedLaw("commutativity", (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                    raise ViolatedLaw("associativity", (x, y, z))
    A = FiniteSemilattice(rows)
    for x in range(n):
        if not A.leq(x, A.top):
            raise ViolatedLaw("top", (x,))
    return A


@dataclass(frozen=True)
class SLatMorphism:
    """A join-preserving function between finite semilattices, validated
    once, where it enters the system: the public constructor raises
    ViolatedLaw 'length', 'range' or 'join-preservation'; hom enumeration,
    which tests its own maps, `then`, `inverse` and `identity` skip it
    through `_trusted`."""

    dom: FiniteSemilattice
    cod: FiniteSemilattice
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.dom.size:
            raise ViolatedLaw("length", (len(self.map),))
        for x, v in enumerate(self.map):
            if not 0 <= v < self.cod.size:
                raise ViolatedLaw("range", (x,))
        for x in range(self.dom.size):
            for y in range(x, self.dom.size):
                j = self.map[self.dom.join[x][y]]
                if j != self.cod.join[self.map[x]][self.map[y]]:
                    raise ViolatedLaw("join-preservation", (x, y))

    @classmethod
    def _trusted(cls, dom, cod, map: tuple[int, ...]) -> "SLatMorphism":
        """A morphism whose map tuple is already known to preserve joins."""
        f = object.__new__(cls)
        # attribute by attribute, as __init__ does, keeps the instance's
        # dict as small as a constructed one (__dict__.update doubles it)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "map", map)
        return f

    def __call__(self, x: int) -> int:
        return self.map[x]

    def then(self, other: "SLatMorphism") -> "SLatMorphism":
        """other composed after self (self first).  Raises ViolatedLaw
        'composability' unless self's codomain is other's domain."""
        if self.cod != other.dom:
            raise ViolatedLaw("composability", (self.cod.size, other.dom.size))
        return SLatMorphism._trusted(self.dom, other.cod, tuple(other.map[v] for v in self.map))

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.size

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.size

    @property
    def is_iso(self) -> bool:
        return self.is_surjective and self.is_injective

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.map)))

    def inverse(self) -> "SLatMorphism":
        """Raises ViolatedLaw 'invertibility' unless self is an iso."""
        if not self.is_iso:
            raise ViolatedLaw("invertibility", self.map)
        inv = [0] * self.cod.size
        for x, v in enumerate(self.map):
            inv[v] = x
        return SLatMorphism._trusted(self.cod, self.dom, tuple(inv))

    @staticmethod
    def identity(A: FiniteSemilattice) -> "SLatMorphism":
        return SLatMorphism._trusted(A, A, tuple(range(A.size)))


@dataclass(frozen=True)
class FinPoset:
    """A finite poset given by its order matrix."""

    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.leq)

    def __post_init__(self):
        """Raise ViolatedLaw 'square', 'reflexivity', 'antisymmetry' or
        'transitivity' at the first failure."""
        n = self.size
        for x in range(n):
            if len(self.leq[x]) != n:
                raise ViolatedLaw("square", (x,))
        for x in range(n):
            if not self.leq[x][x]:
                raise ViolatedLaw("reflexivity", (x,))
            for y in range(n):
                if x != y and self.leq[x][y] and self.leq[y][x]:
                    raise ViolatedLaw("antisymmetry", (x, y))
                for z in range(n):
                    if self.leq[x][y] and self.leq[y][z] and not self.leq[x][z]:
                        raise ViolatedLaw("transitivity", (x, y, z))

    @staticmethod
    def chain(n: int) -> "FinPoset":
        return FinPoset(tuple(tuple(i <= j for j in range(n)) for i in range(n)))

    @staticmethod
    def of_semilattice(A: FiniteSemilattice) -> "FinPoset":
        return FinPoset(A.order)


class MonotoneAssignments:
    """The one backtracking search behind every enumeration of maps, and
    the one place a search budget is charged.

    Iterating yields, as tuples in lexicographic candidate order, every
    assignment of vals[k] from candidates[k] such that vals[j] <= vals[k]
    for each j in below[k] and vals[k] <= vals[j] for each j in above[k],
    read from the order matrix leq; every such j is below k, since values
    are assigned in index order.  A given tests[k] prunes, once vals[k] is
    set, the assignments on which it is false: hom enumeration validates
    its morphisms there.  `nodes` counts the candidates tried, those that
    pass the order and reach tests[k], over every iteration so far; the
    search raises CandidateSpaceExceeded once they pass the budget.
    """

    def __init__(self, leq, below, above, candidates, tests=None, budget=math.inf):
        self.leq = leq
        self.below = below
        self.above = above
        self.candidates = candidates
        self.tests = tests or [None] * len(candidates)
        self.budget = budget
        self.nodes = 0

    def __iter__(self):
        leq, below, above, candidates = self.leq, self.below, self.above, self.candidates
        tests, budget = self.tests, self.budget
        n = len(candidates)
        vals = [0] * n
        # levels[k] iterates over the candidates left for vals[k]; a loop
        # rather than a recursion, so that no closure refers to itself and
        # the search's state is freed as soon as it is dropped
        levels = []
        while True:
            k = len(levels)
            if k == n:
                yield tuple(vals)
            else:
                ok = candidates[k]
                for j in below[k]:
                    row = leq[vals[j]]
                    ok = [v for v in ok if row[v]]
                for j in above[k]:
                    u = vals[j]
                    ok = [v for v in ok if leq[v][u]]
                self.nodes += len(ok)
                if self.nodes > budget:
                    raise CandidateSpaceExceeded(f"{self.nodes} candidates exceed budget {budget}")
                levels.append(iter(ok))
            # the next assignment: the deepest level with a candidate left
            # that passes its test
            while levels:
                k = len(levels) - 1
                test = tests[k]
                for v in levels[k]:
                    vals[k] = v
                    if test is None or test(vals):
                        break
                else:
                    levels.pop()
                    continue
                break
            else:
                return


def monotone_maps(P: FinPoset, Q: FinPoset, budget: int = DEFAULT_CANDIDATE_BUDGET):
    """All monotone maps P -> Q, lexicographic."""
    n, m = P.size, Q.size
    below = [[j for j in range(k) if P.leq[j][k]] for k in range(n)]
    above = [[j for j in range(k) if P.leq[k][j]] for k in range(n)]
    return list(MonotoneAssignments(Q.leq, below, above, [range(m)] * n, budget=budget))


# ---------------------------------------------------------------------------
# standard semilattices
# ---------------------------------------------------------------------------


def chain(n: int) -> FiniteSemilattice:
    """The n-element chain 0 < 1 < ... < n-1 with join = max."""
    if n < 1:
        raise InvalidInput(f"a chain needs n >= 1, got {n}")
    table = [[max(i, j) for j in range(n)] for i in range(n)]
    return validate_semilattice(table)


def interval() -> FiniteSemilattice:
    return chain(2)


def atoms_with_top(k: int) -> FiniteSemilattice:
    """k pairwise-incomparable atoms whose pairwise joins are a common top.

    k=2 is the free semilattice on two generators; k=3 is the four-element
    tripod whose bottom extension is the diamond.
    """
    if k < 2:
        raise InvalidInput(f"atoms with a top need k >= 2, got {k}")
    n = k + 1
    top = k
    table = [[top] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = i
        table[i][top] = top
        table[top][i] = top
    return validate_semilattice(table)


def diamond(k: int) -> FiniteSemilattice:
    """Bottom, k incomparable atoms, top.  k=3 is the diamond lattice."""
    B, _ = adjoin_bottom(atoms_with_top(k))
    return B


def pinched_tripod_cover() -> tuple[FiniteSemilattice, "SLatMorphism"]:
    """The smallest surjection onto the 3-atom tripod with no section.

    Five elements a, b <= t <= t', c <= t' with a v b = t and
    a v c = b v c = t'; collapsing t and t' covers the tripod, and the
    unique generator-wise preimage fails to preserve joins (t != t').
    Every proper cover of the tripod by at most four elements splits, so
    this is the minimal witness that the tripod is not projective.
    """
    order = {(0, 3), (1, 3), (2, 4), (0, 4), (1, 4), (3, 4)}

    def leq(x, y):
        return x == y or (x, y) in order

    table = [[0] * 5 for _ in range(5)]
    for x in range(5):
        for y in range(5):
            ups = [z for z in range(5) if leq(x, z) and leq(y, z)]
            least = [u for u in ups if all(leq(u, v) for v in ups)]
            table[x][y] = least[0]
    A = validate_semilattice(table)
    # surjective: the map hits all four elements of the tripod
    return A, SLatMorphism(A, atoms_with_top(3), (0, 1, 2, 3, 3))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def adjoin_bottom(A: FiniteSemilattice) -> tuple[FiniteSemilattice, SLatMorphism]:
    """1*A: a fresh bottom (index 0) below a shifted copy of A."""
    n = A.size
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        table[0][j] = j
        table[j][0] = j
    for i in range(n):
        for j in range(n):
            table[i + 1][j + 1] = A.join[i][j] + 1
    B = validate_semilattice(table)
    incl = SLatMorphism(A, B, tuple(i + 1 for i in range(n)))
    return B, incl


def free_on_generators(k: int) -> tuple[FiniteSemilattice, tuple[int, ...]]:
    """Free semilattice on k generators: nonempty subsets under union.

    Returns the algebra and the unit (index of {i} for each generator i).
    """
    if k < 1:
        raise InvalidInput(f"a free semilattice needs k >= 1 generators, got {k}")
    if 2**k - 1 > FREE_SIZE_CAP:
        raise SizeBudget(f"free semilattice has {2**k - 1} elements")
    subsets = sorted(
        (frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(range(k), r)),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    index = {s: i for i, s in enumerate(subsets)}
    table = [
        [index[s | t] for t in subsets]
        for s in subsets
    ]
    F = validate_semilattice(table)
    unit = tuple(index[frozenset([i])] for i in range(k))
    return F, unit


# ---------------------------------------------------------------------------
# hom enumeration
# ---------------------------------------------------------------------------


def enumerate_homs(
    A: FiniteSemilattice,
    B: FiniteSemilattice,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> list[SLatMorphism]:
    """All join-preserving maps A -> B, lexicographic on map arrays.

    A morphism is determined by its values on the join-irreducibles of A,
    so candidates are assigned only there (for a cube this specializes to
    the free parametrization: a bottom image plus generator images above
    it).  `_generator_homs` validates each once, on the joins that can
    fail, which makes the enumeration exact for arbitrary A.  Raises
    CandidateSpaceExceeded once the search has tried more candidate
    values than the budget, rejected ones included.
    """
    candidates = [range(B.size)] * len(_generators(A))
    return sorted(_generator_homs(A, B, candidates, budget), key=lambda f: f.map)


def _generators(A: FiniteSemilattice) -> list[int]:
    """The join-irreducibles of A, each after every irreducible below it."""
    return sorted(A.irreducibles, key=lambda g: (len(A.down_set(g)), g))


def _generator_homs(A: FiniteSemilattice, B: FiniteSemilattice, candidates, budget=math.inf):
    """The morphisms A -> B whose value on the k-th of `_generators(A)` is
    drawn from candidates[k], in generator order: each monotone assignment
    that preserves joins on the open pairs of A, tested inside the search,
    is extended by joins.  That test is where an enumerated morphism is
    validated; the morphisms yielded skip the constructor's check."""
    gens = _generators(A)
    below = [[j for j in range(k) if A.leq(gens[j], g)] for k, g in enumerate(gens)]
    gens_below = [[k for k, g in enumerate(gens) if A.leq(g, x)] for x in range(A.size)]
    join = B.join

    def value(vals, ks):
        """m(x) = the join of vals[k] over ks = gens_below[x]."""
        v = vals[ks[0]]
        for k in ks:
            v = join[v][vals[k]]
        return v

    def test(group):
        return lambda vals: all(
            value(vals, c) == join[value(vals, a)][value(vals, b)] for a, b, c in group
        )

    # m(x) v m(y) is the join over gens_below[x] | gens_below[y], a subset of
    # gens_below[x v y].  Where the two sets are equal, m(x v y) = m(x) v m(y)
    # holds for every assignment.  Only the other, open, pairs can fail, and
    # each is tested as soon as the last generator below x v y is assigned,
    # so every leaf preserves every join.  A distributive lattice such as a
    # cube has no open pair: an irreducible below x v y is below x or y.
    groups = [[] for _ in gens]
    for x, y in itertools.combinations(range(A.size), 2):
        kx, ky, kj = gens_below[x], gens_below[y], gens_below[A.join[x][y]]
        if len(kj) > len({*kx, *ky}):
            groups[kj[-1]].append((kx, ky, kj))
    tests = [test(g) if g else None for g in groups]
    for vals in MonotoneAssignments(B.order, below, [()] * len(gens), candidates, tests, budget):
        m = []  # value(vals, ks) inlined: the leaf is the hot loop
        for ks in gens_below:
            v = vals[ks[0]]
            for k in ks:
                v = join[v][vals[k]]
            m.append(v)
        yield SLatMorphism._trusted(A, B, tuple(m))


def all_functions_homs(A: FiniteSemilattice, B: FiniteSemilattice) -> list[tuple[int, ...]]:
    """Literal brute force: filter every function A -> B, as map tuples."""
    if B.size**A.size > BRUTE_FORCE_CAP:
        raise CandidateSpaceExceeded(f"{B.size}^{A.size} functions")
    # x v x = x holds in any B, so only pairs x < y are checked, those
    # with the latest element first
    pairs = [(x, y, A.join[x][y]) for x, y in itertools.combinations(range(A.size), 2)]
    pairs.sort(key=max, reverse=True)
    join, out = B.join, []
    for m in itertools.product(range(B.size), repeat=A.size):
        for x, y, j in pairs:
            if m[j] != join[m[x]][m[y]]:
                break
        else:
            out.append(m)
    return out


def backtrack_homs(
    A: FiniteSemilattice,
    B: FiniteSemilattice,
) -> list[tuple[int, ...]]:
    """Element-wise backtracking enumeration of join-preserving maps.

    Independent of the generator parametrization: assigns f(x) for every
    element in index order, pruning as soon as an already-decidable
    instance of f(x v y) = f(x) v f(y) fails.  Returns raw map tuples.
    """
    n, join = A.size, B.join
    # the pairs x <= y decided at k: the last of x, y and x v y assigned is k
    decided: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            j = A.join[x][y]
            decided[max(y, j)].append((x, y, j))
    # vals[k] is the value tried at element k, the last one the element
    # being assigned; a loop rather than a recursion, as in
    # MonotoneAssignments
    out: list[tuple[int, ...]] = []
    vals = [-1]
    while vals:
        k = len(vals) - 1
        vals[k] += 1
        if vals[k] == B.size:
            vals.pop()
            continue
        for x, y, j in decided[k]:
            if vals[j] != join[vals[x]][vals[y]]:
                break
        else:
            if k + 1 == n:
                out.append(tuple(vals))
            else:
                vals.append(-1)
    return out


def lift_through_surjection(
    A: FiniteSemilattice,
    e: SLatMorphism,
    f: SLatMorphism,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> SLatMorphism | None:
    """First h: A -> dom(e) with e o h = f, or None if no lift exists.

    Search assigns candidate values only on the join-irreducibles of A and
    only inside the e-fibre of the required value, then verifies that the
    join extension is a morphism; the composite equation then holds
    automatically.  Raises InvalidInput unless e and f share a codomain.
    """
    if e.cod != f.cod:
        raise InvalidInput("a lift needs e and f to share a codomain")
    fibres = [[v for v in range(e.dom.size) if e.map[v] == f.map[g]] for g in _generators(A)]
    for h in _generator_homs(A, e.dom, fibres, budget):
        if h.then(e).map == f.map:
            return h
    return None


# ---------------------------------------------------------------------------
# factorization, quotients, predicates
# ---------------------------------------------------------------------------


def sub_semilattice(A: FiniteSemilattice, elems) -> tuple[FiniteSemilattice, SLatMorphism]:
    """The sub-semilattice on a join-closed subset, with its inclusion."""
    elems = tuple(sorted(elems))
    pos = {v: i for i, v in enumerate(elems)}
    table = tuple(tuple(pos[A.join[x][y]] for y in elems) for x in elems)
    S = validate_semilattice(table)
    return S, SLatMorphism(S, A, elems)


def image_factorize(f: SLatMorphism) -> tuple[SLatMorphism, SLatMorphism]:
    """Factor f as a surjection onto its image followed by an injection."""
    I, mono = sub_semilattice(f.cod, f.image())
    pos = {v: i for i, v in enumerate(mono.map)}
    return SLatMorphism(f.dom, I, tuple(pos[v] for v in f.map)), mono


@dataclass(frozen=True)
class DistributivityVerdict:
    ok: bool
    reason: str  # 'distributive' | 'no-bottom' | 'violation'

    def __bool__(self) -> bool:
        return self.ok


def is_distributive_lattice(A: FiniteSemilattice) -> DistributivityVerdict:
    """Distributivity of the derived lattice; False with a reason otherwise.

    A finite join-semilattice is a lattice iff it has a bottom, in which
    case meets are joins of common lower bounds.
    """
    if A.bottom is None:
        return DistributivityVerdict(False, "no-bottom")
    n = A.size
    meet = [[A.meet_of(x, y) for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = meet[x][A.join[y][z]]
                rhs = A.join[meet[x][y]][meet[x][z]]
                if lhs != rhs:
                    return DistributivityVerdict(False, "violation")
    return DistributivityVerdict(True, "distributive")


def quotient_by_pairs(A: FiniteSemilattice, pairs) -> SLatMorphism:
    """Projection onto A modulo the least congruence containing the given
    pairs.

    A congruence is fixed by its closed elements, the greatest element of
    each class.  Those of the least one, theta, are the s that separate no
    pair (x <= s exactly when y <= s): a closed element of theta separates
    none, and for such an s the congruence {below s, not below s} holds
    the pairs, hence theta, so s is the greatest of its theta-class.  They
    are closed under the meets that exist and hold the top, so every x has
    a least one above it."""
    pairs = list(pairs)
    leq = A.order
    M = [s for s in range(A.size) if all(leq[x][s] == leq[y][s] for x, y in pairs)]
    return quotient_by_closed(A, M)


def quotient_by_closed(A: FiniteSemilattice, M) -> SLatMorphism | None:
    """The projection of A onto its quotient with closed elements M, the
    i-th of them its element i: x goes to the least element c(x) of M
    above it, and the join of m and m' is c(m v m').  None when M is not
    closed, that is, when some x has no least element of M above it."""
    c = least_above(A, M)
    if c is None:
        return None
    pos = {m: i for i, m in enumerate(M)}
    Q = validate_semilattice([[pos[c[A.join[x][y]]] for y in M] for x in M])
    return SLatMorphism(A, Q, tuple(pos[c[x]] for x in range(A.size)))


# ---------------------------------------------------------------------------
# canonical forms and enumeration up to isomorphism
# ---------------------------------------------------------------------------


def _color_classes(A: FiniteSemilattice) -> list[list[int]]:
    """Partition elements by an iterated order-invariant refinement."""
    n = A.size
    up_covers = [[] for _ in range(n)]
    down_covers = [[] for _ in range(n)]
    for x, y in A.covers:
        up_covers[x].append(y)
        down_covers[y].append(x)
    color = [
        (
            len(A.up_set(x)),
            len(A.down_set(x)),
            len(up_covers[x]),
            len(down_covers[x]),
            x == A.top,
            x == A.bottom,
        )
        for x in range(n)
    ]
    while True:
        refined = [
            (
                color[x],
                tuple(sorted(color[y] for y in up_covers[x])),
                tuple(sorted(color[y] for y in down_covers[x])),
            )
            for x in range(n)
        ]
        if len(set(refined)) == len(set(color)):
            color = refined
            break
        color = refined
    classes: dict = {}
    for x in range(n):
        classes.setdefault(color[x], []).append(x)
    return [classes[c] for c in sorted(classes)]


def _class_respecting_perms(classes: list[list[int]]):
    """All permutations (new -> old) laying out each class contiguously."""
    pools = [list(itertools.permutations(c)) for c in classes]
    for combo in itertools.product(*pools):
        yield tuple(x for block in combo for x in block)


def canonical_form(A: FiniteSemilattice) -> JoinTable:
    """Join table invariant under any relabeling of elements: the least
    of A's tables relabelled by a class-respecting permutation, itself the
    join table of a semilattice isomorphic to A."""
    n = A.size
    best = None
    for perm in _class_respecting_perms(_color_classes(A)):
        inv = [0] * n
        for new, old in enumerate(perm):
            inv[old] = new
        table = tuple(
            tuple(inv[A.join[perm[i]][perm[j]]] for j in range(n)) for i in range(n)
        )
        if best is None or table < best:
            best = table
    return best


def are_isomorphic(A: FiniteSemilattice, B: FiniteSemilattice) -> bool:
    if A.size != B.size:
        return False
    return canonical_form(A) == canonical_form(B)


def find_isomorphism(
    A: FiniteSemilattice, B: FiniteSemilattice
) -> SLatMorphism | None:
    """The first isomorphism A -> B that the generator search finds, or
    None.

    Independent of the canonical form machinery; used to cross-check it and
    to produce explicit isos.  An iso keeps color classes and is determined
    by its values on the join-irreducibles, so each irreducible of A draws
    its candidates from its color class in B.
    """
    ca, cb = _color_classes(A), _color_classes(B)
    if [len(c) for c in ca] != [len(c) for c in cb]:
        return None
    cls = {x: i for i, c in enumerate(ca) for x in c}
    candidates = [cb[cls[g]] for g in _generators(A)]
    return next((f for f in _generator_homs(A, B, candidates) if f.is_iso), None)


def least_above(A: FiniteSemilattice, S) -> tuple[int, ...] | None:
    """For each x of A, the least element of the subset S above x, or None
    when some x has none.  S is closed when none is missing: x -> c[x] is
    then the closure operator whose fixed points are S."""
    leq = A.order
    out = []
    for x in range(A.size):
        above = [s for s in S if leq[x][s]]
        least = [s for s in above if all(leq[s][t] for t in above)]
        if not least:
            return None
        out.append(least[0])
    return tuple(out)


def enumerate_semilattices(n: int) -> list[FiniteSemilattice]:
    """All inhabited join-semilattices of size n <= 6, one per iso class,
    sorted by canonical join table.

    Removing a minimal element leaves a sub-semilattice, so each class of
    size k is a one-point extension of a class L of size k - 1 by a new
    minimal element x: one per closed up-set U of L, with x v b the least
    element of U above b.  The classes are grown size by size from the
    one-element semilattice, the extensions of each size deduplicated by
    canonical form.
    """
    if n > 6:
        raise SizeBudget("semilattice enumeration capped at size 6")
    if n < 1:
        raise InvalidInput(f"semilattices need n >= 1 elements, got {n}")
    level = [validate_semilattice([[0]])]
    for k in range(2, n + 1):
        seen: set[JoinTable] = set()
        for L in level:
            for r in range(1, k):
                for U in itertools.combinations(range(k - 1), r):
                    if not all(y in U for u in U for y in L.up_set(u)):
                        continue
                    c = least_above(L, U)
                    if c is None:
                        continue
                    rows = [row + (c[b],) for b, row in enumerate(L.join)]
                    seen.add(canonical_form(validate_semilattice([*rows, (*c, k - 1)])))
        level = [FiniteSemilattice(cf) for cf in sorted(seen)]
    return level


def all_semilattices_upto(n: int) -> list[FiniteSemilattice]:
    """Representatives of every iso class of size 1..n, smallest first."""
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_semilattices(k))
    return out
