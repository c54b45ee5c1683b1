"""Exception types shared across the package."""

from __future__ import annotations


class ReedyLabError(Exception):
    """Base class for all package errors."""


class ViolatedLaw(ReedyLabError):
    """A join table, a morphism or a composition table breaks a law.

    `law` is 'square', 'range', 'commutativity', 'associativity' or
    'idempotence' for a join table; 'square', 'reflexivity',
    'antisymmetry' or 'transitivity' for the order matrix of a poset;
    'length', 'range' or 'join-preservation' for a morphism,
    'composability' for composing two maps that do not meet and
    'invertibility' for inverting a map that is not an iso;
    'composition-closure' when a composite in a category is not among the
    enumerated maps of its hom-set;
    'length', 'range', 'unit' or 'functoriality' for a presheaf; 'base',
    'length', 'range' or 'naturality' for a presheaf morphism;
    'square-shape' for a category's square of morphism ids whose maps do
    not meet; 'span-apex' for a span whose two legs leave
    different apexes; 'length', 'range' or 'monotonicity' for a crown
    map, and 'length' or 'monotonicity' for a monotone map of cubes.
    `witness` is the offending index or morphism tuple.

    Certified facts that the constructions rely on raise it too:
    'well-definedness' when a map induced on a quotient is not constant on
    a class (latching maps, automorphism and presheaf quotients);
    'degree-drop' when postcomposition raises
    a map's degree; 'ez-existence' when an element has no EZ decomposition;
    'sub-presheaf-closure' when a restriction raises an element's EZ
    degree, so that some skeleton is not a sub-presheaf;
    'skeleton-landing' when a leg of a cell square leaves its
    skeleton; 'pushout-closure' when a lowering pushout leaves the object
    set, or when no lowering map out of the apex realizes the kernel the
    span's two legs join to; 'forced-lift-step' when a crown map or a
    composite of crown maps does not lift step by step to the fence;
    'base-point-independence' when moving a crown map's base point by a
    turn does not move its whole lift by that turn; 'closed-window' when
    the ends of a caller-built lift differ by a non-multiple of the turn,
    so that its winding is not an integer; 'top' when
    a validated join table has an element outside the join of all;
    'lift-existence' when the identity of a distributive lattice does not
    lift through its cube retraction.  A suite reports any of them as one
    failed check whose witness is {"law", "witness"}.
    """

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"violated {law} at {witness}")


def outcome_value(outcome):
    """A result held as a value, or the ViolatedLaw its computation broke,
    raised here: a walk over held outcomes stops where the law is read."""
    if isinstance(outcome, ViolatedLaw):
        raise outcome
    return outcome


class EmptyCarrier(ReedyLabError):
    """Semilattices must be inhabited."""


class SizeBudget(ReedyLabError):
    """A requested object exceeds the configured size cap."""


class CandidateSpaceExceeded(ReedyLabError):
    """A map search tries more candidates than its budget, or a brute-force
    filter would try more functions than its cap."""


class NotSurjective(ReedyLabError):
    """A map that must be a surjection is not: a leg of a lowering span,
    or the map a projective lift goes through."""


class NotIdempotent(ReedyLabError):
    """Idempotent splitting applied to a map with f*f != f."""


class NotDistributive(ReedyLabError):
    """A construction requiring a distributive lattice got a non-example."""


class UnknownSuite(ReedyLabError):
    """Requested certification suite is not registered."""


class InvalidInput(ReedyLabError):
    """A configuration or command-line value is out of range."""
