"""Exception types shared across the package."""

from __future__ import annotations


class ReedyLabError(Exception):
    """Base class for all package errors."""


class ViolatedLaw(ReedyLabError):
    """A join table fails one of the semilattice laws.

    `law` is one of 'square', 'range', 'commutativity', 'associativity',
    'idempotence'; `witness` is the offending index tuple.
    """

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"violated {law} at {witness}")


class EmptyCarrier(ReedyLabError):
    """Semilattices must be inhabited."""


class SizeBudget(ReedyLabError):
    """A requested object exceeds the configured size cap."""


class CandidateSpaceExceeded(ReedyLabError):
    """An enumeration's candidate space exceeds the configured budget."""


class NotSurjective(ReedyLabError):
    """A lowering pushout was requested for a non-surjective span leg."""


class NotIdempotent(ReedyLabError):
    """Idempotent splitting applied to a map with f*f != f."""


class NotDistributive(ReedyLabError):
    """A construction requiring a distributive lattice got a non-example."""


class UnknownSuite(ReedyLabError):
    """Requested certification suite is not registered."""


class InvalidInput(ReedyLabError):
    """A configuration or command-line value is out of range."""
