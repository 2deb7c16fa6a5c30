"""Exception hierarchy shared by all Quaestor reproduction subsystems."""

from __future__ import annotations


class QuaestorError(Exception):
    """Base class for every error raised by the reproduction."""


class InvalidQueryError(QuaestorError):
    """A query document or predicate is malformed or uses unknown operators."""


class UnsupportedOperationError(QuaestorError):
    """The operation is valid MongoDB/SQL but outside Quaestor's scope.

    The paper explicitly excludes joins and aggregations from InvaliDB's
    matching pipeline (Section 4.1, *Scope*); such queries raise this error
    instead of being silently served uncached.
    """


class DocumentNotFoundError(QuaestorError):
    """A read or update referenced a primary key that does not exist."""


class DuplicateKeyError(QuaestorError):
    """An insert used a primary key that already exists in the collection."""


class CollectionNotFoundError(QuaestorError):
    """An operation referenced a collection that has not been created."""


class CapacityExceededError(QuaestorError):
    """InvaliDB admission control rejected a query registration.

    Raised when the capacity management model decides a query is not worth
    caching given the currently available matching capacity.
    """


class ShardUnavailableError(QuaestorError):
    """The node a request routed to is down and no failover target can serve it.

    Raised inside the replication layer when a shard's primary has crashed
    and no replica is eligible for the requested consistency level (strong
    reads and writes always need the primary).  The cluster facade converts
    this into a structured 503 response at its boundary, so callers above the
    deployment layer observe a degraded response instead of an exception.
    """


class TransactionAbortedError(QuaestorError):
    """Optimistic concurrency-control validation failed at commit time."""


class StalenessBoundViolatedError(QuaestorError):
    """A consistency audit detected a read staler than the configured bound."""


class CacheCoherenceError(QuaestorError):
    """Internal invariant of the cache coherence machinery was violated."""


class ConfigurationError(QuaestorError):
    """A component was configured with inconsistent or out-of-range values."""


class UnsupportedFaultError(ConfigurationError):
    """A fault plan names a target the injector cannot resolve.

    Raised by :class:`~repro.faults.plan.FaultEvent` when a target or peer
    matches neither the ``shard:<id>`` role grammar nor the
    ``s<shard>:n<index>`` node grammar.  Subclass of
    :class:`ConfigurationError` so validation-oriented callers catch it.
    """
