"""Exception hierarchy for the stash-directory reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to distinguish configuration mistakes from protocol
bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised during :meth:`validate` of the config dataclasses, always before
    any simulation state is constructed.
    """


class ProtocolError(ReproError):
    """The coherence protocol reached a state it should never reach.

    This indicates a bug in the protocol engine (or a violated precondition),
    not a user error.  The invariant checkers raise it when a coherence
    invariant is broken.
    """


class InvariantViolation(ProtocolError):
    """A checked coherence invariant does not hold.

    Carries a human-readable description of which invariant failed and the
    block address involved, so test failures point straight at the bug.
    """


class TraceError(ReproError):
    """A trace record or trace file is malformed."""


class DirectoryError(ReproError):
    """A directory organization was used in an unsupported way.

    For example: allocating an entry for a block that is already tracked, or
    freeing an entry that does not exist.
    """


class StatsError(ReproError):
    """A statistics counter was written in a way that would lose a count.

    Raised on a write to a derived (computed, read-only) counter, and on a
    merge into a group that derives counters from its own cells.
    """
