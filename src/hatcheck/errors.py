"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own
class, so the CLI can map exceptions to exit codes without string
matching.
"""

from __future__ import annotations


class HatcheckError(Exception):
    """Base class for all package errors."""


class GraphParseError(HatcheckError):
    """Base class for edge-list parse failures."""


class MalformedLineError(GraphParseError):
    pass


class VertexRangeError(GraphParseError):
    pass


class SelfLoopError(GraphParseError):
    pass


class DuplicateEdgeError(GraphParseError):
    pass


class DisconnectedGraphError(HatcheckError):
    """Raised by operations that require a connected input."""


def int_brief(x: int) -> str:
    """x in decimal up to 60 bits, else ~2^k with k = floor(log2 x)."""
    return str(x) if x.bit_length() <= 60 else f"~2^{x.bit_length() - 1}"


class GuardExceededError(HatcheckError):
    """An instance-size guard refused the computation.

    Attributes:
        guard: name of the guard that tripped.
        needed: size the computation would have required (the message
            shows an int past 60 bits as ~2^k).
        limit: configured limit.
    """

    def __init__(self, guard: str, needed, limit) -> None:
        shown = int_brief(needed) if isinstance(needed, int) else needed
        super().__init__(f"guard '{guard}' exceeded: needed {shown}, limit {limit}")
        self.guard = guard
        self.needed = needed
        self.limit = limit


class PremiseViolationError(HatcheckError):
    """An adversary construction found its mathematical premise to be false.

    The witness is machine checkable: depending on the construction it is
    a winning strategy (with its graph and budget) or a subgraph
    embedding.
    """

    def __init__(self, claim: str, witness=None) -> None:
        super().__init__(f"premise violated: {claim}")
        self.claim = claim
        self.witness = witness


class VerificationFailureError(HatcheckError):
    """A defeat claimed by an oracle did not check out."""

    def __init__(self, message: str, strategy=None, assignment=None) -> None:
        super().__init__(message)
        self.strategy = strategy
        self.assignment = assignment


class IndeterminateComparisonError(HatcheckError):
    """Two interval-valued bounds overlap too much to order soundly."""


class InternalError(HatcheckError):
    """An invariant the code relies on failed: a bug, not a bad input."""
