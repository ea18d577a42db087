"""Exception types shared across the simulator."""


class RplSimError(Exception):
    """Base class for all rplsim errors."""


class InvalidConfig(RplSimError):
    """A scenario configuration violates its invariants or schema."""


class ConnectivityFailure(RplSimError):
    """Some node cannot be reached from the root.

    Raised by topology generation after the bounded number of re-samples,
    which usually means the node density is too low for the transmission
    range, and by engine setup for a topology the caller supplies.
    """


class EngineStall(RplSimError):
    """An engine invariant failed (internal bug guard): the event queue
    drained, or a blacklist flood reached a node that had not taken the
    flood before it. A correct run never drains the queue: every node's
    next DIO tick stays queued, even past the horizon."""
