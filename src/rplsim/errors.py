"""Exception types shared across the simulator."""


class RplSimError(Exception):
    """Base class for all rplsim errors."""


class InvalidConfig(RplSimError):
    """A scenario configuration violates its invariants or schema."""


class ConnectivityFailure(RplSimError):
    """Topology generation could not produce a connected graph.

    Raised after the bounded number of re-samples; usually means the
    node density is too low for the transmission range.
    """


class UnreachableNode(RplSimError):
    """A node cannot be reached from the root during rank assignment."""


class NoParentAvailable(RplSimError):
    """A node has no eligible (non-blacklisted, loop-free) parent candidate."""


class InvalidAlpha(RplSimError):
    """EWMA smoothing factor outside (0, 1]."""


class UnknownNeighbor(RplSimError):
    """No moving-average samples exist for the queried neighbor."""


class ZeroDuration(RplSimError):
    """Throughput requested over an empty or negative time window."""


class EngineStall(RplSimError):
    """Event queue drained before the simulation horizon (internal bug guard)."""
