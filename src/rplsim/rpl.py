"""Simplified RPL control plane: hop-count ranks, parent selection, blacklist.

Rank is the hop distance from the DODAG root (root = 0). A node's rank is
always re-derived as (parent's advertised rank) + 1 when a parent is
selected, which keeps rank differences between honest neighbors within 1
and makes the detector's benign case provably silent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import UnreachableNode
from .topology import Topology


@dataclass(slots=True)
class RoutingState:
    """Per-node routing state: own rank, selected parent, the stored rank
    gap to the parent (dv_rank), and the local blacklist."""

    node_id: int
    my_rank: int = 0
    parent_id: Optional[int] = None
    dv_rank: Optional[int] = None
    blacklist: set = field(default_factory=set)


def assign_initial_ranks(topology: Topology) -> list[int]:
    """Breadth-first hop distances from the root.

    Models clean deployment: every node's rank is correct before any
    attacker starts lying. Raises UnreachableNode if some node cannot be
    reached from the root.
    """
    n = topology.node_count
    ranks = [-1] * n
    ranks[topology.root_id] = 0
    queue = deque([topology.root_id])
    while queue:
        u = queue.popleft()
        next_rank = ranks[u] + 1
        for v in topology.adjacency[u]:
            if ranks[v] < 0:
                ranks[v] = next_rank
                queue.append(v)
    if min(ranks) < 0:
        missing = [i for i, r in enumerate(ranks) if r < 0]
        raise UnreachableNode("nodes unreachable from root: %s" % missing)
    return ranks


def select_parent(
    state: RoutingState,
    neighbor_ranks: dict[int, int],
    loop_guard: Optional[Callable[[int], bool]] = None,
) -> None:
    """Pick the non-blacklisted neighbor with minimum advertised rank.

    The incumbent parent wins rank ties (stickiness; without it a node of
    rank 1 could be lured off the root by a forged rank equal to the
    root's, and the root's whole first ring would follow). Among other
    candidates ties break toward the lowest node id. The node's own rank
    is refreshed to parent + 1 (hop-count objective) and dv_rank is stored
    per the rank gap to the chosen parent. ``loop_guard(candidate)`` must
    return False for candidates that would create a routing loop (i.e.
    candidates in the node's own sub-DODAG); such candidates are skipped
    to keep the parent graph a forest. With no candidate left the node
    becomes an orphan: parent and dv_rank are None, and its rank is kept.
    """
    blacklist = state.blacklist
    incumbent = state.parent_id
    best = None
    for nid, rank in neighbor_ranks.items():
        if nid in blacklist:
            continue
        key = (rank, nid != incumbent, nid)
        if best is None or key < best:
            if loop_guard is not None and not loop_guard(nid):
                continue
            best = key
    if best is None:
        state.parent_id = None
        state.dv_rank = None
        return
    rank, _, parent = best
    state.parent_id = parent
    state.my_rank = rank + 1
    state.dv_rank = abs(rank - state.my_rank)

