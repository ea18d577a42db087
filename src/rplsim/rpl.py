"""Simplified RPL control plane: hop-count parent selection.

Rank is the hop distance from the DODAG root (root = 0). The initial ranks
are ``topology.hop_counts`` from the root, taken in engine setup. A node's
rank is re-derived as (parent's advertised rank) + 1 whenever a parent is
selected, which keeps rank differences between honest neighbors within 1
and makes the detector's benign case provably silent. The routing state
(rank, parent, blacklist, neighbor table) lives on the engine's node.
"""

from __future__ import annotations


def select_parent(node, nodes) -> None:
    """Pick the least-rank entry of ``node.table`` (neighbor -> rank).

    The incumbent parent wins rank ties (stickiness; without it a node of
    rank 1 could be lured off the root by a forged rank equal to the
    root's, and the root's whole first ring would follow). Among other
    candidates ties break toward the lowest node id. The node's rank is
    refreshed to parent + 1 (hop-count objective), so its gap to the
    parent, dv_rank, is always one hop and is not stored. A candidate whose
    parent chain in ``nodes`` reaches the node (its own sub-DODAG) or runs
    past ``len(nodes)`` steps is skipped, which keeps the parent graph a
    forest. With no candidate left the node becomes an orphan: its parent
    is None and its rank is kept.

    The table never holds a blacklisted neighbor, so the blacklist is not
    read. The least entry (lowest rank, then the incumbent, then the
    lowest id) is found with no key built per entry; one that loops is
    dropped from a copy of the table and the next least entry taken.
    """
    table, incumbent, me = node.table, node.parent, node.id
    while table:
        rank = min(table.values())
        nid = (incumbent if table.get(incumbent) == rank
               else min([k for k, r in table.items() if r == rank]))
        if _loop_free(nid, me, nodes):
            node.rank, node.parent = rank + 1, nid
            return
        if table is node.table:
            table = dict(table)
        del table[nid]
    node.parent = None


def _loop_free(nid, me, nodes) -> bool:
    """Whether ``nid``'s parent chain ends within ``len(nodes)`` steps, avoiding ``me``."""
    u, steps, limit = nid, 0, len(nodes)
    while u is not None and u != me and steps <= limit:
        u = nodes[u].parent
        steps += 1
    return u is None
