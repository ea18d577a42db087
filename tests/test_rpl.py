import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_topology, handle, star_topology, tiny_cfg, topology_from_edges
from rplsim.detector import DV_RANK
from rplsim.engine import Engine, _Node
from rplsim.errors import ConnectivityFailure
from rplsim.rpl import select_parent
from rplsim.scenario import ScenarioConfig
from rplsim.topology import generate_topology, hop_counts


class TestAssignInitialRanks:
    """The initial ranks are the hop counts from the root, taken in engine setup."""

    def test_single_hop(self):
        topo = chain_topology(2)
        assert hop_counts(topo.adjacency, topo.root_id) == [0, 1]

    def test_chain_matches_hop_count(self):
        # Line of five: the fourth node sits three hops out, its child four.
        cfg = tiny_cfg(node_count=5)
        engine = Engine(cfg, topology=chain_topology(5))
        assert [n.rank for n in engine.nodes] == [0, 1, 2, 3, 4]

    def test_star_all_leaves_rank_one(self):
        topo = star_topology(7)
        assert hop_counts(topo.adjacency, topo.root_id) == [0] + [1] * 7

    def test_disconnected_raises(self):
        topo = topology_from_edges(4, [(0, 1), (2, 3)], root_id=0)
        with pytest.raises(ConnectivityFailure, match=re.escape("[2, 3]")):
            Engine(tiny_cfg(node_count=4), topology=topo)

    def test_bfs_neighbor_property_on_random_topologies(self):
        # Adjacent nodes never differ by more than one hop in rank.
        for seed in (1, 2, 3):
            topo = generate_topology(ScenarioConfig(node_count=60, seed=seed))
            ranks = hop_counts(topo.adjacency, topo.root_id)
            for u in range(topo.node_count):
                for v in topo.adjacency[u]:
                    assert abs(ranks[u] - ranks[v]) <= 1


def routing_node(table, rank, parent=None):
    """Node 9 of 51 nodes, none of which has a parent, so every candidate's
    parent chain ends at once. Returns (node, nodes)."""
    nodes = [_Node(i, i == 0) for i in range(51)]
    node = nodes[9]
    node.table, node.rank, node.parent = table, rank, parent
    return node, nodes


class TestSelectParent:
    def test_min_rank_tie_breaks_to_lowest_id(self):
        node, nodes = routing_node({30: 2, 20: 2, 40: 3}, rank=3)
        select_parent(node, nodes)
        assert node.parent == 20
        assert node.rank == 3
        assert node.rank - node.table[node.parent] == DV_RANK

    def test_blacklisted_candidates_skipped(self):
        # Blacklisting the least-rank parent re-parents leaf 3 of a star, and
        # neither a later selection nor a DIO from the suspect picks it.
        eng = Engine(tiny_cfg(node_count=12), topology=star_topology(11), record_events=True)
        node = eng.nodes[3]
        node.table, node.rank, node.parent = {5: 0, 7: 2}, 2, 5
        eng._blacklist(1.0, node, 5)
        assert (node.parent, node.rank) == (7, 3)
        select_parent(node, eng.nodes)
        assert node.parent == 7
        handle(eng, Engine._on_dio_rx, 2.0, (node.id,), 5, 0)
        assert node.parent == 7 and 5 not in node.table

    def test_single_candidate_sets_dv_rank(self):
        # Node of rank 4 selecting a rank-3 parent has a gap of one.
        node, nodes = routing_node({8: 3}, rank=4)
        select_parent(node, nodes)
        assert node.parent == 8
        assert node.rank - node.table[node.parent] == DV_RANK

    def test_incumbent_parent_wins_ties(self):
        # A forged rank equal to the incumbent's must not steal the node.
        node, nodes = routing_node({50: 0, 3: 0}, rank=1, parent=50)
        select_parent(node, nodes)
        assert node.parent == 50
        # Strictly better candidates still win.
        node, nodes = routing_node({50: 1, 3: 0}, rank=2, parent=50)
        select_parent(node, nodes)
        assert node.parent == 3

    def test_loop_guard_excludes_descendants(self):
        node, nodes = routing_node({4: 1, 6: 2}, rank=3)
        nodes[4].parent = 9  # node 4 sits in node 9's own sub-DODAG
        select_parent(node, nodes)
        assert node.parent == 6

    def test_no_candidates_raises(self):
        # Despite the name, nothing is raised: with an empty table the node
        # becomes an orphan and keeps its rank.
        node, nodes = routing_node({}, rank=3, parent=1)
        select_parent(node, nodes)
        assert (node.parent, node.rank) == (None, 3)

    def test_rank_refreshes_from_parent(self):
        node, nodes = routing_node({2: 2}, rank=6)
        select_parent(node, nodes)
        assert node.rank == 3


def ordered_scan(node, nodes):
    """``select_parent`` as a literal scan: a ``(rank, not incumbent, id)``
    key per candidate, and a chain walk for each key that beats the best."""
    blacklist = node.blacklist
    incumbent = node.parent
    me = node.id
    limit = len(nodes)
    best = None
    for nid, rank in node.table.items():
        if nid in blacklist:
            continue
        key = (rank, nid != incumbent, nid)
        if best is None or key < best:
            u, steps = nid, 0
            while u is not None and u != me and steps <= limit:
                u = nodes[u].parent
                steps += 1
            if u is None:
                best = key
    if best is None:
        node.parent = None
        return
    node.rank = best[0] + 1
    node.parent = best[2]


@st.composite
def routing_states(draw):
    """A node with 1-60 table entries of ranks 0 to at most 3, so ties are
    common, a blacklist of other nodes (a table never holds a blacklisted
    neighbor), and an incumbent that is in the table, not in it, None, or
    blacklisted and so not in it. Every other node's parent is None or any
    node, so a chain may end, reach the node, or cycle past ``len(nodes)``
    steps; with no parentless node, every chain loops."""
    k = draw(st.integers(1, 60))
    n = k + 1 + draw(st.integers(0, 30))
    top_rank = draw(st.integers(0, 3))
    ends = draw(st.sampled_from((0.5, 0.9, 0.0)))  # share of parentless nodes
    blacklisted = draw(st.integers(0, k // 3))
    kind = draw(st.sampled_from(("present", "absent", "none", "blacklisted")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    me = rng.randrange(n)
    others = [i for i in range(n) if i != me]
    ids = rng.sample(others, k)
    nodes = [_Node(i, i == 0) for i in range(n)]
    for u in others:
        nodes[u].parent = None if rng.random() < ends else rng.randrange(n)
    node = nodes[me]
    node.table = {nid: rng.randint(0, top_rank) for nid in ids}
    node.rank = rng.randint(0, 5)
    absent = [i for i in others if i not in node.table]
    node.blacklist = set(rng.sample(absent, min(blacklisted, len(absent))))
    if kind in ("absent", "blacklisted") and absent:
        node.parent = rng.choice(absent)
        if kind == "blacklisted":
            node.blacklist.add(node.parent)
    elif kind == "present":
        node.parent = rng.choice(ids)
    return node, nodes


@settings(max_examples=300)
@given(routing_states())
def test_select_parent_matches_the_ordered_scan(state):
    node, nodes = state
    start = node.parent, node.rank
    ordered_scan(node, nodes)
    expected = node.parent, node.rank
    node.parent, node.rank = start
    select_parent(node, nodes)
    assert (node.parent, node.rank) == expected
