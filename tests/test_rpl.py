import random

import pytest

from conftest import chain_topology, star_topology, tiny_cfg
from rplsim.engine import Engine
from rplsim.errors import UnreachableNode
from rplsim.rpl import RoutingState, assign_initial_ranks, select_parent
from rplsim.scenario import ScenarioConfig
from rplsim.topology import Topology, generate_topology


class TestAssignInitialRanks:
    def test_single_hop(self):
        topo = chain_topology(2)
        assert assign_initial_ranks(topo) == [0, 1]

    def test_chain_matches_hop_count(self):
        # Line of five: the fourth node sits three hops out, its child four.
        topo = chain_topology(5)
        ranks = assign_initial_ranks(topo)
        assert ranks[3] == 3
        assert ranks[4] == 4

    def test_star_all_leaves_rank_one(self):
        topo = star_topology(7)
        assert assign_initial_ranks(topo) == [0] + [1] * 7

    def test_disconnected_raises(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)], root_id=0)
        with pytest.raises(UnreachableNode):
            assign_initial_ranks(topo)

    def test_bfs_neighbor_property_on_random_topologies(self):
        # Adjacent nodes never differ by more than one hop in rank.
        for seed in (1, 2, 3):
            topo = generate_topology(ScenarioConfig(node_count=60, seed=seed))
            ranks = assign_initial_ranks(topo)
            for u in range(topo.node_count):
                for v in topo.adjacency[u]:
                    assert abs(ranks[u] - ranks[v]) <= 1


class TestSelectParent:
    def test_min_rank_tie_breaks_to_lowest_id(self):
        state = RoutingState(node_id=9, my_rank=3)
        select_parent(state, {30: 2, 20: 2, 40: 3})
        assert state.parent_id == 20
        assert state.my_rank == 3
        assert state.dv_rank == 1

    def test_blacklisted_candidates_skipped(self):
        state = RoutingState(node_id=9, my_rank=3, blacklist={5})
        select_parent(state, {5: 0, 7: 2})
        assert state.parent_id == 7

    def test_single_candidate_sets_dv_rank(self):
        # Node of rank 4 selecting a rank-3 parent stores a gap of one.
        state = RoutingState(node_id=9, my_rank=4)
        select_parent(state, {8: 3})
        assert state.parent_id == 8
        assert state.dv_rank == 1

    def test_incumbent_parent_wins_ties(self):
        # A forged rank equal to the incumbent's must not steal the node.
        state = RoutingState(node_id=9, my_rank=1, parent_id=50)
        select_parent(state, {50: 0, 3: 0})
        assert state.parent_id == 50
        # Strictly better candidates still win.
        state = RoutingState(node_id=9, my_rank=2, parent_id=50)
        select_parent(state, {50: 1, 3: 0})
        assert state.parent_id == 3

    def test_loop_guard_excludes_descendants(self):
        state = RoutingState(node_id=9, my_rank=3)
        select_parent(state, {4: 1, 6: 2}, loop_guard=lambda c: c != 4)
        assert state.parent_id == 6

    def test_no_candidates_raises(self):
        # Nothing is raised: with no candidate left the node is an orphan.
        state = RoutingState(node_id=9, my_rank=3, parent_id=1, dv_rank=1, blacklist={1})
        select_parent(state, {1: 2})
        assert (state.parent_id, state.dv_rank, state.my_rank) == (None, None, 3)

    def test_rank_refreshes_from_parent(self):
        state = RoutingState(node_id=9, my_rank=6)
        select_parent(state, {2: 2})
        assert state.my_rank == 3


def blacklisting_node(table, **state):
    """Node 3 of an engine over a star rooted at 0, with the given routing
    state and neighbor table. Every other leaf's parent is the root, so the
    loop guard passes them all."""
    eng = Engine(tiny_cfg(node_count=12), topology=star_topology(11), record_events=True)
    node = eng.nodes[3]
    node.rt = RoutingState(node_id=3, my_rank=2, **state)
    node.table = table
    return eng, node


class TestApplyBlacklistBroadcast:
    # Through Engine._apply_blacklist, the one way a node blacklists.
    def test_merges_suspects(self):
        eng, node = blacklisting_node({1: 1, 5: 2}, parent_id=1)
        eng._apply_blacklist(1.0, node, {8})
        assert node.rt.blacklist == {8}
        assert node.rt.parent_id == 1

    def test_reparents_when_parent_is_suspect(self):
        eng, node = blacklisting_node({1: 1, 5: 1, 6: 2}, parent_id=1, dv_rank=1)
        eng._apply_blacklist(1.0, node, {1})
        assert node.rt.parent_id == 5
        assert 1 not in node.table
        assert node.rt.my_rank == 2
        assert eng.evlog == [("parent_change", 1.0, 3, 1, 5, 2)]

    def test_idempotent(self):
        eng, node = blacklisting_node({5: 1}, parent_id=5, dv_rank=1, blacklist={8})
        before = RoutingState(node_id=3, my_rank=2, parent_id=5, dv_rank=1, blacklist={8})
        eng._apply_blacklist(1.0, node, {8})
        assert node.rt == before
        assert node.table == {5: 1}

    def test_orphan_when_no_candidate_remains(self):
        eng, node = blacklisting_node({1: 1}, parent_id=1)
        eng._apply_blacklist(1.0, node, {1})
        assert node.rt.parent_id is None
        assert node.rt.dv_rank is None

    def test_blacklist_never_shrinks(self):
        eng, node = blacklisting_node({5: 1, 6: 1, 7: 2}, parent_id=5)
        seen = set()
        rng = random.Random(1)
        for _ in range(50):
            suspect = rng.choice([8, 9, 10, 11])
            seen.add(suspect)
            eng._apply_blacklist(1.0, node, {suspect})
            assert node.rt.blacklist == seen
